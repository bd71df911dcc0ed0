import argparse
import ast
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from younglab import characters, cli, exactla, forms, sweeps
from younglab.cli import build_parser, main
from younglab.partitions import parse_partition
from younglab.sweeps import SWEEPS
from younglab.tableaux import BijectionCertificate

from oracles import parse_tableau


def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBasicCommands:
    def test_partitions(self, capsys):
        code, out, _ = run_cli(capsys, "partitions", "--n", "4")
        assert code == 0
        assert out.splitlines() == ["4", "3,1", "2,2", "2,1,1", "1,1,1,1"]

    def test_kostka_known_value(self, capsys):
        code, out, _ = run_cli(capsys, "kostka", "--mu", "4,2", "--lambda", "3,2,1")
        assert code == 0
        assert out.strip() == "2"

    def test_ssyt_json_round_trips(self, capsys):
        code, out, _ = run_cli(
            capsys, "ssyt", "--shape", "3,1", "--weight", "1,2,1",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 2
        tabs = [tuple(tuple(r) for r in t) for t in payload["tableaux"]]
        assert tabs == [((1, 2, 2), (3,)), ((1, 2, 3), (2,))]

    def test_bijection_certificate(self, capsys):
        code, out, _ = run_cli(
            capsys, "bijection", "--lambda", "3,2,1", "--rho", "4,1",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["canonical"] is True
        assert len(payload["pairs"]) == 5
        assert [p["removed_symbol"] for p in payload["pairs"]] == [1, 1, 2, 2, 3]
        first = payload["pairs"][0]
        assert parse_tableau("1,1,1,2,2/3") == tuple(
            tuple(r) for r in first["mu_tableau"]
        )

    def test_character_table_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "character-table", "--n", "5", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 5
        identity_row = next(
            c for c in payload["classes"] if c["cycle_type"] == "1,1,1,1,1"
        )
        assert identity_row["class_size"] == 1
        # dimensions at the identity: one per shape, all positive integers
        dims = [int(v) for v in identity_row["values"].values()]
        assert sum(d * d for d in dims) == 120
        for key in payload["partitions"]:
            parse_partition(key)  # round-trip through the library parser


def error_records(err):
    return [r for r in map(json.loads, err.splitlines()) if "error" in r]


class TestVerify:
    @pytest.mark.parametrize("check", tuple(SWEEPS))
    def test_all_checks_pass_small(self, capsys, check):
        code, out, _ = run_cli(capsys, "verify", check, "--max-n", "5")
        assert code == 0
        assert "PASS" in out

    def test_choices_are_the_sweep_table(self):
        assert tuple(SWEEPS) == (
            "theorem1", "youngs-rule", "eq1", "eq2", "lemma1",
            "dimension", "conjugate-twist",
            "statement1", "statement2", "theorem5", "two-row", "transport",
        )
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        check = next(a for a in sub.choices["verify"]._actions if a.dest == "check")
        assert tuple(check.choices) == tuple(SWEEPS)

    def test_counterexample_fails_the_sweep(self, capsys, monkeypatch):
        monkeypatch.setattr(sweeps, "lemma1_check", lambda lam: lam != (2, 1))
        code, out, _ = run_cli(capsys, "verify", "lemma1", "--max-n", "4")
        assert code == 1
        assert out.splitlines() == [
            "lemma1: FAIL (max_n=4)", 'counterexample: {"lambda": [2, 1]}',
        ]
        code, out, _ = run_cli(
            capsys, "verify", "lemma1", "--max-n", "4", "--format", "json"
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["status"] == "fail"
        assert payload["counterexamples"] == [{"lambda": [2, 1]}]
        assert payload["artifact"] == {"shapes_checked": 2 + 3 + 5}

    @pytest.mark.parametrize("check, cap, max_n", [
        ("two-row", "1", None), ("theorem1", "0", None), ("two-row", "1", "1"),
    ])
    def test_cap_below_the_first_degree_is_usage_error(self, capsys, monkeypatch,
                                                       check, cap, max_n):
        monkeypatch.setenv("YOUNGLAB_MAX_N", cap)
        argv = ["verify", check] + ([] if max_n is None else ["--max-n", max_n])
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        errors = error_records(err)
        assert len(errors) == 1 and errors[0]["kind"] == "usage"
        assert f"degree cap {cap} leaves no degree to check" in errors[0]["error"]

    @pytest.mark.parametrize("max_n, cap", [("0", None), ("-3", None), ("4", "3")])
    def test_max_n_out_of_range_is_usage_error(self, capsys, monkeypatch, max_n, cap):
        if cap is not None:
            monkeypatch.setenv("YOUNGLAB_MAX_N", cap)
        code, out, err = run_cli(capsys, "verify", "theorem1", "--max-n", max_n)
        assert code == 2
        assert out == ""
        errors = error_records(err)
        assert len(errors) == 1 and errors[0]["kind"] == "usage"

    @pytest.mark.parametrize("check, cap, max_n", [
        ("theorem5", None, 6), ("statement2", None, 6), ("theorem1", None, 8),
        ("theorem1", "4", 4),
    ])
    def test_default_max_n_is_capped(self, capsys, monkeypatch, check, cap, max_n):
        if cap is not None:
            monkeypatch.setenv("YOUNGLAB_MAX_N", cap)
        code, out, _ = run_cli(capsys, "verify", check, "--format", "json")
        assert code == 0
        assert json.loads(out)["parameters"] == {"max_n": max_n}
        code, out, _ = run_cli(capsys, "verify", check)
        assert out == f"{check}: PASS (max_n={max_n})\n"

    def test_json_report_shape(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "theorem1", "--max-n", "4", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "pass"
        assert payload["counterexamples"] == []
        assert payload["check"] == "theorem1"


class TestLinsysAndFlow:
    def test_linsys_square_case(self, capsys):
        code, out, _ = run_cli(
            capsys, "linsys", "--lambda", "3,1", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["bar_bijective"] and payload["unipotent"]
        assert payload["kernel_dim"] == 0

    def test_polymorphism(self, capsys):
        code, out, _ = run_cli(
            capsys, "polymorphism", "--n", "6", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["feasible"] is True
        assert payload["max_flow"] == payload["required"]


class TestFormsCommand:
    def test_example4(self, capsys):
        code, out, _ = run_cli(
            capsys, "forms", "--check", "example4", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "pass"
        assert payload["even_odd_dims"] == [6, 6]

    def test_example4_fails_on_wrong_dimensions(self, capsys, monkeypatch):
        # every flag still true, but the split is 1+1+3+3+3 and 5+7
        real = cli.example4_check

        def wrong():
            report = real()
            report["dims"] = {**report["dims"], "pair": 1}
            report["even_odd_dims"] = (5, 7)
            return report

        monkeypatch.setattr(cli, "example4_check", wrong)
        code, out, _ = run_cli(capsys, "forms", "--check", "example4")
        assert code == 1
        assert out.startswith("example4: FAIL\n")

    def test_specht(self, capsys):
        code, out, _ = run_cli(
            capsys, "forms", "--check", "specht", "--lambda", "2,1,1",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["rank"] == 3

    def test_two_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "forms", "--check", "two-row", "--n", "6", "--k", "3",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["dims"] == [1, 5, 9, 5]
        assert payload["top_is_shift_invariant"] is True

    def test_missing_flag_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "forms", "--check", "specht")
        assert code == 2
        assert json.loads(err.splitlines()[0])["kind"] == "usage"

    def test_two_row_degree_zero_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "forms", "--check", "two-row", "--n", "0", "--k", "0"
        )
        assert code == 2
        assert out == ""
        errors = error_records(err)
        assert len(errors) == 1 and errors[0]["kind"] == "usage"


class TestErrorsAndDeterminism:
    def test_negative_degree_character_table_is_usage_error(self, capsys):
        # the degree is checked before any arithmetic on it
        code, out, err = run_cli(capsys, "character-table", "--n", "-1")
        assert code == 2
        assert out == ""
        assert err.splitlines()[0] == '{"error": "n must be nonnegative", "kind": "usage"}'
        assert len(error_records(err)) == 1

    def test_bad_weight_names_the_weight(self, capsys):
        code, out, err = run_cli(capsys, "ssyt", "--shape", "2,1", "--weight", "1,,2")
        assert code == 2
        assert out == ""
        assert err.splitlines()[0] == json.dumps({
            "error": "invalid weight '1,,2': invalid literal for int() with base 10: ''",
            "kind": "usage",
        })
        assert len(error_records(err)) == 1

    def test_bad_partition_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "kostka", "--mu", "1,2", "--lambda", "3")
        assert code == 2
        assert json.loads(err.splitlines()[0])["kind"] == "usage"

    def test_unknown_command_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 2

    def test_max_n_cap_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("YOUNGLAB_MAX_N", "3")
        code, _, err = run_cli(capsys, "partitions", "--n", "10")
        assert code == 2
        assert json.loads(err.splitlines()[0])["kind"] == "usage"

    @pytest.mark.parametrize("argv", [
        ("kostka", "--mu", "21", "--lambda", "21"),
        ("ssyt", "--shape", "21", "--weight", "21"),
    ])
    def test_tableaux_over_size_cap_is_usage_error(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("YOUNGLAB_MAX_N", "20")
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        errors = error_records(err)
        assert len(errors) == 1 and errors[0]["kind"] == "usage"

    def test_failed_certificate_check_is_one_error_line(self, capsys, monkeypatch):
        monkeypatch.setattr(BijectionCertificate, "check", lambda self: False)
        code, out, err = run_cli(capsys, "bijection", "--lambda", "3,2,1", "--rho", "4,1")
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        errors = error_records(err)
        assert len(errors) == 1
        assert errors[0]["error"] == "bijection certificate failed verification"
        assert errors[0]["kind"] == "internal"

    def test_span_that_is_not_invariant_is_an_internal_error(self, capsys, monkeypatch):
        original = forms.difference_product_generators
        monkeypatch.setattr(forms, "difference_product_generators",
                            lambda n, l, k: original(n, l, k)[:1])
        code, out, err = run_cli(capsys, "forms", "--check", "two-row", "--n", "4", "--k", "2")
        assert code == 2
        assert out == ""
        errors = error_records(err)
        assert len(errors) == 1 and errors[0]["kind"] == "internal"
        assert "not invariant" in errors[0]["error"]

    def test_failed_orthogonalization_is_an_internal_error(self, capsys, monkeypatch):
        monkeypatch.setattr(characters, "_standard_count", lambda lam: 0)
        characters.multiplicity_table.cache_clear()
        try:
            code, out, err = run_cli(capsys, "character-table", "--n", "4")
        finally:
            characters.multiplicity_table.cache_clear()
        assert code == 2
        assert out == ""
        errors = error_records(err)
        assert len(errors) == 1 and errors[0]["kind"] == "internal"
        assert errors[0]["error"] == "wrong dimension at (4,)"

    def test_negative_multiplicity_is_an_internal_error(self, capsys, monkeypatch):
        real = characters._perm_characters
        # psi^(3, 1) negated pairs to -1 with the trivial character
        monkeypatch.setattr(
            characters, "_perm_characters",
            lambda n: {**real(n), (3, 1): real(n)[(3, 1)].scaled(-1)} if n == 4 else real(n),
        )
        characters.multiplicity_table.cache_clear()
        try:
            code, out, err = run_cli(capsys, "character-table", "--n", "4")
        finally:
            characters.multiplicity_table.cache_clear()
        assert code == 2
        assert out == ""
        errors = error_records(err)
        assert len(errors) == 1 and errors[0]["kind"] == "internal"
        assert errors[0]["error"] == "bad multiplicity at ((4,), (3, 1))"

    def test_unexpected_exception_is_one_internal_error_line(self, capsys, monkeypatch):
        def broken(mu, lam):
            raise RuntimeError("broken on purpose")

        monkeypatch.setattr(cli, "kostka", broken)
        code, out, err = run_cli(capsys, "kostka", "--mu", "2,1", "--lambda", "2,1")
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        errors = error_records(err)
        assert len(errors) == 1 and errors[0]["kind"] == "internal"
        assert errors[0]["error"].startswith("RuntimeError: broken on purpose (at ")

    def test_stdout_byte_identical_across_runs(self, capsys):
        _, first, _ = run_cli(
            capsys, "character-table", "--n", "4", "--format", "json"
        )
        _, second, _ = run_cli(
            capsys, "character-table", "--n", "4", "--format", "json"
        )
        assert first == second

    def test_timing_on_stderr_not_stdout(self, capsys):
        _, out, err = run_cli(capsys, "partitions", "--n", "3")
        assert "timing_ms" not in out
        assert any("timing_ms" in line for line in err.splitlines())

    def test_out_flag_writes_file(self, capsys, tmp_path):
        target = tmp_path / "partitions.json"
        code, out, _ = run_cli(
            capsys, "partitions", "--n", "3", "--format", "json",
            "--out", str(target),
        )
        assert code == 0
        assert out == ""
        payload = json.loads(target.read_text())
        assert payload["partitions"] == [[3], [2, 1], [1, 1, 1]]

    def test_unwritable_out_is_io_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.json"
        code, out, err = run_cli(
            capsys, "partitions", "--n", "4", "--out", str(target)
        )
        assert code == 2
        assert out == ""
        errors = error_records(err)
        assert len(errors) == 1 and errors[0]["kind"] == "io"
        assert not target.exists()

    def test_tsv_format(self, capsys):
        code, out, _ = run_cli(capsys, "partitions", "--n", "3", "--format", "tsv")
        assert code == 0
        assert out.splitlines() == ["3", "2,1", "1,1,1"]

    @pytest.mark.parametrize("argv,digest", [
        (("kostka", "--mu", "5,1", "--lambda", "3,2,1"), sha256_hex(
            '{\n  "mu": [\n    5,\n    1\n  ],\n  "lambda": [\n    3,\n    2,\n'
            '    1\n  ],\n  "kostka": 2\n}\n'
        )),
        (("linsys", "--lambda", "3,2,1"),
         "b2e761c3af0e9b61130f28a7f81feb8d1f606911fc39f20e50703f637f41daa8"),
        (("polymorphism", "--n", "5"),
         "96d47c0b0d57f28e532847a6eeed20ba966ebc0ba4c28b74f7e8152440905a93"),
        (("forms", "--check", "example4"),
         "658bf5084d5bdacaf18ba4a9993c18620a582f79e70b7484b3e08445ee577268"),
        (("forms", "--check", "specht", "--lambda", "2,2,1"),
         "db4217aeb5b50008f54a63e13c4e9e4447c8018263e88f86d72d3cdfc5aa4c0b"),
        (("forms", "--check", "specht", "--lambda", "1,1,1,1,1"),
         "d0c042508080554d1ae42d78381bf81b116558bd2db21d6d2c1aa42036b3f3ae"),
        (("forms", "--check", "two-row", "--n", "8", "--k", "4"),
         "875fc2c209e843882e742fca3dece4750cf6da084175aa8cedcb6f7ecc4799f4"),
        (("verify", "two-row", "--max-n", "8"),
         "a4d47c0b94088e8a6a12f34cc4355a9c42f77cce4a61162fa211c4455b2ab7ed"),
        (("verify", "theorem5", "--max-n", "6"),
         "d228fe64c685996e051a673552f244a4c08f27f8ceeb91b2b222a33852fd8919"),
        (("verify", "statement2", "--max-n", "6"),
         "06caa85126dac1e503e6489bb7c332e69a66732e8410c6cc9e9369b1832fc7db"),
        (("character-table", "--n", "8"),
         "7c2e1a139efa6fe64e82b48434df0e605a5686bdaaeb1deeca2e906dd9009621"),
        (("verify", "theorem1", "--max-n", "10"),
         "a73d14be318d09ac8abce4cb8e22bbcf15b8bdad7b1c14d58ef7d6dd11bcfcee"),
        (("verify", "youngs-rule", "--max-n", "8"),
         "82b05eb8d9c81fe6a39c96316ae444b05aa38b8639d870970c4cac4142899048"),
        (("verify", "eq1", "--max-n", "8"),
         "d691fdf89e9958015912c428078722994909a6c91bde208162102ff7ebb3827d"),
        (("ssyt", "--shape", "4,2,1", "--weight", "2,2,2,1"),
         "4b14201d855cfcede26b6666cd912c7583d2fed17e479ab74af29088f462972d"),
        (("bijection", "--lambda", "3,2,1,1", "--rho", "3,2,1"),
         "e9263fbfa43952341472bf93ae0e1aff1e8801cf5687d2b9a070d4f1f5270368"),
    ], ids=["kostka", "linsys", "polymorphism", "example4", "specht", "specht-column",
            "two-row", "verify-two-row", "verify-theorem5", "verify-statement2",
            "character-table", "verify-theorem1",
            "verify-youngs-rule", "verify-eq1", "ssyt", "bijection"])
    def test_golden_json_bytes(self, capsys, argv, digest):
        # frozen byte-level snapshots: SHA-256 of the JSON payload on stdout
        _, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert sha256_hex(out) == digest

    @pytest.mark.parametrize("lam, fmt, digest", [
        ("2,2", "ascii", "479591cd5cc8c8961ec82ab5ee18b4276db5091b62d8c99a2ef183af46c7bfa8"),
        ("2,2", "tsv", "c099c4639aee86b3f7c2509280056545fd915a0b882674153d9fedec3e903e48"),
        ("2,2", "json", "0e8deacff47cbf0c811d1a98273d477e0455273b868a116d25e468c26b5dc546"),
        ("3,3", "ascii", "348da9424a02ad48c4d291dce33bf5cb0597091a7e08213e2386e1949d662b9a"),
        ("3,3", "tsv", "f46cdb9eb5d9f9e16d4676f2e550df69f86cb9dc257610ecddd68f34893983fe"),
        ("3,3", "json", "be3a9e83a404eedf69d113f44e88abe5850ba4b1585c6d9420bb5c79dc3b24b6"),
        ("4,2,2,1", "ascii", "cddccbad3452484eb212af80c200dc93b333e7dbd41afb0ea0d01c877cc79077"),
        ("4,2,2,1", "tsv", "1bd98e8c48272805ec9a24b3cfbe77d2af4ab7760750bc0d7711a1d7edb8802c"),
        ("4,2,2,1", "json", "738323a91b1a72a6298ab8d116edd4277d11976f8341283f99e026f01f72b29f"),
    ])
    def test_linsys_bytes(self, capsys, lam, fmt, digest):
        # non-square systems with a kernel, in every format
        code, out, _ = run_cli(capsys, "linsys", "--lambda", lam, "--format", fmt)
        assert code == 0
        assert sha256_hex(out) == digest


class TestNoDenseMatrix:
    """No command builds a dense ``RationalMatrix``: every system and span
    the library runs on is held as sparse rows."""

    @pytest.mark.parametrize("argv", [
        ["partitions", "--n", "4"],
        ["kostka", "--mu", "3,1", "--lambda", "2,1,1"],
        ["ssyt", "--shape", "3,1", "--weight", "2,1,1"],
        ["bijection", "--lambda", "3,1", "--rho", "2,1"],
        ["character-table", "--n", "4"],
        *(["verify", name, "--max-n", "4"] for name in SWEEPS),
        ["linsys", "--lambda", "2,2"],
        ["polymorphism", "--n", "4"],
        ["forms", "--check", "example4"],
        ["forms", "--check", "statement2", "--lambda", "2,1,1"],
        ["forms", "--check", "specht", "--lambda", "2,1,1"],
        ["forms", "--check", "two-row", "--n", "4", "--k", "2"],
    ], ids=lambda argv: "-".join(a for a in argv[:3] if not a.startswith("--")))
    def test_command_builds_no_dense_matrix(self, capsys, monkeypatch, argv):
        def refuse(*args, **kwargs):
            raise AssertionError("a dense RationalMatrix was built")

        monkeypatch.setattr(exactla.RationalMatrix, "__init__", refuse)
        code, out, err = run_cli(capsys, *argv)
        assert (code, error_records(err)) == (0, [])
        assert out != ""


class TestOptimizedInterpreter:
    """No runtime check relies on ``assert``: under ``python -O`` the same
    commands exit 0 with the same stdout."""

    @pytest.mark.parametrize("argv", [
        ["forms", "--check", "two-row", "--n", "6", "--k", "3", "--format", "json"],
        ["verify", "theorem1", "--max-n", "6"],
        ["verify", "theorem5"],
        ["character-table", "--n", "7"],
        ["verify", "youngs-rule", "--max-n", "6"],
        ["bijection", "--lambda", "3,2,1,1", "--rho", "3,2,1"],
        ["polymorphism", "--n", "20", "--format", "json"],
        ["verify", "transport", "--max-n", "20"],
        ["forms", "--check", "example4"],
        ["linsys", "--lambda", "3,2,1", "--format", "json"],
        ["verify", "statement1", "--max-n", "10"],
    ], ids=["two-row", "theorem1", "theorem5", "character-table", "youngs-rule",
            "bijection", "polymorphism", "transport", "example4", "linsys",
            "statement1"])
    def test_stdout_unchanged_under_dash_O(self, argv):
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        runs = [
            subprocess.run(
                [sys.executable, *flags, "-m", "younglab", *argv], cwd=root,
                env=env, capture_output=True, text=True, timeout=120,
            )
            for flags in ([], ["-O"])
        ]
        assert [run.returncode for run in runs] == [0, 0]
        assert runs[1].stdout == runs[0].stdout != ""

    def test_library_has_no_assert_statements(self):
        src = Path(__file__).resolve().parent.parent / "src" / "younglab"
        found = [
            f"{path.name}:{node.lineno}"
            for path in sorted(src.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Assert)
        ]
        assert found == []
