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
from younglab.partitions import enumerate_partitions, format_partition, parse_partition
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

    @pytest.mark.parametrize("fmt, digest", [
        ("ascii", "03b284a88184c0ad555c77270bfb46a475a9771d18aadda6f26d44d2c6ca5bf2"),
        ("tsv", "165415fb1eca557a0e62e043dcbcf39c3bc8e846297c9a58c9021f6cf6d46716"),
    ])
    def test_character_table_text_bytes(self, capsys, fmt, digest):
        # the padded and tab-separated tables, next to the JSON pin above
        code, out, _ = run_cli(capsys, "character-table", "--n", "8", "--format", fmt)
        assert code == 0
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


class TestLongWeight:
    @pytest.mark.parametrize("weight, entry", [
        ((1,) + (0,) * 3000, 1),
        ((0,) * 3000 + (1,), 3001),
    ], ids=["trailing-zeros", "leading-zeros"])
    def test_ssyt_with_thousands_of_zero_counts(self, capsys, weight, entry):
        # a zero count adds no recursion level (it raised RecursionError)
        code, out, err = run_cli(capsys, "ssyt", "--shape", "1", "--weight",
                                 ",".join(map(str, weight)), "--format", "json")
        assert (code, error_records(err)) == (0, [])
        payload = json.loads(out)
        assert (payload["count"], payload["tableaux"]) == (1, [[[entry]]])


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


def stdout_digest(capsys, argvs):
    """SHA-256 over the exit code and stdout of each command, in order."""
    digest = hashlib.sha256()
    for argv in argvs:
        code = main(list(argv))
        digest.update(f"{code}\n{capsys.readouterr().out}".encode())
    return digest.hexdigest()


def pair_argvs(command, n):
    """`command` in json for every pair of its arguments of degree n."""
    first, second, below = {"kostka": ("--mu", "--lambda", 0),
                            "ssyt": ("--shape", "--weight", 0),
                            "bijection": ("--lambda", "--rho", 1)}[command]
    return [[command, first, format_partition(a), second, format_partition(b),
             "--format", "json"]
            for a in enumerate_partitions(n) for b in enumerate_partitions(n - below)]


class TestPairStdoutPins:
    """Stdout of the pair sweeps at every max-n from 2 to 12 and of the pair
    commands on every pair of degree up to 7, pinned byte for byte."""

    @pytest.mark.parametrize("name", ["eq1", "eq2", "youngs-rule"])
    @pytest.mark.parametrize("fmt", ["json", "ascii", "tsv"])
    def test_verify_max_n_2_to_12(self, capsys, name, fmt):
        argvs = [["verify", name, "--max-n", str(m), "--format", fmt] for m in range(2, 13)]
        assert stdout_digest(capsys, argvs) == VERIFY_PINS[name, fmt]

    @pytest.mark.parametrize("command", ["kostka", "ssyt", "bijection"])
    @pytest.mark.parametrize("n", range(1, 8))
    def test_every_pair_up_to_degree_7(self, capsys, command, n):
        assert stdout_digest(capsys, pair_argvs(command, n)) == PAIR_PINS[command][n - 1]


VERIFY_PINS = {
    ("eq1", "json"): "76e1b1c37ae9b785b26d0f571bf3a1947583d7937db8cf2690f599cb790b179b",
    ("eq1", "ascii"): "45598372174ecc3fc7b16cb139e8d10c0484b658058e73131296ba0012b3d2a1",
    ("eq1", "tsv"): "420435610f6986f7e4bcabbe093f04cd51f22040a971c3112c752ed342acad71",
    ("eq2", "json"): "ee8c8db42ee632dfab809b82414f6220836f340445251e7753933070ac167326",
    ("eq2", "ascii"): "30e48be3b66eb5a173e187e3a407c05f0b8a01cd6eaafb44bc8c41ab9a35196f",
    ("eq2", "tsv"): "b416d09d69c37c5f4eeacb7ffef869d6fae6f970a0a6c6bdeb1c6841b90f2057",
    ("youngs-rule", "json"): "b3d0c35a61f8e98798bfc9aaa0d41e9ee1fa5c9c4be070819a43e5d5e9d7e6e9",
    ("youngs-rule", "ascii"): "9f2f80c0e477d71ddeefec03f93286a88fe4be036b89da8b85b33b2ec9abe7f2",
    ("youngs-rule", "tsv"): "b89c5338a42478f95f326127d190b0a91ef575c86c35191546f94f7dd0b8134c",
}

PAIR_PINS = {
    "kostka": [
        "e7a38dac5e12f43ae5462c76815c6d21408906985ffc7bf4091b1f81d57ca201",
        "3b0d4628de4313a72e68bf7dd0139aa6f291dff3d5cd4e29a8f701ceb7feb389",
        "598332eef03f7a3e25a3d274bf042fd8470d747fe799497fa38dd0b00f0d8b44",
        "bc135cb5a9c12055b72457aa7b3d13a270f745ebe93e037b709ea570b911db3f",
        "fdca9ff349e04d3fc7d56ed9894b9f8d6c4a0ab3295b21e38c7c6bda5e55f6af",
        "50cf41592492d91f36d9a9aa1f1af82b53ad6eaa0611a868cc7e85a9c0d02c89",
        "6ba3aee2c8607440d3824976d6dbaaa0bb62208ba138d2b8ff30844ce85eb3e0",
    ],
    "ssyt": [
        "26417472ad48d1a63679a3ecd125ca0c40bbb4e6d47e3849e688a42a43e96b10",
        "30649045a00ff22ad273e1465640e497046ae4c4f6dfd3040be1a61505c0dfb4",
        "041215c9f664ca917142c8763cfc1ea3cd53bd4b17625a215a88b4fe0360c57c",
        "6e7b816cca5e9fa7535f6f57dc8399c41e7c38af7ffd0a276791ca93104d2e16",
        "701045e4d494fb0459a526437bcacc28dcb813ed5435e125f555e61a6b97b376",
        "f1b3b174720e2c51e02e27ecb052d2e3d2489f856303351ff85ecaf9cd2871c8",
        "a638e67325af334a6e771719572949fd298a9d78d3bc3c78fb73d2fb786eee4c",
    ],
    "bijection": [
        "f22c89773ca1b06fbb8ae70c68391ccd063ae63794dc6d02b548110259e33b07",
        "5e27b8986cc3bfd3198534c00cc8ba9a8135a93f4d3e26da855d4f7ad5a32fc1",
        "7322a37b3cd40de86b7ed6051692cf45b44edd05d32bd449bde521eccfc23b50",
        "aa66e09c6701abb56dee43c73f3d7d5fc9bcc3cf8e7cb0f2d152e761a8f354e6",
        "14e89f20192f1daf4f8ac96756b8f1d7a58b1f993b903c2c8520b793cea8e31b",
        "fe0e7870b58a3ea669234fa51b845327a08664fdfaa79f4d05396f179ec58cfe",
        "9a9b9ec2f16dd03750c3b47133d9d171d9f49fec4385b98caf2b1033095a08fa",
    ],
}
