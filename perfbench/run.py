"""Cold-start benchmark of younglab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every repetition runs the whole
workload in a fresh Python process (``child.py``) with every cache cold,
as a one-off CLI user or a verification sweep would, one process at a
time.  Repetitions repeat until ``--seconds`` would be exceeded (at least
three), and the reported timings are medians over them.  Import-only
probe processes add samples of the set-up time.  Every timing is scaled
by the speed of the process it was taken in, measured with
``reference.py`` (see there); the raw medians are printed as well.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of traced
repetitions, each alternating with an untraced one so that the tracing
overhead can be reported.  The lines before it record the interpreter,
the processor count, the git revision and the per-repetition samples.

Exit status: 0 with a result, 2 when the program cannot be measured
(no ``src/younglab``, a ``python -O`` interpreter, a child that dies or
finds its caches warm); no result line is printed then.
"""

import sys

sys.pycache_prefix = None  # keep bytecode inside the checkout

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
from statistics import median  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402
from reference import REFERENCE_S  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"

MIN_REPS = 3
PROBES = 10
DEADLINE_S = 165  # the whole run must end within 180 s


class BenchError(Exception):
    pass


def git_revision(root: Path) -> str:
    """HEAD of the checkout's own .git, read without running git, or
    "unknown" when the checkout is not a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.is_file():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONOPTIMIZE", None)
    env.pop("PYTHONPYCACHEPREFIX", None)
    env["PYTHONPATH"] = str(SRC)
    env["YOUNGLAB_MAX_N"] = str(workloads.MAX_N)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv: list, env: dict, deadline: float) -> dict:
    """Run one child to completion and return its JSON result with the
    parent-side set-up time and CPU time added, and the factor that scales
    the child's timings to the reference speed.  The CPU time leaves out
    the reference computation itself."""
    timeout = max(1.0, deadline - time.monotonic())
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), *argv], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        raise BenchError(f"child {argv} exceeded the time limit") from None
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    try:
        if proc.returncode != 0:
            raise ValueError(f"exit code {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError) as exc:
        raise BenchError(f"child {argv} gave no result ({exc}): {proc.stderr[-2000:]}") from None
    result["setup_s"] = result["imported_at"] - started
    result["cpu_s"] = ((after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
                       - result["ref_cpu_s"])
    result["scale"] = REFERENCE_S / result["ref_s"]
    return result


def measure(workload: str, seed: int, size: str, seconds: float, trace: bool) -> dict:
    started = time.monotonic()
    deadline = started + DEADLINE_S
    env = child_env()
    spawn(["--probe"], env, deadline)  # compiles bytecode; not a sample
    probes = [spawn(["--probe"], env, deadline) for _ in range(PROBES)]

    rep_args = ["--workload", workload, "--seed", str(seed), "--size", size]
    plain: list[dict] = []
    traced: list[dict] = []
    rounds: list[float] = []
    min_rounds = 1 if trace else MIN_REPS
    while True:
        now = time.monotonic()
        if rounds:
            next_end = now + median(rounds)
            if next_end > deadline or (
                    len(rounds) >= min_rounds and next_end > started + seconds):
                break
        plain.append(spawn(rep_args, env, deadline))
        if trace:
            traced.append(spawn(rep_args + ["--trace"], env, deadline))
        rounds.append(time.monotonic() - now)

    reps = plain + traced
    return {"plain": plain, "traced": traced, "setups": probes + reps,
            "attempted": sum(r["items"] for r in reps),
            "failed": sum(r["failed"] for r in reps),
            "errors": [e for r in reps for e in r["errors"]]}


def scaled(reps: list, key: str) -> float:
    """Median of a timing, each sample scaled to the reference speed."""
    return median([r[key] * r["scale"] for r in reps])


def end_to_end(m: dict) -> dict:
    plain = m["plain"]
    return {
        "wall_s": (scaled(plain, "wall_s"), "s"),
        "cpu_s": (scaled(plain, "cpu_s"), "s"),
        "items_per_s": (median([r["items"] / (r["wall_s"] * r["scale"]) for r in plain]), "1/s"),
        "setup_s": (scaled(m["setups"], "setup_s"), "s"),
        "peak_rss_mib": (median([r["peak_rss_mib"] for r in plain]), "MiB"),
    }


def raw(m: dict) -> dict:
    """The unscaled medians and the reference's own time, for the record."""
    plain = m["plain"]
    return {
        "wall_s": median([r["wall_s"] for r in plain]),
        "cpu_s": median([r["cpu_s"] for r in plain]),
        "setup_s": median([r["setup_s"] for r in m["setups"]]),
        "ref_s": median([r["ref_s"] for r in m["setups"]]),
    }


def per_layer(m: dict) -> dict:
    traced = m["traced"]
    out = {
        name: (median([r["layers"][name][0] * (r["scale"] if unit == "s" else 1)
                       for r in traced]), unit)
        for name, (_, unit) in traced[0]["layers"].items()
    }
    out["trace.overhead_s"] = (scaled(traced, "wall_s") - scaled(m["plain"], "wall_s"), "s")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                        help="input size; 'tiny' is for the self-tests")
    args = parser.parse_args()

    if sys.flags.optimize:
        sys.stderr.write("refusing to run under python -O: younglab's runtime "
                         "checks are asserts and would not run\n")
        return 2
    if not (SRC / "younglab" / "__init__.py").is_file():
        sys.stderr.write(f"no younglab sources under {SRC}\n")
        return 2
    try:
        m = measure(args.workload, args.seed, args.size, args.seconds, bool(args.trace))
    except BenchError as exc:
        sys.stderr.write(f"benchmark error: {exc}\n")
        return 2

    metrics = per_layer(m) if args.trace else end_to_end(m)
    print(json.dumps({"env": {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(ROOT),
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "YOUNGLAB_MAX_N": workloads.MAX_N,
    }}))
    samples = {"reps": len(m["plain"]), "traced_reps": len(m["traced"]),
               "setup_samples": len(m["setups"])}
    print(json.dumps({"samples": samples, "errors": m["errors"],
                      "failed_frac": {"value": m["failed"] / m["attempted"],
                                      "unit": "fraction"},
                      "reference_s": REFERENCE_S, "raw_medians": raw(m),
                      "wall_s_each": [r["wall_s"] for r in m["plain"]]}))
    print(json.dumps({
        "correct": m["failed"] == 0,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
