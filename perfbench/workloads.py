"""Benchmark workloads: scenario generation, one closed-loop pass, output checks.

Every workload is a closed loop with one client: a pass (one CLI scenario,
or one batch of them) starts only after the previous pass has finished and
been checked.  Scenario parameters come from the workload seed alone, and
the program sees nothing but the generated command-line arguments, which go
through ``ricciflat.cli.main`` exactly as a user's would.

This module imports no numpy and no ricciflat at import time, so a fresh
process can time ``import ricciflat`` on its own.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import shutil
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# A frozen copy of ricciflat as of the benchmark's first baseline, renamed so
# that it imports next to the checkout's ricciflat.  Never edit it: every
# timing is reported relative to it (see run.py).
FROZEN = Path(__file__).resolve().parent / "frozen"
FROZEN_PACKAGE = "ricciflat_frozen"

# The fubini_study_chart:1 class integral is c1 of the canonical bundle of P^1.
FS_EXPECTED_INTEGER = -2
FS_INTEGRAL_TOLERANCE = 1e-3


def source_present() -> bool:
    return (SRC / "ricciflat" / "__init__.py").is_file()


def use_checkout_source() -> None:
    """Import ricciflat from this checkout's ``src`` and nowhere else."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def use_frozen_source() -> None:
    """Make the frozen copy importable as ``ricciflat_frozen``."""
    if str(FROZEN) not in sys.path:
        sys.path.insert(0, str(FROZEN))


@dataclass(frozen=True)
class Invocation:
    """One CLI call of a pass; ``--jobs 1 --out DIR`` are appended at run time."""

    argv: tuple[str, ...]
    expect_fs_class: bool = False

    @property
    def command(self) -> str:
        return self.argv[0]

    def option(self, flag: str) -> str:
        return self.argv[self.argv.index(flag) + 1]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scenario: Callable[[random.Random], tuple[Invocation, ...]]

    def passes(self, seed: int):
        """Endless, reproducible sequence of passes for one seed."""
        rng = random.Random(f"{self.name}:{seed}")
        while True:
            yield self.scenario(rng)

    def first_passes(self, seed: int, count: int) -> list[tuple[Invocation, ...]]:
        gen = self.passes(seed)
        return [next(gen) for _ in range(count)]


def _perturbed(n: int, eps: float, rng: random.Random) -> str:
    return f"perturbed_flat:{n},{eps:.6g},{rng.randrange(10**6)},2"


def _verify_n2(rng):
    metric = _perturbed(2, 0.1, rng)
    return (Invocation(("verify", "--metric", metric, "--M", "5", "--D", "12")),)


def _majorant_n2(rng):
    metric = _perturbed(2, 0.1, rng)
    return (
        Invocation(
            ("majorant", "--metric", metric, "--M", "4", "--D", "10", "--R", "0.2")
        ),
    )


def _verify_n4(rng):
    metric = _perturbed(4, 0.1, rng)
    return (Invocation(("verify", "--metric", metric, "--M", "3", "--D", "4")),)


def _batch_n1(rng):
    metric = _perturbed(1, rng.uniform(0.02, 0.2), rng)
    size = ("--M", "8", "--D", "12")
    return (
        Invocation(("solve", "--metric", metric) + size),
        Invocation(("verify", "--metric", metric) + size),
    )


FS_BATCH_SIZE = 4


def _fs_batch_n1(rng):
    calls = []
    for _ in range(FS_BATCH_SIZE):
        scale = math.exp(rng.uniform(math.log(0.25), math.log(4.0)))
        metric = f"fubini_study_chart:1,{scale:.6g}"
        size = ("--M", "8", "--D", "12")
        calls.append(Invocation(("solve", "--metric", metric) + size))
        calls.append(Invocation(("verify", "--metric", metric) + size, expect_fs_class=True))
        calls.append(Invocation(("compare", "--metric", metric) + size))
    return tuple(calls)


# The reasons are copied into BENCHMARK.json; keep them to one line each.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify_n2",
            "n=2 verify, all checks: jet_mul on 1,820-monomial jets in solve and "
            "the residual checks; the validity-truncated kernel shows here",
            _verify_n2,
        ),
        Workload(
            "majorant_n2",
            "n=2 solve then majorant bounds: grid evaluation (jet_eval_many) "
            "dominates, a path verify never takes",
            _majorant_n2,
        ),
        Workload(
            "verify_n4",
            "n=4 verify: determinant expansions issue most jet_mul calls, so a "
            "memoised determinant shows here and barely elsewhere",
            _verify_n4,
        ),
        Workload(
            "batch_n1",
            "n=1 solve then verify, two CLI calls a pass on 91-monomial jets: "
            "per-call overhead, CLI parsing and report writes weigh most here",
            _batch_n1,
        ),
        Workload(
            "fs_batch_n1",
            "batches of Fubini-Study n=1 solve+verify+compare at log-uniform "
            "scales in [0.25, 4]; the only path through closed_form.calibrate",
            _fs_batch_n1,
        ),
    )
}


def metric_initial_data(ricciflat, inv: Invocation):
    """Build the initial data of one invocation through the public API."""
    name, _, rest = inv.option("--metric").partition(":")
    params = [int(p) if p.lstrip("-").isdigit() else float(p) for p in rest.split(",")]
    return ricciflat.builtin_metric(name, params, int(inv.option("--D")))


@dataclass
class PassResult:
    seconds: float
    finished_ns: int  # time.monotonic_ns() when the last CLI call returned
    failure: str | None


def run_pass(cli, invocations, work_dir: Path) -> PassResult:
    """Run one pass through ``cli.main``, then check every output.

    Only the CLI calls are timed.  Every invocation runs even when an
    earlier one failed, so a failing pass costs the same work.  An exception
    or a failed check makes the pass fail; nothing is retried.
    """
    outs = [work_dir / f"{i:02d}_{inv.command}" for i, inv in enumerate(invocations)]
    codes: list = []
    logs = [io.StringIO() for _ in invocations]
    start = time.perf_counter()
    for inv, out, log in zip(invocations, outs, logs):
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            try:
                codes.append(cli.main(list(inv.argv) + ["--jobs", "1", "--out", str(out)]))
            except Exception as exc:  # a crash is a failed pass, not a benchmark error
                codes.append(f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - start
    finished_ns = time.monotonic_ns()
    failure = None
    for inv, out, code, log in zip(invocations, outs, codes, logs):
        failure = check_output(inv, out, code)
        if failure:
            last = log.getvalue().strip().splitlines()[-1:]
            failure = f"{' '.join(inv.argv)}: {failure}" + (f" ({last[0]})" if last else "")
            break
    shutil.rmtree(work_dir, ignore_errors=True)
    return PassResult(seconds, finished_ns, failure)


def check_output(inv: Invocation, out: Path, code) -> str | None:
    """Return why an invocation's output is wrong, or None when it is right."""
    if code != 0:
        return f"exit {code}"
    try:
        with open(out / "report.json", encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        return f"report.json unreadable: {exc}"
    if report.get("command") != inv.command:
        return f"report.json is for {report.get('command')!r}"
    if inv.command == "solve":
        for name in ("v.csv", "g.csv", "w_inv.csv", "exp_u.csv"):
            if not (out / name).is_file():
                return f"{name} missing"
    elif inv.command == "verify":
        if report.get("passed") is not True:
            return "verify report does not say passed"
        if inv.expect_fs_class:
            curv = report.get("checks", {}).get("curvature", {})
            if curv.get("nearest_integer") != FS_EXPECTED_INTEGER:
                return f"class integral nearest {curv.get('nearest_integer')}"
            deviation = curv.get("integral_deviation")
            if deviation is None or not deviation <= FS_INTEGRAL_TOLERANCE:
                return f"class integral deviation {deviation}"
    elif inv.command == "majorant":
        maj = report.get("majorant", {})
        if maj.get("passed") is not True:
            return "majorant report does not say passed"
        lemma = maj.get("derivative_lemma")
        if not lemma or any(row.get("status") != "pass" for row in lemma):
            return "derivative lemma rows missing or not passed"
    elif inv.command == "compare":
        from ricciflat.conventions import CALIBRATION_CANDIDATES

        cal = report.get("calibration", {})
        if cal.get("matched") is not True:
            return "compare found no convention match"
        if cal.get("kappa") not in CALIBRATION_CANDIDATES:
            return f"kappa {cal.get('kappa')} not a calibration candidate"
    return None


def work_root() -> Path:
    path = ROOT / ".perfbench_work" / str(os.getpid())
    path.mkdir(parents=True, exist_ok=True)
    return path
