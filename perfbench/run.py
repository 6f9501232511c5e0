"""The ricciflat benchmark.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from any directory of a source checkout; ricciflat is imported from the
checkout's ``src``.  Each workload is a closed loop with one client (see
``workloads.py``) driven through ``ricciflat.cli.main`` with ``--jobs 1``.
Load is one Python thread; BLAS is pinned to one thread, below nproc.

``--trace 0`` reports the end-to-end metrics, all from untraced code:
  pass_rel          median, over pairs, of a warm pass's wall time divided by
                    that of the same pass of the frozen copy
  first_result_rel  median, over pairs, of a fresh process's time from its
                    start to the end of its first pass, divided by that of a
                    fresh process of the frozen copy
  setup_s           median, over the fresh processes of the checkout's code,
                    of ``import ricciflat`` plus the first scenario's
                    initial data
  peak_rss_mb       median, over the same processes, of the peak resident
                    set at the end of the first pass
The frozen copy (``frozen/ricciflat_frozen``) is ricciflat as of the first
baseline.  On a host shared with other tenants the same pass can take up to
twice as long during slow phases that last a second or more, and a run
median in seconds follows the share of slow phases in its window.  The two
sides of a pair run the same input one right after the other, in turns
which goes first, so they see the same phase and their ratio does not
follow it.  A ratio of 0.8 means the checkout's code takes 80% of the time
the frozen copy takes.  Fresh process pairs and warm pass pairs take turns
over the --seconds window, in shares of two thirds and one third.  The
timings in seconds (median, quartiles, minimum and count) and the fail
ratio are printed too and kept in the detail file.  Failed passes of the
checkout's code are the ``failed`` count out of ``attempted``; those of the
frozen copy are only listed in the detail file.

``--trace 1`` reports the per-layer metrics of ``tracer.PER_LAYER`` from a
traced run: a cold traced first pass, then untraced and traced passes in
turn, so the tracing overhead is measured in the same run.

The last stdout line is the JSON result; the detail file and the spans go
to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import os

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:  # before anything imports numpy, here or in children
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import (  # noqa: E402
    FROZEN,
    FROZEN_PACKAGE,
    ROOT,
    SRC,
    WORKLOADS,
    run_pass,
    source_present,
    use_checkout_source,
    use_frozen_source,
    work_root,
)

MIN_PAIRS = 3
# Share of the window for warm pass pairs; fresh process pairs get the rest,
# because their ratios vary more.
WARM_SHARE = 1 / 3
MIN_TRACED_PAIRS = 3
FRESH_TIMEOUT_S = 150
OUT_DIR = ROOT / ".perfbench_out"

END_TO_END = (
    ("pass_rel", "ratio"),
    ("first_result_rel", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not source_present():
        print(f"error: no ricciflat sources under {SRC}", file=sys.stderr)
        return 2
    use_checkout_source()
    workload = WORKLOADS[args.workload]
    work = work_root()
    try:
        if args.trace:
            metrics, units, detail = traced_run(workload, args.seed, args.seconds, work)
        else:
            metrics, units, detail = untraced_run(workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run shares the directory

    attempted, failed = detail["attempted"], len(detail["failures"])
    detail["metadata"] = metadata(args)
    detail["metrics"] = metrics
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(detail, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    for failure in detail["failures"]:
        print(f"failed pass: {failure}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    for name in ("pass_s", "frozen_pass_s", "first_result_s", "frozen_first_result_s"):
        if name in detail:
            q = detail[name]
            print(
                f"{name} = {q['median']:.6g} s median, quartiles {q['q1']:.6g}..{q['q3']:.6g}, "
                f"min {q['min']:.6g}, {q['count']} samples"
            )
    print(f"fail_ratio = {failed / attempted:.6g} ({failed} failed of {attempted} attempted passes)")
    print(f"detail in {path.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


def untraced_run(workload, seed: int, seconds: float, work: Path):
    """Fresh process pairs and warm pass pairs take turns over the whole
    window, so both sample the same machine conditions."""
    import ricciflat.cli as cli

    use_frozen_source()
    frozen_cli = importlib.import_module(f"{FROZEN_PACKAGE}.cli")

    passes = workload.passes(seed)
    first = next(passes)
    warmup = run_pass(cli, first, work / "warmup")
    run_pass(frozen_cli, first, work / "frozen_warmup")
    failures = [warmup.failure] if warmup.failure else []
    frozen_failures = []  # only reported: the frozen copy is not under test
    fresh, frozen_fresh, times, frozen_times = [], [], [], []
    fresh_s = warm_s = 0.0
    deadline = time.perf_counter() + seconds
    while min(len(fresh), len(times)) < MIN_PAIRS or time.perf_counter() < deadline:
        started = time.perf_counter()
        mine, ref = paired(
            lambda: fresh_process(workload.name, seed, "ricciflat"),
            lambda: fresh_process(workload.name, seed, FROZEN_PACKAGE),
            frozen_first=len(fresh) % 2 == 0,
        )
        fresh_s += time.perf_counter() - started
        fresh.append(mine)
        frozen_fresh.append(ref)
        if mine["failure"]:
            failures.append(mine["failure"])
        if ref["failure"]:
            frozen_failures.append(ref["failure"])
        while warm_s < fresh_s * WARM_SHARE / (1 - WARM_SHARE):
            started = time.perf_counter()
            invocations, i = next(passes), len(times)
            mine, ref = paired(
                lambda: run_pass(cli, invocations, work / f"p{i}"),
                lambda: run_pass(frozen_cli, invocations, work / f"f{i}"),
                frozen_first=i % 2 == 0,
            )
            warm_s += time.perf_counter() - started
            times.append(mine.seconds)
            frozen_times.append(ref.seconds)
            if mine.failure:
                failures.append(mine.failure)
            if ref.failure:
                frozen_failures.append(ref.failure)

    first_s = [f["first_result_s"] for f in fresh]
    frozen_first_s = [f["first_result_s"] for f in frozen_fresh]
    pass_rel = [a / b for a, b in zip(times, frozen_times)]
    first_rel = [a / b for a, b in zip(first_s, frozen_first_s)]
    metrics = {
        "pass_rel": statistics.median(pass_rel),
        "first_result_rel": statistics.median(first_rel),
        "setup_s": statistics.median(f["setup_s"] for f in fresh),
        "peak_rss_mb": statistics.median(f["peak_rss_mb"] for f in fresh),
    }
    detail = {
        "attempted": 1 + len(fresh) + len(times),
        "failures": failures,
        "frozen_failures": frozen_failures,
        "pass_s": quartiles(times),
        "frozen_pass_s": quartiles(frozen_times),
        "pass_rel": quartiles(pass_rel),
        "first_result_s": quartiles(first_s),
        "frozen_first_result_s": quartiles(frozen_first_s),
        "first_result_rel": quartiles(first_rel),
        "warmup_pass_s": warmup.seconds,
        "fresh_processes": fresh,
        "frozen_fresh_processes": frozen_fresh,
    }
    return metrics, dict(END_TO_END), detail


def paired(measure_mine, measure_frozen, frozen_first: bool):
    """Run both measurements back to back; return (mine, frozen)."""
    if frozen_first:
        ref = measure_frozen()
        return measure_mine(), ref
    mine = measure_mine()
    return mine, measure_frozen()


def quartiles(samples: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "min": min(samples),
        "count": len(samples),
        "samples": samples,
    }


def fresh_process(workload: str, seed: int, package: str) -> dict:
    script = Path(__file__).resolve().parent / "fresh.py"
    spawn_ns = time.monotonic_ns()
    proc = subprocess.run(
        [sys.executable, str(script), workload, str(seed), str(spawn_ns), package],
        capture_output=True,
        text=True,
        timeout=FRESH_TIMEOUT_S,
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"fresh process exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def traced_run(workload, seed: int, seconds: float, work: Path):
    import ricciflat.cli as cli
    from tracer import PER_LAYER, Tracer, layer_report

    tracer = Tracer()
    passes = workload.passes(seed)
    failures = []

    def traced_pass(pass_id):
        tracer.pass_id = pass_id
        tracer.install()
        try:
            result = run_pass(cli, next(passes), work / f"t{pass_id}")
        finally:
            tracer.uninstall()
        if result.failure:
            failures.append(result.failure)
        return pass_id, result.seconds

    cold = traced_pass(0)
    warm, untraced = [], []
    deadline = time.perf_counter() + seconds
    while len(warm) < MIN_TRACED_PAIRS or time.perf_counter() < deadline:
        result = run_pass(cli, next(passes), work / f"u{len(warm)}")
        untraced.append(result.seconds)
        if result.failure:
            failures.append(result.failure)
        warm.append(traced_pass(len(warm) + 1))

    values = layer_report(tracer, cold, warm, untraced)
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"{workload.name}-seed{seed}-spans.json"
    tracer.write(spans_path)
    detail = {
        "attempted": 1 + len(untraced) + len(warm),
        "failures": failures,
        "absent_names": tracer.absent,
        "counter_errors": sorted(tracer.counter_errors),
        "cold_pass_s": cold[1],
        "traced_pass_s": [sec for _, sec in warm],
        "untraced_pass_s": untraced,
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    metrics = {name: values[name] for name, _, _ in PER_LAYER}
    return metrics, {name: unit for name, unit, _ in PER_LAYER}, detail


def metadata(args) -> dict:
    import numpy

    src_sha256, src_lines = tree_digest(SRC)
    frozen_sha256, _ = tree_digest(FROZEN)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "run_seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "load_threads": 1,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "src_sha256": src_sha256,
        "src_lines": src_lines,
        "frozen_sha256": frozen_sha256,
    }


def tree_digest(root: Path) -> tuple[str, int]:
    """SHA-256 over the relative paths and contents of the .py files under
    root, and their total line count."""
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(root.rglob("*.py")):
        data = path.read_bytes()
        digest.update(str(path.relative_to(root)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return digest.hexdigest(), lines


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


if __name__ == "__main__":
    sys.exit(main())
