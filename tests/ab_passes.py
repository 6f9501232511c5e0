"""Paired timing of warm benchmark passes on two ``src`` trees.

    python tests/ab_passes.py OLD_SRC NEW_SRC WORKLOAD N [--seed S] [--warmup W]

One persistent worker process per tree imports that tree's ricciflat and
this checkout's ``perfbench/workloads.py``, and runs the workload's seeded
passes through ``workloads.run_pass``, as the benchmark's warm passes run.
Pass i goes to both workers, one right after the other, the side that goes
first alternating with i, so the two sides of a pair see the same phase of
a shared host.  After W warm-up passes on each side, N pairs are timed,
and the tool prints the median and quartiles of the new/old ratio of pass
times, the median seconds of each side and how many pairs the new tree
won.  A pass that fails on either side stops the run with exit 1.  The
tool writes nothing under ``perfbench/``; each worker's outputs go to a
temporary directory that is removed at the end.

For example, against the parent commit:

    git archive HEAD~1 --prefix=parent/ | tar x -C /tmp
    python tests/ab_passes.py /tmp/parent/src src verify_n2 60
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def worker(src: str, workload: str, seed: int, work: str) -> int:
    """Serve pass indices read from stdin, one per line, with one JSON line
    each on stdout: the pass's seconds and its failure, or null."""
    sys.path[:0] = [src, str(PERFBENCH)]
    import workloads
    from ricciflat import cli

    passes, out = workloads.WORKLOADS[workload].passes(seed), []
    reply = sys.stdout
    for line in sys.stdin:
        index = int(line)
        while len(out) <= index:
            out.append(next(passes))
        result = workloads.run_pass(cli, out[index], Path(work) / "pass")
        reply.write(json.dumps({"seconds": result.seconds, "failure": result.failure}) + "\n")
        reply.flush()
    return 0


class Side:
    """One worker process and the tree it runs."""

    def __init__(self, src: Path, workload: str, seed: int, work: Path):
        env = dict(os.environ, **{var: "1" for var in BLAS_THREAD_VARS})
        env.pop("PYTHONPATH", None)
        argv = [sys.executable, __file__, "--worker", str(src), workload, str(seed), str(work)]
        self.src = src
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env
        )

    def run(self, index: int) -> float:
        self.proc.stdin.write(f"{index}\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"the worker for {self.src} stopped")
        reply = json.loads(line)
        if reply["failure"]:
            raise RuntimeError(f"pass {index} failed on {self.src}: {reply['failure']}")
        return reply["seconds"]

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def compare(old_src: Path, new_src: Path, workload: str, pairs: int, seed: int, warmup: int) -> int:
    work = Path(tempfile.mkdtemp(prefix="ab_passes_"))
    sides = []
    try:
        for name, src in (("old", old_src), ("new", new_src)):
            sides.append(Side(src, workload, seed, work / name))
        for index in range(warmup):
            for side in sides:
                side.run(index)
        ratios, times = [], ([], [])
        for k in range(pairs):
            index = warmup + k
            order = (0, 1) if k % 2 == 0 else (1, 0)
            seconds = [0.0, 0.0]
            for s in order:
                seconds[s] = sides[s].run(index)
            times[0].append(seconds[0])
            times[1].append(seconds[1])
            ratios.append(seconds[1] / seconds[0])
    except RuntimeError as exc:
        print(f"ab_passes: {exc}", file=sys.stderr)
        return 1
    finally:
        for side in sides:
            side.close()
        shutil.rmtree(work, ignore_errors=True)
    q1, median, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    won = sum(r < 1.0 for r in ratios)
    print(f"{workload}: {pairs} pairs after {warmup} warm-up passes per side, seed {seed}")
    print(f"new/old pass time: median {median:.4f}, quartiles {q1:.4f} .. {q3:.4f}")
    print(
        f"median seconds: old {statistics.median(times[0]):.5f}, "
        f"new {statistics.median(times[1]):.5f}; new faster in {won} of {pairs} pairs"
    )
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--worker"]:
        src, workload, seed, work = argv[1:]
        return worker(src, workload, int(seed), work)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src", type=Path, help="src directory of the reference tree")
    parser.add_argument("new_src", type=Path, help="src directory of the tree under test")
    parser.add_argument("workload", help="a workload of perfbench/workloads.py")
    parser.add_argument("pairs", type=int, help="number of timed pass pairs")
    parser.add_argument("--seed", type=int, default=11, help="workload seed (default 11)")
    parser.add_argument("--warmup", type=int, default=3, help="untimed passes per side first")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("N must be at least 1")
    sys.path.insert(0, str(PERFBENCH))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}: one of {', '.join(workloads.WORKLOADS)}")
    old_src, new_src = args.old_src.resolve(), args.new_src.resolve()
    return compare(old_src, new_src, args.workload, args.pairs, args.seed, args.warmup)


if __name__ == "__main__":
    sys.exit(main())
