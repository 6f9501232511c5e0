"""One fresh process: time set-up, then the workload's first pass.

Usage: python3 perfbench/fresh.py WORKLOAD SEED SPAWN_NS PACKAGE

PACKAGE is ``ricciflat`` (the checkout's code) or ``ricciflat_frozen`` (the
frozen copy the timings are compared with).  SPAWN_NS is the parent's
``time.monotonic_ns()`` just before it started this process
(CLOCK_MONOTONIC is system-wide on Linux), so ``first_result_s`` runs from
process start to the end of the first pass, which is what a one-shot CLI
user waits.  ``setup_s`` is ``import ricciflat`` plus building the first
scenario's initial data, which builds the JetContext index tables.
``peak_rss_mb`` is the process's peak resident set at the end of the first
pass.  Prints one JSON line.
"""

from __future__ import annotations

import importlib
import json
import resource
import sys
import time

from workloads import (
    WORKLOADS,
    metric_initial_data,
    run_pass,
    use_checkout_source,
    use_frozen_source,
    work_root,
)


def main(argv) -> int:
    name, seed, spawn_ns, package = argv[0], int(argv[1]), int(argv[2]), argv[3]
    first = WORKLOADS[name].first_passes(seed, 1)[0]
    use_checkout_source()
    use_frozen_source()

    start = time.perf_counter()
    ricciflat = importlib.import_module(package)

    metric_initial_data(ricciflat, first[0])
    setup_s = time.perf_counter() - start

    cli = importlib.import_module(f"{package}.cli")

    result = run_pass(cli, first, work_root())  # removes its work directory
    print(
        json.dumps(
            {
                "setup_s": setup_s,
                "first_result_s": (result.finished_ns - spawn_ns) / 1e9,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "failure": result.failure,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
