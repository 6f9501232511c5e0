"""Run a fixed list of CLI scenarios against two ``src`` trees and compare
their outputs byte for byte.

Each scenario runs once per tree, in a fresh process with ``--no-timestamp``
and the same relative ``--out`` directory, so that identical code writes
identical bytes.  The report gives, per scenario, the two exit codes and
every output file (plus stdout and stderr) whose bytes differ.  The exit
status is 0 when every scenario agrees.

    python tests/compare_outputs.py OLD_SRC NEW_SRC [--work DIR]

For example, against the parent commit:

    git archive HEAD~1 --prefix=parent/ | tar x -C /tmp
    python tests/compare_outputs.py /tmp/parent/src src
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# verify, solve, majorant, compare and closed-form on n = 1..4, the
# Fubini-Study chart, a product metric, fault injection (a NaN one too), c = 2
# and refused input; some exit nonzero on purpose.
SCENARIOS = (
    "verify --metric perturbed_flat:1,0.1,7,2 --M 8 --D 12",
    "verify --metric perturbed_flat:2,0.1,0,2 --M 5 --D 12",
    "verify --metric perturbed_flat:3,0.1,1,2 --M 3 --D 8",
    "verify --metric perturbed_flat:4,0.1,0,2 --M 3 --D 4",
    "verify --metric perturbed_flat:4,0.1,0,2 --M 3 --D 6 --system",
    "verify --metric fubini_study_chart:1,1 --M 8 --D 12",
    "verify --metric fubini_study_chart:2,1 --M 4 --D 10",
    "verify --metric flat:2 --M 6 --D 14",
    "verify --metric fubini_study_chart:1,1 --M 8 --D 12 --perturb v:2:1e-3",
    "verify --metric perturbed_flat:2,0.1,0,2 --M 5 --D 12 --perturb g:1:1e-4",
    "verify --metric perturbed_flat:1,0.1,7,2 --M 6 --D 12 --perturb w:1:1e-4",
    "verify --metric perturbed_flat:2,0.1,0,2 --M 5 --D 12 --c 2",
    "verify --metric fubini_study_chart:1,1 --M 6 --D 12 --c 2",
    "verify --metric perturbed_flat:3,0.1,1,2 --M 4 --D 8 --system",
    "verify --metric perturbed_flat:2,0.1,0,2 --M 5 --D 12 --consequence --curvature",
    "verify --metric perturbed_flat:2,0.1,0,2 --M 5 --D 12 --laplacian --smoothness",
    "verify --metric perturbed_flat:2,0.1,0,2 --M 2 --D 8",
    "verify --metric product:fubini_study_chart:1,1.0|flat:1 --M 4 --D 10",
    "solve --metric perturbed_flat:1,0.1,7,2 --M 8 --D 12",
    "solve --metric perturbed_flat:2,0.1,0,2 --M 5 --D 12",
    "solve --metric perturbed_flat:3,0.1,1,2 --M 3 --D 8",
    "solve --metric perturbed_flat:4,0.1,0,2 --M 3 --D 4",
    "solve --metric fubini_study_chart:2,1 --M 4 --D 10",
    "solve --metric perturbed_flat:2,0.1,0,2 --M 4 --D 10 --c 2",
    "majorant --metric perturbed_flat:2,0.1,0,2 --M 4 --D 10 --R 0.2",
    "majorant --metric perturbed_flat:1,0.1,7,2 --M 6 --D 12 --R 0.2",
    "majorant --metric fubini_study_chart:1,1 --M 6 --D 12 --R 0.2",
    "majorant --metric perturbed_flat:3,0.1,1,2 --M 4 --D 8 --R 0.2",
    "majorant --metric perturbed_flat:4,0.1,0,2 --M 4 --D 6 --R 0.2",
    "majorant --metric perturbed_flat:2,0.1,0,2 --M 4 --D 10 --R 0.35",
    "majorant --metric perturbed_flat:1,0.1,7,2 --M 6 --D 12 --R 0.2 --m-max 6",
    "compare --metric fubini_study_chart:1,1 --M 8 --D 12",
    "compare --metric fubini_study_chart:2,1 --M 4 --D 10",
    "compare --metric perturbed_flat:1,0.1,7,2 --M 6 --D 12",
    "compare --metric fubini_study_chart:3,1 --M 3 --D 8",
    "closed-form --metric fubini_study_chart:1,1 --M 8 --D 12",
    "closed-form --metric fubini_study_chart:2,1 --M 4 --D 10",
    "closed-form --eigenvalues 1,2 --M 6",
    "verify --metric fubini_study_chart:1,1 --M 8 --D 12 --perturb g:1:nan",
    "closed-form --eigenvalues 1,2 --metric flat:1",
    "closed-form --metric perturbed_flat:1,0.1,7,2 --D 3",
)


def run(src: Path, argv: list[str], cwd: Path) -> tuple[int, dict[str, bytes]]:
    """Exit code and {relative path: bytes} of one CLI run in ``cwd``."""
    cwd.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(src))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run(
        [sys.executable, "-m", "ricciflat", *argv, "--no-timestamp", "--out", "out"],
        cwd=cwd,
        env=env,
        capture_output=True,
    )
    files = {"<stdout>": proc.stdout, "<stderr>": proc.stderr}
    for path in sorted(cwd.rglob("*")):
        if path.is_file():
            files[str(path.relative_to(cwd))] = path.read_bytes()
    return proc.returncode, files


def compare(old_src: Path, new_src: Path, work: Path) -> int:
    mismatches = 0
    for i, scenario in enumerate(SCENARIOS):
        argv = scenario.split()
        old_code, old_files = run(old_src, argv, work / "old" / f"{i:02d}")
        new_code, new_files = run(new_src, argv, work / "new" / f"{i:02d}")
        diffs = [
            name
            for name in sorted(set(old_files) | set(new_files))
            if old_files.get(name) != new_files.get(name)
        ]
        same = old_code == new_code and not diffs
        mismatches += not same
        status = "identical" if same else "DIFFERENT"
        print(f"[{status}] exit {old_code}/{new_code}  files {len(new_files)}  {scenario}")
        for name in diffs:
            print(f"    differs: {name}")
    print(f"{len(SCENARIOS) - mismatches} of {len(SCENARIOS)} scenarios identical")
    return 1 if mismatches else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src", type=Path, help="src directory of the reference tree")
    parser.add_argument("new_src", type=Path, help="src directory of the tree under test")
    parser.add_argument("--work", type=Path, help="new directory to keep the runs in (default: a temporary one)")
    args = parser.parse_args(argv)
    old_src, new_src = args.old_src.resolve(), args.new_src.resolve()
    if args.work is not None:
        return compare(old_src, new_src, args.work.resolve())
    with tempfile.TemporaryDirectory() as tmp:
        return compare(old_src, new_src, Path(tmp))


if __name__ == "__main__":
    sys.exit(main())
