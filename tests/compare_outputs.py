"""Run a fixed list of CLI scenarios against two ``src`` trees and compare
their outputs byte for byte.

Each scenario runs once per tree, in a fresh process with ``--no-timestamp``
and the same relative ``--out`` directory, so that identical code writes
identical bytes.  Every run directory first receives the fixed scenario
files of ``SCENARIO_FILES``, which the file-path scenarios name.  The report
gives, per scenario, the two exit codes and every output file (plus stdout
and stderr) whose bytes differ.  The exit status is 0 when every scenario
agrees.

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

# The README's scenario file at D = 12, and one with inline metric entries.
SCENARIO_FILES = {
    "sc.ini": (
        "[metric]\nbuiltin = perturbed_flat:2,0.1,7,2\n\n"
        "[solver]\nc = 1.0\nM = 8\nD = 12\nR = 0.2\ntol = 1e-9\n\n"
        "[checks]\nrun = system,consequence,laplacian\n"
    ),
    "inline.ini": (
        "[metric]\nn = 2\nh_1_1 = 1 + 0.1*x1^2 + 0.1*y1^2\nh_1_2 = 0.05*x1 - i*0.05*y1\n"
        "h_2_2 = 1\n\n[solver]\nM = 4\nD = 10\n"
    ),
}

# verify, solve, majorant, compare and closed-form on n = 1..4, the n = 2
# stretch run at D = 20, the Fubini-Study chart, a product metric, fault
# injection (a NaN one too), c = 2, refused input and scenario files; some
# exit nonzero on purpose.  The last compare is refused because its Ricci
# form is trusted only at the base point.  The n = 4 solve at D = 10 writes the largest
# coefficient tables; the two-file solve with --jobs 2 writes one
# subdirectory per scenario through the process pool.  No run joins a file's [checks] with check flags:
# there the flags win.
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
    "verify --metric perturbed_flat:2,0.1,0,2 --M 8 --D 20",
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
    "verify sc.ini",
    "solve --metric-file sc.ini --M 4",
    "verify inline.ini",
    "solve --metric perturbed_flat:4,0.1,0,2 --M 4 --D 10",
    "solve sc.ini inline.ini --jobs 2",
    "compare --metric fubini_study_chart:4,1 --M 2 --D 6",
    "compare --metric perturbed_flat:4,0.1,0,2 --M 1 --D 4",
)


def run(src: Path, argv: list[str], cwd: Path) -> tuple[int, dict[str, bytes]]:
    """Exit code and {relative path: bytes} of one CLI run in ``cwd``."""
    cwd.mkdir(parents=True)
    for name, text in SCENARIO_FILES.items():
        (cwd / name).write_text(text)
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
