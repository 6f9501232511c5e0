"""Run a fixed list of CLI scenarios against two ``src`` trees and compare
their outputs byte for byte.

Each scenario runs once per tree, in a fresh process with ``--no-timestamp``
and the same relative ``--out`` directory, so that identical code writes
identical bytes.  Every run directory first receives the fixed scenario
files of ``SCENARIO_FILES``, which the file-path scenarios name.  The report
gives, per scenario, the two exit codes and every output file (plus stdout
and stderr) whose bytes differ.  The exit status is 0 when every scenario
agrees.  The runs of ``REFUSALS`` are reported apart, under their own
count: input that earlier trees accepted with exit 0 although it could not
be trusted, and that the package now refuses with exit 2 before it writes
anything.  Against a tree from before those refusals they differ by design.

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
    "builtin_n.ini": "[metric]\nbuiltin = flat:1\nn = 3\n\n[solver]\nM = 4\nD = 10\n",
}

# verify, solve, majorant, compare and closed-form on n = 1..4, the n = 2
# stretch run at D = 20, the Fubini-Study chart, a product metric, fault
# injection (a NaN one too), c = 2, refused input and scenario files; some
# exit nonzero on purpose.  The compare on perturbed_flat:4 is refused
# because its Ricci form is trusted only at the base point; the last two
# Fubini-Study runs take a scale that is not a power of two, so their
# characteristic coefficients carry rounding.  The n = 4 solve at D = 10
# writes the largest coefficient tables; the two-file solve with --jobs 2
# writes one subdirectory per scenario through the process pool, and the
# two-file majorant after it also hands its own --m-max to the pool.  The last
# two runs but one take a product whose h entries are trusted to degrees 10
# and 8, so they add jets of unequal validity; the last one is refused
# because D = 1 leaves the initial metric no trusted degree.  The two runs
# after it trust their series orders to degrees 4, 2, 0, -2, -4 and
# 6, 4, 2, 0, -2, -4, so every series operation meets untrusted orders
# mid-series.  The two after those take the n = 1 jet at D = 20, whose
# exp, log and reciprocal hold more pairs than a series plan caches as
# chunks, so both forms of the plans run at n = 1.  The three after those
# select checks that form det g first inside the Laplacian check, alone or
# with the curvature check; the third takes the n = 1 adjugate.  The last
# two are majorant runs at M = 3, too few orders for the radius estimate:
# on flat:2 A is clamped, so the run needs no estimate, exits 0 and notes
# the clamp; on perturbed_flat:2 it exits 2 before any bound is built.  The
# two after those take their partials from the derivative table: flat:3 has
# a constant potential, so every partial of v is a signed zero, and the
# n = 4 curvature check reads d/dz through trusted and untrusted orders.
# No run joins a file's [checks] with check flags: there the flags win.
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
    "majorant sc.ini inline.ini --jobs 2 --m-max 4",
    "compare --metric fubini_study_chart:4,1 --M 2 --D 6",
    "compare --metric perturbed_flat:4,0.1,0,2 --M 1 --D 4",
    "compare --metric fubini_study_chart:3,0.3 --M 2 --D 6",
    "closed-form --metric fubini_study_chart:4,0.3 --M 2 --D 6",
    "majorant --metric perturbed_flat:4,0.1,3,2 --M 4 --D 6 --R 0.2",
    "verify --metric product:fubini_study_chart:1,1.0|perturbed_flat:1,0.1,3,2 --M 4 --D 10",
    "majorant --metric product:fubini_study_chart:1,1.0|perturbed_flat:1,0.1,3,2 --M 4 --D 10 --R 0.2",
    "solve --metric perturbed_flat:1,0.1,7,2 --M 1 --D 1",
    "verify --metric perturbed_flat:4,0.1,0,2 --M 4 --D 6",
    "verify --metric perturbed_flat:3,0.1,1,2 --M 5 --D 8",
    "verify --metric perturbed_flat:1,0.1,7,2 --M 8 --D 20",
    "majorant --metric perturbed_flat:1,0.1,7,2 --M 8 --D 20 --R 0.2",
    "verify --metric perturbed_flat:4,0.1,0,2 --M 3 --D 6 --laplacian",
    "verify --metric perturbed_flat:3,0.1,1,2 --M 4 --D 8 --curvature --laplacian",
    "verify --metric fubini_study_chart:1,1 --M 6 --D 12 --laplacian",
    "majorant --metric flat:2 --M 3 --D 8 --R 0.2",
    "majorant --metric perturbed_flat:2,0.1,1,2 --M 3 --D 8 --R 0.2",
    "verify --metric flat:3 --M 3 --D 6",
    "verify --metric perturbed_flat:4,0.1,0,2 --M 3 --D 6 --curvature",
)

# Refused with exit 2: the three majorant runs trust v_1 to degrees -1, 0
# and 1, too little for the second derivatives that A reads, and the
# scenario file gives an n that is not the dimension of its built-in metric.
REFUSALS = (
    "majorant --metric perturbed_flat:2,0.1,0,2 --M 4 --D 3 --R 0.2",
    "majorant --metric perturbed_flat:2,0.1,0,2 --M 4 --D 4 --R 0.2",
    "majorant --metric fubini_study_chart:1,1 --M 4 --D 3 --R 0.2",
    "solve builtin_n.ini",
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
    for title, scenarios in (("scenarios", SCENARIOS), ("refusals", REFUSALS)):
        differ = 0
        for i, scenario in enumerate(scenarios):
            argv = scenario.split()
            run_dir = f"{title}/{i:02d}"
            old_code, old_files = run(old_src, argv, work / "old" / run_dir)
            new_code, new_files = run(new_src, argv, work / "new" / run_dir)
            diffs = [
                name
                for name in sorted(set(old_files) | set(new_files))
                if old_files.get(name) != new_files.get(name)
            ]
            same = old_code == new_code and not diffs
            differ += not same
            status = "identical" if same else "DIFFERENT"
            print(f"[{status}] exit {old_code}/{new_code}  files {len(new_files)}  {scenario}")
            for name in diffs:
                print(f"    differs: {name}")
        print(f"{len(scenarios) - differ} of {len(scenarios)} {title} identical")
        mismatches += differ
    return 1 if mismatches else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src", type=Path, help="src directory of the reference tree")
    parser.add_argument("new_src", type=Path, help="src directory of the tree under test")
    parser.add_argument("--work", type=Path, help="new directory to keep the runs in (default: a temporary one)")
    args = parser.parse_args(argv)
    old_src, new_src = args.old_src.resolve(), args.new_src.resolve()
    if args.work is not None:
        if args.work.exists():
            print(f"compare_outputs: --work {args.work} exists; give a new directory", file=sys.stderr)
            return 2
        return compare(old_src, new_src, args.work.resolve())
    with tempfile.TemporaryDirectory() as tmp:
        return compare(old_src, new_src, Path(tmp))


if __name__ == "__main__":
    sys.exit(main())
