"""Command-line front end.

Subcommands:
  solve        run the series construction, write coefficient tables
  verify       run residual checks on a solved scenario
  closed-form  exact solutions for constant-curvature spectra
  majorant     domination constants and convergence checks
  compare      calibrate solver output against the closed form
  list-metrics show the built-in metric registry

Exit codes: 0 success, 1 a selected check failed, 2 invalid input,
3 numerical degeneracy.  Reports are byte-reproducible with --no-timestamp.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import functools
import math
import os
import sys
import warnings
from dataclasses import replace

from . import __version__, majorant
from .closed_form import RicciSpectrum, calibrate, p_of_t, ricci_spectrum_of, w_inv_closed
from .conventions import CONVENTIONS
from .errors import DegeneracyError, InvalidInputError, RicciflatError
from .geometry import BUILTIN_METRICS, ricci_form
from .report import (
    solution_summary,
    write_csv,
    write_json,
    write_residuals_csv,
    write_series_csv,
)
from .scenario import ALL_CHECKS, Scenario, apply_overrides, load_scenario
from .solver import solve
from .verify import (
    SolutionView,
    curvature_and_class,
    laplacian_moment,
    perturb_solution,
    residual_consequence,
    residual_system,
    smoothness_check,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INVALID = 2
EXIT_DEGENERATE = 3


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return EXIT_INVALID
    try:
        if getattr(args, "jobs", 1) < 1:
            raise InvalidInputError(f"--jobs must be at least 1, got {args.jobs}")
        return args.func(args)
    except InvalidInputError as exc:
        print(f"error: invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except DegeneracyError as exc:
        print(f"error: numerical degeneracy: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except RicciflatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: parsing leaves it unchanged, and each
    call fills a new namespace."""
    common = argparse.ArgumentParser(add_help=False)
    # Options that set a Scenario field take the field's name as dest, so
    # apply_overrides reads them off the namespace; --metric and the
    # positional scenario files are sources, not fields.
    common.add_argument("--metric", dest="metric_spec", help="builtin metric spec, e.g. flat:2")
    common.add_argument("--M", type=int, dest="t_order", help="t truncation order")
    common.add_argument("--D", type=int, dest="space_degree", help="spatial degree cap")
    common.add_argument("--c", type=float, dest="c", help="moment-map Laplacian constant")
    common.add_argument("--R", type=float, dest="radius", help="majorant polydisc radius")
    common.add_argument("--tol", type=float, dest="tolerance", help="relative tolerance")
    common.add_argument("--out", dest="out_dir", help="output directory")
    common.add_argument(
        "--no-timestamp", action="store_true", default=None, help="omit the timestamp field"
    )
    common.add_argument(
        "--jobs", type=int, default=1, help="parallel workers for scenario batches"
    )
    common.add_argument(
        "scenarios", nargs="*", help="scenario files (batched when several)"
    )

    parser = argparse.ArgumentParser(
        prog="ricciflat",
        description="Series construction and verification of circle-invariant "
        "Ricci-flat Kahler metrics on canonical bundles.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.set_defaults(command=None)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("solve", parents=[common], help="run the series construction")
    p.set_defaults(func=_batch, worker=_solve_one)

    p = sub.add_parser("verify", parents=[common], help="run residual checks")
    for check in ALL_CHECKS:
        p.add_argument(f"--{check}", action="append_const", const=check, dest="checks")
    p.add_argument(
        "--perturb",
        help="inject a fault TARGET:ORDER:EPS (targets v, g, w) before checking",
    )
    p.set_defaults(func=_batch, worker=_verify_one)

    p = sub.add_parser(
        "closed-form", parents=[common], help="exact constant-curvature solutions"
    )
    p.add_argument("--eigenvalues", help="comma-separated Ricci eigenvalues")
    p.add_argument("--n", type=int, help="complex dimension for --eigenvalues")
    p.set_defaults(func=cmd_closed_form)

    p = sub.add_parser("majorant", parents=[common], help="domination checks")
    p.add_argument("--m-max", type=int, default=None, help="orders of C_m to build")
    p.set_defaults(func=_batch, worker=_majorant_one)

    p = sub.add_parser(
        "compare", parents=[common], help="calibrate against the closed form"
    )
    p.set_defaults(func=_batch, worker=_compare_one)

    p = sub.add_parser("list-metrics", help="show builtin metrics")
    p.set_defaults(func=cmd_list_metrics)

    return parser


# ---------------------------------------------------------------------------
# Scenario assembly and batching
# ---------------------------------------------------------------------------


def _collect_scenarios(args) -> list[Scenario]:
    scenarios = [load_scenario(path, args) for path in args.scenarios]
    if args.metric_spec:
        base = Scenario(metric=args.metric_spec, label=args.metric_spec.replace(":", "_"))
        scenarios.append(apply_overrides(base, args))
    if not scenarios:
        raise InvalidInputError(
            "no scenario given: pass --metric or scenario files"
        )
    return scenarios


def _batch(args) -> int:
    """Run the subcommand's worker over the batch, passing --m-max through."""
    return _run_batch(
        _collect_scenarios(args), args.worker, args.jobs, getattr(args, "m_max", None)
    )


def _run_batch(scenarios, worker, jobs: int, extra=None) -> int:
    """Run a module-level worker(scenario, out_dir, extra) over the batch;
    workers must be picklable for the process pool, which has at most one
    worker per scenario."""
    if len(scenarios) == 1:
        return worker(scenarios[0], scenarios[0].out_dir, extra)

    tagged = [
        (sc, os.path.join(sc.out_dir, f"{i:02d}_{_safe(sc.label)}"))
        for i, sc in enumerate(scenarios)
    ]
    if jobs > 1:
        import concurrent.futures  # only here: it also imports logging

        workers = min(jobs, len(tagged))
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(worker, sc, out, extra) for sc, out in tagged]
            codes = [f.result() for f in futures]
    else:
        codes = [worker(sc, out, extra) for sc, out in tagged]
    return max(codes)


def _safe(label: str) -> str:
    return "".join(ch if ch.isalnum() or ch in "-_." else "_" for ch in os.path.basename(label))


@contextlib.contextmanager
def _warnings_to_stderr():
    """Print each distinct warning message raised in the block as one
    ``warning:`` line, in first-seen order and with its count when it
    repeats, once the block succeeds; a block that raises prints only its
    error."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield
    for message, count in collections.Counter(str(w.message) for w in caught).items():
        print(f"warning: {message}" + (f" ({count} times)" if count > 1 else ""), file=sys.stderr)


def _solve_scenario(sc: Scenario):
    with _warnings_to_stderr():
        return solve(sc.initial_data(), sc.solver_config())


def _write_report(sc: Scenario, out_dir: str, command: str, **sections) -> None:
    """The report envelope: the command, the scenario and its own sections."""
    write_json(
        os.path.join(out_dir, "report.json"),
        {"command": command, "scenario": sc.as_dict(), **sections},
        no_timestamp=sc.no_timestamp,
    )


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _solve_one(sc: Scenario, out_dir: str, extra=None) -> int:
    sol = _solve_scenario(sc)
    os.makedirs(out_dir, exist_ok=True)
    for name, series in (("v", sol.v), ("g", sol.g), ("w_inv", sol.w_inv), ("exp_u", sol.exp_u)):
        write_series_csv(os.path.join(out_dir, f"{name}.csv"), name, series)
    _write_report(sc, out_dir, "solve", conventions=CONVENTIONS, solution=solution_summary(sol))
    print(f"solve: wrote {out_dir}/report.json (metric {sol.input.name})")
    return EXIT_OK


def _verify_one(sc: Scenario, out_dir: str, extra=None) -> int:
    # No selection from flags or file runs, and reports, every check.
    sc = replace(sc, checks=tuple(sc.checks or ALL_CHECKS))
    sol = _solve_scenario(sc)
    if sc.perturb:
        target, order, eps = _parse_perturb(sc.perturb)
        sol = perturb_solution(sol, target, order, eps)

    # Looked up per run, so that a check rebound on this module is the one run.
    runners = {
        "system": residual_system,
        "consequence": residual_consequence,
        "laplacian": laplacian_moment,
        "curvature": curvature_and_class,
        "smoothness": smoothness_check,
    }
    # What the selected checks read in common, formed once for this run.
    view = SolutionView(sol, sc.checks)
    with _warnings_to_stderr():
        reports = {
            name: runners[name](view, sc.tolerance) for name in ALL_CHECKS if name in sc.checks
        }
    residual_reports = [
        rep.closedness if name == "curvature" else rep
        for name, rep in reports.items()
        if name != "smoothness"
    ]
    passed = all(rep.passed for rep in reports.values())

    os.makedirs(out_dir, exist_ok=True)
    write_residuals_csv(os.path.join(out_dir, "residuals.csv"), residual_reports)
    _write_report(
        sc, out_dir, "verify", conventions=CONVENTIONS, solution=solution_summary(sol),
        checks={name: rep.as_dict() for name, rep in reports.items()}, passed=passed,
    )
    for name in sorted(reports):
        print(f"verify[{name}]: {'pass' if reports[name].passed else 'FAIL'}")
    print(f"verify: {'pass' if passed else 'FAIL'} -> {out_dir}/report.json")
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def _parse_perturb(spec: str):
    parts = spec.split(":")
    if len(parts) != 3:
        raise InvalidInputError("--perturb expects TARGET:ORDER:EPS")
    target, order, eps = parts[0], parts[1], parts[2]
    try:
        return target, int(order), float(eps)
    except ValueError as exc:
        raise InvalidInputError(f"bad --perturb spec {spec!r}") from exc


def cmd_closed_form(args) -> int:
    if args.eigenvalues:
        if args.metric_spec or args.scenarios:
            raise InvalidInputError("--eigenvalues takes no metric source")
        sc = apply_overrides(Scenario(), args)
        try:
            values = tuple(float(t) for t in args.eigenvalues.split(",") if t.strip())
        except ValueError as exc:
            raise InvalidInputError(f"bad --eigenvalues {args.eigenvalues!r}") from exc
        n = len(values) if args.n is None else args.n
        if not values or n < 1:
            raise InvalidInputError(f"--eigenvalues needs a value and --n >= 1, got n = {n}")
        if len(values) == 1 and n > 1:
            values = values * n
        spectrum = RicciSpectrum(n, values)
        variation = 0.0
    else:
        scenarios = _collect_scenarios(args)
        if len(scenarios) != 1:
            raise InvalidInputError("closed-form takes one metric source")
        sc = scenarios[0]
        with _warnings_to_stderr():
            initial = sc.initial_data()
            spectrum, variation = ricci_spectrum_of(initial, ricci_form(initial.h))

    P = p_of_t(spectrum)
    w = w_inv_closed(P)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # refused below
        series = w.series(sc.t_order)
    if not all(map(math.isfinite, (*P, *series))):
        raise InvalidInputError("P(t) or its w_inv series overflows to a non-finite value")

    os.makedirs(sc.out_dir, exist_ok=True)
    csv_path = os.path.join(sc.out_dir, "closed_form.csv")
    write_csv(
        csv_path,
        ("series", "t_order", "value"),
        [("P", k, repr(float(val))) for k, val in enumerate(P)]
        + [("w_inv", k, repr(float(val))) for k, val in enumerate(series)],
    )
    write_json(
        os.path.join(sc.out_dir, "report.json"),
        {
            "command": "closed-form",
            "eigenvalues": list(spectrum.eigenvalues),
            "spectrum_variation": variation,
            "P": [float(v) for v in P],
            "w_inv_numerator": list(w.numerator),
            "w_inv_denominator": list(w.denominator),
            "w_inv_series": [float(v) for v in series],
        },
        no_timestamp=sc.no_timestamp,
    )
    print(f"closed-form: P degree {len(P) - 1}, wrote {csv_path}")
    return EXIT_OK


def _majorant_one(sc: Scenario, out_dir: str, m_max=None) -> int:
    rep = majorant.run(_solve_scenario(sc), sc.radius, m_max)
    os.makedirs(out_dir, exist_ok=True)
    write_csv(
        os.path.join(out_dir, "majorant.csv"),
        ("inequality", "m", "radius", "observed", "bound", "verdict"),
        [
            (r.inequality, r.m, repr(r.radius), repr(r.observed), repr(r.bound), r.status)
            for r in rep.rows
        ],
    )
    _write_report(sc, out_dir, "majorant", majorant=rep.as_dict())
    print(f"majorant: {'pass' if rep.passed else 'FAIL'} (A={rep.params.A:.6g}, R={rep.params.R})")
    return EXIT_OK if rep.passed else EXIT_CHECK_FAILED


def _compare_one(sc: Scenario, out_dir: str, extra=None) -> int:
    sol = _solve_scenario(sc)
    rep = calibrate(sol, tolerance=sc.tolerance)
    _write_report(sc, out_dir, "compare", calibration=rep.as_dict())
    if rep.matched:
        print(f"compare: kappa={rep.kappa}, deviation={rep.max_relative_deviation:.3e}")
        return EXIT_OK
    print(f"compare: no match at kappa = 4/c (deviation {rep.max_relative_deviation:.3e})")
    return EXIT_CHECK_FAILED


def cmd_list_metrics(args) -> int:
    for name in sorted(BUILTIN_METRICS):
        _, params, text = BUILTIN_METRICS[name]
        print(f"{name:22s} {name}:{','.join(params)}  {text}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
