"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with -s to see them).  Tolerances are pinned here and
nowhere else; the expensive perturbed corpus is shared through session
fixtures and its build time is charged to the criterion that uses it."""

import json
import time
import warnings
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import CORPUS_M, corpus_keys, dominating_sequence, majorant_run
from ricciflat import geometry as geo
from ricciflat.cli import main as cli_main
from ricciflat.closed_form import calibrate
from ricciflat.majorant import (
    GRID_POINTS,
    cauchy_estimate_check,
    check_domination,
    domination_radii,
    estimate_params,
)
from ricciflat.solver import SolverConfig, solve
from ricciflat.verify import (
    curvature_and_class,
    laplacian_moment,
    perturb_solution,
    residual_consequence,
    residual_system,
    smoothness_check,
)


@contextmanager
def criterion(tag: str, detail: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {tag}: {detail}")
        raise
    print(f"[PASS] {tag}: {detail}")


def test_a1_flat_base_is_exactly_trivial():
    t0 = time.time()
    for n in (1, 2):
        sol = solve(geo.flat(n, 26), SolverConfig(c=1.0, t_order=12, space_degree=26))
        for m in range(sol.t_order + 1):
            assert np.all(sol.v.coeffs[m].coeffs == 0)
            for i in range(n):
                for j in range(n):
                    coeffs = sol.g.entries[i][j].coeffs[m].coeffs
                    assert coeffs[0] == (1.0 if (i == j and m == 0) else 0.0)
                    assert np.all(coeffs[1:] == 0)
        w = [c.constant_term for c in sol.w_inv.coeffs]
        assert w[0] == 0 and w[1] == 1 and all(abs(v) == 0 for v in w[2:])

        assert residual_system(sol).max_relative_residual == 0.0
        assert residual_consequence(sol).max_relative_residual == 0.0
        assert laplacian_moment(sol).max_relative_residual == 0.0
        curv = curvature_and_class(sol)
        assert curv.closedness.max_relative_residual == 0.0
        assert curv.class_integral == 0.0
    elapsed = time.time() - t0
    assert elapsed < 1.0, f"flat criterion took {elapsed:.2f}s"
    with criterion("A1", f"flat bases exactly trivial in {elapsed:.2f}s"):
        pass


def test_a2_einstein_oracle_equivalence():
    t0 = time.time()
    init = geo.fubini_study_chart(1, 1.0, 12)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sol = solve(init, SolverConfig(c=1.0, t_order=8, space_degree=12))
    rep = calibrate(sol, tolerance=1e-9)
    elapsed = time.time() - t0
    with criterion(
        "A2",
        f"closed-form match kappa={rep.kappa} deviation={rep.max_deviation:.2e} "
        f"in {elapsed:.1f}s",
    ):
        assert rep.matched
        assert rep.kappa in (1.0, 2.0, 4.0, 0.5, 0.25)
        assert rep.max_deviation <= 1e-9
        assert elapsed < 30.0


def test_a3_second_order_identity_redundant(timed_corpus):
    solutions, build_seconds = timed_corpus
    t0 = time.time()
    worst = 0.0
    for key in corpus_keys():
        rep = residual_consequence(solutions[key], tolerance=1e-9)
        assert rep.passed, f"consequence residual failed for {key}"
        worst = max(worst, rep.max_relative_residual)
        orders = {r.t_order for r in rep.rows}
        assert orders == set(range(CORPUS_M - 1))
    elapsed = time.time() - t0 + build_seconds
    with criterion(
        "A3", f"10 scenarios, worst residual {worst:.2e}, total {elapsed:.0f}s"
    ):
        assert worst <= 1e-9
        assert elapsed < 300.0


def test_a4_moment_laplacian_is_constant(corpus_solutions, corpus_solutions_c2):
    worst = 0.0
    for key in corpus_keys():
        for c, sol in ((1.0, corpus_solutions[key]), (2.0, corpus_solutions_c2[key])):
            rep = laplacian_moment(sol, tolerance=1e-9)
            assert rep.passed, f"laplacian failed for {key} c={c}"
            worst = max(worst, rep.max_relative_residual)
    with criterion("A4", f"Laplacian constant over corpus, worst {worst:.2e}"):
        assert worst <= 1e-9


def test_a5_majorant_domination(corpus_solutions):
    for key in corpus_keys():
        sol = corpus_solutions[key]
        run = majorant_run(sol)
        params = estimate_params(run, 0.2)
        rep = check_domination(run, params, dominating_sequence(sol, params))
        assert rep.C[1] == params.A, "C_1 must equal A exactly"
        assert rep.passed, f"domination failed for {key}"
        checked = {r.m for r in rep.rows if r.status == "pass"}
        assert checked == set(range(1, 9))
        assert len(domination_radii(params.R)) == 3
        assert GRID_POINTS >= 100
    lemma_rows = [row for c in (1.0, 2.5) for row in cauchy_estimate_check(c, 0.3)]
    with criterion("A5", "domination and derivative lemma hold over the corpus"):
        assert all(r.status == "pass" for r in lemma_rows)


def test_a6_curvature_class_integral(fs_solution):
    rep = curvature_and_class(fs_solution, tolerance=1e-9)
    with criterion(
        "A6",
        f"class integral {rep.class_integral:.6f} with {rep.quadrature_points} "
        f"points, dF residual {rep.closedness.max_relative_residual:.2e}",
    ):
        assert rep.quadrature_points >= 256
        assert abs(rep.class_integral - (-2.0)) <= 1e-3
        assert rep.closedness.passed
        assert rep.closedness.max_relative_residual <= 1e-9


def test_a7_fiber_smoothness_lemma():
    results = []
    for make, cap in ((lambda: geo.flat(1, 12), 12), (lambda: geo.fubini_study_chart(1, 1.0, 12), 12)):
        for c in (1.0, 2.0, 4.0):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                sol = solve(make(), SolverConfig(c=c, t_order=4, space_degree=cap))
            rep = smoothness_check(sol)
            det0 = geo.jet_det(sol.input.h).constant_term.real
            assert rep.a_deviation <= 1e-12
            assert rep.a_base == pytest.approx(c * det0, abs=1e-12)
            results.append((c, rep.is_smooth))
    with criterion("A7", "smooth exactly at c=1 on flat and projective bases"):
        for c, smooth in results:
            assert smooth == (c == 1.0)


def test_a8_reports_are_deterministic(tmp_path):
    sc1 = tmp_path / "s1.scn"
    sc1.write_text("[metric]\nbuiltin = perturbed_flat:1,0.1,0,2\n[solver]\nM = 5\nD = 14\n")
    sc2 = tmp_path / "s2.scn"
    sc2.write_text("[metric]\nbuiltin = fubini_study_chart:1,1.0\n[solver]\nM = 5\nD = 14\n")

    outs = {}
    for label, jobs in (("one", "1"), ("two", "2"), ("rerun", "1")):
        out = tmp_path / label
        code = cli_main(
            ["verify", str(sc1), str(sc2), "--out", str(out), "--no-timestamp",
             "--jobs", jobs]
        )
        assert code == 0
        outs[label] = out
    with criterion("A8", "byte-identical reports across reruns and --jobs"):
        for sub in ("00_s1.scn", "01_s2.scn"):
            ref = (outs["one"] / sub / "report.json").read_bytes()
            assert (outs["two"] / sub / "report.json").read_bytes() == ref
            assert (outs["rerun"] / sub / "report.json").read_bytes() == ref
            ref_csv = (outs["one"] / sub / "residuals.csv").read_bytes()
            assert (outs["two"] / sub / "residuals.csv").read_bytes() == ref_csv


def test_a9_negative_controls(fs_solution, tmp_path):
    flagged = {}
    for target, order, op in (
        ("v", 2, residual_system),
        ("v", 2, residual_consequence),
        ("g", 1, residual_system),
        ("g", 1, laplacian_moment),
        ("w", 1, laplacian_moment),
    ):
        bad = perturb_solution(fs_solution, target, order, 1e-3)
        rep = op(bad)
        flagged[(target, op.__name__)] = rep.max_relative_residual
        assert not rep.passed, f"{op.__name__} missed {target} perturbation"
        assert rep.max_relative_residual >= 1e-4

    curv = curvature_and_class(perturb_solution(fs_solution, "g", 2, 1e-3))
    assert not curv.closedness.passed
    assert curv.closedness.max_relative_residual >= 1e-4

    code = cli_main(
        ["verify", "--metric", "fubini_study_chart:1,1", "--M", "5", "--D", "14",
         "--perturb", "v:2:1e-3", "--out", str(tmp_path / "neg"), "--no-timestamp"]
    )
    with criterion("A9", "all injected faults detected, CLI exits 1"):
        assert code == 1
        report = json.loads((tmp_path / "neg" / "report.json").read_text())
        assert report["passed"] is False
