import warnings

import pytest

from oracles import chain_dz, chain_dzbar
from ricciflat import geometry as geo
from ricciflat.errors import InvalidInputError
from ricciflat.jets import Jet, t_derive
from ricciflat.solver import SolverConfig, solve
from ricciflat.verify import (
    curvature_and_class,
    laplacian_moment,
    perturb_solution,
    residual_consequence,
    residual_system,
    smoothness_check,
)


def solve_quiet(initial, **cfg):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return solve(initial, SolverConfig(**cfg))


# -- defining system -----------------------------------------------------------


def test_flat_residuals_exactly_zero(flat_solutions):
    for n in (1, 2):
        rep = residual_system(flat_solutions[n])
        assert rep.passed
        assert rep.max_relative_residual == 0.0


def test_projective_chart_residuals_small(fs_solution):
    rep = residual_system(fs_solution)
    assert rep.passed
    assert rep.max_relative_residual <= 1e-10
    # orders without trusted coefficients are skipped, never passed silently
    assert rep.skipped_orders


def test_system_residuals_on_perturbed_members(corpus_solutions):
    # constructed residual exactness: the recursion satisfies its own
    # equations to rounding through the trusted degrees
    for key in ((1, 0), (2, 1)):
        rep = residual_system(corpus_solutions[key])
        assert rep.passed
        assert rep.max_relative_residual <= 1e-10


def test_corrupted_potential_is_flagged(fs_solution):
    bad = perturb_solution(fs_solution, "v", 2, 1e-3)
    rep = residual_system(bad)
    assert not rep.passed
    assert rep.max_relative_residual >= 1e-4


def test_corrupted_metric_is_flagged(fs_solution):
    bad = perturb_solution(fs_solution, "g", 1, 1e-3)
    rep = residual_system(bad)
    assert not rep.passed
    assert rep.max_relative_residual >= 1e-4


def test_corrupted_weight_is_flagged(fs_solution):
    bad = perturb_solution(fs_solution, "w", 1, 1e-3)
    rep = residual_system(bad)
    rows = [r for r in rep.rows if r.identity == "weight_consistency"]
    assert any(r.status == "fail" for r in rows)
    assert max(r.residual / r.scale for r in rows) >= 1e-4


def test_perturbation_metadata_recorded(fs_solution):
    bad = perturb_solution(fs_solution, "v", 2, 1e-3)
    assert bad.perturbations == ("v:2:0.001",)
    with pytest.raises(InvalidInputError):
        perturb_solution(fs_solution, "q", 1, 1e-3)


# -- redundancy of the second-order identity --------------------------------------


def test_consequence_on_flat_is_exact(flat_solutions):
    rep = residual_consequence(flat_solutions[2])
    assert rep.passed
    assert rep.max_relative_residual == 0.0


def test_consequence_redundancy_on_corpus_members(corpus_solutions):
    for key in ((1, 0), (2, 0)):
        rep = residual_consequence(corpus_solutions[key])
        assert rep.passed
        assert rep.max_relative_residual <= 1e-9


def test_consequence_with_nonunit_c():
    sol = solve_quiet(geo.flat(1, 12), c=2.0, t_order=4)
    rep = residual_consequence(sol)
    assert rep.max_relative_residual == 0.0


def test_consequence_needs_three_orders(flat_solutions):
    from conftest import truncate_solution

    short = truncate_solution(flat_solutions[1], 2)
    with pytest.raises(InvalidInputError):
        residual_consequence(short)


def test_consequence_flags_perturbation(fs_solution):
    bad = perturb_solution(fs_solution, "v", 2, 1e-3)
    rep = residual_consequence(bad)
    assert not rep.passed
    assert rep.max_relative_residual >= 1e-4


# -- moment-map Laplacian -----------------------------------------------------------


def test_laplacian_flat_exact(flat_solutions):
    rep = laplacian_moment(flat_solutions[1])
    assert rep.passed
    assert rep.max_relative_residual == 0.0


@pytest.mark.parametrize("c", [1.0, 2.0])
def test_laplacian_equals_c(c):
    sol = solve_quiet(geo.fubini_study_chart(1, 1.0, 12), c=c, t_order=5)
    rep = laplacian_moment(sol)
    assert rep.passed
    assert rep.max_relative_residual <= 1e-9
    assert rep.metadata["c"] == c


def test_laplacian_flags_weight_perturbation(fs_solution):
    bad = perturb_solution(fs_solution, "w", 1, 1e-3)
    rep = laplacian_moment(bad)
    assert not rep.passed
    assert rep.max_relative_residual >= 1e-4


def test_laplacian_flags_metric_perturbation(fs_solution):
    bad = perturb_solution(fs_solution, "g", 1, 1e-3)
    rep = laplacian_moment(bad)
    assert not rep.passed


# -- curvature form and class -------------------------------------------------------


def test_curvature_flat_is_zero(flat_solutions):
    sol = flat_solutions[1]
    rep = curvature_and_class(sol)
    assert rep.passed
    assert rep.class_integral == 0.0
    assert rep.realness_defect == 0.0
    # the fiber-weight gradients (1/c) d(dv/dt)/dz, dzbar vanish at the base
    for cj in t_derive(sol.v).coeffs:
        for grad in (chain_dz(cj, 0), chain_dzbar(cj, 0)):
            if grad.valid_degree >= 0:
                assert grad.constant_term == 0.0


def test_curvature_projective_chart_class_integral(fs_solution):
    rep = curvature_and_class(fs_solution)
    assert rep.passed
    assert rep.closedness.max_relative_residual <= 1e-9
    assert rep.quadrature_points >= 256
    assert rep.kappa == 4.0
    assert rep.nearest_integer == -2
    assert abs(rep.class_integral - (-2.0)) <= 1e-3
    assert rep.realness_defect <= 1e-11


def test_curvature_class_independent_of_c():
    sol = solve_quiet(geo.fubini_study_chart(1, 1.0, 12), c=2.0, t_order=5)
    rep = curvature_and_class(sol)
    assert abs(rep.class_integral - (-2.0)) <= 1e-3


def test_curvature_closedness_on_two_dim_member(corpus_solutions):
    rep = curvature_and_class(corpus_solutions[(2, 0)])
    assert rep.closedness.passed
    assert rep.class_integral is None
    assert any("skipped" in note for note in rep.notes)


def test_curvature_flags_metric_perturbation(fs_solution):
    bad = perturb_solution(fs_solution, "g", 2, 1e-3)
    rep = curvature_and_class(bad)
    assert not rep.closedness.passed
    assert rep.closedness.max_relative_residual >= 1e-4


# -- fiber smoothness ----------------------------------------------------------------


def test_smoothness_flat_unit_c(flat_solutions):
    rep = smoothness_check(flat_solutions[1])
    assert rep.is_smooth
    assert rep.a_base == pytest.approx(1.0, abs=1e-12)
    assert rep.w_inv_linear == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("c", [2.0, 4.0])
def test_smoothness_cone_for_other_c(c):
    sol = solve_quiet(geo.flat(1, 10), c=c, t_order=4)
    rep = smoothness_check(sol)
    assert not rep.is_smooth
    assert rep.w_inv_linear == pytest.approx(c, abs=1e-12)
    assert rep.a_base == pytest.approx(c, abs=1e-12)


def test_smoothness_projective_leading_coefficient(fs_solution):
    rep = smoothness_check(fs_solution)
    det_h0 = geo.jet_det(fs_solution.input.h).constant_term.real
    assert rep.a_base == pytest.approx(det_h0, abs=1e-12)
    assert rep.a_deviation <= 1e-12
    assert rep.is_smooth


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_smoothness_expected_matches_restricted_jet_det_bitwise(n):
    # Reference route: the cofactor expansion of the jets of h trusted to
    # degree 0, whose constant term is det h(0).
    sol = solve_quiet(geo.perturbed_flat(n, 0.1, n, 2, 4), t_order=1)
    restricted = sol.input.h.map(lambda e: Jet(e.ctx, e.coeffs, 0))
    want = sol.config.c * geo.jet_det(restricted).constant_term.real
    assert smoothness_check(sol).a_expected.hex() == want.hex()
