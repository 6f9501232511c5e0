import pickle
import warnings

import numpy as np
import pytest

from conftest import truncate_solution
from ricciflat import geometry as geo
from ricciflat.errors import InvalidInputError
from ricciflat.geometry import HermitianJetMatrix, InitialData, complex_mixed_hessian
from ricciflat.jets import (
    context,
    jet_add,
    jet_mul,
    jet_reciprocal,
    jet_scale,
    max_coeff_diff,
)
from ricciflat.report import solution_summary
from ricciflat.solver import (
    SolverConfig,
    init_state,
    solve,
    step,
)


def linear_metric_1d(cap=12):
    ctx = context(1, cap)
    return InitialData(n=1, h=HermitianJetMatrix([[1 + ctx.x(0)]]), name="1+x")


# -- initialization -------------------------------------------------------------


def test_init_flat_potential_is_zero():
    state = init_state(geo.flat(2, 8), SolverConfig(c=1.0, t_order=2, space_degree=8))
    assert state.v[0].effective_degree == -1


def test_init_linear_metric_logs_determinant():
    init = linear_metric_1d(8)
    state = init_state(init, SolverConfig(c=1.0, t_order=2, space_degree=8))
    v0 = state.v[0]
    assert v0.coefficient((1, 0)) == pytest.approx(1.0)
    assert v0.coefficient((2, 0)) == pytest.approx(-0.5)


def test_init_with_c_two():
    state = init_state(geo.flat(1, 6), SolverConfig(c=2.0, t_order=2, space_degree=6))
    assert state.v[0].constant_term == pytest.approx(np.log(2.0))


def test_init_rejects_negative_c_det():
    with pytest.raises(InvalidInputError):
        init_state(geo.flat(1, 6), SolverConfig(c=-1.0, t_order=2, space_degree=6))


def test_config_validation():
    with pytest.raises(InvalidInputError):
        SolverConfig(c=0.0)
    with pytest.raises(InvalidInputError):
        SolverConfig(t_order=0)


# -- single steps ----------------------------------------------------------------


def test_step_on_flat_stays_zero():
    state = init_state(geo.flat(2, 10), SolverConfig(c=1.0, t_order=3, space_degree=10))
    for _ in range(3):
        state = step(state)
    for m in range(1, 4):
        assert state.v[m].effective_degree == -1
        for i in range(2):
            for j in range(2):
                assert state.g[m][i][j].effective_degree == -1


def test_worked_linear_metric_example():
    # g^(1) = (1+x)^{-2} and v_1 = (1+x)^{-3}/2, derived by hand from the
    # recursion and confirmed symbolically before the build
    init = linear_metric_1d(12)
    ctx = init.ctx
    x = ctx.x(0)
    sol = solve(init, SolverConfig(c=1.0, t_order=3, space_degree=12))
    inv = jet_reciprocal(1 + x)
    inv2 = jet_mul(inv, inv)
    inv3 = jet_mul(inv2, inv)
    assert max_coeff_diff(sol.g[0, 0].coeffs[1], inv2) < 1e-13
    assert max_coeff_diff(sol.v.coeffs[1], jet_scale(inv3, 0.5)) < 1e-13
    assert sol.v.coeffs[1].constant_term == pytest.approx(0.5)


def test_extraction_divisor_never_resonates():
    # the order-m division is by m+2, which never vanishes; confirm the
    # normalization identity that justifies it holds at machine precision
    init = linear_metric_1d(12)
    sol = solve(init, SolverConfig(c=1.0, t_order=4, space_degree=12))
    assert sol.base_identity_margin < 1e-12
    assert all(m + 2 != 0 for m in range(sol.t_order))


# -- full solves -----------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2])
def test_flat_solve_is_exactly_trivial(n, flat_solutions):
    sol = flat_solutions[n]
    for m in range(sol.t_order + 1):
        assert np.all(sol.v.coeffs[m].coeffs == 0)
        for i in range(n):
            for j in range(n):
                want = 1.0 if (i == j and m == 0) else 0.0
                coeffs = sol.g.entries[i][j].coeffs[m].coeffs
                assert coeffs[0] == want
                assert np.all(coeffs[1:] == 0)
    w = [c.constant_term for c in sol.w_inv.coeffs]
    assert w[0] == 0 and w[1] == 1
    assert all(abs(v) == 0 for v in w[2:])
    assert sol.w_inv_crosscheck == 0.0


def test_flat_w_inv_scales_with_c():
    fl = geo.flat(1, 8)
    s1 = solve(fl, SolverConfig(c=1.0, t_order=4, space_degree=8))
    s2 = solve(fl, SolverConfig(c=2.0, t_order=4, space_degree=8))
    assert s2.w_inv.coeffs[1].constant_term == pytest.approx(
        2.0 * s1.w_inv.coeffs[1].constant_term
    )


def test_exp_u_has_zero_constant_and_unit_linear_term():
    init = linear_metric_1d(10)
    sol = solve(init, SolverConfig(c=1.0, t_order=3, space_degree=10))
    assert sol.exp_u.coeffs[0].effective_degree == -1
    # linear coefficient is e^{v0} = c det h
    det_h = init.h[0, 0]
    assert max_coeff_diff(sol.exp_u.coeffs[1], det_h) < 1e-12


def test_solution_validity_metadata():
    init = linear_metric_1d(12)
    sol = solve(init, SolverConfig(c=1.0, t_order=4, space_degree=12))
    assert sol.validity == (12, 10, 8, 6, 4)
    for m, cj in enumerate(sol.v.coeffs):
        assert cj.valid_degree >= 12 - 2 * m


def test_validity_follows_the_jets():
    # perturbed_flat's h is itself a mixed Hessian, trusted only to D - 2, so
    # v_m is trusted to D - 2 - 2m, not to the D - 2m of the cap alone.
    init = geo.perturbed_flat(2, 0.1, 0, 2, 10)
    sol = solve(init, SolverConfig(c=1.0, t_order=4, space_degree=10))
    assert sol.validity == sol.v.valid_degrees == (8, 6, 4, 2, 0)
    assert solution_summary(sol)["validity_per_order"] == [8, 6, 4, 2, 0]
    assert truncate_solution(sol, 2).validity == (8, 6, 4)


def test_determinism_bitwise():
    init = geo.perturbed_flat(1, 0.1, 5, 2, 14)
    cfg = SolverConfig(c=1.0, t_order=5, space_degree=14)
    a = solve(init, cfg)
    b = solve(init, cfg)
    for m in range(a.t_order + 1):
        assert np.array_equal(a.v.coeffs[m].coeffs, b.v.coeffs[m].coeffs)
        assert np.array_equal(a.w_inv.coeffs[m].coeffs, b.w_inv.coeffs[m].coeffs)
    assert pickle.dumps(_coeff_state(a)) == pickle.dumps(_coeff_state(b))


def _coeff_state(sol):
    return (
        [c.coeffs.tobytes() for c in sol.v.coeffs],
        [
            c.coeffs.tobytes()
            for i in range(sol.n)
            for j in range(sol.n)
            for c in sol.g.entries[i][j].coeffs
        ],
    )


def test_truncation_consistency():
    init = geo.perturbed_flat(1, 0.1, 8, 2, 16)
    full = solve(init, SolverConfig(c=1.0, t_order=6, space_degree=16))
    half = solve(init, SolverConfig(c=1.0, t_order=3, space_degree=16))
    cut = truncate_solution(full, 3)
    for m in range(4):
        assert np.array_equal(cut.v.coeffs[m].coeffs, half.v.coeffs[m].coeffs)
        assert np.array_equal(
            cut.g.entries[0][0].coeffs[m].coeffs, half.g.entries[0][0].coeffs[m].coeffs
        )


def test_shifted_variable_recursion_agrees():
    """Re-run the recursion in the shifted variables (v - v0, g - h) with
    plain jet operations and compare against the solver, which works with the
    unshifted ones.  Validates that the reduction to zero initial values is
    an equivalent formulation, not a different scheme."""
    init = geo.perturbed_flat(1, 0.1, 2, 2, 14)
    cfg = SolverConfig(c=1.0, t_order=4, space_degree=14)
    sol = solve(init, cfg)

    ctx = init.ctx
    c = cfg.c
    h00 = init.h[0, 0]
    det_h = h00
    v0 = sol.v.coeffs[0]
    exp_neg_v0 = jet_reciprocal(jet_scale(det_h, c))

    vt = [ctx.zero()]   # shifted potential coefficients, order >= 1
    gt = [ctx.zero()]   # shifted metric coefficients
    xs = [ctx.constant(1.0)]  # e^{-(v - v0)} coefficients
    for m in range(cfg.t_order):
        base = vt[m] if m else v0
        hess = complex_mixed_hessian(base)
        g_new = jet_scale(hess.entries[0][0], -1.0 / (c * (m + 1)))
        gt.append(g_new)

        det_coeffs = [h00] + gt[1:]
        x_part = ctx.zero()
        for k in range(1, m + 1):
            x_part = jet_add(x_part, jet_scale(jet_mul(vt[k], xs[m + 1 - k]), -float(k)))
        x_part = jet_scale(x_part, 1.0 / (m + 1))

        e_coeff = ctx.zero()
        for k in range(m + 2):
            xk = x_part if k == m + 1 else xs[k]
            e_coeff = jet_add(e_coeff, jet_mul(xk, det_coeffs[m + 1 - k]))
        e_coeff = jet_mul(e_coeff, jet_scale(exp_neg_v0, c))
        v_new = jet_scale(e_coeff, 1.0 / (m + 2))
        vt.append(v_new)
        xs.append(jet_add(x_part, jet_scale(v_new, -1.0)))

    for m in range(1, cfg.t_order + 1):
        assert max_coeff_diff(vt[m], sol.v.coeffs[m]) < 1e-12
        assert max_coeff_diff(gt[m], sol.g.entries[0][0].coeffs[m]) < 1e-12


def test_integrated_determinant_linear_coefficient_is_initial_determinant():
    from ricciflat.geometry import jet_det
    from ricciflat.jets import t_integrate

    init = geo.perturbed_flat(1, 0.1, 4, 2, 12)
    sol = solve(init, SolverConfig(c=1.0, t_order=3, space_degree=12))
    integ = t_integrate(jet_det(sol.g))
    det_h = jet_det(init.h)
    assert max_coeff_diff(integ.coeffs[1], det_h) == 0.0


def test_solver_preserves_hermitian_symmetry():
    init = geo.perturbed_flat(2, 0.1, 6, 2, 12)
    sol = solve(init, SolverConfig(c=1.0, t_order=4, space_degree=12))
    assert sol.g.hermitian_defect() <= 1e-11


def test_low_degree_warns_but_solves():
    init = geo.fubini_study_chart(1, 1.0, 8)
    with pytest.warns(UserWarning, match="top orders"):
        sol = solve(init, SolverConfig(c=1.0, t_order=6, space_degree=8))
    assert sol.t_order == 6
    assert sol.validity[-1] < 0


def test_no_warning_while_the_top_order_is_trusted():
    init = geo.fubini_study_chart(1, 1.0, 10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve(init, SolverConfig(t_order=5, space_degree=10))
    assert sol.validity == (10, 8, 6, 4, 2, 0)
    assert sol.warnings == ()
