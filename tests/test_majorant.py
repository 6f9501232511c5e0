import math
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dominating_sequence, polydisc_sample, solve_corpus_member
from ricciflat import geometry as geo
from ricciflat.errors import InvalidInputError
from ricciflat import majorant
from ricciflat.geometry import (
    HermitianJetMatrix,
    InitialData,
    complex_mixed_hessian,
    det_coefficient,
    jet_det,
)
from ricciflat.jets import (
    Jet,
    TJet,
    context,
    jet_derive,
    jet_eval_many,
    jet_log,
    jet_mul,
    jet_norm,
    jet_reciprocal,
    jet_scale,
    max_abs_coeff,
    max_coeff_diff,
)
from ricciflat.majorant import (
    CauchyEstimateRow,
    MajorantParams,
    MajorantReport,
    cauchy_estimate_check,
    check_domination,
    estimate_params,
    majorant_sequence,
    domination_radii,
    nonlinearity_bounds,
    radius_estimate,
)
from ricciflat.solver import SolverConfig, solve
from ricciflat.verify import perturb_solution


def simple_params(A=1.0, R=0.5, M=4.0):
    return MajorantParams(R=R, A=A, M_const=M)


def reported_sigma(params) -> float:
    """The resonance gap as the majorant report records it."""
    rep = MajorantReport(params, (0.0, params.A), (), None, "")
    return rep.as_dict()["sigma"]


# -- parameter estimation -----------------------------------------------------------


def test_estimate_params_linear_metric_lower_bound():
    # for h = 1 + x the first series coefficient is (1+x)^{-3}/2, so its
    # norm is at least its base value 1/2
    ctx = context(1, 12)
    init = InitialData(h=HermitianJetMatrix([[1 + ctx.x(0)]]))
    sol = solve(init, SolverConfig(c=1.0, t_order=3))
    params = estimate_params(sol, 0.2)
    assert params.A >= 0.5
    assert reported_sigma(params) == 1.0
    assert params.M_const == 4.0
    assert not params.A_clamped


def test_estimate_params_flat_clamps_to_floor(flat_solutions):
    params = estimate_params(flat_solutions[1], 0.2)
    assert params.A == pytest.approx(1e-8)
    assert params.A_clamped


def test_resonance_gap_is_one():
    # the linearized symbol is the constant -1, so |m - (-1)| = m + 1 >= m
    for m in range(1, 20):
        assert abs(m - (-1)) >= 1 * m
    params = simple_params()
    assert reported_sigma(params) == 1.0


def test_operator_bound_convention_scales_with_c():
    init = geo.perturbed_flat(1, 0.1, 0, 2, 12)
    sol = solve(init, SolverConfig(c=2.0, t_order=3))
    assert estimate_params(sol, 0.2).M_const == pytest.approx(2.0)


def test_estimate_params_rejects_bad_radius(flat_solutions):
    with pytest.raises(InvalidInputError):
        estimate_params(flat_solutions[1], 1.5)


# -- coefficient recursion -----------------------------------------------------------


def test_first_coefficient_is_exactly_A():
    params = simple_params(A=0.37)
    C = majorant_sequence(params, {}, 6)
    assert C[1] == 0.37
    assert all(c == 0.0 for c in C[2:])


def test_zero_bounds_give_zero_tail():
    params = simple_params(A=2.0)
    C = majorant_sequence(params, {(0, 5, 0): 0.0}, 5)
    assert C[1] == 2.0
    assert C[2:] == [0.0, 0.0, 0.0, 0.0]


def test_single_quadratic_bound_hand_value():
    # one pure-potential quadratic term: C_2 = a A^2 (weight already 2, so
    # the radius power is R^0) and C_3 = 2 a^2 A^3 from the two compositions
    a = 0.25
    params = simple_params(A=3.0, R=0.5)
    C = majorant_sequence(params, {(0, 2, 0): a}, 3)
    assert C[2] == pytest.approx(a * 3.0 ** 2)
    assert C[3] == pytest.approx(2 * a * 3.0 * C[2])


def test_single_integral_term_hand_value():
    # one linear integral-argument term (p=0, q=0, |beta|=1, weight 2):
    # C_m = A_b * 4 e^2 M * C_{m-1}
    ab = 0.5
    params = simple_params(A=1.5, R=0.5, M=4.0)
    factor = ab * 4 * math.e ** 2 * 4.0
    C = majorant_sequence(params, {(0, 0, 1): ab}, 4)
    assert C[2] == pytest.approx(factor * C[1])
    assert C[3] == pytest.approx(factor * C[2])


def test_pure_t_term_contributes_once():
    # a weight-2 pure t^2 term adds a constant only at order 2
    params = simple_params(A=0.0 + 1e-8, R=0.5)
    C = majorant_sequence(params, {(2, 0, 0): 1.0}, 4)
    assert C[2] == pytest.approx(0.5 ** 0 * 1.0, rel=1e-12)
    assert C[3] == pytest.approx(0.0, abs=1e-20)


@given(st.floats(1.0, 3.0), st.floats(0.01, 0.3))
@settings(max_examples=20, deadline=None)
def test_monotonicity_in_bounds(factor, a):
    params = simple_params(A=1.0, R=0.4)
    base = {(0, 2, 0): a, (0, 0, 1): 0.05, (2, 0, 0): 0.2}
    bigger = dict(base)
    bigger[(0, 2, 0)] = a * factor
    C1 = majorant_sequence(params, base, 6)
    C2 = majorant_sequence(params, bigger, 6)
    assert all(c2 >= c1 - 1e-15 for c1, c2 in zip(C1, C2))
    assert all(c >= 0.0 for c in C1)


def test_nonlinearity_bounds_exponential_tail():
    # the e^{-Z} factor contributes exactly 1/q! times the determinant bound;
    # the flat determinant is the constant 1, whose norm is its modulus, so
    # the (0, q, 0) entries are exactly 1/q!
    sol = solve(geo.flat(1, 10), SolverConfig(c=1.0, t_order=3))
    params = estimate_params(sol, 0.2)
    bounds = nonlinearity_bounds(sol, params, 5)
    assert bounds[(0, 2, 0)] == 0.5
    assert bounds[(0, 3, 0)] == 1.0 / 6.0


def test_nonlinearity_bounds_weight_filter():
    sol = solve(geo.flat(1, 10), SolverConfig(c=1.0, t_order=3))
    params = estimate_params(sol, 0.2)
    bounds = nonlinearity_bounds(sol, params, 5)
    for (p, q, b) in bounds:
        assert p + q + 2 * b >= 2
        assert p + q + b <= 5


# The coefficient of t^p Y^beta is [t^p] of the pattern determinant: the
# orders (h, L(v_0)) with the columns ``cols`` replaced by the unit vectors
# e_rows, written out.  Two references for it: ``det_coefficient`` of these
# orders with a fresh memo, and the cofactor expansion of the pattern as
# order-(n - k) TJets.
def _pattern_orders(h, Lv0, cols, rows, ctx):
    n = h.n
    sel = dict(zip(cols, rows))
    unit = [
        [ctx.constant(1.0 if i == sel[j] else 0.0) if j in sel else h[i, j] for j in range(n)]
        for i in range(n)
    ]
    first = [[ctx.zero() if j in sel else Lv0[i, j] for j in range(n)] for i in range(n)]
    return unit, first


def _reference_pattern_determinant(h, Lv0, cols, rows, ctx):
    n = h.n
    order = n - len(cols)
    zero = ctx.zero()
    entries = [[None] * n for _ in range(n)]
    sel = dict(zip(cols, rows))
    for i in range(n):
        for j in range(n):
            if j in sel:
                const = ctx.constant(1.0 if i == sel[j] else 0.0)
                entries[i][j] = TJet([const] + [zero] * order)
            else:
                coeffs = [h.entries[i][j], Lv0.entries[i][j]] + [zero] * max(order - 1, 0)
                entries[i][j] = TJet(coeffs[: order + 1])
    return jet_det(HermitianJetMatrix(entries))


_PATTERN_CAPS = {1: 8, 2: 6, 3: 4, 4: 4}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_signed_minors_equal_the_full_pattern_determinants(n):
    # the complementary minors, read in the majorant's order from one memo,
    # are +- the full pattern determinants: exactly (up to the sign of a
    # zero) and with equal validity against det_coefficient with a fresh
    # memo, to rounding against the TJet cofactor expansion
    h = geo.perturbed_flat(n, 0.1, n, 2, _PATTERN_CAPS[n]).h
    ctx = h.entries[0][0].ctx
    Lv0 = complex_mixed_hessian(jet_log(jet_det(h))).map(lambda e: jet_scale(e, -1.0))
    orders = (h.entries, Lv0.entries)
    memo = {}
    checked = 0
    for k in range(n):  # k = n leaves no minor: the pattern determinant is +-1
        for cols in combinations(range(n), k):
            C = tuple(j for j in range(n) if j not in cols)
            for rows in combinations(range(n), k):
                R = tuple(i for i in range(n) if i not in rows)
                minors = [det_coefficient(orders, p, memo, R, C) for p in range(n - k + 1)]
                for perm in permutations(rows):
                    inversions = sum(a > b for a, b in combinations(perm, 2))
                    sign = (-1) ** (sum(perm) + sum(cols) + inversions)
                    full = _pattern_orders(h, Lv0, cols, perm, ctx)
                    series = _reference_pattern_determinant(h, Lv0, cols, perm, ctx)
                    assert series.order == n - k
                    for p, minor in enumerate(minors):
                        want = det_coefficient(full, p, {})
                        assert minor.valid_degree == want.valid_degree
                        signed = want.coeffs if sign > 0 else -want.coeffs
                        assert np.array_equal(minor.coeffs, signed)
                        ref = series.coeffs[p]
                        assert ref.valid_degree == minor.valid_degree
                        diff = max_coeff_diff(jet_scale(minor, sign), ref)
                        assert diff <= 1e-12 * max(1.0, max_abs_coeff(ref))
                        checked += 1
    assert checked == sum(
        math.comb(n, k) ** 2 * math.factorial(k) * (n - k + 1) for k in range(n)
    )


@pytest.mark.parametrize("n, D", [(1, 10), (2, 8), (3, 6), (4, 4)])
def test_nonlinearity_bounds_unchanged_by_the_shared_minors(n, D, monkeypatch):
    # the bounds read only h and g^(1) = L(v_0), so one solved order is enough
    sol = solve(geo.perturbed_flat(n, 0.1, 0, 2, D), SolverConfig(t_order=1))
    params = simple_params(R=0.2)
    got = nonlinearity_bounds(sol, params, 4)

    def fresh_memo(g_orders, m, memo, R=None, C=None):
        return geo.det_coefficient(g_orders, m, {}, R, C)

    monkeypatch.setattr(majorant, "det_coefficient", fresh_memo)
    assert got == nonlinearity_bounds(sol, params, 4)


@pytest.mark.parametrize("n, D", [(2, 8), (3, 6)])
def test_nonlinearity_bounds_sum_the_norm_of_every_pattern(n, D):
    # reference: every unit-column pattern, its rows in every order, as one
    # TJet determinant, each t^p coefficient over det h bounded by its norm
    sol = solve(geo.perturbed_flat(n, 0.1, 0, 2, D), SolverConfig(t_order=1))
    params = simple_params(R=0.2)
    h, ctx = sol.input.h, sol.input.ctx
    Lv0 = complex_mixed_hessian(sol.v.coeffs[0]).map(lambda e: jet_scale(e, -1.0 / sol.config.c))
    recip_det_h = jet_reciprocal(jet_det(h))
    agg = {}
    for k in range(n + 1):
        for cols in combinations(range(n), k):
            for rows in permutations(range(n), k):
                series = _reference_pattern_determinant(h, Lv0, cols, rows, ctx)
                for p, coeff in enumerate(series.coeffs):
                    val = float(jet_norm(jet_mul(coeff, recip_det_h), params.R))
                    agg[(p, k)] = agg.get((p, k), 0.0) + val
    got = nonlinearity_bounds(sol, params, 4)
    assert set(got) == {
        (p, q, k)
        for (p, k), val in agg.items()
        if val != 0.0
        for q in range(5)
        if p + q + 2 * k >= 2 and p + q + k <= 4
    }
    for (p, q, k), bound in got.items():
        assert bound == pytest.approx(agg[(p, k)] / math.factorial(q), rel=1e-12, abs=0.0)


# -- domination ----------------------------------------------------------------------


def test_domination_on_flat_includes_margin(flat_solutions):
    sol = flat_solutions[1]
    params = estimate_params(sol, 0.2)
    rep = check_domination(sol, params, dominating_sequence(sol, params))
    assert rep.passed
    for row in rep.rows:
        if row.status == "pass":
            assert row.margin >= 0


def test_domination_on_perturbed_member():
    sol = solve_corpus_member(1, 0)
    params = estimate_params(sol, 0.2)
    rep = check_domination(sol, params, dominating_sequence(sol, params))
    assert rep.passed
    assert rep.C[1] == params.A
    orders = {r.m for r in rep.rows}
    assert orders == set(range(1, sol.t_order + 1))


def test_domination_first_order_tight_by_construction():
    sol = solve_corpus_member(1, 1)
    params = estimate_params(sol, 0.2)
    rep = check_domination(sol, params, dominating_sequence(sol, params))
    first = [r for r in rep.rows if r.m == 1 and r.inequality == "value"]
    assert all(r.observed <= params.A for r in first)


@pytest.fixture(scope="module")
def bumped_scenario():
    """perturbed_flat:2,0.1,0,2 at M4 D10 with the params and C of its clean
    solution, as the ``majorant`` command builds them at R = 0.2."""
    sol = solve(geo.perturbed_flat(2, 0.1, 0, 2, 10), SolverConfig(t_order=4))
    params = estimate_params(sol, 0.2)
    return sol, params, dominating_sequence(sol, params)


def test_domination_fails_on_a_bumped_first_order_potential(bumped_scenario):
    # negative control: bump v_1 (constant and x1^2) by 2 and keep the
    # clean bounds; the value rows of m = 1 must fail at all three radii
    sol, params, C = bumped_scenario
    assert check_domination(sol, params, C).passed
    rep = check_domination(perturb_solution(sol, "v", 1, 2.0), params, C)
    failed = [(r.inequality, r.m, r.radius) for r in rep.rows if r.status == "fail"]
    assert failed == [("value", 1, r) for r in domination_radii(params.R)]


@pytest.mark.parametrize("order", [1, 2, 3])
def test_domination_misses_bumps_within_its_slack(bumped_scenario, order):
    # how loose the majorant is: a bump of 1 at orders 1-3 still passes
    sol, params, C = bumped_scenario
    assert check_domination(perturb_solution(sol, "v", order, 1.0), params, C).passed


# -- radius heuristics -----------------------------------------------------------------


def test_radius_estimate_geometric_sequence():
    R, r, q = 0.5, 0.25, 0.7
    A = q  # makes the m-th root exact at every order
    C = [0.0] + [A * q ** (m - 1) * (R - r) ** (2 * m - 2) for m in range(1, 9)]
    est, note = radius_estimate(C, R, r)
    assert est == pytest.approx(1.0 / q, rel=1e-9)


def test_radius_estimate_offset_geometric_within_ten_percent():
    R, r, q = 0.5, 0.25, 0.8
    A = 0.6 * q
    C = [0.0] + [A * q ** (m - 1) * (R - r) ** (2 * m - 2) for m in range(1, 13)]
    est, _ = radius_estimate(C, R, r)
    assert abs(est - 1.0 / q) <= 0.1 / q


def test_radius_estimate_entire_cases():
    est, note = radius_estimate([0.0, 1.0, 0.0, 0.0, 0.0], 0.5, 0.25)
    assert est is None and "entire" in note
    with pytest.raises(InvalidInputError):
        radius_estimate([0.0, 1.0, 0.5], 0.5, 0.25)


def test_flat_pipeline_reports_entire(flat_solutions):
    sol = flat_solutions[1]
    params = estimate_params(sol, 0.2)
    rep = check_domination(sol, params, dominating_sequence(sol, params))
    assert rep.radius_estimate is None
    assert "entire" in rep.radius_note


# -- derivative growth lemma ------------------------------------------------------------


def lemma_rows(p, C, R):
    return [r for r in cauchy_estimate_check(C, R) if r.p == p]


def test_cauchy_estimate_constant_case():
    rows = lemma_rows(0, 1.0, 0.3)
    assert all(r.status == "pass" for r in rows)
    assert all(r.observed == 0.0 for r in rows)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_cauchy_estimate_pole_family(p):
    rows = lemma_rows(p, 2.0, 0.3)
    assert all(r.status == "pass" for r in rows)
    # observed is within the analytic prediction Cp/(R-r)^{p+1} (+ tail slop)
    for r in rows:
        predicted = 2.0 * p / (0.3 - r.radius) ** (p + 1)
        assert r.observed <= predicted * 1.05


def test_cauchy_estimate_scaling_ratio_invariance():
    a = lemma_rows(2, 1.0, 0.3)
    b = lemma_rows(2, 2.0, 0.3)
    for ra, rb in zip(a, b):
        assert rb.observed == pytest.approx(2 * ra.observed, rel=1e-12)
        assert rb.bound == pytest.approx(2 * ra.bound, rel=1e-12)


def _one_power_lemma(p, C, R):
    """The lemma rows of one power p in closed form.  f_p = C/(R - x1)^p has
    the positive coefficients C binom(p+k-1, k) / R^{p+k}, so the norm of
    its derivative at r is that derivative, truncated at degree 39 like the
    degree-40 jet of f_p, evaluated at x1 = r."""
    rows = []
    for r in domination_radii(R):
        observed = sum(
            k * C * math.comb(p + k - 1, k) * r ** (k - 1) / R ** (p + k) for k in range(1, 41)
        )
        bound = C * math.e * (p + 1) / (R - r) ** (p + 1)
        rows.append(CauchyEstimateRow(p, r, observed, bound, "pass" if observed <= bound else "fail"))
    return rows


@pytest.mark.parametrize("R", [0.1, 0.2, 0.3, 0.35])
@pytest.mark.parametrize("C", [1.0, 2.5])
def test_lemma_family_equals_one_power_at_a_time(C, R):
    expected = [row for p in range(4) for row in _one_power_lemma(p, C, R)]
    got = cauchy_estimate_check(C, R)
    assert [(r.p, r.radius, r.bound, r.status) for r in got] == [
        (r.p, r.radius, r.bound, r.status) for r in expected
    ]
    for g, e in zip(got, expected):
        assert g.observed == pytest.approx(e.observed, rel=1e-13, abs=0.0)


# The lemma family as the jets of one variable that the arrays replace: the
# reciprocal of R - x1 and the products f_p = f_{p-1} rec at degree 40.
@pytest.mark.parametrize("R", [0.1, 0.2, 0.3, 0.35])
@pytest.mark.parametrize("C", [1.0, 2.5, 3.7, 123.456])
def test_lemma_arrays_equal_the_jet_path_bitwise(C, R):
    ctx = context(1, 40)
    rec = jet_reciprocal(jet_scale(ctx.x(0), -1.0) + R)
    f = ctx.constant(C)
    x1_powers = [ctx.rank_of((k, 0)) for k in range(40)]
    for p, got in zip(majorant.LEMMA_POWERS, majorant._lemma_derivatives(C, R), strict=True):
        if p:
            f = jet_mul(f, rec)
        want = jet_derive(f, 0).coeffs
        assert not want.imag.any()
        assert not np.delete(want, x1_powers).any()
        assert got.tobytes() == want[x1_powers].real.tobytes()


# -- the weighted l1 norm -------------------------------------------------------------

_NORM_CAPS = {1: 10, 2: 8, 3: 6, 4: 4}


@given(
    st.integers(0, 10**6),
    st.integers(1, 4),
    st.booleans(),
    st.floats(0.05, 0.95),
)
@settings(max_examples=60, deadline=None)
def test_norm_bounds_the_jet_on_the_polydisc(seed, n, real, r):
    ctx = context(n, _NORM_CAPS[n])
    rng = np.random.default_rng(seed)
    vd = int(rng.integers(-1, ctx.cap + 1))
    c = rng.standard_normal(ctx.size)
    if not real:
        c = c + 1j * rng.standard_normal(ctx.size)
    jet = Jet(ctx, c, vd)
    norm = float(jet_norm(jet, r))
    values = jet_eval_many(jet, polydisc_sample(ctx.nvars, r, rng))
    assert np.all(np.abs(values) <= norm * (1.0 + 1e-12))
    # tight: with |coefficients| the norm is the value at the corner (r, .., r)
    corner = jet_eval_many(Jet(ctx, np.abs(c), vd), np.full((1, ctx.nvars), r))[0]
    assert norm == pytest.approx(corner.real, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("n, cap", [(1, 12), (2, 10), (4, 4)])
def test_norm_by_horner_has_the_bits_of_polyval(n, cap):
    # every validity, scalar and array radii, NaN, inf and signed zeros
    ctx = context(n, cap)
    rng = np.random.default_rng(cap)
    radii = (0.05, 0.2, 0.35, 0.75)
    for trial in range(4):
        c = rng.standard_normal(ctx.size) * 10.0 ** rng.integers(-8, 8, ctx.size)
        c = c + 1j * rng.standard_normal(ctx.size) if trial % 2 else c.astype(np.complex128)
        if trial == 3:
            c[rng.integers(0, ctx.size, 3)] = [np.nan, np.inf, -0.0]
        for vd in range(-1, cap + 1):
            jet = Jet(ctx, c, vd)
            sums = np.add.reduceat(np.abs(jet.prefix), ctx._blocks[: max(vd + 1, 0)])
            for r in radii + (radii[:3],):
                want = np.polyval(sums[::-1], r) if vd >= 0 else np.zeros_like(np.asarray(r, dtype=float))
                assert np.asarray(jet_norm(jet, r)).tobytes() == np.asarray(want).tobytes()
