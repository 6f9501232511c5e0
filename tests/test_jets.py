
import math
import tracemalloc

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import jet_eval, plan_sides, record_sum_products
from oracles import (
    cauchy_fold,
    exponent_table,
    jet_to_expr,
    jet_vs_expr,
    row_loop_mul,
    row_loop_series,
    series_add_fold,
    series_mul_fold,
    series_oracle,
    series_sub_fold,
    t_exp_fold,
    t_reciprocal_fold,
)
from ricciflat import jets
from ricciflat.errors import (
    DimensionMismatchError,
    SingularInputError,
    ValidityError,
)
from ricciflat.jets import (
    Jet,
    TJet,
    cauchy_sum,
    context,
    jet_add,
    jet_conj,
    jet_derive,
    jet_eval_many,
    jet_exp,
    jet_log,
    jet_mul,
    jet_reciprocal,
    jet_scale,
    jet_through,
    max_abs_coeff,
    max_coeff_diff,
    t_derive,
    t_exp,
    t_integrate,
    t_reciprocal,
)


def random_jet(ctx, rng, scale=1.0, real=False, max_degree=None):
    c = rng.standard_normal(ctx.size) * scale
    if not real:
        c = c + 1j * rng.standard_normal(ctx.size) * scale
    if max_degree is not None:
        c[ctx.deg_start[max_degree + 1] :] = 0
    return Jet(ctx, c.astype(np.complex128), ctx.cap)


# -- ring operations ---------------------------------------------------------


def test_difference_of_squares():
    ctx = context(1, 2)
    x = ctx.x(0)
    prod = (1 + x) * (1 - x)
    assert prod.constant_term == 1
    assert prod.coefficient((2, 0)) == -1
    assert prod.coefficient((1, 0)) == 0


def test_truncation_drops_top_degree():
    ctx = context(1, 1)
    x = ctx.x(0)
    prod = (1 + x) * (1 - x)
    # x^2 does not exist at cap 1
    assert np.allclose(prod.coeffs, ctx.constant(1.0).coeffs)


def test_additive_identity_random():
    ctx = context(2, 5)
    rng = np.random.default_rng(7)
    a = random_jet(ctx, rng)
    assert max_coeff_diff(a + ctx.zero(), a) == 0.0


@given(st.integers(0, 10 ** 6))
@settings(max_examples=25, deadline=None)
def test_ring_axioms(seed):
    ctx = context(1, 6)
    rng = np.random.default_rng(seed)
    a, b, c = (random_jet(ctx, rng) for _ in range(3))
    assoc = max_coeff_diff(jet_mul(jet_mul(a, b), c), jet_mul(a, jet_mul(b, c)))
    dist = max_coeff_diff(jet_mul(a, b + c), jet_mul(a, b) + jet_mul(a, c))
    comm = max_coeff_diff(jet_mul(a, b), jet_mul(b, a))
    scale = max(1.0, np.max(np.abs(a.coeffs)) * np.max(np.abs(b.coeffs)))
    assert assoc <= 1e-12 * scale * max(1.0, np.max(np.abs(c.coeffs)))
    assert dist <= 1e-12 * scale
    assert comm <= 1e-12 * scale


def test_context_mismatch_raises():
    a = context(1, 4).x(0)
    b = context(2, 4).x(0)
    with pytest.raises(DimensionMismatchError):
        jet_add(a, b)


def test_mul_vs_symbolic_oracle():
    ctx = context(2, 4)
    rng = np.random.default_rng(3)
    a = random_jet(ctx, rng, max_degree=2)
    b = random_jet(ctx, rng, max_degree=2)
    ea, _ = jet_to_expr(a)
    eb, _ = jet_to_expr(b)
    assert jet_vs_expr(jet_mul(a, b), ea * eb) < 1e-12


# -- exp / log ---------------------------------------------------------------


def test_exp_of_zero():
    ctx = context(1, 4)
    assert max_coeff_diff(jet_exp(ctx.zero()), ctx.constant(1.0)) == 0.0


def test_exp_linear_combination():
    ctx = context(1, 2)
    e = jet_exp(ctx.x(0) + ctx.y(0))
    assert e.constant_term == 1
    assert e.coefficient((1, 0)) == 1
    assert e.coefficient((0, 1)) == 1
    assert e.coefficient((2, 0)) == pytest.approx(0.5)
    assert e.coefficient((1, 1)) == pytest.approx(1.0)
    assert e.coefficient((0, 2)) == pytest.approx(0.5)


def test_log_of_one_and_mercator():
    ctx = context(1, 3)
    x = ctx.x(0)
    assert max_coeff_diff(jet_log(ctx.constant(1.0)), ctx.zero()) == 0.0
    l = jet_log(1 + x)
    assert l.coefficient((1, 0)) == pytest.approx(1.0)
    assert l.coefficient((2, 0)) == pytest.approx(-0.5)
    assert l.coefficient((3, 0)) == pytest.approx(1.0 / 3.0)


def test_log_zero_constant_raises():
    ctx = context(1, 3)
    with pytest.raises(SingularInputError):
        jet_log(ctx.x(0))
    with pytest.raises(SingularInputError):
        jet_reciprocal(ctx.x(0))


def test_log_exp_roundtrip_sampled_against_symbolics():
    # the inverse-pair property, cross-checked by evaluating the symbolic
    # exponential at random points near the origin
    ctx = context(2, 6)
    rng = np.random.default_rng(11)
    a = random_jet(ctx, rng, scale=0.3, max_degree=3)
    a = Jet(ctx, a.coeffs - a.coeffs[0] + 0.2, ctx.cap)  # real positive constant
    back = jet_log(jet_exp(a))
    assert max_coeff_diff(back, a) < 1e-10

    ea, syms = jet_to_expr(a)
    exp_jet = jet_exp(a)
    pts = rng.uniform(-0.05, 0.05, size=(20, ctx.nvars))
    for p in pts:
        subs = dict(zip(syms, p))
        want = complex(sp.exp(ea.evalf(subs=subs)))
        got = jet_eval(exp_jet, p)
        # gap is pure truncation tail of the degree-6 jet
        assert abs(got - want) < 1e-8


def test_exp_homomorphism():
    ctx = context(1, 6)
    rng = np.random.default_rng(5)
    a = random_jet(ctx, rng, scale=0.4)
    b = random_jet(ctx, rng, scale=0.4)
    lhs = jet_exp(a + b)
    rhs = jet_mul(jet_exp(a), jet_exp(b))
    scale = max(1.0, np.max(np.abs(lhs.coeffs)))
    assert max_coeff_diff(lhs, rhs) <= 1e-10 * scale


def test_log_det_diagonal_example():
    # det diag(1+x, 1-x) = 1-x^2, log at cap 2 is exactly -x^2
    ctx = context(1, 2)
    x = ctx.x(0)
    det = (1 + x) * (1 - x)
    l = jet_log(det)
    assert l.constant_term == 0
    assert l.coefficient((2, 0)) == pytest.approx(-1.0)


# -- exp, log and reciprocal by the degree recurrence ---------------------------

_SERIES = {"exp": jet_exp, "log": jet_log, "reciprocal": jet_reciprocal}


def test_series_of_an_untrusted_jet_are_untrusted_zero_jets():
    # the stored constant is 0, which log and reciprocal would refuse, but it
    # is not trusted, so it is not read
    ctx = context(1, 4)
    untrusted = Jet(ctx, ctx.x(0).coeffs, -1)
    for f in _SERIES.values():
        out = f(untrusted)
        assert out.valid_degree == -1
        assert not out.coeffs.any()


def test_series_leave_the_tail_past_the_trusted_degree_zero():
    ctx = context(1, 4)
    x = ctx.x(0)
    a = Jet(ctx, (2 + x * x).coeffs, 0)
    rec = jet_reciprocal(a)
    assert rec.valid_degree == 0 and rec.constant_term == 0.5
    assert not rec.coeffs[1:].any()
    for f in _SERIES.values():
        assert not f(a).coeffs[1:].any()


def _series_operand(ctx, rng, real, valid_degree):
    """Random jet with nilpotent part of scale 0.3, some whole zero degree
    blocks, and a constant of modulus at least 1 and either sign."""
    c = rng.standard_normal(ctx.size) * 0.3
    if not real:
        c = c + 1j * rng.standard_normal(ctx.size) * 0.3
    for d in range(1, ctx.cap + 1):
        if rng.random() < 0.2:
            c[ctx.deg_start[d] : ctx.deg_start[d + 1]] = 0.0
    c[0] = rng.choice([-1.0, 1.0]) * (1.0 + 0.5 * rng.random())
    if not real:
        c[0] += 0.3j * rng.standard_normal()
    return Jet(ctx, np.asarray(c, dtype=np.complex128), valid_degree)


_series_cases = given(
    st.integers(0, 10**6),
    st.integers(1, 4),
    st.booleans(),
    st.integers(0, 9),
)


@_series_cases
@settings(max_examples=60, deadline=None)
def test_series_match_the_power_series_oracle(seed, n, real, vd):
    # Tolerance relative to the majorant series (every term taken in absolute
    # value): a block's rounding error scales with the terms its sum adds,
    # which cancellation can make larger than the result.
    ctx = context(n, _KERNEL_CAPS[n])
    a = _series_operand(ctx, np.random.default_rng(seed), real, min(vd, ctx.cap))
    end = ctx.deg_start[a.valid_degree + 1]
    for kind, f in _SERIES.items():
        got = f(a)
        want = series_oracle(a, kind)
        scale = max(1.0, float(np.max(np.abs(series_oracle(a, kind, majorant=True)))))
        assert got.valid_degree == a.valid_degree
        assert float(np.max(np.abs(got.coeffs[:end] - want))) <= 1e-15 * scale
        assert not got.coeffs[end:].any()


@_series_cases
@settings(max_examples=60, deadline=None)
def test_series_are_inverse_pairs(seed, n, real, vd):
    ctx = context(n, _KERNEL_CAPS[n])
    a = _series_operand(ctx, np.random.default_rng(seed), real, min(vd, ctx.cap))
    back = jet_exp(jet_log(a))
    assert max_coeff_diff(back, a) <= 1e-13 * max(1.0, max_abs_coeff(a))
    rec = jet_reciprocal(a)
    one = jet_mul(a, rec)
    assert one.valid_degree == a.valid_degree
    scale = max(1.0, max_abs_coeff(a) * max_abs_coeff(rec))
    assert max_coeff_diff(one, ctx.constant(1.0)) <= 1e-13 * scale


# -- derivatives and evaluation ----------------------------------------------


def test_derivative_of_monomial():
    ctx = context(1, 4)
    x, y = ctx.x(0), ctx.y(0)
    d = jet_derive(x * x * y, 0)
    assert max_coeff_diff(d, 2 * (x * y)) == 0.0
    assert jet_derive(ctx.constant(3.0), 0).effective_degree == -1


def test_mixed_partials_commute():
    ctx = context(2, 6)
    rng = np.random.default_rng(13)
    a = random_jet(ctx, rng)
    ab = jet_derive(jet_derive(a, 0), 3)
    ba = jet_derive(jet_derive(a, 3), 0)
    assert max_coeff_diff(ab, ba) <= 1e-12 * max(1.0, np.max(np.abs(a.coeffs)))


def test_derivative_validity_bookkeeping():
    ctx = context(1, 3)
    a = Jet(ctx, ctx.x(0).coeffs, 1)
    d = jet_derive(a, 0)
    assert d.valid_degree == 0
    assert d.constant_term == 1
    # deriving past the trusted degree still lowers the metadata; the guard
    # sits at the read
    d2 = jet_derive(d, 0)
    assert d2.valid_degree == -1
    with pytest.raises(ValidityError):
        d2.constant_term


def test_reads_past_the_trusted_degree_raise():
    ctx = context(1, 4)
    x, y = ctx.x(0), ctx.y(0)
    a = Jet(ctx, (1 + x + x * x * y).coeffs, 2)
    assert a.constant_term == 1
    assert a.coefficient((1, 0)) == 1
    assert a.coefficient((1, 1)) == 0
    with pytest.raises(ValidityError):
        a.coefficient((2, 1))
    untrusted = Jet(ctx, a.coeffs, -1)
    with pytest.raises(ValidityError):
        untrusted.constant_term
    with pytest.raises(ValidityError):
        untrusted.coefficient((0, 0))
    # ring operations on an untrusted jet give an untrusted result, not an error
    assert jet_exp(untrusted).valid_degree == -1
    assert jet_reciprocal(untrusted).valid_degree == -1


def test_twice_derived_jet_is_untrusted_and_evaluates_to_zero():
    ctx = context(2, 6)
    rng = np.random.default_rng(19)
    a = Jet(ctx, random_jet(ctx, rng).coeffs, 1)
    d2 = jet_derive(jet_derive(a, 0), 3)
    assert d2.valid_degree == -1
    # no operation computes an untrusted jet: the derivative is the shared one
    assert d2 is ctx.zero(-1)
    pts = rng.uniform(-0.3, 0.3, size=(5, ctx.nvars))
    assert not jet_eval_many(d2, pts).any()


def test_eval_examples():
    ctx = context(1, 4)
    x = ctx.x(0)
    assert jet_eval(1 + x, [0.0, 0.0]) == 1.0
    assert jet_eval(x * x, [0.5, 0.0]) == pytest.approx(0.25)


def test_eval_multiplicativity_for_half_degree_inputs():
    ctx = context(2, 8)
    rng = np.random.default_rng(17)
    a = random_jet(ctx, rng, max_degree=4)
    b = random_jet(ctx, rng, max_degree=4)
    p = rng.uniform(-0.3, 0.3, size=ctx.nvars)
    lhs = jet_eval(jet_mul(a, b), p)
    rhs = jet_eval(a, p) * jet_eval(b, p)
    assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


def test_conjugation_matches_value_conjugation():
    ctx = context(1, 5)
    rng = np.random.default_rng(23)
    a = random_jet(ctx, rng)
    p = rng.uniform(-0.4, 0.4, size=ctx.nvars)
    assert abs(jet_eval(jet_conj(a), p) - np.conj(jet_eval(a, p))) < 1e-12


# -- truncation monotonicity ---------------------------------------------------


def _truncate(a, new_cap):
    """Restrict to a lower degree cap: graded ordering makes it a prefix."""
    ctx = context(a.ctx.n, new_cap)
    return Jet(ctx, a.coeffs[: ctx.size], min(a.valid_degree, new_cap))


@given(st.integers(0, 10 ** 6))
@settings(max_examples=20, deadline=None)
def test_truncation_monotonicity(seed):
    # computing at cap D then truncating equals computing at the lower cap
    hi, lo = 8, 4
    ctx_hi = context(1, hi)
    rng = np.random.default_rng(seed)
    a = random_jet(ctx_hi, rng, scale=0.5)
    b = random_jet(ctx_hi, rng, scale=0.5)
    prod_hi = _truncate(jet_mul(a, b), lo)
    prod_lo = jet_mul(_truncate(a, lo), _truncate(b, lo))
    assert max_coeff_diff(prod_hi, prod_lo) == 0.0
    exp_hi = _truncate(jet_exp(a), lo)
    exp_lo = jet_exp(_truncate(a, lo))
    assert max_coeff_diff(exp_hi, exp_lo) <= 1e-12 * max(
        1.0, np.max(np.abs(exp_lo.coeffs))
    )


# -- t-series -----------------------------------------------------------------


def test_t_integrate_example():
    ctx = context(1, 4)
    a0 = ctx.constant(2.0)
    a1 = ctx.x(0)
    series = TJet([a0, a1])
    integ = t_integrate(series)
    assert integ.coeffs[0].effective_degree == -1
    assert max_coeff_diff(integ.coeffs[1], a0) == 0.0
    assert max_coeff_diff(integ.coeffs[2], jet_scale(a1, 0.5)) == 0.0


def test_t_derive_of_integral_is_identity():
    ctx = context(1, 4)
    rng = np.random.default_rng(29)
    series = TJet([random_jet(ctx, rng) for _ in range(5)])
    back = t_derive(t_integrate(series))
    for m in range(series.order + 1):
        # (c/(m+1))*(m+1) rounds by at most one ulp
        assert max_coeff_diff(back.coeffs[m], series.coeffs[m]) <= 1e-14


def test_t_reciprocal_roundtrip():
    ctx = context(1, 4)
    rng = np.random.default_rng(31)
    coeffs = [ctx.constant(2.0)] + [random_jet(ctx, rng, scale=0.3) for _ in range(4)]
    series = TJet(coeffs)
    prod = series * t_reciprocal(series)
    assert max_coeff_diff(prod.coeffs[0], ctx.constant(1.0)) < 1e-12
    for m in range(1, prod.order + 1):
        assert np.max(np.abs(prod.coeffs[m].coeffs)) < 1e-12


def test_jets_close_uses_common_validity():
    ctx = context(1, 6)
    x = ctx.x(0)
    a = x * x * x + x * x
    b = Jet(ctx, (x * x).coeffs, 2)  # agrees with a through its trusted degree
    assert max_coeff_diff(a, b) <= 1e-12
    c = Jet(ctx, (2 * (x * x)).coeffs, 2)  # differs already at degree 2
    assert max_coeff_diff(a, c) > 1e-12


# -- row-fused product kernel ---------------------------------------------------

# Reference: the per-(da, db) block loop that the row-fused kernel replaced,
# with its own uncached pair tables.  jet_mul must reproduce it bit for bit.


def _reference_block_pairs(ctx, da, db):
    ia = np.arange(ctx.deg_start[da], ctx.deg_start[da + 1])
    ib = np.arange(ctx.deg_start[db], ctx.deg_start[db + 1])
    I = np.repeat(ia, len(ib))
    J = np.tile(ib, len(ia))
    K = ctx._lookup_keys(ctx._packed[I] + ctx._packed[J]) - ctx.deg_start[da + db]
    order = np.argsort(K, kind="stable")
    Ks = K[order]
    seg_starts = np.flatnonzero(np.r_[True, Ks[1:] != Ks[:-1]])
    return I[order], J[order], seg_starts, Ks[seg_starts]


def _reference_mul(a, b):
    ctx = a.ctx
    vd = min(a.valid_degree, b.valid_degree)
    out = np.zeros(ctx.size, dtype=np.complex128)
    if vd < 0:
        return out, vd
    start = ctx.deg_start
    av, bv = a.coeffs[: start[vd + 1]], b.coeffs[: start[vd + 1]]
    nz_a = np.logical_or.reduceat(av != 0, start[: vd + 1])
    nz_b = np.logical_or.reduceat(bv != 0, start[: vd + 1])
    if not (nz_a.any() and nz_b.any()):
        return out, vd
    both_real = not (av.imag.any() or bv.imag.any())
    if both_real:
        av, bv = av.real.copy(), bv.real.copy()
        out = np.zeros(ctx.size, dtype=np.float64)
    for da in np.flatnonzero(nz_a):
        for db in np.flatnonzero(nz_b[: vd - da + 1]):
            I, J, seg_starts, out_idx = _reference_block_pairs(ctx, da, db)
            prod = av[I]
            prod *= bv[J]
            seg = out[start[da + db] : start[da + db + 1]]
            seg[out_idx] += np.add.reduceat(prod, seg_starts)
    return out.astype(np.complex128), vd


_KERNEL_CAPS = {1: 9, 2: 6, 3: 5, 4: 4}


def _kernel_operand(ctx, rng, kind, valid_degree):
    """Random jet with whole zero blocks, exact +-0.0 entries and mixed signs;
    ``kind`` is "real", "complex" or "constant" (a real constant only)."""
    c = rng.standard_normal(ctx.size) * 10.0 ** rng.integers(-2, 3)
    if kind == "complex":
        c = c + 1j * rng.standard_normal(ctx.size)
    for d in range(ctx.cap + 1):
        if rng.random() < 0.3:
            c[ctx.deg_start[d] : ctx.deg_start[d + 1]] = 0.0
    c[rng.random(ctx.size) < 0.1] = 0.0
    c[rng.random(ctx.size) < 0.1] = -0.0
    if kind == "constant":
        c = np.zeros(ctx.size)
        c[0] = rng.choice([-1.5, -0.0, 2.0])
    return Jet(ctx, np.asarray(c, dtype=np.complex128), valid_degree)


def _assert_matches_reference(a, b):
    got = jet_mul(a, b)
    want, vd = _reference_mul(a, b)
    assert got.valid_degree == vd
    assert got.coeffs.tobytes() == want.tobytes()


@given(
    st.integers(0, 10**6),
    st.integers(1, 4),
    st.sampled_from(["real", "complex", "constant"]),
    st.sampled_from(["real", "complex", "constant"]),
    st.integers(-1, 9),
    st.integers(-1, 9),
)
@settings(max_examples=150, deadline=None)
def test_row_fused_product_matches_block_loop_bitwise(seed, n, kind_a, kind_b, va, vb):
    ctx = context(n, _KERNEL_CAPS[n])
    rng = np.random.default_rng(seed)
    a = _kernel_operand(ctx, rng, kind_a, min(va, ctx.cap))
    b = _kernel_operand(ctx, rng, kind_b, min(vb, ctx.cap))
    _assert_matches_reference(a, b)
    _assert_matches_reference(b, a)


@pytest.mark.parametrize("valid_degree", [0, 4])
def test_product_summing_to_negative_zero_stays_positive_zero(valid_degree):
    # (-1) * (+0.0) = -0.0 is the whole constant-term sum; the output starts
    # at +0.0 and is only added to, so it stays +0.0 as the block loop had it
    ctx = context(2, 4)
    a = ctx.constant(-1.0, valid_degree)
    for b in (ctx.x(0), jet_scale(ctx.y(1), 1j), ctx.constant(1.0) - 1.0):
        for x, y in ((a, b), (b, a)):
            _assert_matches_reference(x, y)
            const = jet_mul(x, y).coeffs[0]
            assert const == 0 and not np.signbit(const.real) and not np.signbit(const.imag)


# -- untrusted results and degree-0 products -------------------------------------------


@given(st.integers(-4, 6), st.integers(-4, 6), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_untrusted_results_are_the_shared_zero_jet_and_allocate_nothing(va, vb, seed):
    ctx = context(2, 6)
    rng = np.random.default_rng(seed)
    a = Jet(ctx, random_jet(ctx, rng).coeffs, va)
    b = Jet(ctx, random_jet(ctx, rng).coeffs, vb)
    vd = min(va, vb)
    ops = [
        (lambda: jet_add(a, b), vd),
        (lambda: a - b, vd),
        (lambda: b - a, vd),
        (lambda: jet_mul(a, b), vd),
        (lambda: jet_scale(a, 2.5j), va),
        (lambda: -a, va),
        (lambda: jet_conj(a), va),
        (lambda: jet_derive(a, 3), va - 1),
        (lambda: jet_exp(a), va),
        (lambda: jet_log(a), va),
        (lambda: jet_reciprocal(a), va),
        (lambda: ctx.zero(vb), vb),
    ]
    if vb < 0:
        ops.append((lambda: jet_through(a, vb), vd))
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        for op, want in ops:
            if want >= 0:
                continue
            shared = ctx.zero(want)
            assert shared.valid_degree == want and not shared.coeffs.any()
            assert not shared.coeffs.flags.writeable and shared.coeffs.shape == (ctx.size,)
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = op()
            grown = tracemalloc.get_traced_memory()[1] - before
            assert out is shared
            # not one coefficient array is allocated on the way
            assert grown < 16 * ctx.size
    finally:
        if started:
            tracemalloc.stop()


def test_degree_zero_product_is_bitwise_the_row_loop_on_edge_values():
    # +-0, NaN, +-inf, subnormal and huge parts, real and complex: 90 values,
    # 8,100 ordered pairs, each at validity 0 against validity 0 or the cap.
    # Subnormal products underflow to +-0.0 and huge ones overflow to +-inf.
    parts = [0.0, -0.0, 1.5, 5e-324, -5e-324, -1e308, math.inf, -math.inf, math.nan]
    values = [complex(re, im) for re in parts for im in parts + [0.75]]
    ctx = context(1, 2)
    tail = np.arange(ctx.size) * (1.0 - 2.0j)  # past degree 0: not stored

    def constant(value, vd):
        c = tail.copy()
        c[0] = value
        return Jet(ctx, c, vd)

    low = [constant(value, 0) for value in values]
    full = [constant(value, ctx.cap) for value in values]
    pairs = 0
    with np.errstate(all="ignore"):
        for k, a in enumerate(low):
            for b in low if k % 2 else full:
                for x, y in ((a, b), (b, a)):
                    got = jet_mul(x, y)
                    assert got.valid_degree == 0
                    assert got.coeffs.tobytes() == row_loop_mul(x, y).tobytes()
                pairs += 1
    assert pairs == 8100


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_row_loop_reference_is_the_product_kernel(n):
    ctx = context(n, _KERNEL_CAPS[n])
    rng = np.random.default_rng(50 + n)
    for kind_a, kind_b in (("real", "complex"), ("complex", "complex"), ("real", "constant")):
        for vd in range(-1, ctx.cap + 1):
            a = _kernel_operand(ctx, rng, kind_a, vd)
            b = _kernel_operand(ctx, rng, kind_b, ctx.cap)
            for x, y in ((a, b), (b, a)):
                assert jet_mul(x, y).coeffs.tobytes() == row_loop_mul(x, y).tobytes()


# caps at which dense n >= 2 products at full validity exceed the plan bound
_FUSED_CAPS = {1: 12, 2: 8, 3: 6}


def _fused_operands(ctx, rng):
    """Operands (a, validity of a, b, validity of b), one of them trusted
    to the cap and the other to each validity 0..cap in turn: real, complex
    and constant coefficients with whole zero blocks, and even-only ones,
    whose odd blocks are zero as in the Fubini-Study jets."""
    kinds = (("real", "complex"), ("complex", "complex"), ("real", "real"),
             ("constant", "complex"), ("even", "even"), ("even", "complex"))
    cases = []
    for vd in range(ctx.cap + 1):
        for kind_a, kind_b in kinds:
            ops = []
            for kind in (kind_a, kind_b):
                c = _kernel_operand(ctx, rng, "real" if kind == "even" else kind, ctx.cap).prefix
                if kind == "even":
                    c = c.copy()
                    for d in range(1, ctx.cap + 1, 2):
                        c[ctx.deg_start[d] : ctx.deg_start[d + 1]] = 0.0
                ops.append(c)
            cases.append((ops[0], vd, ops[1], ctx.cap))
            cases.append((ops[1], ctx.cap, ops[0], vd))
    return cases


def _plan_runs(monkeypatch, n):
    """For each run, "loop" (every plan a layout), "fused" (every plan in
    chunks) and "bounded" (the package's bound): its name, its bound and a
    private context, so that its plans are built under its bound."""
    for name, pairs in (("loop", -1), ("fused", 10**9), ("bounded", jets._PLAN_PAIRS)):
        monkeypatch.setattr(jets, "_PLAN_PAIRS", pairs)
        yield name, pairs, jets.JetContext(n, _FUSED_CAPS[n])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fused_product_is_the_row_loop_bitwise(monkeypatch, n):
    rng = np.random.default_rng(70 + n)
    cases = _fused_operands(context(n, _FUSED_CAPS[n]), rng)
    products, sides = {}, {}
    for name, pairs, ctx in _plan_runs(monkeypatch, n):
        products[name] = [
            jet_mul(Jet(ctx, a, va), Jet(ctx, b, vb)).coeffs.tobytes() for a, va, b, vb in cases
        ]
        sides[name] = plan_sides(ctx, "product", pairs)
    want = [row_loop_mul(Jet(ctx, a, va), Jet(ctx, b, vb)).tobytes() for a, va, b, vb in cases]
    assert products["loop"] == products["fused"] == products["bounded"] == want
    assert sides["loop"] == {"layout"} and sides["fused"] == {"chunk"}
    # the bounded run formed products on both sides of the bound past n = 1
    assert sides["bounded"] == ({"chunk", "layout"} if n > 1 else {"chunk"})


@pytest.mark.parametrize("n", [1, 2, 3])
def test_products_with_inf_and_nan_are_the_row_loop_on_both_sides(monkeypatch, n):
    # the operands of the fused products with +-inf and NaN parts in one
    # factor, against a factor with a zero block below its top nonzero one
    rng = np.random.default_rng(130 + n)
    ctx = context(n, _FUSED_CAPS[n])
    specials = [math.inf, -math.inf, math.nan, complex(math.inf, 1.0),
                complex(-2.0, math.inf), complex(1.0, math.nan)]
    cases = []
    for a, va, b, vb in _fused_operands(ctx, rng):
        a, b = a.copy(), b.copy()
        a[rng.choice(ctx.size, 3, replace=False)] = rng.choice(specials, 3)
        top = int(ctx.degrees[np.flatnonzero(b)[-1]]) if b.any() else 0
        if top > 1:
            d = int(rng.integers(1, top))
            b[ctx.deg_start[d] : ctx.deg_start[d + 1]] = 0.0
        cases += [(a, va, b, vb), (b, vb, a, va)]
    sides = {}
    with np.errstate(all="ignore"):
        want = [row_loop_mul(Jet(ctx, *case[:2]), Jet(ctx, *case[2:])) for case in cases]
        for name, pairs, run_ctx in _plan_runs(monkeypatch, n):
            for (a, va, b, vb), w in zip(cases, want):
                got = jet_mul(Jet(run_ctx, a, va), Jet(run_ctx, b, vb)).coeffs.view(np.float64)
                w = w.view(np.float64)
                # NaN sign and payload are not part of the contract
                nan = np.isnan(w)
                assert (np.isnan(got) == nan).all()
                assert got[~nan].tobytes() == w[~nan].tobytes()
            sides[name] = plan_sides(run_ctx, "product", pairs)
    values = np.concatenate(want)
    assert np.isnan(values).any() and np.isinf(values).any()
    assert sides["loop"] == {"layout"} and sides["fused"] == {"chunk"}
    assert sides["bounded"] == ({"chunk", "layout"} if n > 1 else {"chunk"})


def test_cauchy_sum_is_the_term_by_term_fold_bitwise():
    weights = (None, lambda j: 0.5 * j - 1.0, lambda j: -float(j))
    formed = 0
    for n in (1, 2, 3):
        ctx = context(n, _KERNEL_CAPS[n])
        rng = np.random.default_rng(80 + n)
        for _ in range(4):
            a, b = (
                [
                    _kernel_operand(
                        ctx, rng, str(rng.choice(["real", "complex", "constant"])),
                        int(rng.integers(-1, ctx.cap + 1)),
                    )
                    for _ in range(5)
                ]
                for _ in range(2)
            )
            for k in range(5):
                for js in (range(k + 1), range(1, k + 1), range(k, k + 1)):
                    for weight in weights if js else ():
                        got = cauchy_sum(a, b, k, js, weight)
                        want = cauchy_fold(a, b, k, js, weight)
                        assert got.valid_degree == want.valid_degree
                        assert got.prefix.tobytes() == want.prefix.tobytes()
                        formed += got.valid_degree >= 0
    assert formed > 100


def test_cauchy_sum_refuses_mixed_contexts():
    one, two = context(1, 4), context(2, 4)
    with pytest.raises(DimensionMismatchError):
        cauchy_sum([one.constant(1.0)], [two.constant(1.0)], 0, range(1))
    with pytest.raises(DimensionMismatchError):
        cauchy_sum([one.constant(1.0), two.constant(1.0)], [one.constant(1.0)] * 2, 1, range(2))


# -- cached block patterns ----------------------------------------------------------


def _recomputed_pattern(jet):
    """A jet's block pattern from its prefix, block by block: the bitmask of
    blocks with a coefficient != 0 and the first block with an imaginary
    part != 0 (valid_degree + 1 when none)."""
    start, vd = jet.ctx.deg_start, jet.valid_degree
    blocks = [jet.prefix[start[d] : start[d + 1]] for d in range(vd + 1)]
    mask = sum(1 << d for d, c in enumerate(blocks) if (c != 0).any())
    imag = [d for d, c in enumerate(blocks) if (c.imag != 0).any()]
    return mask, imag[0] if imag else vd + 1


def _pattern_operands(ctx, rng):
    """Jets trusted to the cap with NaN, -0.0 (real and imaginary), whole
    zero blocks, and imaginary parts only in the top blocks."""
    out = []
    for case in range(8):
        c = _kernel_operand(ctx, rng, ("real", "complex")[case % 2], ctx.cap).coeffs.copy()
        if case in (2, 3):
            c[rng.integers(ctx.size)] = complex(math.nan, 0.0) if case == 2 else complex(0.0, math.nan)
        if case == 4:  # a block of -0.0 only, real and imaginary
            d = int(rng.integers(ctx.cap + 1))
            c[ctx.deg_start[d] : ctx.deg_start[d + 1]] = complex(-0.0, -0.0)
        if case in (5, 6):  # complex only in the top blocks
            top = ctx.deg_start[ctx.cap - (case - 5)]
            c = c.real.astype(np.complex128)
            c[top:] += 1j * rng.standard_normal(ctx.size - top)
        if case == 7:
            c[:] = 0.0
        out.append(Jet(ctx, c, ctx.cap))
    return out


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cached_block_patterns_equal_a_recomputation(n):
    ctx = context(n, _KERNEL_CAPS[n])
    rng = np.random.default_rng(90 + n)
    operands = _pattern_operands(ctx, rng)
    made = list(operands)
    for a in operands:
        made += [jet_through(a, d) for d in range(ctx.cap + 1)]
    made += [ctx.zero(), ctx.zero(2), ctx.constant(2.0, 3), ctx.constant(1j), ctx.x(0), ctx.z(n - 1)]
    with np.errstate(all="ignore"):
        for a, b in zip(operands, operands[1:] + operands[:1]):
            made += [jet_mul(a, b), jet_add(a, b), jet_exp(a), jet_conj(b)]
            made.append(cauchy_sum([a, b], [b, a], 1, range(2)))
        for a in made:
            # a product reads both operands' patterns and caches them
            jet_mul(a, made[0])
            assert a._pattern == _recomputed_pattern(a)
    # each view's pattern is its parent's cut to the view's degree
    views = [jet_through(a, d) for a in operands for d in range(ctx.cap)]
    assert all(v._pattern == _recomputed_pattern(v) for v in views)
    # complex only in its top block, real through every lower degree
    top = operands[5]
    assert top._pattern[1] == ctx.cap
    assert all(jet_through(top, d)._pattern[1] == d + 1 for d in range(ctx.cap))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_product_of_a_view_is_that_of_a_fresh_jet_bitwise(n):
    ctx = context(n, _KERNEL_CAPS[n])
    rng = np.random.default_rng(95 + n)
    operands = _pattern_operands(ctx, rng)
    compared = 0
    with np.errstate(all="ignore"):
        for a in operands:
            for b in operands:
                for d in range(ctx.cap + 1):
                    view = jet_through(a, d)
                    fresh = Jet(ctx, view.coeffs, d)
                    assert fresh._pattern is None  # recomputed on its first product
                    for x, y in ((view, b), (b, view)):
                        other = (fresh, b) if x is view else (b, fresh)
                        assert jet_mul(x, y).prefix.tobytes() == jet_mul(*other).prefix.tobytes()
                        compared += 1
    assert compared == 2 * len(operands) ** 2 * (ctx.cap + 1)


# -- series plans -------------------------------------------------------------------


def _series_operands(ctx, rng):
    """Operands of the series functions: real and complex, with whole zero
    blocks, even-only (zero odd blocks), constants, and one nonzero only in
    blocks 0 and 2 with a NaN at x1^2."""
    out = []
    for kind in ("real", "complex", "even", "constant"):
        c = _kernel_operand(ctx, rng, "real" if kind == "even" else kind, ctx.cap).coeffs.copy()
        if kind == "even":
            for d in range(1, ctx.cap + 1, 2):
                c[ctx.deg_start[d] : ctx.deg_start[d + 1]] = 0.0
        c[0] = 1.5 - 0.5j if kind == "complex" else 1.5
        out.append(c)
    c = np.zeros(ctx.size, dtype=np.complex128)
    c[0] = 2.0
    c[ctx.deg_start[2] : ctx.deg_start[3]] = rng.standard_normal(ctx.deg_start[3] - ctx.deg_start[2])
    c[ctx.deg_start[2]] = math.nan
    out.append(c)
    return out


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fused_series_is_the_row_loop_bitwise(monkeypatch, n):
    cap = _FUSED_CAPS[n]
    operands = _series_operands(context(n, cap), np.random.default_rng(110 + n))
    functions = (("exp", jet_exp), ("log", jet_log), ("reciprocal", jet_reciprocal))
    results, sides = {}, {}
    for name, pairs, ctx in _plan_runs(monkeypatch, n):
        got = results[name] = []
        with np.errstate(all="ignore"):
            for c in operands:
                for vd in range(cap + 1):
                    a = Jet(ctx, c, vd)
                    for kind, f in functions:
                        out = f(a)
                        assert out.prefix.tobytes() == row_loop_series(a, kind).tobytes()
                        got.append(out.prefix.tobytes())
        sides[name] = plan_sides(ctx, "series", pairs)
    assert results["loop"] == results["fused"] == results["bounded"]
    assert sides["loop"] == {"layout"} and sides["fused"] == {"chunk"}
    # the bounded run took the chunks below the bound and, past n = 1, the
    # layouts above it
    assert sides["bounded"] == ({"chunk", "layout"} if n > 1 else {"chunk"})
    # a NaN at x1^2 reaches exactly its multiples, and block 1, which no
    # row reaches, stays zero
    ctx = context(n, cap)
    multiples = ctx.exponents[:, 0] >= 2
    with np.errstate(all="ignore"):
        for f in (jet_exp, jet_log, jet_reciprocal):
            out = f(Jet(ctx, operands[-1], cap)).prefix
            assert np.array_equal(np.isnan(out), multiples)
            assert not out[ctx.deg_start[1] : ctx.deg_start[2]].any()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_product_rows_grow_and_serve_smaller_requests_from_a_prefix(n):
    from ricciflat.jets import JetContext

    ctx = JetContext(n, _KERNEL_CAPS[n])  # private context: empty row cache
    rng = np.random.default_rng(50 + n)
    for vd in (1, ctx.cap, 0, 2, ctx.cap - 1):
        for kind in ("real", "complex"):
            a = Jet(ctx, rng.standard_normal(ctx.size) + (kind == "complex") * 1j, vd)
            b = Jet(ctx, rng.standard_normal(ctx.size), ctx.cap)
            _assert_matches_reference(a, b)
    # after the full-validity product each row da reaches db = cap - da
    for da, row in ctx._pair_cache.items():
        assert len(row[4]) == ctx.cap - da + 1
        pairs, segs = row[4][-1]
        assert len(row[0]) == len(row[1]) == pairs and len(row[2]) == len(row[3]) == segs


def _reference_row(ctx, da, db_max):
    """The row tables of ``JetContext.row_pairs`` from one reference block
    per db: segment starts offset by the pairs before, global target ranks."""
    parts, ends, pairs, segs = [], [], 0, 0
    for db in range(db_max + 1):
        I, J, seg_starts, local = _reference_block_pairs(ctx, da, db)
        parts.append((I, J, seg_starts + pairs, local + ctx.deg_start[da + db]))
        pairs += len(I)
        segs += len(seg_starts)
        ends.append((pairs, segs))
    return tuple(np.concatenate(col) for col in zip(*parts)) + (tuple(ends),)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_row_tables_equal_the_concatenated_reference_blocks(n):
    from ricciflat.jets import JetContext

    cap = _KERNEL_CAPS[n]
    # private contexts: a row asked for whole, grown block by block, and
    # grown by a jump of several blocks
    whole, stepped, jumped = (JetContext(n, cap) for _ in range(3))
    for da in range(cap + 1):
        top = cap - da
        requests = [(whole, top)] + [(stepped, db) for db in range(top + 1)]
        requests += [(jumped, top // 3), (jumped, top)]
        for ctx, db_max in requests:
            got = ctx.row_pairs(da, db_max)
            want = _reference_row(ctx, da, db_max)
            assert got[4] == want[4]
            for g, w in zip(got[:4], want[:4]):
                assert g.dtype == np.intp and np.array_equal(g, w)


# -- untrusted Cauchy terms ---------------------------------------------------------

# References: the plain Cauchy sums, which form every product whatever its
# validity.  The library skips t-coefficients whose validity is negative.


def _naive_tjet_mul(a, b):
    out = []
    for k in range(min(a.order, b.order) + 1):
        acc = jet_mul(a.coeffs[0], b.coeffs[k])
        for j in range(1, k + 1):
            acc = jet_add(acc, jet_mul(a.coeffs[j], b.coeffs[k - j]))
        out.append(acc)
    return TJet(out)


def _naive_t_reciprocal(a):
    b0 = jet_reciprocal(a.coeffs[0])
    out = [b0]
    for m in range(1, a.order + 1):
        acc = jet_mul(a.coeffs[1], out[m - 1])
        for k in range(2, m + 1):
            acc = jet_add(acc, jet_mul(a.coeffs[k], out[m - k]))
        out.append(jet_scale(jet_mul(b0, acc), -1.0))
    return TJet(out)


def _naive_t_exp(a):
    out = [jet_exp(a.coeffs[0])]
    for m in range(1, a.order + 1):
        acc = jet_scale(jet_mul(a.coeffs[1], out[m - 1]), 1.0)
        for k in range(2, m + 1):
            acc = jet_add(acc, jet_scale(jet_mul(a.coeffs[k], out[m - k]), float(k)))
        out.append(jet_scale(acc, 1.0 / m))
    return TJet(out)


def _decreasing_series(ctx, rng, step, order=5):
    coeffs = []
    for m in range(order + 1):
        c = (rng.standard_normal(ctx.size) + 1j * rng.standard_normal(ctx.size)) * 0.3
        c[0] = 1.5 if m == 0 else c[0]
        coeffs.append(Jet(ctx, c, ctx.cap - step * m))
    return TJet(coeffs)


def _assert_trusted_equal_and_untrusted_zero(got, want):
    assert got.valid_degrees == want.valid_degrees
    assert any(v < 0 for v in got.valid_degrees)
    for g, w in zip(got.coeffs, want.coeffs):
        if g.valid_degree < 0:
            assert not g.coeffs.any()
        else:
            end = g.ctx.deg_start[g.valid_degree + 1]
            assert g.coeffs[:end].tobytes() == w.coeffs[:end].tobytes()


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("steps", [(2, 2), (2, 3), (3, 2)])
def test_untrusted_cauchy_terms_are_zero_and_trusted_ones_unchanged(n, steps):
    ctx = context(n, 6)
    rng = np.random.default_rng(60 + n + 7 * steps[0] + steps[1])
    a = _decreasing_series(ctx, rng, steps[0])
    b = _decreasing_series(ctx, rng, steps[1])
    _assert_trusted_equal_and_untrusted_zero(a * b, _naive_tjet_mul(a, b))
    _assert_trusted_equal_and_untrusted_zero(t_reciprocal(a), _naive_t_reciprocal(a))
    _assert_trusted_equal_and_untrusted_zero(t_exp(b), _naive_t_exp(b))


# -- order validities of series operations -------------------------------------------

# Order validities that rise and fall, with untrusted orders mid-series.
_SCHEDULES = ((2, 0, -2, -4), (5, -1, 4, 0, 3), (0, 3, -2, 6, 1, 2), (-1, 4, 4), (6, 6, 1, 1, -3, 9))


def _schedule_series(ctx, rng, validities):
    """A series with the given order validities (clipped to the cap): real,
    complex or constant orders with zero blocks and +-0.0 entries, a NaN in
    some orders, and a nonzero constant term at order 0."""
    coeffs = []
    for m, vd in enumerate(validities):
        jet = _kernel_operand(ctx, rng, str(rng.choice(["real", "complex", "constant"])), vd)
        c = jet.coeffs.copy()
        if m == 0:
            c[0] = 1.5
        elif rng.random() < 0.3:
            c[rng.integers(ctx.size)] = np.nan
        coeffs.append(Jet(ctx, c, vd))
    return TJet(coeffs)


def _assert_series_is(got, want):
    """Bitwise the reference, order by order, with untrusted orders the
    context's shared zero jets."""
    assert got.valid_degrees == tuple(w.valid_degree for w in want)
    for g, w in zip(got.coeffs, want):
        assert g.prefix.tobytes() == w.prefix.tobytes()
        if g.valid_degree < 0:
            assert g is g.ctx.zero(g.valid_degree)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_series_operations_follow_the_per_order_reference_bitwise(n, monkeypatch):
    ctx = context(n, _KERNEL_CAPS[n])
    rng = np.random.default_rng(90 + n)
    untrusted = 0
    sums = record_sum_products(monkeypatch)
    for sa in _SCHEDULES:
        for sb in _SCHEDULES:
            a, b = _schedule_series(ctx, rng, sa), _schedule_series(ctx, rng, sb)
            _assert_series_is(a * b, series_mul_fold(a, b))
            _assert_series_is(a + b, series_add_fold(a, b))
            _assert_series_is(a - b, series_sub_fold(a, b))
            untrusted += sum(v < 0 for v in (a * b).valid_degrees)
        _assert_series_is(-a, [jet_scale(c, -1.0) for c in a.coeffs])
        _assert_series_is(a * (0.5 - 2j), [jet_scale(c, 0.5 - 2j) for c in a.coeffs])
        _assert_series_is(t_derive(a), [jet_scale(c, float(m)) for m, c in enumerate(a.coeffs) if m])
        _assert_series_is(
            t_integrate(a), [ctx.zero()] + [jet_scale(c, 1.0 / (m + 1)) for m, c in enumerate(a.coeffs)]
        )
        _assert_series_is(t_exp(a), t_exp_fold(a, jet_exp(a.coeffs[0])))
        _assert_series_is(t_reciprocal(a), t_reciprocal_fold(a))
    assert untrusted > 20
    # the Cauchy sum of an untrusted order forms no product
    assert any(vd < 0 for _, vd, _ in sums)
    assert all(formed == 0 for _, vd, formed in sums if vd < 0)


def test_series_products_refuse_mixed_contexts():
    one, two = context(1, 4), context(2, 4)
    with pytest.raises(DimensionMismatchError):
        TJet([one.constant(1.0)]) * TJet([two.constant(1.0)])
    # also when no order of the product is trusted
    with pytest.raises(DimensionMismatchError):
        TJet([one.zero(-1), one.zero(-2)]) * TJet([two.zero(-1), two.zero(-2)])
    with pytest.raises(DimensionMismatchError):
        cauchy_sum([one.zero(-1)], [two.zero(-1)], 0, range(1))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_exponent_table_is_the_graded_lex_enumeration(n):
    for cap in range(9):
        ctx = jets.JetContext(n, cap)
        exponents, starts = exponent_table(n, cap)
        assert ctx.exponents.dtype == exponents.dtype
        assert np.array_equal(ctx.exponents, exponents)
        assert ctx.deg_start == starts and ctx.size == len(exponents)


def test_exponent_table_at_n4_cap12():
    exponents, starts = exponent_table(4, 12)
    ctx = jets.JetContext(4, 12)
    assert np.array_equal(ctx.exponents, exponents) and ctx.deg_start == starts
