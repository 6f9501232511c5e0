"""The row reductions of verify, geometry and majorant against the
per-entry reference of ``oracles``: each residual row, defect and group
norm read off stacked arrays has the bits of the one formed entry by entry
on jets, on random jets with signed zeros, NaN and inf among their
coefficients and entries of unequal validity, in one run or in many."""

import math
import struct
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ricciflat import jets, majorant, verify
from ricciflat.geometry import HermitianJetMatrix
from ricciflat.jets import Jet, TJet, context, max_abs_coeff, nan_max

CAPS = {1: 8, 2: 6, 3: 4}
SPECIAL = (-0.0, complex(-0.0, -0.0), math.nan, math.inf, -math.inf, complex(math.inf, 1.0))


def _same(x, y) -> bool:
    """One value: both NaN, or the same bits."""
    if isinstance(x, float) and math.isnan(x):
        return isinstance(y, float) and math.isnan(y)
    return type(x) is type(y) and (
        struct.pack("<d", x) == struct.pack("<d", y) if isinstance(x, float) else x == y
    )


def _same_rows(got, want) -> bool:
    return len(got) == len(want) and all(
        len(a) == len(b) and all(map(_same, a, b)) for a, b in zip(got, want)
    )


def _same_array(got, want) -> bool:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and all(map(_same, got.ravel().tolist(), want.ravel().tolist()))


def _jet(ctx, rng, vd):
    """Coefficients over many magnitudes, real or complex; some jets carry
    a few special values, and some are constant up to -0.0."""
    c = rng.standard_normal(ctx.size) * 10.0 ** rng.integers(-6, 7, ctx.size)
    if rng.random() < 0.7:
        c = c + 1j * rng.standard_normal(ctx.size)
    c = c.astype(np.complex128)
    if rng.random() < 0.3:
        for rank in rng.integers(0, ctx.size, rng.integers(1, 3)):
            c[rank] = SPECIAL[rng.integers(len(SPECIAL))]
    if rng.random() < 0.1:
        c[1:] = -0.0
    return Jet(ctx, c, vd)


def _series(ctx, rng, order):
    """A series whose orders are trusted to random degrees."""
    return TJet([_jet(ctx, rng, int(rng.integers(-2, ctx.cap + 1))) for _ in range(order + 1)])


def _matrix(n, entry):
    """An n x n matrix of independent entries, which need not be Hermitian."""
    return HermitianJetMatrix([[entry() for _ in range(n)] for _ in range(n)])


@contextmanager
def _setup(seed, n, runs):
    """A context and a generator, with the run size the default or one so
    small that every stack and gather is split into many runs, and numpy's
    floating-point warnings off."""
    rng = np.random.default_rng(seed)
    default = jets._RUN_ENTRIES
    jets._RUN_ENTRIES = default if runs == "one" else int(rng.integers(1, 40))
    try:
        with np.errstate(all="ignore"):
            yield context(n, CAPS[n]), rng
    finally:
        jets._RUN_ENTRIES = default


SEEDS = st.integers(0, 10**6)
DIMS = st.sampled_from([1, 2, 3])
RUNS = st.sampled_from(["one", "many"])


@given(SEEDS, DIMS, RUNS, st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_flow_rows_have_the_bits_of_the_per_entry_sums(seed, n, runs, order):
    with _setup(seed, n, runs) as (ctx, rng):
        sol = SimpleNamespace(
            config=SimpleNamespace(c=float(rng.choice([1.0, 2.0, 0.3, -1.5]))),
            t_order=order,
            v=_series(ctx, rng, order),
            g=_matrix(n, lambda: _series(ctx, rng, order)),
        )
        for kinds in (("hessian_flow", "second_order_flow"), ("second_order_flow",)):
            got = verify._flow_residuals(sol, kinds)
            want = oracles.entry_flow_rows(sol, kinds)
            assert got.keys() == want.keys()
            for kind in kinds:
                assert _same_rows(got[kind], want[kind])


@given(SEEDS, st.sampled_from([2, 3]), RUNS, st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_closedness_rows_have_the_bits_of_the_per_entry_sums(seed, n, runs, order):
    with _setup(seed, n, runs) as (ctx, rng):
        g_t = _matrix(n, lambda: _series(ctx, rng, order))
        assert _same_rows(verify._symmetry_rows(g_t), oracles.entry_closedness_rows(g_t))


@given(SEEDS, DIMS, st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_weight_gradient_defect_has_the_bits_of_the_per_order_jets(seed, n, order):
    with _setup(seed, n, "one") as (ctx, rng):
        vt = _series(ctx, rng, order)
        c = float(rng.choice([1.0, 3.0, -0.7]))
        assert _same(
            verify._weight_gradient_defect(vt, c), oracles.entry_weight_gradient_defect(vt, c)
        )


@given(SEEDS, DIMS, RUNS, st.integers(0, 3), st.booleans())
@settings(max_examples=60, deadline=None)
def test_hermitian_defect_has_the_bits_of_the_per_pair_differences(seed, n, runs, order, series):
    with _setup(seed, n, runs) as (ctx, rng):
        if series:
            g = _matrix(n, lambda: _series(ctx, rng, order))
        else:
            g = _matrix(n, lambda: _jet(ctx, rng, int(rng.integers(-1, ctx.cap + 1))))
        assert _same(g.hermitian_defect(), oracles.entry_hermitian_defect(g))


@given(SEEDS, DIMS, st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_series_rows_have_the_bits_of_the_per_order_sums(seed, n, order):
    with _setup(seed, n, "one") as (ctx, rng):
        a, b, scaled_by = (_series(ctx, rng, order) for _ in range(3))
        factor = float(rng.choice([-1.0, -2.0, 0.5]))
        got = verify._series_rows("identity", a, b, factor, scaled_by, 1e-9)
        want = oracles.entry_series_rows(a, b, factor, scaled_by)
        # the reference's (order, validity, residual, scale) through the same verdict
        want = [verify._row("identity", *row, 1e-9) for row in want]
        fields = [[tuple(vars(r).values()) for r in rows] for rows in (got, want)]
        assert _same_rows(*fields)


@given(SEEDS, DIMS, st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_moment_rows_have_the_bits_of_the_per_order_differences(seed, n, order):
    with _setup(seed, n, "one") as (ctx, rng):
        delta = _series(ctx, rng, order)
        c = float(rng.choice([1.0, 2.0, -0.5]))
        got = [(r.t_order, r.valid_degree, r.residual) for r in verify._moment_rows(delta, c, 1e-9)]
        assert _same_rows(got, oracles.entry_moment_rows(delta, c))


@given(SEEDS, DIMS, RUNS)
@settings(max_examples=60, deadline=None)
def test_group_norms_have_the_bits_of_the_per_jet_norms(seed, n, runs):
    with _setup(seed, n, runs) as (ctx, rng):
        vm = _jet(ctx, rng, int(rng.integers(-1, ctx.cap + 1)))
        c = float(rng.choice([1.0, 2.0, -0.5]))
        for r in (0.2, (0.05, 0.1, 0.15)):
            got, want = majorant._group_norms(vm, c, r), oracles.entry_group_norms(vm, c, r)
            assert [g is None for g in got] == [w is None for w in want]
            assert all(_same_array(g, w) for g, w in zip(got, want) if w is not None)


@given(SEEDS, DIMS)
@settings(max_examples=60, deadline=None)
def test_max_helpers_keep_a_nan_wherever_it_stands(seed, n):
    with _setup(seed, n, "one") as (ctx, rng):
        jet = _jet(ctx, rng, int(rng.integers(-1, ctx.cap + 1)))
        for degree in range(-1, ctx.cap + 1):
            vd = min(jet.valid_degree, degree)
            want = (
                float(np.max(np.abs(jet.prefix[: ctx.deg_start[vd + 1]]))) if vd >= 0 else 0.0
            )
            assert _same(max_abs_coeff(jet, degree), want)
        values = [float(v) for v in rng.standard_normal(4)]
        for k in range(len(values) + 1):
            with_nan = values[:k] + [math.nan] + values[k:]
            assert math.isnan(nan_max(*with_nan))
        assert _same(nan_max(*values), float(np.max(values)))
