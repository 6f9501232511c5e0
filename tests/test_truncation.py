"""The valid_degree contract: trusted outputs depend on trusted inputs only.

Products form no block past the trusted degree of the result, evaluation
reads each jet only through its own valid_degree, the terms of a Cauchy sum
or a determinant order formed only through the sum's validity give the
full terms' trusted coefficients, and the trusted coefficients of solved
scenarios stay bitwise equal to a golden capture.
"""

import csv
import json
import os
import warnings
from dataclasses import replace
from itertools import product as iproduct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golden_trusted import SCENARIOS, scenario_key, solve_scenario, trusted_digests
from ricciflat import geometry as geo
from ricciflat.cli import main
from ricciflat.jets import (
    Jet,
    cauchy_sum,
    context,
    jet_add,
    jet_derive,
    jet_eval_lists,
    jet_eval_many,
    jet_exp,
    jet_log,
    jet_mul,
    jet_reciprocal,
    jet_scale,
)
from ricciflat.solver import SolverConfig, init_state, step

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden_trusted.json")


def trusted_end(jet) -> int:
    vd = jet.valid_degree
    return int(jet.ctx.deg_start[vd + 1]) if vd >= 0 else 0


def trusted_bytes(jet) -> bytes:
    return jet.coeffs[: trusted_end(jet)].tobytes()


def noisy_tail(jet, rng) -> Jet:
    """Same jet with random complex noise past its valid_degree."""
    c = jet.coeffs.copy()
    end = trusted_end(jet)
    tail = len(c) - end
    c[end:] = rng.standard_normal(tail) + 1j * rng.standard_normal(tail)
    return Jet(jet.ctx, c, jet.valid_degree)


def random_jet(ctx, rng, valid_degree, real=False, scale=0.3):
    c = rng.standard_normal(ctx.size) * scale
    if not real:
        c = c + 1j * rng.standard_normal(ctx.size) * scale
    c[0] = 1.0 + 0.5 * rng.random()  # nonzero constant for log and reciprocal
    return Jet(ctx, c, valid_degree)


# -- property: untrusted tails never reach trusted outputs ------------------------


@given(
    st.integers(0, 10**6),
    st.integers(1, 2),
    st.integers(-1, 6),
    st.integers(-1, 6),
    st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_tail_noise_leaves_trusted_outputs_unchanged(seed, n, va, vb, real):
    ctx = context(n, 6)
    rng = np.random.default_rng(seed)
    a = random_jet(ctx, rng, va, real)
    b = random_jet(ctx, rng, vb, real)
    na, nb = noisy_tail(a, rng), noisy_tail(b, rng)
    pts = rng.uniform(-0.4, 0.4, size=(7, ctx.nvars)) + 0j

    pairs = [
        (jet_mul(a, b), jet_mul(na, nb)),
        (jet_exp(a), jet_exp(na)),
        (jet_log(a), jet_log(na)),
        (jet_reciprocal(a), jet_reciprocal(na)),
        (
            jet_derive(a, ctx.nvars - 1),
            jet_derive(na, ctx.nvars - 1),
        ),
    ]
    for clean, noisy in pairs:
        assert clean.valid_degree == noisy.valid_degree
        assert trusted_bytes(clean) == trusted_bytes(noisy)
    assert jet_eval_many(a, pts).tobytes() == jet_eval_many(na, pts).tobytes()


@given(st.integers(0, 10**6))
@settings(max_examples=5, deadline=None)
def test_tail_noise_leaves_solver_step_unchanged(seed):
    cfg = SolverConfig(c=1.0, t_order=3, space_degree=8)
    state = step(step(init_state(geo.perturbed_flat(2, 0.1, 3, 2, 8), cfg)))
    rng = np.random.default_rng(seed)
    noisy = replace(
        state,
        v=tuple(noisy_tail(j, rng) for j in state.v),
        g=tuple([[noisy_tail(e, rng) for e in row] for row in gm] for gm in state.g),
        exp_neg_v=tuple(noisy_tail(j, rng) for j in state.exp_neg_v),
        det_g=tuple(noisy_tail(j, rng) for j in state.det_g),
    )
    clean, dirty = step(state), step(noisy)
    jets_clean = [clean.v[-1], clean.exp_neg_v[-1], clean.det_g[-1]]
    jets_clean += [e for row in clean.g[-1] for e in row]
    jets_dirty = [dirty.v[-1], dirty.exp_neg_v[-1], dirty.det_g[-1]]
    jets_dirty += [e for row in dirty.g[-1] for e in row]
    assert clean.v[-1].valid_degree >= 0
    for c, d in zip(jets_clean, jets_dirty):
        assert c.valid_degree == d.valid_degree
        assert trusted_bytes(c) == trusted_bytes(d)


# -- terms formed only through their sum's validity -----------------------------
#
# The claim is bitwise for operands that are real, or complex, through their
# whole validity, which is what the kernel's real/complex switch sees on both
# paths.  An operand real only through the sum's validity but complex past it
# takes the float kernel capped and the complex one in full, and numpy sums a
# float segment of eight or more pairs in another association than a complex
# one, so there the trusted prefix agrees only to rounding (the last test).


def assert_same_trusted(got, want):
    assert got.valid_degree == want.valid_degree
    assert trusted_bytes(got) == trusted_bytes(want)


def full_terms_sum(a, b, k, js, weight):
    """cauchy_sum's reference: every term a full product, added in ascending j."""
    acc = None
    for j in js:
        term = jet_mul(a[j], b[k - j])
        if weight is not None:
            term = jet_scale(term, weight(j))
        acc = term if acc is None else jet_add(acc, term)
    return acc


def sums_of(a, b):
    """(k, js) of every t-coefficient of the series product of a and b."""
    for k in range(len(a) + len(b) - 1):
        yield k, range(max(0, k - len(b) + 1), min(k, len(a) - 1) + 1)


_jet_args = st.tuples(st.integers(-1, 6), st.booleans())


@given(
    st.integers(0, 10**6),
    st.integers(1, 2),
    st.lists(_jet_args, min_size=1, max_size=5),
    st.lists(_jet_args, min_size=1, max_size=5),
    st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_capped_cauchy_sum_equals_the_sum_of_full_terms(seed, n, a_args, b_args, weighted):
    ctx = context(n, 6)
    rng = np.random.default_rng(seed)
    a = [random_jet(ctx, rng, *args) for args in a_args]
    b = [random_jet(ctx, rng, *args) for args in b_args]
    weight = (lambda j: 0.5 - j) if weighted else None
    for k, js in sums_of(a, b):
        got = cauchy_sum(a, b, k, js, weight)
        assert_same_trusted(got, full_terms_sum(a, b, k, js, weight))
        assert not got.coeffs[trusted_end(got) :].any()


def uncapped_det_coefficient(g_orders, m):
    """[t^m] det(sum_k g^(k) t^k) from full minors: the same expansion, with
    no memo kept across tuples and no term formed short of its own
    validity."""
    n = len(g_orders[0])
    rows = [row for g in g_orders for row in g]
    cols = tuple(range(n))
    acc = None
    for combo in iproduct(range(m + 1), repeat=n):
        if sum(combo) == m:
            R = tuple(k * n + r for r, k in enumerate(combo))
            term = geo.minor_det(rows, R, cols, {})
            acc = term if acc is None else jet_add(acc, term)
    return acc


@given(
    st.integers(0, 10**6),
    st.integers(1, 3),
    st.lists(st.integers(0, 2), min_size=4, max_size=4),
)
@settings(max_examples=25, deadline=None)
def test_capped_det_coefficient_equals_full_minors(seed, n, drops):
    ctx = context(n, 6)
    rng = np.random.default_rng(seed)
    g_orders, vd = [], ctx.cap
    for drop in drops:  # validities fall with the order, staggered within one
        vd -= drop
        g_orders.append(
            [[random_jet(ctx, rng, vd - int(rng.integers(0, 2)), bool(rng.integers(0, 2)))
              for _ in range(n)] for _ in range(n)]
        )
    memo = {}  # shared by every order from 0 up, as in a solve
    for m in range(len(g_orders)):
        want = uncapped_det_coefficient(g_orders[: m + 1], m)
        assert_same_trusted(geo.det_coefficient(g_orders[: m + 1], m, memo), want)
        assert_same_trusted(geo.det_coefficient(g_orders[: m + 1], m, {}), want)


@given(st.integers(0, 10**6), st.integers(1, 3), st.lists(st.integers(0, 6), min_size=4, max_size=4))
@settings(max_examples=40, deadline=None)
def test_capped_sum_of_operands_real_only_through_the_cap_agrees_to_rounding(seed, n, degrees):
    ctx = context(n, 6)
    rng = np.random.default_rng(seed)
    a, b = [], []
    for vd, real_through in zip(degrees[::2], degrees[1::2]):
        for seq in (a, b):
            jet = random_jet(ctx, rng, vd)
            c = jet.coeffs.copy()
            c[: ctx.deg_start[real_through + 1]] = c[: ctx.deg_start[real_through + 1]].real
            seq.append(Jet(ctx, c, vd))
    for k, js in sums_of(a, b):
        got, want = cauchy_sum(a, b, k, js), full_terms_sum(a, b, k, js, None)
        assert got.valid_degree == want.valid_degree
        end = trusted_end(got)
        assert np.allclose(got.coeffs[:end], want.coeffs[:end], rtol=1e-14, atol=1e-14)


# -- kernels -------------------------------------------------------------------


def test_product_tail_is_zero_and_negative_validity_gives_zero():
    ctx = context(2, 6)
    rng = np.random.default_rng(41)
    a = random_jet(ctx, rng, 3)
    b = random_jet(ctx, rng, 5)
    prod = jet_mul(a, b)
    assert prod.valid_degree == 3
    assert not prod.coeffs[trusted_end(prod) :].any()
    empty = jet_mul(a, random_jet(ctx, rng, -1))
    assert empty.valid_degree == -1 and not empty.coeffs.any()


def test_grid_evaluates_each_jet_through_its_own_validity():
    ctx = context(2, 6)
    rng = np.random.default_rng(43)
    jets = [random_jet(ctx, rng, vd) for vd in (6, 2, -1, 0, 4)]
    shape = (9, ctx.nvars)
    pts = rng.uniform(-0.3, 0.3, size=shape) + 1j * rng.uniform(-0.3, 0.3, size=shape)
    grid = jet_eval_lists([jets], pts)[0]
    assert grid.shape == (len(jets), len(pts))
    assert not grid[2].any()
    for jet, row in zip(jets, grid):
        end = trusted_end(jet)
        want = np.array(
            [sum(jet.coeffs[k] * np.prod(p ** ctx.exponents[k]) for k in range(end)) for p in pts]
        )
        assert np.allclose(row, want, rtol=1e-12, atol=1e-14)
        assert np.allclose(row, jet_eval_many(jet, pts), rtol=1e-13, atol=1e-15)


def test_lists_sharing_a_monomial_matrix_evaluate_as_alone():
    ctx = context(2, 6)
    rng = np.random.default_rng(44)
    lists = [
        [random_jet(ctx, rng, vd) for vd in vds]
        for vds in ((6, 2), (4,), (), (-1, 0), (6, 6, 5), (4, 1))
    ]
    shape = (9, ctx.nvars)
    pts = rng.uniform(-0.3, 0.3, size=shape) + 1j * rng.uniform(-0.3, 0.3, size=shape)
    for jets, got in zip(lists, jet_eval_lists(lists, pts)):
        assert got.shape == (len(jets), len(pts))
        if jets:
            assert got.tobytes() == jet_eval_lists([jets], pts)[0].tobytes()


# -- golden capture ------------------------------------------------------------------


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda sc: scenario_key(*sc))
def test_trusted_coefficients_match_golden_capture(scenario):
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)[scenario_key(*scenario)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = trusted_digests(solve_scenario(*scenario))
    assert got == golden


# -- CSV output ---------------------------------------------------------------------


def test_series_csv_holds_exactly_the_nonzero_trusted_coefficients(tmp_path):
    spec, M, D = SCENARIOS[0]
    assert main(["solve", "--metric", spec, "--M", str(M), "--D", str(D),
                 "--no-timestamp", "--out", str(tmp_path)]) == 0
    with open(tmp_path / "v.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sol = solve_scenario(spec, M, D)
    assert any(c.valid_degree < 0 for c in sol.v.coeffs)
    for m, jet in enumerate(sol.v.coeffs):
        got = [r for r in rows if int(r["t_order"]) == m]
        assert all(int(r["valid_degree"]) == jet.valid_degree for r in got)
        assert all(sum(map(int, r["exponents"].split())) <= jet.valid_degree for r in got)
        want = jet.coeffs[: trusted_end(jet)]
        assert len(got) == np.count_nonzero(want)
        assert [complex(float(r["re"]), float(r["im"])) for r in got] == list(want[want != 0])
