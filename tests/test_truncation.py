"""The valid_degree contract: trusted outputs depend on trusted inputs only.

Every jet stores its coefficients through its valid_degree and none past
it, and no run reads the zero-padded ``coeffs`` view.  Products form no
block past the trusted degree of the result, the terms of a Cauchy sum
or a determinant order formed only through the sum's validity give the
full terms' trusted coefficients, and the trusted coefficients of solved
scenarios stay bitwise equal to a golden capture.
"""

import csv
import json
import os
import warnings
from itertools import product as iproduct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golden_trusted import SCENARIOS, scenario_key, solve_scenario, trusted_digests
from ricciflat import geometry as geo
from ricciflat import jets
from ricciflat.cli import main
from ricciflat.jets import (
    Jet,
    cauchy_sum,
    context,
    jet_add,
    jet_eval_many,
    jet_mul,
    jet_scale,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden_trusted.json")


def trusted_end(jet) -> int:
    vd = jet.valid_degree
    return int(jet.ctx.deg_start[vd + 1]) if vd >= 0 else 0


def trusted_bytes(jet) -> bytes:
    return jet.coeffs[: trusted_end(jet)].tobytes()


def random_jet(ctx, rng, valid_degree, real=False, scale=0.3):
    c = rng.standard_normal(ctx.size) * scale
    if not real:
        c = c + 1j * rng.standard_normal(ctx.size) * scale
    c[0] = 1.0 + 0.5 * rng.random()  # nonzero constant for log and reciprocal
    return Jet(ctx, c, valid_degree)


# -- storage: a jet holds its trusted prefix and nothing past it -------------------


def prefix_length(ctx, valid_degree) -> int:
    return ctx.deg_start[valid_degree + 1] if valid_degree >= 0 else 0


@given(st.integers(0, 10**6), st.integers(1, 3), st.integers(-3, 8))
@settings(max_examples=40, deadline=None)
def test_constructor_keeps_exactly_the_trusted_prefix(seed, n, vd):
    ctx = context(n, 6)
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(ctx.size) + 1j * rng.standard_normal(ctx.size)
    jet = Jet(ctx, c, vd)
    end = prefix_length(ctx, min(vd, ctx.cap))
    assert jet.valid_degree == min(vd, ctx.cap)
    assert jet.prefix.tobytes() == c[:end].tobytes()
    assert not jet.prefix.flags.writeable
    # the compatibility view pads the prefix with zeros, whatever was given
    assert jet.coeffs.shape == (ctx.size,)
    assert jet.coeffs[:end].tobytes() == c[:end].tobytes()
    assert not jet.coeffs[end:].any()


# verify and majorant on n = 2, the n = 4 verify of the work counts, and
# solve, compare and closed-form on the Fubini-Study chart
STORAGE_RUNS = {
    "verify-n2": ["verify", "--metric", "perturbed_flat:2,0.1,0,2", "--M", "5", "--D", "12"],
    "majorant-n2": ["majorant", "--metric", "perturbed_flat:2,0.1,0,2", "--M", "4", "--D", "10",
                    "--R", "0.2"],
    "verify-n4": ["verify", "--metric", "perturbed_flat:4,0.1,0,2", "--M", "3", "--D", "4"],
    "solve-fs2": ["solve", "--metric", "fubini_study_chart:2,1", "--M", "4", "--D", "10"],
    "compare-fs2": ["compare", "--metric", "fubini_study_chart:2,1", "--M", "4", "--D", "10"],
    "closed-form-fs2": ["closed-form", "--metric", "fubini_study_chart:2,1", "--M", "4", "--D", "10"],
}


@pytest.mark.parametrize("argv", STORAGE_RUNS.values(), ids=STORAGE_RUNS.keys())
def test_cli_runs_store_only_trusted_prefixes_and_never_read_the_padded_view(
    tmp_path, monkeypatch, argv
):
    formed, wrong, padded_reads = [0], [], [0]
    original_fresh, original_init = jets._fresh, jets.Jet.__init__

    def check(jet):
        formed[0] += 1
        if len(jet.prefix) != prefix_length(jet.ctx, jet.valid_degree):
            wrong.append((jet.valid_degree, len(jet.prefix)))
        return jet

    def fresh(ctx, prefix, valid_degree):
        return check(original_fresh(ctx, prefix, valid_degree))

    def init(self, ctx, coeffs, valid_degree):
        original_init(self, ctx, coeffs, valid_degree)
        check(self)

    def padded(self):
        padded_reads[0] += 1
        return np.zeros(self.ctx.size, dtype=np.complex128)

    monkeypatch.setattr(jets, "_CTX_CACHE", {})
    monkeypatch.setattr(jets, "_fresh", fresh)
    monkeypatch.setattr(jets.Jet, "__init__", init)
    monkeypatch.setattr(jets.Jet, "coeffs", property(padded))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(argv + ["--no-timestamp", "--out", str(tmp_path)]) == 0
    assert formed[0] > 0 and wrong == []
    assert padded_reads[0] == 0


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
    for jet in jets:
        row = jet_eval_many(jet, pts)
        assert row.shape == (len(pts),)
        end = trusted_end(jet)
        want = np.array(
            [sum(jet.coeffs[k] * np.prod(p ** ctx.exponents[k]) for k in range(end)) for p in pts]
        )
        assert np.allclose(row, want, rtol=1e-12, atol=1e-14)
    assert not jet_eval_many(jets[2], pts).any()


# -- golden capture ------------------------------------------------------------------


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda sc: scenario_key(*sc))
def test_trusted_coefficients_match_golden_capture(scenario):
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)[scenario_key(*scenario)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = trusted_digests(solve_scenario(*scenario))
    assert got == golden


# -- independence of the degree cap ------------------------------------------------

# (metric spec, t_order M, a cap D, a larger cap): n = 1, 2 and 3, the
# Fubini-Study chart among them.
CAP_PAIRS = (
    ("perturbed_flat:2,0.1,0,2", 5, 12, 14),
    ("perturbed_flat:1,0.1,7,2", 8, 12, 20),
    ("fubini_study_chart:2,1", 4, 10, 12),
    ("perturbed_flat:3,0.1,1,2", 4, 10, 12),
)


@pytest.mark.parametrize("spec, M, D, D_more", CAP_PAIRS, ids=lambda p: str(p))
def test_trusted_coefficients_do_not_depend_on_the_cap(spec, M, D, D_more):
    # A validity claimed past what the inputs support shows here: the
    # smaller cap would have truncated what the larger one keeps.
    def series(sol):
        return [sol.v, sol.w_inv] + [e for row in sol.g.entries for e in row]

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        low, high = solve_scenario(spec, M, D), solve_scenario(spec, M, D_more)
    trusted = 0
    for a, b in zip(series(low), series(high), strict=True):
        assert [v + D_more - D for v in a.valid_degrees] == list(b.valid_degrees)
        for x, y in zip(a.coeffs, b.coeffs):
            assert x.prefix.tobytes() == y.prefix[: len(x.prefix)].tobytes()
            trusted += x.valid_degree >= 0
    assert trusted > 15


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
