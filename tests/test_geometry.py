import math
from itertools import combinations, permutations, product as iproduct

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import chain_dz, chain_dzbar, chain_mixed_hessian, jet_to_expr, jet_vs_expr
from ricciflat import geometry
from ricciflat.errors import InvalidInputError
from ricciflat.geometry import (
    HermitianJetMatrix,
    InitialData,
    adjugate,
    builtin_metric,
    complex_mixed_hessian,
    det_coefficient,
    dz,
    dzbar,
    flat,
    fubini_study_chart,
    jet_det,
    perturbed_flat,
    product,
    ricci_form,
)
from ricciflat.jets import (
    Jet,
    TJet,
    context,
    jet_conj,
    jet_derive,
    jet_mul,
    jet_partials,
    jet_scale,
    max_abs_coeff,
    max_coeff_diff,
)


def random_hermitian(ctx, rng, scale=0.2, max_degree=None):
    """Random Hermitian jet matrix, positive definite at the base point."""
    n = ctx.n
    upper = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            c = rng.standard_normal(ctx.size) * scale
            if i == j:
                coeffs = c.astype(np.complex128)
                coeffs[0] = 1.0 + abs(coeffs[0])
            else:
                coeffs = (c + 1j * rng.standard_normal(ctx.size) * scale).astype(
                    np.complex128
                )
                coeffs[0] *= 0.1
            if max_degree is not None:
                coeffs[ctx.deg_start[max_degree + 1] :] = 0
            upper[i][j] = Jet(ctx, coeffs, ctx.cap)
    return hermitian_from_upper(upper)


def hermitian_from_upper(upper):
    """Hermitian matrix from the entries given for i <= j; the lower
    triangle is the coefficientwise conjugate of the upper one."""
    n = len(upper)
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = upper[i][j]
            if i != j:
                rows[j][i] = jet_conj(upper[i][j])
    return HermitianJetMatrix(rows)


# -- mixed Hessian -------------------------------------------------------------


def test_hessian_of_square_modulus():
    ctx = context(1, 4)
    f = ctx.x(0) * ctx.x(0) + ctx.y(0) * ctx.y(0)
    H = complex_mixed_hessian(f)
    assert max_coeff_diff(H[0, 0], ctx.constant(4.0)) == 0.0


def test_hessian_kills_pluriharmonic():
    ctx = context(2, 4)
    H = complex_mixed_hessian(ctx.x(0))
    for i in range(2):
        for j in range(2):
            assert H[i, j].effective_degree == -1


def test_hessian_off_diagonal_against_symbolic():
    # f = |z1|^2 |z2|^2 has 4 d2f/dz1 dzbar2 = 4 zbar1 z2
    ctx = context(2, 4)
    r1 = ctx.x(0) * ctx.x(0) + ctx.y(0) * ctx.y(0)
    r2 = ctx.x(1) * ctx.x(1) + ctx.y(1) * ctx.y(1)
    f = r1 * r2
    H = complex_mixed_hessian(f)
    assert abs(H[0, 1].constant_term) == 0.0
    want = jet_scale(jet_mul(ctx.zbar(0), ctx.z(1)), 4.0)
    assert max_coeff_diff(H[0, 1], want) < 1e-12

    x1, y1, x2, y2 = sp.symbols("x1 y1 x2 y2")
    expr, _ = jet_to_expr(f)
    sym = (
        sp.diff(expr, x1, x2)
        + sp.diff(expr, y1, y2)
        + sp.I * (sp.diff(expr, x1, y2) - sp.diff(expr, y1, x2))
    )
    assert jet_vs_expr(H[0, 1], sym) < 1e-12


def test_hessian_diagonal_is_real_laplacian_exactly():
    ctx = context(2, 6)
    rng = np.random.default_rng(2)
    coeffs = rng.standard_normal(ctx.size).astype(np.complex128)
    f = Jet(ctx, coeffs, ctx.cap)
    H = complex_mixed_hessian(f)
    for i in range(2):
        lap = jet_derive(jet_derive(f, 2 * i), 2 * i) + jet_derive(
            jet_derive(f, 2 * i + 1), 2 * i + 1
        )
        assert max_coeff_diff(H[i, i], lap) == 0.0


CAPS = {1: 8, 2: 6, 3: 5, 4: 4}
JET_KINDS = ("real", "complex", "sparse", "signed_zeros", "constant", "linear")


def special_jet_coeffs(ctx, kind, rng):
    """Coefficients of one of ``JET_KINDS``: dense real or complex, sparse,
    mostly +-0.0 with a few ones and NaNs, or zero past degree 0 or 1 with
    -0.0 mixed into the zeros."""
    size = ctx.size
    c = rng.standard_normal(size).astype(np.complex128)
    if kind == "complex":
        c += 1j * rng.standard_normal(size)
    elif kind == "sparse":
        c[rng.random(size) < 0.85] = 0.0
    elif kind == "signed_zeros":
        values = np.array([0.0, -0.0, 1.0, -2.5, 1j, np.nan])
        c = rng.choice(values, size, p=[0.3, 0.5, 0.08, 0.05, 0.05, 0.02])
    elif kind in ("constant", "linear"):
        top = ctx.deg_start[1 if kind == "constant" else 2]
        c[top:] = rng.choice(np.array([0.0, -0.0]), size - top)
    return c


def same_jet(a, b) -> bool:
    return a.valid_degree == b.valid_degree and a.prefix.tobytes() == b.prefix.tobytes()


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 4), kind=st.sampled_from(JET_KINDS), seed=st.integers(0, 2**32 - 1))
def test_gathered_partials_keep_the_bits_of_the_single_partial_chain(n, kind, seed):
    # the Hessian from gathers, dz and dzbar from one, against one
    # jet_derive call per real partial, at every validity of one jet
    ctx = context(n, CAPS[n])
    coeffs = special_jet_coeffs(ctx, kind, np.random.default_rng(seed))
    for vd in range(-1, ctx.cap + 1):
        f = Jet(ctx, coeffs, vd)
        H, want = complex_mixed_hessian(f), chain_mixed_hessian(f)
        for i, j in iproduct(range(n), repeat=2):
            assert same_jet(H[i, j], want[i, j]), (vd, i, j)
            if vd < 2:
                assert H[i, j] is ctx.zero(vd - 2)
        partials = jet_partials(f)
        for v in range(ctx.nvars):
            assert same_jet(partials[v], jet_derive(f, v))
        for i in range(n):
            assert same_jet(dz(f, i), chain_dz(f, i))
            assert same_jet(dzbar(f, i, partials), chain_dzbar(f, i))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("step", [1, 3, 7])
def test_hessian_in_column_runs_keeps_the_bits_of_the_chain(n, step, monkeypatch):
    # the second partials of a large jet are gathered a run of columns at a
    # time: runs of 1, 3 and 7 columns, the last one short, give the chain's bits
    monkeypatch.setattr(geometry, "_CHUNK_ENTRIES", step * 2 * n * n)
    ctx = context(n, CAPS[n])
    rng = np.random.default_rng(10 * n + step)
    for kind in JET_KINDS:
        coeffs = special_jet_coeffs(ctx, kind, rng)
        for vd in range(2, ctx.cap + 1):
            f = Jet(ctx, coeffs, vd)
            H, want = complex_mixed_hessian(f), chain_mixed_hessian(f)
            assert all(same_jet(H[i, j], want[i, j]) for i, j in iproduct(range(n), repeat=2)), (kind, vd)


def test_a_first_partial_of_signed_zeros_gives_plus_zero_second_partials():
    # f = x^3 - 0.0 x^4 - 0.0 x^2 y^2: f_y is -0.0 past its constant, so the
    # chain's f_yy is +0.0, and at x^2 the Hessian adds f_xx = -0.0 to it
    ctx = context(1, 4)
    coeffs = np.zeros(ctx.size, dtype=np.complex128)
    for exps, value in (((3, 0), 1.0), ((4, 0), -0.0), ((2, 2), -0.0)):
        coeffs[ctx.rank_of(exps)] = value
    f = Jet(ctx, coeffs, ctx.cap)
    h = complex_mixed_hessian(f)[0, 0]
    assert same_jet(h, chain_mixed_hessian(f)[0, 0])
    assert h.coefficient((2, 0)) == 0 and math.copysign(1.0, h.coefficient((2, 0)).real) == 1.0


def test_hessian_below_degree_two_is_the_shared_zero_in_every_entry():
    for n in range(1, 5):
        ctx = context(n, CAPS[n])
        f = Jet(ctx, np.arange(1.0, ctx.size + 1), ctx.cap)
        for vd in (-3, -1, 0, 1):
            H = complex_mixed_hessian(Jet(ctx, f.coeffs, vd))
            assert {id(e) for row in H.entries for e in row} == {id(ctx.zero(vd - 2))}
        for vd in (-1, 0):
            assert {id(p) for p in jet_partials(Jet(ctx, f.coeffs, vd))} == {id(ctx.zero(vd - 1))}


def test_hessian_preserves_hermitian_symmetry():
    ctx = context(2, 6)
    rng = np.random.default_rng(4)
    f = Jet(ctx, rng.standard_normal(ctx.size).astype(np.complex128), ctx.cap)
    assert complex_mixed_hessian(f).hermitian_defect() <= 1e-11


# -- determinants ---------------------------------------------------------------


def test_det_identity_and_diagonal():
    ctx = context(2, 4)
    eye = flat(2, 4).h
    assert max_coeff_diff(jet_det(eye), ctx.constant(1.0)) == 0.0

    ctx1 = context(1, 4)
    x = ctx1.x(0)
    diag = HermitianJetMatrix([[  # 2x2 needs n=2 ctx; use explicit n=1 blocks
        (1 + x) * (1 - x)
    ]])
    assert max_coeff_diff(jet_det(diag), (1 + x) * (1 - x)) == 0.0


def test_det_two_by_two_diag_example():
    ctx = context(1, 2)
    x = ctx.x(0)
    # block-diagonal determinant reduces to the product
    prod = (1 + x) * (1 - x)
    assert prod.coefficient((2, 0)) == -1


def test_det_random_hermitian_vs_symbolic():
    ctx = context(2, 4)
    rng = np.random.default_rng(6)
    h = random_hermitian(ctx, rng, max_degree=2)
    det = jet_det(h)
    e00, _ = jet_to_expr(h[0, 0])
    e01, _ = jet_to_expr(h[0, 1])
    e10, _ = jet_to_expr(h[1, 0])
    e11, _ = jet_to_expr(h[1, 1])
    assert jet_vs_expr(det, e00 * e11 - e01 * e10) < 1e-12


def test_det_three_by_three_vs_symbolic():
    ctx = context(3, 3)
    rng = np.random.default_rng(8)
    h = random_hermitian(ctx, rng, scale=0.1, max_degree=1)
    det = jet_det(h)
    exprs = [[jet_to_expr(h[i, j])[0] for j in range(3)] for i in range(3)]
    m = sp.Matrix(exprs)
    assert jet_vs_expr(det, m.det()) < 1e-12


# Reference: plain cofactor recursion along the first row, recomputing every
# minor, with n = 2 written out.  The memoised expansion must reproduce it
# bit for bit.
def _reference_det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    acc = None
    for j in range(n):
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = rows[0][j] * _reference_det(minor)
        if j % 2 == 1:
            term = -term
        acc = term if acc is None else acc + term
    return acc


def _reference_adjugate(rows):
    n = len(rows)
    adj = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[rows[r][c] for c in range(n) if c != j] for r in range(n) if r != i]
            cof = _reference_det(minor)
            if (i + j) % 2 == 1:
                cof = -cof
            adj[j][i] = cof
    return adj


def _same_bits(a, b) -> bool:
    if isinstance(a, TJet):
        return a.order == b.order and all(map(_same_bits, a.coeffs, b.coeffs))
    return a.valid_degree == b.valid_degree and a.coeffs.tobytes() == b.coeffs.tobytes()


_DET_CAPS = {1: 8, 2: 6, 3: 4, 4: 3}


def _random_matrix(n, kind, seed):
    """Random complex Hermitian matrix of Jets, or of order-2 TJets whose
    order-k coefficients are trusted two degrees less per order."""
    ctx = context(n, _DET_CAPS[n])
    rng = np.random.default_rng(seed)
    if kind == "jet":
        return random_hermitian(ctx, rng)
    orders = [random_hermitian(ctx, rng, scale=0.2 / (k + 1)) for k in range(3)]
    return HermitianJetMatrix(
        [
            [
                TJet(
                    Jet(ctx, h[i, j].coeffs, ctx.cap - 2 * k)
                    for k, h in enumerate(orders)
                )
                for j in range(n)
            ]
            for i in range(n)
        ]
    )


@pytest.mark.parametrize("kind", ["jet", "tjet"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_det_and_adjugate_match_plain_cofactor_recursion(n, kind):
    g = _random_matrix(n, kind, seed=10 + n)
    memo = {}
    det = jet_det(g, memo)
    adj = adjugate(g, memo)
    assert _same_bits(det, _reference_det(g.entries))
    assert _same_bits(jet_det(g), det)
    # the cofactors read back from the determinant's memo are the ones a
    # fresh expansion forms
    assert all(map(_same_bits, sum(adjugate(g), []), sum(adj, [])))
    if n == 1:
        one = adj[0][0]
        first = one.coeffs[0] if kind == "tjet" else one
        assert max_coeff_diff(first, first.ctx.constant(1.0)) == 0.0
        return
    ref = _reference_adjugate(g.entries)
    for i in range(n):
        for j in range(n):
            assert _same_bits(adj[i][j], ref[i][j])


@pytest.mark.parametrize("kind", ["jet", "tjet"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_adjugate_times_matrix_is_det_identity(n, kind):
    g = _random_matrix(n, kind, seed=20 + n)
    memo = {}
    det = jet_det(g, memo)
    adj = adjugate(g, memo)
    as_series = (lambda e: e.coeffs) if kind == "tjet" else (lambda e: (e,))
    scale = max(max_abs_coeff(d) for d in as_series(det))
    for i in range(n):
        for j in range(n):
            prod = adj[i][0] * g[0, j]
            for k in range(1, n):
                prod = prod + adj[i][k] * g[k, j]
            target = det if i == j else det * 0.0
            # max_coeff_diff reads through the common trusted degree only
            for p, t in zip(as_series(prod), as_series(target)):
                assert max_coeff_diff(p, t) <= 1e-12 * scale


# Reference: the Leibniz expansion of [t^m] det(sum_k g^(k) t^k) over order
# tuples times permutations, which the solver used before it took its minors
# from the memoised expansion.
def _leibniz_det_coefficient(g_orders, m):
    n = len(g_orders[0])
    if n == 1:
        return g_orders[m][0][0]
    acc = None
    for combo in iproduct(range(m + 1), repeat=n):
        if sum(combo) != m:
            continue
        for perm in permutations(range(n)):
            inversions = sum(a > b for a, b in combinations(perm, 2))
            term = g_orders[combo[0]][0][perm[0]]
            for r in range(1, n):
                term = jet_mul(term, g_orders[combo[r]][r][perm[r]])
            term = jet_scale(term, float((-1) ** inversions))
            acc = term if acc is None else acc + term
    return acc


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_det_coefficient_matches_leibniz_expansion(n):
    ctx = context(n, _DET_CAPS[n])
    rng = np.random.default_rng(30 + n)
    g_orders = tuple(
        random_hermitian(ctx, rng, scale=0.2 / (k + 1))
        .map(lambda e, k=k: Jet(ctx, e.coeffs, ctx.cap - k))
        .entries
        for k in range(4)
    )
    # the whole matrix, then each minor on a row and a column subset
    full = tuple(range(n))
    subsets = [(full, full)] + [
        (R, C) for k in range(1, n) for R in combinations(full, k) for C in combinations(full, k)
    ]
    for R, C in subsets:
        sub = tuple([[g[r][c] for c in C] for r in R] for g in g_orders)
        for m in range(4):
            got = det_coefficient(g_orders[: m + 1], m, {}, R, C)
            want = _leibniz_det_coefficient(sub[: m + 1], m)
            if len(R) == 1:
                assert _same_bits(got, want)
            else:
                assert got.valid_degree == want.valid_degree
                assert max_coeff_diff(got, want) <= 1e-14 * max(1.0, max_abs_coeff(want))
    # a minor is capped by its own entries only: an entry outside it (here
    # h_00 of order 0, left out of the minor on rows and columns 1..n-1)
    # that is trusted less changes nothing
    low = [
        [Jet(ctx, e.coeffs, 0) if i == j == 0 else e for j, e in enumerate(row)]
        for i, row in enumerate(g_orders[0])
    ]
    rest = full[1:]
    for m in range(4 if rest else 0):
        got = det_coefficient((low,) + g_orders[1 : m + 1], m, {}, rest, rest)
        assert _same_bits(got, det_coefficient(g_orders[: m + 1], m, {}, rest, rest))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_det_coefficient_with_a_negative_cap_keeps_the_validity_and_writes_no_memo(n):
    # order 1 is untrusted, so every order from 1 on has a negative cap; for
    # n = 1 the coefficient is the order-m entry itself, trusted at order 2
    ctx = context(n, _DET_CAPS[n])
    rng = np.random.default_rng(40 + n)
    validities = (ctx.cap, -1, 1, -3)
    g_orders = tuple(
        random_hermitian(ctx, rng, scale=0.2).map(lambda e, vd=vd: Jet(ctx, e.coeffs, vd)).entries
        for vd in validities
    )
    memo = {}
    det_coefficient(g_orders[:1], 0, memo)
    for m in range(1, 4):
        kept = dict(memo)
        got = det_coefficient(g_orders[: m + 1], m, memo)
        assert got.valid_degree == _leibniz_det_coefficient(g_orders[: m + 1], m).valid_degree
        assert memo == kept
        if n > 1:
            assert got.valid_degree == (-1 if m < 3 else -3)
            assert got is ctx.zero(got.valid_degree)
        else:
            assert got is g_orders[m][0][0]


# -- Ricci form ------------------------------------------------------------------


def test_ricci_of_flat_vanishes():
    rho = ricci_form(flat(2, 6).h)
    for i in range(2):
        for j in range(2):
            assert rho[i, j].effective_degree == -1


@pytest.mark.parametrize("scale", [1.0, 2.0])
def test_ricci_of_projective_chart_is_einstein(scale):
    # the chart metric satisfies ricci = (2/scale) h through the valid degree
    init = fubini_study_chart(1, scale, 10)
    rho = ricci_form(init.h)
    lam = 2.0 / scale
    assert max_coeff_diff(rho[0, 0], jet_scale(init.h[0, 0], lam)) < 1e-9


def test_ricci_block_diagonal_product():
    a = fubini_study_chart(1, 1.0, 8)
    b = flat(1, 8)
    both = product([a, b], 8)
    rho = ricci_form(both.h)
    rho_a = ricci_form(a.h)
    # off-diagonal blocks vanish, the first block matches the factor
    assert rho[0, 1].effective_degree == -1
    assert rho[1, 1].effective_degree == -1
    da = rho[0, 0]
    ra = rho_a[0, 0]
    pts = np.random.default_rng(0).uniform(-0.1, 0.1, size=(10, 2))
    from conftest import jet_eval

    for p in pts:
        pa = [p[0], p[1]]
        pb = [p[0], p[1], 0.0, 0.0]
        assert abs(jet_eval(da, pb) - jet_eval(ra, pa)) < 1e-9


def test_ricci_scale_invariance():
    init = fubini_study_chart(1, 1.0, 8)
    rho1 = ricci_form(init.h)
    scaled = HermitianJetMatrix([[jet_scale(init.h[0, 0], 3.0)]])
    rho3 = ricci_form(scaled)
    assert max_coeff_diff(rho1[0, 0], rho3[0, 0]) < 1e-10


# -- builtin metrics -------------------------------------------------------------


def test_flat_builtin():
    init = builtin_metric("flat", [2], 6)
    assert init.n == 2
    assert max_coeff_diff(init.h[0, 0], init.ctx.constant(1.0)) == 0.0
    assert init.h[0, 1].effective_degree == -1


def test_projective_chart_taylor_profile():
    # one-dimensional chart: h = 1 - 2(x^2+y^2) + 3(x^2+y^2)^2 - ...
    init = fubini_study_chart(1, 1.0, 6)
    h = init.h[0, 0]
    assert h.constant_term == pytest.approx(1.0)
    assert h.coefficient((2, 0)) == pytest.approx(-2.0)
    assert h.coefficient((0, 2)) == pytest.approx(-2.0)
    assert h.coefficient((4, 0)) == pytest.approx(3.0)
    assert h.coefficient((2, 2)) == pytest.approx(6.0)
    assert h.coefficient((6, 0)) == pytest.approx(-4.0)

    x, y = sp.symbols("x1 y1")
    closed = 1 / (1 + x ** 2 + y ** 2) ** 2
    series = sp.expand(sp.series(closed.subs(y, 0), x, 0, 7).removeO())
    for k in range(0, 7, 2):
        want = float(series.coeff(x, k))
        assert h.coefficient(tuple([k, 0])) == pytest.approx(want, abs=1e-12)


def test_perturbed_flat_zero_eps_is_flat():
    zero = perturbed_flat(1, 0.0, 42, 2, 6)
    base = flat(1, 6)
    assert max_coeff_diff(zero.h[0, 0], base.h[0, 0]) == 0.0


def test_perturbed_flat_is_hermitian_and_seed_deterministic():
    a = perturbed_flat(2, 0.1, 9, 2, 8)
    b = perturbed_flat(2, 0.1, 9, 2, 8)
    c = perturbed_flat(2, 0.1, 10, 2, 8)
    assert a.h.hermitian_defect() <= 1e-11
    assert max_coeff_diff(a.h[0, 1], b.h[0, 1]) == 0.0
    assert max_coeff_diff(a.h[0, 1], c.h[0, 1]) > 0.0


def test_perturbed_flat_is_kahler_closed():
    # d(h_ij dz^dzbar) = 0: dz_k h_ij symmetric in (k, i)
    from ricciflat.geometry import dz

    init = perturbed_flat(2, 0.1, 3, 2, 8)
    for j in range(2):
        lhs = dz(init.h[1, j], 0)
        rhs = dz(init.h[0, j], 1)
        assert max_coeff_diff(lhs, rhs) < 1e-12


def test_initial_data_rejects_non_positive():
    ctx = context(1, 4)
    neg = HermitianJetMatrix([[ctx.constant(-1.0)]])
    with pytest.raises(InvalidInputError):
        InitialData(h=neg)


def test_initial_data_rejects_non_hermitian():
    ctx = context(2, 4)
    rows = [
        [ctx.constant(1.0), ctx.x(0)],
        [ctx.constant(0.5), ctx.constant(1.0)],
    ]
    with pytest.raises(InvalidInputError):
        InitialData(h=HermitianJetMatrix(rows))


def test_initial_data_refuses_h_whose_size_is_not_its_context_dimension():
    # a 1x1 h whose jets live in dimension 2 fixes no consistent n
    ctx = context(2, 6)
    with pytest.raises(InvalidInputError, match="dimension 2"):
        InitialData(h=HermitianJetMatrix([[ctx.constant(1.0)]]))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_initial_data_dimension_is_the_size_of_h(n):
    ctx = context(n, 4)
    h = HermitianJetMatrix([[ctx.constant(float(i == j)) for j in range(n)] for i in range(n)])
    assert InitialData(h=h).n == h.n == n


def test_unknown_builtin_rejected():
    with pytest.raises(InvalidInputError):
        builtin_metric("nope", [1], 4)


def _ordered_pair_defect(g):
    """max over every ordered pair (i, j) of |g_ij - conj(g_ji)|, per order
    for series entries, NaN as soon as one difference is NaN."""
    diffs = [0.0]
    for i in range(g.n):
        for j in range(g.n):
            a, b = g[i, j], g[j, i]
            if isinstance(a, TJet):
                diffs += [max_coeff_diff(x, jet_conj(y)) for x, y in zip(a.coeffs, b.coeffs)]
            else:
                diffs.append(max_coeff_diff(a, jet_conj(b)))
    return float(np.max(diffs))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_hermitian_defect_is_the_ordered_pair_maximum(n):
    ctx = context(n, 4)
    rng = np.random.default_rng(70 + n)

    def entry():
        c = rng.standard_normal(ctx.size) + 1j * rng.standard_normal(ctx.size)
        if rng.random() < 0.2:
            c[rng.integers(ctx.size)] = np.nan
        return Jet(ctx, c, int(rng.integers(-1, ctx.cap + 1)))

    for _ in range(20):
        plain = HermitianJetMatrix([[entry() for _ in range(n)] for _ in range(n)])
        series = HermitianJetMatrix(
            [[TJet([entry() for _ in range(3)]) for _ in range(n)] for _ in range(n)]
        )
        for g in (plain, series):
            got, want = g.hermitian_defect(), _ordered_pair_defect(g)
            assert got == want or (np.isnan(got) and np.isnan(want))
