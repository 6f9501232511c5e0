"""Independent oracles used by the tests.

Jets are converted to sympy polynomials and the operation under test is
redone symbolically; results come back as coefficient dictionaries so the
comparison never routes through the code being tested.  The exponential,
logarithm and reciprocal of a jet are redone as power series in extended
precision, with products formed from the exponent tuples alone.  The
row-loop product rebuilds the product kernel's pair tables from the exponent
tuples, and the Cauchy-sum fold composes the public jet operations that a
Cauchy sum must reproduce bitwise.  The row-loop series is the degree
recurrence of the exponential, logarithm and reciprocal of a jet taken one
row of the product tables at a time, with no plan.  The series folds redo
each t-series operation order by order, every order through its full
Cauchy sum or jet operation.  The exponent table
is enumerated one monomial at a time.  The derivative chain forms the
complex mixed Hessian, d/dz and d/dzbar one ``jet_derive`` call per real
partial, as the package did before its derivative table, so the whole
gathers of ``geometry`` can be held to its bits.
"""

from itertools import combinations_with_replacement

import cmath

import numpy as np
import sympy as sp

from ricciflat.geometry import HermitianJetMatrix
from ricciflat.jets import (
    Jet,
    jet_add,
    jet_conj,
    jet_derive,
    jet_mul,
    jet_reciprocal,
    jet_scale,
    jet_sub,
    jet_through,
)


def exponent_table(n: int, cap: int):
    """(exponent vectors, degree block starts) of the monomials of degree <=
    cap in the 2n real variables: per degree, each multiset of variables from
    ``combinations_with_replacement`` counted by ``np.bincount``."""
    rows, starts = [], [0]
    for d in range(cap + 1):
        for combo in combinations_with_replacement(range(2 * n), d):
            rows.append(np.bincount(combo, minlength=2 * n))
        starts.append(len(rows))
    return np.array(rows, dtype=np.int64), tuple(starts)


def symbols_for(ctx):
    syms = []
    for i in range(ctx.n):
        syms.append(sp.Symbol(f"x{i + 1}"))
        syms.append(sp.Symbol(f"y{i + 1}"))
    return syms


def jet_to_expr(jet: Jet):
    syms = symbols_for(jet.ctx)
    expr = sp.Integer(0)
    for idx in range(jet.ctx.size):
        c = complex(jet.coeffs[idx])
        if c == 0:
            continue
        mono = sp.Integer(1)
        for v, e in enumerate(jet.ctx.exponents[idx]):
            if e:
                mono *= syms[v] ** int(e)
        expr += (sp.Float(c.real, 20) + sp.I * sp.Float(c.imag, 20)) * mono
    return expr, syms


def expr_coeffs(expr, syms, max_degree: int):
    """{exponent tuple: complex} for all monomials of total degree <= max_degree."""
    poly = sp.Poly(sp.expand(expr), *syms)
    out = {}
    for monom, coeff in poly.terms():
        if sum(monom) > max_degree:
            continue
        c = complex(coeff.evalf())
        if c != 0:
            out[tuple(int(e) for e in monom)] = c
    return out


def jet_coeffs(jet: Jet, max_degree: int):
    out = {}
    for idx in range(jet.ctx.size):
        exp = tuple(int(e) for e in jet.ctx.exponents[idx])
        if sum(exp) > max_degree:
            continue
        c = complex(jet.coeffs[idx])
        if c != 0:
            out[exp] = c
    return out


def coeff_dict_distance(a: dict, b: dict) -> float:
    keys = set(a) | set(b)
    return max((abs(a.get(k, 0) - b.get(k, 0)) for k in keys), default=0.0)


def jet_vs_expr(jet: Jet, expr, max_degree: int | None = None) -> float:
    """Worst coefficient gap between a jet and a sympy expression."""
    d = jet.valid_degree if max_degree is None else min(max_degree, jet.valid_degree)
    _, syms = jet_to_expr(jet)
    return coeff_dict_distance(jet_coeffs(jet, d), expr_coeffs(expr, syms, d))


# -- power-series oracle for exp, log and reciprocal ----------------------------

_PAIR_TABLES: dict = {}


def _pair_table(ctx):
    """(I, J, T): every pair of monomials whose product has total degree
    <= cap, and the rank of that product, from the exponent tuples alone."""
    table = _PAIR_TABLES.get((ctx.n, ctx.cap))
    if table is None:
        exps = [tuple(int(e) for e in row) for row in ctx.exponents]
        rank = {e: i for i, e in enumerate(exps)}
        I, J, T = [], [], []
        for i, ei in enumerate(exps):
            for j in range(ctx.deg_start[ctx.cap - ctx.degrees[i] + 1]):
                t = rank.get(tuple(x + y for x, y in zip(ei, exps[j])))
                if t is not None:
                    I.append(i)
                    J.append(j)
                    T.append(t)
        table = tuple(np.array(col, dtype=np.intp) for col in (I, J, T))
        _PAIR_TABLES[(ctx.n, ctx.cap)] = table
    return table


def series_oracle(jet: Jet, kind: str, majorant: bool = False) -> np.ndarray:
    """exp, log or reciprocal (``kind`` "exp", "log", "reciprocal") of a jet
    through its valid_degree (>= 0), as a power series in its nilpotent part,
    summed power by power in extended precision (numpy long double):

        exp a = e^{a_0} sum_k q^k / k!,         q = a - a_0,
        log a = log a_0 + sum_k (-1)^(k+1) q^k / k,   q = a / a_0 - 1,
        1 / a = (1 / a_0) sum_k (-q)^k,          q = a / a_0 - 1.

    With ``majorant`` every series coefficient, every coefficient of q and
    the leading factor or term are replaced by their absolute values.  The
    result bounds, coefficient by coefficient, the terms that any evaluation
    of the series sums, which is the scale of its rounding error.  Returns
    the complex long double coefficients through the valid_degree."""
    vd = jet.valid_degree
    end = int(jet.ctx.deg_start[vd + 1])
    I, J, T = _pair_table(jet.ctx)
    I, J, T = I[T < end], J[T < end], T[T < end]
    a = jet.coeffs[:end].astype(np.clongdouble)
    a0 = a[0]
    q = a - a0 * (np.arange(end) == 0)
    if kind == "exp":
        lead, terms = np.exp(a0), [1 / np.prod(np.arange(1, k + 1, dtype=np.longdouble)) for k in range(vd + 1)]
    elif kind == "log":
        q /= a0
        lead, terms = np.log(a0), [0] + [(-1) ** (k + 1) / np.longdouble(k) for k in range(1, vd + 1)]
    else:
        q /= a0
        lead, terms = 1 / a0, [(-1) ** k for k in range(vd + 1)]
    if majorant:
        q, lead, terms = np.abs(q).astype(np.clongdouble), abs(lead), [abs(c) for c in terms]
    power = (np.arange(end) == 0).astype(np.clongdouble)
    total = terms[0] * power
    for k in range(1, vd + 1):
        nxt = np.zeros(end, dtype=np.clongdouble)
        np.add.at(nxt, T, power[I] * q[J])
        power = nxt
        total += terms[k] * power
    if kind == "log":
        total[0] = lead
        return total
    return lead * total


# -- row-loop product ------------------------------------------------------------


def row_loop_mul(a: Jet, b: Jet) -> np.ndarray:
    """Coefficients of the truncated product of two jets, by the row loop of
    the product kernel with pair tables built from the exponent tuples alone:
    for each nonzero degree row da of a, every pair (i, j) with i in that
    row and j up to b's highest nonzero block of degree <= vd - da, in
    (i, j) order, is multiplied as an array (the constant pair as numpy
    scalars), summed per target monomial and added to an output that starts
    at +0.0.  Float arithmetic when both prefixes are real, as in the
    kernel."""
    ctx = a.ctx
    vd = min(a.valid_degree, b.valid_degree)
    out = np.zeros(ctx.size, dtype=np.complex128)
    if vd < 0:
        return out
    end = int(ctx.deg_start[vd + 1])
    av, bv = a.coeffs[:end], b.coeffs[:end]
    if not (av.any() and bv.any()):
        return out
    if not (av.imag.any() or bv.imag.any()):
        av, bv, out = av.real.copy(), bv.real.copy(), out.real.copy()
    blocks = [slice(ctx.deg_start[d], ctx.deg_start[d + 1]) for d in range(vd + 1)]
    cols = [d for d in range(vd + 1) if bv[blocks[d]].any()]
    I, J, T = _pair_table(ctx)
    for da in range(vd + 1):
        reach = [d for d in cols if d <= vd - da]
        if not (av[blocks[da]].any() and reach):
            continue
        keep = (ctx.degrees[I] == da) & (ctx.degrees[J] <= reach[-1])
        order = np.argsort(T[keep], kind="stable")
        i, j, t = I[keep][order], J[keep][order], T[keep][order]
        prod = av[i] * bv[j]
        if da == 0:
            prod[0] = av[0] * bv[0]
        seg = np.flatnonzero(np.r_[True, t[1:] != t[:-1]])
        out[t[seg]] += np.add.reduceat(prod, seg)
    return out.astype(np.complex128)


# -- row-loop series ------------------------------------------------------------


def row_loop_series(a: Jet, kind: str) -> np.ndarray:
    """The prefix of ``jet_exp``, ``jet_log`` or ``jet_reciprocal`` (``kind``
    "exp", "log", "reciprocal") of a jet trusted to degree >= 0, by the
    degree recurrence of ``jets._graded_series`` with one gather, multiply,
    segmented sum and add per (degree block d, nonzero row j <= d of the
    first factor), over the slice (j, d - j) of ``ctx.row_pairs(j, vd - j)``.
    A block's row sums are added in ascending j to a block that starts at
    +0.0; a zero row of the first factor is skipped."""
    ctx, vd, start = a.ctx, a.valid_degree, a.ctx.deg_start
    a0 = complex(a.prefix[0])
    p = a.prefix * (1.0 if kind == "exp" else 1.0 / a0)
    p[0] = 0
    if not p.imag.any():
        p = p.real.copy()
    first = p * ctx.degrees[: len(p)] if kind == "exp" else p
    rows = [j for j in range(vd + 1) if first[start[j] : start[j + 1]].any()]
    tables = [(j, ctx.row_pairs(j, vd - j)) for j in rows]
    s = np.zeros_like(p)
    s[0] = 0.0 if kind == "log" else 1.0
    for d in range(1, vd + 1):
        block = slice(start[d], start[d + 1])
        for j, (I, J, seg_starts, _, ends) in tables:
            if j > d:
                break
            p0, s0 = ends[d - j - 1] if d > j else (0, 0)
            p1, s1 = ends[d - j]
            prod = first[I[p0:p1]]
            prod *= s[J[p0:p1]]
            s[block] += np.add.reduceat(prod, seg_starts[s0:s1] - p0)
        if kind == "exp":
            s[block] /= d
        elif kind == "log":
            s[block] = d * p[block] - s[block]
        else:
            s[block] = -s[block]
    out = np.empty(len(s), dtype=np.complex128)
    if kind == "log":
        out[0], out[1:] = cmath.log(a0), s[1:] / ctx.degrees[1 : len(s)]
    else:
        out[:] = s * (cmath.exp(a0) if kind == "exp" else 1.0 / a0)
    return out


# -- Cauchy sum as a fold of jet operations ---------------------------------------


def cauchy_fold(a, b, k, js, weight=None) -> Jet:
    """``jets.cauchy_sum`` as a fold of public jet operations: each term
    a_j b_{k-j} by ``jet_mul`` with a_j read through the sum's validity,
    scaled by ``jet_scale`` and added by ``jet_add`` in ascending j.  A sum
    trusted below degree 0 is the shared zero jet, and no term is formed."""
    vd = min(min(a[j].valid_degree, b[k - j].valid_degree) for j in js)
    if vd < 0:
        return a[js[0]].ctx.zero(vd)
    acc = None
    for j in js:
        term = jet_mul(jet_through(a[j], vd), b[k - j])
        if weight is not None:
            term = jet_scale(term, weight(j))
        acc = term if acc is None else jet_add(acc, term)
    return acc


# -- t-series operations, order by order -------------------------------------------


def series_mul_fold(a, b) -> list:
    """The coefficients of the series product: ``cauchy_fold`` at every k."""
    return [cauchy_fold(a.coeffs, b.coeffs, k, range(k + 1)) for k in range(min(a.order, b.order) + 1)]


def series_add_fold(a, b) -> list:
    return [jet_add(x, y) for x, y in zip(a.coeffs, b.coeffs)]


def series_sub_fold(a, b) -> list:
    return [jet_sub(x, y) for x, y in zip(a.coeffs, b.coeffs)]


def t_exp_fold(a, e0) -> list:
    """exp of a series from exp(a_0) = ``e0``: order m is
    (1/m) sum_{k=1..m} k a_k E_{m-k}, by ``cauchy_fold`` at every m."""
    out = [e0]
    for m in range(1, a.order + 1):
        acc = cauchy_fold(a.coeffs, out, m, range(1, m + 1), lambda k: 1.0 * k)
        out.append(jet_scale(acc, 1.0 / m))
    return out


def t_reciprocal_fold(a) -> list:
    """1/a of a series: order m is -b_0 sum_{k=1..m} a_k b_{m-k}, with
    b_0 = 1/a_0, by ``cauchy_fold`` at every m."""
    out = [jet_reciprocal(a.coeffs[0])]
    for m in range(1, a.order + 1):
        acc = cauchy_fold(a.coeffs, out, m, range(1, m + 1))
        out.append(jet_scale(jet_mul(out[0], acc), -1.0))
    return out


# -- the per-variable derivative chain ----------------------------------------------


def chain_mixed_hessian(f: Jet) -> HermitianJetMatrix:
    """H_ij = 4 d^2 f / dz_i dzbar_j from single partials: the diagonal as
    f_{x_i x_i} + f_{y_i y_i}, the upper entries adding i(f_{x_i y_j} -
    f_{y_i x_j}), the lower ones their conjugates."""
    n = f.ctx.n
    dx = [jet_derive(f, 2 * i) for i in range(n)]
    dy = [jet_derive(f, 2 * i + 1) for i in range(n)]
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            xx = jet_derive(dx[j], 2 * i)
            yy = jet_derive(dy[j], 2 * i + 1)
            h = jet_add(xx, yy)
            if i != j:
                # 4 dz_i dzbar_j = dx_i dx_j + dy_i dy_j + i(dx_i dy_j - dy_i dx_j)
                xy = jet_derive(dy[j], 2 * i)
                yx = jet_derive(dx[j], 2 * i + 1)
                h = jet_add(h, jet_scale(jet_add(xy, jet_scale(yx, -1.0)), 1j))
            rows[i][j] = h
            if i != j:
                rows[j][i] = jet_conj(h)
    return HermitianJetMatrix(rows)


def chain_dz(f: Jet, i: int) -> Jet:
    """d/dz_i = (d/dx_i - i d/dy_i)/2."""
    a = jet_derive(f, 2 * i)
    b = jet_derive(f, 2 * i + 1)
    return jet_scale(jet_add(a, jet_scale(b, -1j)), 0.5)


def chain_dzbar(f: Jet, i: int) -> Jet:
    """d/dzbar_i = (d/dx_i + i d/dy_i)/2."""
    a = jet_derive(f, 2 * i)
    b = jet_derive(f, 2 * i + 1)
    return jet_scale(jet_add(a, jet_scale(b, 1j)), 0.5)
