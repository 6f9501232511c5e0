"""Truncated multivariate Taylor polynomials (jets) and t-power series of jets.

A spatial function is represented by its Taylor polynomial at the origin of
the real coordinates (x1, y1, ..., xn, yn) of C^n, with complex double
coefficients, truncated at a fixed total degree.  Monomials are stored densely
in graded lexicographic order: ascending total degree, and within a degree the
order induced by treating x1 > y1 > x2 > y2 > ... (exponent tuples descend
lexicographically).  That ordering is part of the serialization contract.

Every jet carries a ``valid_degree``: the total degree through which its
coefficients are trusted.  Ring operations take the minimum of the operands'
validity, differentiation lowers it by one.  Reading a derivative past the
trusted degree is an error rather than silent garbage, because the solver
spends two spatial degrees per t-order and corrupted tails would poison the
residual checks downstream.  For the same reason products form only the
degree blocks through the result's trusted degree (their tails are zero),
and evaluation reads each jet only through its own ``valid_degree``.

A product runs one gather, multiply, segmented sum and scatter-add per
nonzero degree row of its first factor.  The context caches, per row, the
pair tables of that block against all blocks of the second factor up to the
largest degree asked for so far; smaller requests use a prefix.

A TJet is a truncated power series in the moment-map variable t whose
coefficients are jets, each with its own validity.  The Cauchy sums of the
series product, reciprocal and exponential form no products for a
t-coefficient whose validity is negative: it is returned as a zero jet.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_right
from itertools import combinations_with_replacement

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidInputError,
    SingularInputError,
    ValidityError,
)

_CTX_CACHE: dict[tuple[int, int], "JetContext"] = {}


def context(n: int, cap: int) -> "JetContext":
    """Return the (cached) jet context for complex dimension n, degree cap."""
    key = (int(n), int(cap))
    ctx = _CTX_CACHE.get(key)
    if ctx is None:
        ctx = JetContext(*key)
        _CTX_CACHE[key] = ctx
    return ctx


class JetContext:
    """Shared index tables for all jets of one dimension and degree cap.

    Monomial exponent vectors, their graded-lex ranks, packed integer keys
    (8 bits per variable, additive under monomial multiplication) and lazily
    built multiplication / differentiation tables live here so that jets
    themselves are plain coefficient arrays.
    """

    def __init__(self, n: int, cap: int):
        if n < 1 or n > 4:
            raise InvalidInputError(f"complex dimension must be 1..4, got {n}")
        if cap < 0 or cap > 250:
            raise InvalidInputError(f"degree cap must be 0..250, got {cap}")
        self.n = n
        self.cap = cap
        self.nvars = 2 * n

        rows = []
        starts = [0]
        for d in range(cap + 1):
            for combo in combinations_with_replacement(range(self.nvars), d):
                rows.append(np.bincount(combo, minlength=self.nvars))
            starts.append(len(rows))
        self.exponents = np.array(rows, dtype=np.int64)
        self.deg_start = np.array(starts, dtype=np.int64)
        self.size = len(rows)
        self.degrees = np.repeat(np.arange(cap + 1), np.diff(self.deg_start))

        shifts = 8 * np.arange(self.nvars - 1, -1, -1, dtype=np.uint64)
        self._packed = (self.exponents.astype(np.uint64) << shifts).sum(axis=1)
        self._order = np.argsort(self._packed, kind="stable")
        self._sorted_keys = self._packed[self._order]

        self._pair_cache: dict[int, tuple] = {}
        self._deriv_cache: dict[int, tuple] = {}

    # -- index helpers ----------------------------------------------------

    def rank_of(self, exponents) -> int:
        exp = np.asarray(exponents, dtype=np.uint64)
        shifts = 8 * np.arange(self.nvars - 1, -1, -1, dtype=np.uint64)
        key = int((exp << shifts).sum())
        pos = np.searchsorted(self._sorted_keys, key)
        if pos >= self.size or self._sorted_keys[pos] != key:
            raise InvalidInputError(f"monomial {tuple(exponents)} outside context")
        return int(self._order[pos])

    def _lookup_keys(self, keys: np.ndarray) -> np.ndarray:
        pos = np.searchsorted(self._sorted_keys, keys)
        return self._order[pos]

    def block_pairs(self, da: int, db: int):
        """Gather tables multiplying the degree-da block against the degree-db
        block: (I, J, segment starts, global target ranks).  Pairs are sorted
        by target monomial, stably, so one segmented reduction accumulates
        each product coefficient.  Built on demand by ``row_pairs``; not
        cached."""
        ia = np.arange(self.deg_start[da], self.deg_start[da + 1])
        ib = np.arange(self.deg_start[db], self.deg_start[db + 1])
        I = np.repeat(ia, len(ib))
        J = np.tile(ib, len(ia))
        K = self._lookup_keys(self._packed[I] + self._packed[J])
        order = np.argsort(K, kind="stable")
        Ks = K[order]
        seg_starts = np.flatnonzero(np.r_[True, Ks[1:] != Ks[:-1]])
        return I[order], J[order], seg_starts, Ks[seg_starts]

    def row_pairs(self, da: int, db_max: int):
        """Gather tables of the degree-da block against every degree-db block
        with db <= db_max, concatenated in db order: (I, J, segment starts,
        global target ranks, ends), where ``ends[k]`` is the (pair count,
        segment count) of the blocks db <= k.

        Targets of degree da + db fill their own block, so the row is sorted
        by target and the tables for any smaller bound are a prefix of it.  A
        cached row grows, by appending blocks, only when a larger db_max is
        asked for.
        """
        row = self._pair_cache.get(da)
        have = -1 if row is None else len(row[4]) - 1
        if db_max > have:
            parts = [] if row is None else [row[:4]]
            ends = [] if row is None else list(row[4])
            pairs, segs = ends[-1] if ends else (0, 0)
            for db in range(have + 1, db_max + 1):
                I, J, seg_starts, targets = self.block_pairs(da, db)
                parts.append((I, J, seg_starts + pairs, targets))
                pairs += len(I)
                segs += len(seg_starts)
                ends.append((pairs, segs))
            row = tuple(
                np.ascontiguousarray(np.concatenate(col), dtype=np.intp)
                for col in zip(*parts)
            ) + (tuple(ends),)
            self._pair_cache[da] = row
        return row

    def deriv_table(self, var: int):
        tab = self._deriv_cache.get(var)
        if tab is None:
            src = np.flatnonzero(self.exponents[:, var] > 0)
            shifted = self.exponents[src].copy()
            shifted[:, var] -= 1
            shifts = 8 * np.arange(self.nvars - 1, -1, -1, dtype=np.uint64)
            keys = (shifted.astype(np.uint64) << shifts).sum(axis=1)
            dst = self._lookup_keys(keys)
            factor = self.exponents[src, var].astype(np.float64)
            tab = (src, dst, factor)
            self._deriv_cache[var] = tab
        return tab

    # -- constructors ------------------------------------------------------

    def zero(self, valid_degree: int | None = None) -> "Jet":
        vd = self.cap if valid_degree is None else valid_degree
        return Jet(self, np.zeros(self.size, dtype=np.complex128), vd)

    def constant(self, value: complex, valid_degree: int | None = None) -> "Jet":
        c = np.zeros(self.size, dtype=np.complex128)
        c[0] = value
        vd = self.cap if valid_degree is None else valid_degree
        return Jet(self, c, vd)

    def coordinate(self, var: int) -> "Jet":
        """Jet of the real coordinate with flat index ``var`` (x_i is 2i, y_i is 2i+1)."""
        c = np.zeros(self.size, dtype=np.complex128)
        exp = np.zeros(self.nvars, dtype=np.int64)
        exp[var] = 1
        c[self.rank_of(exp)] = 1.0
        return Jet(self, c, self.cap)

    def x(self, i: int) -> "Jet":
        return self.coordinate(2 * i)

    def y(self, i: int) -> "Jet":
        return self.coordinate(2 * i + 1)

    def z(self, i: int) -> "Jet":
        return jet_add(self.x(i), jet_scale(self.y(i), 1j))

    def zbar(self, i: int) -> "Jet":
        return jet_add(self.x(i), jet_scale(self.y(i), -1j))

    def __repr__(self):
        return f"JetContext(n={self.n}, cap={self.cap}, size={self.size})"


class Jet:
    """Truncated Taylor polynomial over one JetContext.

    Immutable: the coefficient array is frozen on construction and all
    operations return new jets, so values are safely shareable.
    """

    __slots__ = ("ctx", "coeffs", "valid_degree", "_eff")

    def __init__(self, ctx: JetContext, coeffs: np.ndarray, valid_degree: int):
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        if coeffs.shape != (ctx.size,):
            raise DimensionMismatchError(
                f"coefficient array of length {coeffs.shape} does not match context size {ctx.size}"
            )
        coeffs = coeffs.copy()
        coeffs.setflags(write=False)
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "valid_degree", min(int(valid_degree), ctx.cap))
        object.__setattr__(self, "_eff", None)

    def __setattr__(self, name, value):
        raise AttributeError("Jet is immutable")

    @property
    def n(self) -> int:
        return self.ctx.n

    @property
    def constant_term(self) -> complex:
        return complex(self.coeffs[0])

    @property
    def effective_degree(self) -> int:
        """Highest degree with a nonzero stored coefficient (-1 for the zero jet)."""
        eff = self._eff
        if eff is None:
            nz = np.flatnonzero(self.coeffs)
            eff = int(self.ctx.degrees[nz[-1]]) if len(nz) else -1
            object.__setattr__(self, "_eff", eff)
        return eff

    def coefficient(self, exponents) -> complex:
        return complex(self.coeffs[self.ctx.rank_of(exponents)])

    def __add__(self, other):
        if isinstance(other, (int, float, complex)):
            other = self.ctx.constant(other)
        return jet_add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, float, complex)):
            other = self.ctx.constant(other)
        return jet_add(self, jet_scale(other, -1.0))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return jet_scale(self, -1.0)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return jet_scale(self, other)
        return jet_mul(self, other)

    __rmul__ = __mul__

    def __repr__(self):
        return (
            f"Jet(n={self.ctx.n}, cap={self.ctx.cap}, "
            f"valid={self.valid_degree}, eff={self.effective_degree})"
        )


def _fresh(ctx: JetContext, coeffs: np.ndarray, valid_degree: int) -> Jet:
    """Wrap a freshly allocated coefficient array without the defensive copy
    of the public constructor.  Internal use only: the caller must not keep a
    writable reference."""
    jet = object.__new__(Jet)
    coeffs.setflags(write=False)
    object.__setattr__(jet, "ctx", ctx)
    object.__setattr__(jet, "coeffs", coeffs)
    object.__setattr__(jet, "valid_degree", min(int(valid_degree), ctx.cap))
    object.__setattr__(jet, "_eff", None)
    return jet


def _require_same_ctx(a: Jet, b: Jet) -> None:
    if a.ctx is not b.ctx:
        if a.ctx.n != b.ctx.n or a.ctx.cap != b.ctx.cap:
            raise DimensionMismatchError(
                f"jet contexts differ: {a.ctx!r} vs {b.ctx!r}"
            )


def jet_add(a: Jet, b: Jet) -> Jet:
    _require_same_ctx(a, b)
    return _fresh(a.ctx, a.coeffs + b.coeffs, min(a.valid_degree, b.valid_degree))


def jet_scale(a: Jet, s: complex) -> Jet:
    return _fresh(a.ctx, a.coeffs * s, a.valid_degree)


def jet_mul(a: Jet, b: Jet) -> Jet:
    """Truncated Cauchy product through the trusted degree of the result.

    Only degree blocks da + db <= vd = min(valid_degree) are formed, so the
    untrusted tail of the product is zero and the operands are read only
    through vd.  Each nonzero degree row da of ``a`` costs one gather, one
    multiply, one segmented sum and one scatter-add, over the prefix of its
    row tables that reaches b's highest nonzero block of degree <= vd - da.
    The kernel drops to float arithmetic when both trusted prefixes are real.

    The result is bitwise that of a loop over (da, db) block pairs: each
    target still receives one sum per da, in ascending da, and each sum runs
    over the same pairs in the same order.  Two details keep it so.  The
    constant pair is multiplied as scalars, because numpy rounds a complex
    product of length one (its scalar path) differently from the same
    product inside a longer array.  The output starts as +0.0 and is only
    ever added to, so a sum of -0.0 never shows as -0.0.
    """
    _require_same_ctx(a, b)
    ctx = a.ctx
    vd = min(a.valid_degree, b.valid_degree)
    out = np.zeros(ctx.size, dtype=np.complex128)
    if vd < 0:
        return _fresh(ctx, out, vd)

    start = ctx.deg_start
    av, bv = a.coeffs[: start[vd + 1]], b.coeffs[: start[vd + 1]]
    rows = np.logical_or.reduceat(av != 0, start[: vd + 1]).nonzero()[0].tolist()
    cols = np.logical_or.reduceat(bv != 0, start[: vd + 1]).nonzero()[0].tolist()
    if not (rows and cols):
        return _fresh(ctx, out, vd)
    both_real = not (av.imag.any() or bv.imag.any())
    if both_real:
        av, bv = av.real.copy(), bv.real.copy()
        out = np.zeros(ctx.size, dtype=np.float64)

    for da in rows:
        if vd - da < cols[0]:
            break
        db_max = cols[bisect_right(cols, vd - da) - 1]
        I, J, seg_starts, targets, ends = ctx.row_pairs(da, db_max)
        pairs, segs = ends[db_max]
        prod = av[I[:pairs]]
        prod *= bv[J[:pairs]]
        if da == 0:
            prod[0] = av[0] * bv[0]
        out[targets[:segs]] += np.add.reduceat(prod, seg_starts[:segs])
    return _fresh(ctx, out.astype(np.complex128) if both_real else out, vd)


def jet_conj(a: Jet) -> Jet:
    """Complex conjugate of the function values at real points, i.e. the
    coefficientwise conjugate.  In z-notation this is the usual swap z <-> zbar."""
    return _fresh(a.ctx, np.conj(a.coeffs), a.valid_degree)


def _nilpotent_series(a: Jet, term_coeffs) -> Jet:
    """Sum c_k * (a - a0)^k for k = 0.. until powers vanish or the cap is hit."""
    ctx = a.ctx
    n0 = a - a.constant_term
    acc = ctx.constant(term_coeffs(0), valid_degree=a.valid_degree)
    power = None
    for k in range(1, ctx.cap + 1):
        power = n0 if power is None else jet_mul(power, n0)
        if power.effective_degree < 0:
            break
        acc = jet_add(acc, jet_scale(power, term_coeffs(k)))
    return jet_restrict_validity(acc, a.valid_degree)


def jet_exp(a: Jet) -> Jet:
    """exp(a0) times the truncated exponential series of the nilpotent part."""
    e0 = cmath.exp(a.constant_term)
    out = _nilpotent_series(a, lambda k: 1.0 / math.factorial(k))
    return jet_scale(out, e0)


def jet_log(a: Jet) -> Jet:
    """Truncated logarithm; requires a nonzero constant term."""
    a0 = a.constant_term
    if a0 == 0:
        raise SingularInputError("jet_log of a jet with zero constant term")
    scaled = jet_scale(a, 1.0 / a0)

    def coeff(k: int) -> float:
        return 0.0 if k == 0 else (-1.0) ** (k + 1) / k

    out = _nilpotent_series(scaled, coeff)
    return jet_add(out, a.ctx.constant(cmath.log(a0), valid_degree=a.valid_degree))


def jet_reciprocal(a: Jet) -> Jet:
    """Truncated 1/a; requires a nonzero constant term."""
    a0 = a.constant_term
    if a0 == 0:
        raise SingularInputError("jet_reciprocal of a jet with zero constant term")
    scaled = jet_scale(a, 1.0 / a0)
    out = _nilpotent_series(scaled, lambda k: (-1.0) ** k)
    return jet_scale(out, 1.0 / a0)


def jet_derive(a: Jet, var: int, allow_exhausted: bool = False) -> Jet:
    """Formal partial derivative along real coordinate ``var``; validity drops by 1.

    With ``allow_exhausted`` the derivative of an untrusted jet is still
    computed (validity goes negative); callers that opt in must mask the
    result by validity themselves.
    """
    if var < 0 or var >= a.ctx.nvars:
        raise InvalidInputError(f"coordinate index {var} out of range")
    if a.valid_degree < 1 and not allow_exhausted:
        raise ValidityError(
            f"derivative requested on a jet with valid_degree {a.valid_degree}"
        )
    if a.effective_degree < 1:
        return _fresh(
            a.ctx, np.zeros(a.ctx.size, dtype=np.complex128), a.valid_degree - 1
        )
    table_src, dst, factor = a.ctx.deriv_table(var)
    out = np.zeros(a.ctx.size, dtype=np.complex128)
    out[dst] = a.coeffs[table_src] * factor
    return _fresh(a.ctx, out, a.valid_degree - 1)


def jet_eval(a: Jet, point) -> complex:
    """Evaluate the stored polynomial at one point of R^{2n} (complex
    coordinates are accepted for holomorphic sampling)."""
    return complex(jet_eval_many(a, np.asarray(point)[None, :])[0])


def jet_eval_many(a: Jet, points: np.ndarray) -> np.ndarray:
    """Evaluate at a batch of points, shape (P, 2n); returns shape (P,)."""
    return jet_eval_grid([a], points)[0]


def jet_eval_grid(jets, points: np.ndarray) -> np.ndarray:
    """Evaluate jets of one context at a batch of points, shape (P, 2n);
    returns shape (len(jets), P).

    Each jet is read only through its own ``valid_degree`` (a jet with no
    trusted degree evaluates to zero).  The monomial matrix of the points is
    built once, through the highest trusted degree among the jets, in chunks
    of at most 4M entries, and all jets are evaluated against it with one
    matrix product per chunk.
    """
    jets = list(jets)
    ctx = jets[0].ctx
    for jet in jets[1:]:
        _require_same_ctx(jets[0], jet)
    pts = np.asarray(points, dtype=np.complex128)
    if pts.ndim != 2 or pts.shape[1] != ctx.nvars:
        raise InvalidInputError(
            f"points must have shape (P, {ctx.nvars}), got {pts.shape}"
        )
    out = np.zeros((len(jets), pts.shape[0]), dtype=np.complex128)
    top = max(jet.valid_degree for jet in jets)
    if top < 0:
        return out
    width = int(ctx.deg_start[top + 1])
    coeffs = np.zeros((width, len(jets)), dtype=np.complex128)
    for k, jet in enumerate(jets):
        if jet.valid_degree >= 0:
            end = ctx.deg_start[jet.valid_degree + 1]
            coeffs[:end, k] = jet.coeffs[:end]
    exponents = ctx.exponents[:width]
    chunk = max(1, 4_000_000 // width)
    for lo in range(0, pts.shape[0], chunk):
        sub = pts[lo : lo + chunk]
        mono = np.ones((sub.shape[0], width), dtype=np.complex128)
        for v in range(ctx.nvars):
            powers = np.empty((sub.shape[0], top + 1), dtype=np.complex128)
            powers[:, 0] = 1.0
            for d in range(1, top + 1):
                powers[:, d] = powers[:, d - 1] * sub[:, v]
            mono *= powers[:, exponents[:, v]]
        out[:, lo : lo + chunk] = (mono @ coeffs).T
    return out


def jet_truncate(a: Jet, new_cap: int) -> Jet:
    """Restrict to a lower degree cap.  Graded ordering makes this a prefix slice."""
    if new_cap >= a.ctx.cap:
        return a
    ctx2 = context(a.ctx.n, new_cap)
    return Jet(ctx2, a.coeffs[: ctx2.size], min(a.valid_degree, new_cap))


def jet_restrict_validity(a: Jet, valid_degree: int) -> Jet:
    jet = object.__new__(Jet)
    object.__setattr__(jet, "ctx", a.ctx)
    object.__setattr__(jet, "coeffs", a.coeffs)
    object.__setattr__(jet, "valid_degree", min(a.valid_degree, valid_degree))
    object.__setattr__(jet, "_eff", a._eff)
    return jet


def max_coeff_diff(a: Jet, b: Jet, through_degree: int | None = None) -> float:
    """Largest |coefficient difference| through the common trusted degree."""
    _require_same_ctx(a, b)
    d = min(a.valid_degree, b.valid_degree)
    if through_degree is not None:
        d = min(d, through_degree)
    if d < 0:
        return 0.0
    end = a.ctx.deg_start[d + 1]
    diff = a.coeffs[:end] - b.coeffs[:end]
    return float(np.max(np.abs(diff))) if end else 0.0


def max_abs_coeff(a: Jet, through_degree: int | None = None) -> float:
    d = a.valid_degree if through_degree is None else min(a.valid_degree, through_degree)
    if d < 0:
        return 0.0
    end = a.ctx.deg_start[d + 1]
    return float(np.max(np.abs(a.coeffs[:end]))) if end else 0.0


def jets_close(a: Jet, b: Jet, tol: float, through_degree: int | None = None) -> bool:
    return max_coeff_diff(a, b, through_degree) <= tol


# ---------------------------------------------------------------------------
# Power series in t with jet coefficients
# ---------------------------------------------------------------------------


class TJet:
    """Truncated power series sum_m a_m(x) t^m with Jet coefficients.

    The list length fixes the truncation order; every coefficient shares one
    jet context but keeps its own valid_degree.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise InvalidInputError("TJet needs at least the order-0 coefficient")
        ctx = coeffs[0].ctx
        for c in coeffs[1:]:
            if c.ctx is not ctx:
                raise DimensionMismatchError("TJet coefficients in mixed contexts")
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("TJet is immutable")

    @property
    def ctx(self) -> JetContext:
        return self.coeffs[0].ctx

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def valid_degrees(self) -> tuple[int, ...]:
        return tuple(c.valid_degree for c in self.coeffs)

    def __add__(self, other):
        if isinstance(other, (int, float, complex)):
            other = t_constant(self.ctx, other, self.order)
        m = min(self.order, other.order)
        return TJet(
            [jet_add(self.coeffs[k], other.coeffs[k]) for k in range(m + 1)]
        )

    __radd__ = __add__

    def __neg__(self):
        return TJet([jet_scale(c, -1.0) for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, (int, float, complex)):
            other = t_constant(self.ctx, other, self.order)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return TJet([jet_scale(c, other) for c in self.coeffs])
        if isinstance(other, Jet):
            return TJet([jet_mul(c, other) for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        out = []
        for k in range(min(self.order, other.order) + 1):
            vd = _cauchy_validity(a, b, k, range(k + 1))
            if vd < 0:
                out.append(self.ctx.zero(vd))
                continue
            acc = jet_mul(a[0], b[k])
            for j in range(1, k + 1):
                acc = jet_add(acc, jet_mul(a[j], b[k - j]))
            out.append(acc)
        return TJet(out)

    __rmul__ = __mul__

    def truncate(self, order: int) -> "TJet":
        if order >= self.order:
            return self
        return TJet(self.coeffs[: order + 1])

    def __repr__(self):
        return f"TJet(order={self.order}, ctx={self.ctx!r})"


def _cauchy_validity(a, b, k: int, js: range) -> int:
    """Validity of the Cauchy sum over j in ``js`` of a_j b_{k-j}: the least
    over its terms.  A t-coefficient whose validity is negative is
    untrusted, so the t-series routines return it as a zero jet without
    forming its products."""
    return min(min(a[j].valid_degree, b[k - j].valid_degree) for j in js)


def t_constant(ctx: JetContext, value: complex, order: int) -> TJet:
    return TJet([ctx.constant(value)] + [ctx.zero() for _ in range(order)])


def t_integrate(a: TJet) -> TJet:
    """Integral from 0 to t: order m shifts to m+1 with division by m+1.

    The result gains one order of headroom (constant term zero).
    """
    out = [a.ctx.zero()]
    out.extend(jet_scale(c, 1.0 / (m + 1)) for m, c in enumerate(a.coeffs))
    return TJet(out)


def t_derive(a: TJet) -> TJet:
    """d/dt: order m shifts to m-1 with multiplication by m."""
    if a.order == 0:
        return TJet([a.ctx.zero(valid_degree=a.coeffs[0].valid_degree)])
    return TJet(
        [jet_scale(a.coeffs[m], float(m)) for m in range(1, a.order + 1)]
    )


def t_reciprocal(a: TJet) -> TJet:
    """Truncated 1/a for a series whose constant jet has nonzero constant term."""
    b0 = jet_reciprocal(a.coeffs[0])
    out = [b0]
    for m in range(1, a.order + 1):
        vd = min(b0.valid_degree, _cauchy_validity(a.coeffs, out, m, range(1, m + 1)))
        if vd < 0:
            out.append(a.ctx.zero(vd))
            continue
        acc = jet_mul(a.coeffs[1], out[m - 1])
        for k in range(2, m + 1):
            acc = jet_add(acc, jet_mul(a.coeffs[k], out[m - k]))
        out.append(jet_scale(jet_mul(b0, acc), -1.0))
    return TJet(out)


def t_exp_coeff(a, e, m: int, sign: float = 1.0) -> Jet:
    """[t^m] of E = exp(sign * a) from E's coefficients ``e`` of orders < m,
    via the linear recursion E' = sign a' E.  ``a`` is a sequence of jet
    coefficients; a_k reads as zero past its length, so a caller may leave
    the top coefficient of a out (it then drops out of the recursion)."""
    ks = range(1, min(m, len(a) - 1) + 1)
    if not ks:
        return e[0].ctx.zero()
    vd = _cauchy_validity(a, e, m, ks)
    if vd < 0:
        return e[0].ctx.zero(vd)
    acc = None
    for k in ks:
        term = jet_scale(jet_mul(a[k], e[m - k]), sign * k)
        acc = term if acc is None else jet_add(acc, term)
    return jet_scale(acc, 1.0 / m)


def t_exp(a: TJet, e0: Jet | None = None) -> TJet:
    """Truncated exp of a t-series, via the linear recursion E' = a' E.
    ``e0`` is exp(a_0) when the caller already holds it."""
    out = [jet_exp(a.coeffs[0]) if e0 is None else e0]
    for m in range(1, a.order + 1):
        out.append(t_exp_coeff(a.coeffs, out, m))
    return TJet(out)


def t_conj(a: TJet) -> TJet:
    return TJet([jet_conj(c) for c in a.coeffs])
