"""Truncated multivariate Taylor polynomials (jets) and t-power series of jets.

A spatial function is represented by its Taylor polynomial at the origin of
the real coordinates (x1, y1, ..., xn, yn) of C^n, with complex double
coefficients, truncated at a fixed total degree.  Monomials are stored densely
in graded lexicographic order: ascending total degree, and within a degree the
order induced by treating x1 > y1 > x2 > y2 > ... (exponent tuples descend
lexicographically).  That ordering is part of the serialization contract.

Every jet carries a ``valid_degree``: the total degree through which its
coefficients are trusted.  Ring operations take the minimum of the operands'
validity, differentiation lowers it by one, below zero if need be.  Reading
a coefficient past the trusted degree (``constant_term``, ``coefficient``)
is an error rather than silent garbage, because the solver spends two
spatial degrees per t-order and corrupted tails would poison the residual
checks downstream.  For the same reason products form only the degree
blocks through the result's trusted degree (their tails are zero), and the
weighted l1 norm ``jet_norm`` (of the majorant and of the constant-curvature
test) and the one evaluator ``jet_eval_many`` (of the tests) read each jet
only through its own ``valid_degree``.

An untrusted jet is its context's shared zero jet; no operation computes
one; a degree-0 product is a scalar product.  Every operation whose result
has negative validity returns ``ctx.zero(vd)``, one read-only full-size jet
per context and validity, without allocating or computing anything, and a
product trusted only at degree 0 multiplies the two constant terms alone.

A product runs one gather, multiply, segmented sum and scatter-add per
nonzero degree row of its first factor.  The context caches, per row, the
pair tables of that block against all blocks of the second factor up to the
largest degree asked for so far; smaller requests use a prefix.  The
exponential, logarithm and reciprocal of a jet form each degree block from
the blocks below it by one recurrence over slices of the same tables
(Griewank & Walther, *Evaluating Derivatives*, ch. 13): one product's work.

A TJet is a truncated power series in the moment-map variable t whose
coefficients are jets, each with its own validity.  The series product,
reciprocal and exponential, and the solver's order step, take their
t-coefficients from one Cauchy sum, ``cauchy_sum``, which forms no products
for a t-coefficient whose validity is negative: it is the shared zero jet.
A term is formed only through its sum's validity (``jet_through``), in
``cauchy_sum`` and in the determinant orders of ``geometry.det_coefficient``.
"""

from __future__ import annotations

import cmath
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

        self._shifts = 8 * np.arange(self.nvars - 1, -1, -1, dtype=np.uint64)
        self._packed = (self.exponents.astype(np.uint64) << self._shifts).sum(axis=1)
        self._order = np.argsort(self._packed, kind="stable")
        self._sorted_keys = self._packed[self._order]

        self._pair_cache: dict[int, tuple] = {}
        self._deriv_cache: dict[int, tuple] = {}
        self._untrusted: dict[int, "Jet"] = {}

    # -- index helpers ----------------------------------------------------

    def rank_of(self, exponents) -> int:
        exp = np.asarray(exponents, dtype=np.uint64)
        key = int((exp << self._shifts).sum())
        pos = np.searchsorted(self._sorted_keys, key)
        if pos >= self.size or self._sorted_keys[pos] != key:
            raise InvalidInputError(f"monomial {tuple(exponents)} outside context")
        return int(self._order[pos])

    def _lookup_keys(self, keys: np.ndarray) -> np.ndarray:
        pos = np.searchsorted(self._sorted_keys, keys)
        return self._order[pos]

    def row_pairs(self, da: int, db_max: int):
        """Gather tables of the degree-da block against every degree-db block
        with db <= db_max, concatenated in db order: (I, J, segment starts,
        global target ranks, ends), where ``ends[k]`` is the (pair count,
        segment count) of the blocks db <= k.  Pairs are sorted by target
        monomial, stably, so one segmented reduction accumulates each product
        coefficient.

        Targets of degree da + db fill their own block, so the row is sorted
        by target and the tables for any smaller bound are a prefix of it.  A
        cached row grows only when a larger db_max is asked for; the missing
        blocks are built in one pass, whose stable sort by target orders them
        by db first and keeps each block's own pair order.
        """
        row = self._pair_cache.get(da)
        have = -1 if row is None else len(row[4]) - 1
        if db_max > have:
            ends = [] if row is None else list(row[4])
            pairs, segs = ends[-1] if ends else (0, 0)
            start = self.deg_start
            ia = np.arange(start[da], start[da + 1])
            ib = np.arange(start[have + 1], start[db_max + 1])
            I = np.repeat(ia, len(ib))
            J = np.tile(ib, len(ia))
            K = self._lookup_keys(self._packed[I] + self._packed[J])
            order = np.argsort(K, kind="stable")
            Ks = K[order]
            seg_starts = np.flatnonzero(np.r_[True, Ks[1:] != Ks[:-1]])
            targets = Ks[seg_starts]
            parts = [] if row is None else [row[:4]]
            parts.append((I[order], J[order], seg_starts + pairs, targets))
            for db in range(have + 1, db_max + 1):
                pairs += len(ia) * int(start[db + 1] - start[db])
                ends.append((pairs, segs + int(np.searchsorted(targets, start[da + db + 1]))))
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
            keys = (shifted.astype(np.uint64) << self._shifts).sum(axis=1)
            dst = self._lookup_keys(keys)
            factor = self.exponents[src, var].astype(np.float64)
            tab = (src, dst, factor)
            self._deriv_cache[var] = tab
        return tab

    # -- constructors ------------------------------------------------------

    def zero(self, valid_degree: int | None = None) -> "Jet":
        """A zero jet; for a negative validity the context's shared one."""
        vd = self.cap if valid_degree is None else valid_degree
        if vd >= 0:
            return Jet(self, np.zeros(self.size, dtype=np.complex128), vd)
        jet = self._untrusted.get(vd)
        if jet is None:
            jet = self._untrusted[vd] = _fresh(self, np.zeros(self.size, dtype=np.complex128), vd)
        return jet

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
    def constant_term(self) -> complex:
        """The degree-0 coefficient; ``ValidityError`` when it is untrusted."""
        return self._read(0)

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
        """One monomial's coefficient; ``ValidityError`` past the trusted degree."""
        return self._read(self.ctx.rank_of(exponents))

    def _read(self, rank: int) -> complex:
        degree = int(self.ctx.degrees[rank])
        if degree > self.valid_degree:
            raise ValidityError(
                f"degree-{degree} coefficient read on a jet with valid_degree {self.valid_degree}"
            )
        return complex(self.coeffs[rank])

    def __add__(self, other):
        if isinstance(other, (int, float, complex)):
            other = self.ctx.constant(other)
        return jet_add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, float, complex)):
            other = self.ctx.constant(other)
        if self.valid_degree < 0:  # the difference is the shared jet: negate nothing
            return jet_add(self, other)
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


# The slot descriptors of Jet set its fields past the immutable __setattr__.
_new_jet = object.__new__
_set_ctx = Jet.ctx.__set__
_set_coeffs = Jet.coeffs.__set__
_set_valid = Jet.valid_degree.__set__
_set_eff = Jet._eff.__set__


def _fresh(ctx: JetContext, coeffs: np.ndarray, valid_degree: int) -> Jet:
    """Wrap a freshly allocated coefficient array without the defensive copy
    and the checks of the public constructor.  Internal use only: the caller
    must not keep a writable reference, and ``valid_degree`` is an int no
    larger than the cap (the operands' validities bound it)."""
    jet = _new_jet(Jet)
    coeffs.setflags(write=False)
    _set_ctx(jet, ctx)
    _set_coeffs(jet, coeffs)
    _set_valid(jet, valid_degree)
    _set_eff(jet, None)
    return jet


def _require_same_ctx(a: Jet, b: Jet) -> None:
    if a.ctx is not b.ctx:
        if a.ctx.n != b.ctx.n or a.ctx.cap != b.ctx.cap:
            raise DimensionMismatchError(
                f"jet contexts differ: {a.ctx!r} vs {b.ctx!r}"
            )


def jet_add(a: Jet, b: Jet) -> Jet:
    _require_same_ctx(a, b)
    vd = min(a.valid_degree, b.valid_degree)
    return a.ctx.zero(vd) if vd < 0 else _fresh(a.ctx, a.coeffs + b.coeffs, vd)


def jet_scale(a: Jet, s: complex) -> Jet:
    vd = a.valid_degree
    return a.ctx.zero(vd) if vd < 0 else _fresh(a.ctx, a.coeffs * s, vd)


def jet_through(a: Jet, degree: int) -> Jet:
    """``a`` read no further than ``degree``: its coefficients, a lower
    validity; below degree 0 the shared untrusted jet."""
    if degree < 0:
        return a.ctx.zero(min(a.valid_degree, degree))
    return a if a.valid_degree <= degree else _fresh(a.ctx, a.coeffs, degree)


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
    ever added to, so a sum of -0.0 never shows as -0.0.  A product trusted
    only at degree 0 is that constant pair alone, formed as the kernel forms
    it, with no tables.
    """
    _require_same_ctx(a, b)
    ctx = a.ctx
    vd = min(a.valid_degree, b.valid_degree)
    if vd < 0:
        return ctx.zero(vd)
    out = np.zeros(ctx.size, dtype=np.complex128)
    if vd == 0:
        a0, b0 = a.coeffs[0], b.coeffs[0]
        if a0 != 0 and b0 != 0:
            out[0] = 0.0 + a0.real * b0.real if not (a0.imag or b0.imag) else 0j + a0 * b0
        return _fresh(ctx, out, 0)

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
    vd = a.valid_degree
    return a.ctx.zero(vd) if vd < 0 else _fresh(a.ctx, np.conj(a.coeffs), vd)


def _graded_series(a: Jet, kind: str) -> Jet:
    """exp, log or reciprocal (``kind``) of a jet by one recurrence in the
    spatial degree.  With x_d the degree-d block of x, (E x)_d = d x_d the
    Euler operator, and p = a - a_0 (exp) or a / a_0 - 1, the series s solves

        exp:        E s = (E p) s    s_0 = 1, d s_d = sum_{j=1..d} j p_j s_{d-j}
        reciprocal: (1 + p) s = 1    s_0 = 1, s_d = -sum_{j=1..d} p_j s_{d-j}
        log:        (1 + p) s = E p  s_0 = 0, s_d = d p_d - sum_{j=1..d} p_j s_{d-j}

    and gives exp(a_0) s, s / a_0 or log a_0 + E^{-1} s.  Each block pair is
    multiplied once, the work of one ``jet_mul``, with its real path:
    p_j s_{d-j} is the db = d - j slice of the row ``row_pairs(j, vd - j)``
    of a product with first factor p.  The result is trusted as far as a and
    zero past that; for an untrusted a it is a zero jet, a_0 left unread."""
    ctx, vd, start = a.ctx, a.valid_degree, a.ctx.deg_start
    if vd < 0:
        return ctx.zero(vd)
    a0 = complex(a.coeffs[0])
    if kind != "exp" and a0 == 0:
        raise SingularInputError(f"jet_{kind} of a jet with zero constant term")
    p = a.coeffs[: start[vd + 1]] * (1.0 if kind == "exp" else 1.0 / a0)
    p[0] = 0
    if not p.imag.any():
        p = p.real.copy()
    first = p * ctx.degrees[: len(p)] if kind == "exp" else p
    rows = np.logical_or.reduceat(first != 0, start[: vd + 1]).nonzero()[0].tolist()
    tables = [(j, ctx.row_pairs(j, vd - j)) for j in rows]
    s = np.zeros_like(p)
    s[0] = 0.0 if kind == "log" else 1.0
    for d in range(1, vd + 1):
        block = slice(start[d], start[d + 1])  # each block product's targets, in order
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
    out = np.zeros(ctx.size, dtype=np.complex128)
    if kind == "log":
        out[0], out[1 : len(s)] = cmath.log(a0), s[1:] / ctx.degrees[1 : len(s)]
    else:
        out[: len(s)] = s * (cmath.exp(a0) if kind == "exp" else 1.0 / a0)
    return _fresh(ctx, out, vd)


def jet_exp(a: Jet) -> Jet:
    """Truncated exponential, by the degree recurrence of ``_graded_series``."""
    return _graded_series(a, "exp")


def jet_log(a: Jet) -> Jet:
    """Truncated logarithm; requires a nonzero constant term."""
    return _graded_series(a, "log")


def jet_reciprocal(a: Jet) -> Jet:
    """Truncated 1/a; requires a nonzero constant term."""
    return _graded_series(a, "reciprocal")


def jet_derive(a: Jet, var: int) -> Jet:
    """Formal partial derivative along real coordinate ``var``; validity
    drops by 1, below zero for a jet with no trusted degree past the
    constant (the result is then untrusted, not an error)."""
    if var < 0 or var >= a.ctx.nvars:
        raise InvalidInputError(f"coordinate index {var} out of range")
    if a.valid_degree <= 0 or a.effective_degree < 1:
        return a.ctx.zero(a.valid_degree - 1)
    table_src, dst, factor = a.ctx.deriv_table(var)
    out = np.zeros(a.ctx.size, dtype=np.complex128)
    out[dst] = a.coeffs[table_src] * factor
    return _fresh(a.ctx, out, a.valid_degree - 1)


def jet_eval_many(a: Jet, points: np.ndarray) -> np.ndarray:
    """A jet read through its ``valid_degree`` (zero with no trusted degree)
    at a batch of points, shape (P, 2n); returns shape (P,).  Nothing in the
    package evaluates a jet: this is the tests' evaluator, which the
    benchmark tracer (``perfbench/tracer.py``) also times by name."""
    ctx, vd = a.ctx, a.valid_degree
    pts = np.asarray(points, dtype=np.complex128)
    if pts.ndim != 2 or pts.shape[1] != ctx.nvars:
        raise InvalidInputError(f"points must have shape (P, {ctx.nvars}), got {pts.shape}")
    if vd < 0:
        return np.zeros(len(pts), dtype=np.complex128)
    end = ctx.deg_start[vd + 1]
    powers = np.ones((len(pts), ctx.nvars, vd + 1), dtype=np.complex128)
    for d in range(1, vd + 1):
        powers[:, :, d] = powers[:, :, d - 1] * pts
    monomials = np.prod(powers[:, np.arange(ctx.nvars), ctx.exponents[:end]], axis=-1)
    return monomials @ a.coeffs[:end]


def jet_norm(a: Jet, r):
    """Weighted l1 norm sum_alpha |a_alpha| r^{|alpha|} of the jet through
    its ``valid_degree`` (0 for a jet with no trusted degree), at a radius
    or an array of radii: one sum of |coefficients| per degree, evaluated
    as a polynomial in r.  It bounds |a| on the polydisc of radius r.  A NaN
    coefficient gives a NaN norm."""
    vd, start = a.valid_degree, a.ctx.deg_start
    if vd < 0:
        return np.zeros_like(np.asarray(r, dtype=float))
    sums = np.add.reduceat(np.abs(a.coeffs[: start[vd + 1]]), start[: vd + 1])
    return np.polyval(sums[::-1], r)


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
    return float(np.max(np.abs(diff)))


def nan_max(*values) -> float:
    """Largest value, NaN as soon as one value is NaN (Python's ``max``
    drops a NaN that is not its first argument)."""
    return float(np.max(values))


def max_abs_coeff(a: Jet, through_degree: int | None = None) -> float:
    d = a.valid_degree if through_degree is None else min(a.valid_degree, through_degree)
    if d < 0:
        return 0.0
    end = a.ctx.deg_start[d + 1]
    return float(np.max(np.abs(a.coeffs[:end])))


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

    def __add__(self, other: "TJet") -> "TJet":
        m = min(self.order, other.order)
        return TJet(
            [jet_add(self.coeffs[k], other.coeffs[k]) for k in range(m + 1)]
        )

    def __neg__(self):
        return TJet([jet_scale(c, -1.0) for c in self.coeffs])

    def __sub__(self, other: "TJet") -> "TJet":
        return TJet([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other):
        """Series product with a TJet, or scaling by a number."""
        if isinstance(other, (int, float, complex)):
            return TJet([jet_scale(c, other) for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        return TJet(
            [cauchy_sum(a, b, k, range(k + 1)) for k in range(min(self.order, other.order) + 1)]
        )

    __rmul__ = __mul__

    def truncate(self, order: int) -> "TJet":
        if order >= self.order:
            return self
        return TJet(self.coeffs[: order + 1])

    def __repr__(self):
        return f"TJet(order={self.order}, ctx={self.ctx!r})"


def cauchy_sum(a, b, k: int, js: range, weight=None) -> Jet:
    """sum over j in ``js`` of a_j b_{k-j}, each term scaled by ``weight(j)``
    when a weight is given, for jet sequences ``a`` and ``b``.  The terms are
    added in ascending j.  The sum is trusted to the least validity of its
    terms; when that is negative the sum is untrusted, and it is returned as
    a zero jet without forming its products.  A term is formed only through
    the sum's validity."""
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
        acc = cauchy_sum(a.coeffs, out, m, range(1, m + 1))
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
    return jet_scale(cauchy_sum(a, e, m, ks, lambda k: sign * k), 1.0 / m)


def t_exp(a: TJet, e0: Jet | None = None) -> TJet:
    """Truncated exp of a t-series, via the linear recursion E' = a' E.
    ``e0`` is exp(a_0) when the caller already holds it."""
    out = [jet_exp(a.coeffs[0]) if e0 is None else e0]
    for m in range(1, a.order + 1):
        out.append(t_exp_coeff(a.coeffs, out, m))
    return TJet(out)


def t_conj(a: TJet) -> TJet:
    return TJet([jet_conj(c) for c in a.coeffs])
