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
blocks through the result's trusted degree (their tails are zero), and
evaluation and the norms read each jet only through its own ``valid_degree``.

A product runs one gather, multiply, segmented sum and scatter-add per
nonzero degree row of its first factor.  The context caches, per row, the
pair tables of that block against all blocks of the second factor up to the
largest degree asked for so far; smaller requests use a prefix.

A TJet is a truncated power series in the moment-map variable t whose
coefficients are jets, each with its own validity.  The series product,
reciprocal and exponential, and the solver's order step, take their
t-coefficients from one Cauchy sum, ``cauchy_sum``, which forms no products
for a t-coefficient whose validity is negative: it is returned as a zero jet.
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
    n0 = a - complex(a.coeffs[0])
    acc = ctx.constant(term_coeffs(0), valid_degree=a.valid_degree)
    power = None
    for k in range(1, ctx.cap + 1):
        power = n0 if power is None else jet_mul(power, n0)
        if power.effective_degree < 0:
            break
        acc = jet_add(acc, jet_scale(power, term_coeffs(k)))
    return acc


def jet_exp(a: Jet) -> Jet:
    """exp(a0) times the truncated exponential series of the nilpotent part."""
    e0 = cmath.exp(complex(a.coeffs[0]))
    out = _nilpotent_series(a, lambda k: 1.0 / math.factorial(k))
    return jet_scale(out, e0)


def jet_log(a: Jet) -> Jet:
    """Truncated logarithm; requires a nonzero constant term."""
    a0 = complex(a.coeffs[0])
    if a0 == 0:
        raise SingularInputError("jet_log of a jet with zero constant term")
    scaled = jet_scale(a, 1.0 / a0)

    def coeff(k: int) -> float:
        return 0.0 if k == 0 else (-1.0) ** (k + 1) / k

    out = _nilpotent_series(scaled, coeff)
    return jet_add(out, a.ctx.constant(cmath.log(a0), valid_degree=a.valid_degree))


def jet_reciprocal(a: Jet) -> Jet:
    """Truncated 1/a; requires a nonzero constant term."""
    a0 = complex(a.coeffs[0])
    if a0 == 0:
        raise SingularInputError("jet_reciprocal of a jet with zero constant term")
    scaled = jet_scale(a, 1.0 / a0)
    out = _nilpotent_series(scaled, lambda k: (-1.0) ** k)
    return jet_scale(out, 1.0 / a0)


def jet_derive(a: Jet, var: int) -> Jet:
    """Formal partial derivative along real coordinate ``var``; validity
    drops by 1, below zero for a jet with no trusted degree past the
    constant (the result is then untrusted, not an error)."""
    if var < 0 or var >= a.ctx.nvars:
        raise InvalidInputError(f"coordinate index {var} out of range")
    if a.effective_degree < 1:
        return _fresh(
            a.ctx, np.zeros(a.ctx.size, dtype=np.complex128), a.valid_degree - 1
        )
    table_src, dst, factor = a.ctx.deriv_table(var)
    out = np.zeros(a.ctx.size, dtype=np.complex128)
    out[dst] = a.coeffs[table_src] * factor
    return _fresh(a.ctx, out, a.valid_degree - 1)


def jet_eval_many(a: Jet, points: np.ndarray) -> np.ndarray:
    """Evaluate one jet at a batch of points, shape (P, 2n); returns shape
    (P,).  The one-jet form of ``jet_eval_lists``, kept as a name because
    the benchmark tracer (``perfbench/tracer.py``) times it."""
    return jet_eval_lists([[a]], points)[0][0]


def jet_eval_lists(lists, points: np.ndarray) -> list[np.ndarray]:
    """Evaluate lists of jets of one context at a batch of points, shape
    (P, 2n); returns one array of shape (len(jets), P) per list.

    Each jet is read only through its own ``valid_degree`` (a jet with no
    trusted degree evaluates to zero).  A list is evaluated against the
    monomial matrix of the points through its highest trusted degree, built
    in chunks of at most 4M entries, with one matrix product per chunk, so
    its values are bitwise those of the list evaluated alone.  Lists with
    the same highest trusted degree share each chunk's matrix.
    """
    lists = [list(jets) for jets in lists]
    every = [jet for jets in lists for jet in jets]
    pts = np.asarray(points, dtype=np.complex128)
    outs = [np.zeros((len(jets), pts.shape[0]), dtype=np.complex128) for jets in lists]
    if not every:
        return outs
    ctx = every[0].ctx
    for jet in every[1:]:
        _require_same_ctx(every[0], jet)
    if pts.ndim != 2 or pts.shape[1] != ctx.nvars:
        raise InvalidInputError(
            f"points must have shape (P, {ctx.nvars}), got {pts.shape}"
        )
    by_top: dict[int, list[int]] = {}
    for k, jets in enumerate(lists):
        top = max((jet.valid_degree for jet in jets), default=-1)
        if top >= 0:
            by_top.setdefault(top, []).append(k)
    for top, ks in by_top.items():
        width = int(ctx.deg_start[top + 1])
        coeffs = {k: _trusted_columns(lists[k], width) for k in ks}
        chunk = max(1, 4_000_000 // width)
        for lo in range(0, pts.shape[0], chunk):
            mono = _monomial_matrix(ctx, pts[lo : lo + chunk], top)
            for k in ks:
                outs[k][:, lo : lo + chunk] = (mono @ coeffs[k]).T
    return outs


def _trusted_columns(jets, width: int) -> np.ndarray:
    """The jets' coefficients through their own valid_degree, one column
    each, zero-padded to ``width`` rows."""
    coeffs = np.zeros((width, len(jets)), dtype=np.complex128)
    for k, jet in enumerate(jets):
        if jet.valid_degree >= 0:
            end = jet.ctx.deg_start[jet.valid_degree + 1]
            coeffs[:end, k] = jet.coeffs[:end]
    return coeffs


def _monomial_matrix(ctx: JetContext, pts: np.ndarray, top: int) -> np.ndarray:
    """Every monomial of degree <= top at each point, shape (P, width)."""
    width = int(ctx.deg_start[top + 1])
    exponents = ctx.exponents[:width]
    mono = np.ones((pts.shape[0], width), dtype=np.complex128)
    for v in range(ctx.nvars):
        powers = np.empty((pts.shape[0], top + 1), dtype=np.complex128)
        powers[:, 0] = 1.0
        for d in range(1, top + 1):
            powers[:, d] = powers[:, d - 1] * pts[:, v]
        mono *= powers[:, exponents[:, v]]
    return mono


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


def nan_max(*values) -> float:
    """Largest value, NaN as soon as one value is NaN (Python's ``max``
    drops a NaN that is not its first argument)."""
    return float(np.max(values))


def max_abs_coeff(a: Jet, through_degree: int | None = None) -> float:
    d = a.valid_degree if through_degree is None else min(a.valid_degree, through_degree)
    if d < 0:
        return 0.0
    end = a.ctx.deg_start[d + 1]
    return float(np.max(np.abs(a.coeffs[:end]))) if end else 0.0


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
        return self + (-other)

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
    a zero jet without forming its products."""
    vd = min(min(a[j].valid_degree, b[k - j].valid_degree) for j in js)
    if vd < 0:
        return a[js[0]].ctx.zero(vd)
    acc = None
    for j in js:
        term = jet_mul(a[j], b[k - j])
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
