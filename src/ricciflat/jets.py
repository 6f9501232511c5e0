"""Truncated multivariate Taylor polynomials (jets) and t-power series of jets.

A spatial function is represented by its Taylor polynomial at the origin of
the real coordinates (x1, y1, ..., xn, yn) of C^n, with complex double
coefficients, truncated at a fixed total degree.  Monomials are stored densely
in graded lexicographic order: ascending total degree, and within a degree the
order induced by treating x1 > y1 > x2 > y2 > ... (exponent tuples descend
lexicographically).  That ordering is part of the serialization contract.

Every jet carries a ``valid_degree``: the total degree through which its
coefficients are trusted, and it stores those coefficients and no others,
``ctx.deg_start[valid_degree + 1]`` of them (none below degree 0).  Ring
operations take the minimum of the operands' validity and read each operand
through it, differentiation lowers it by one, below zero if need be.
Reading a coefficient past the trusted degree (``constant_term``,
``coefficient``) is an error rather than silent garbage, because the solver
spends two spatial degrees per t-order.  An untrusted jet is its context's
shared empty jet, ``ctx.zero(vd)``: no operation computes one, and a
product trusted only at degree 0 multiplies the two constant terms alone.

The context caches, per degree row of a first factor, the pair tables of
that block against all blocks of the second factor up to the largest degree
asked for so far; smaller requests use a prefix.  A product, and the
exponential, logarithm and reciprocal of a jet, which form each degree
block from the blocks below it by one recurrence over slices of the same
tables (Griewank & Walther, *Evaluating Derivatives*, ch. 13), read those
tables through one plan per pattern of nonzero blocks and run it by one
executor; ``_plan`` describes both.  Each jet caches its block pattern on
its first product, as it caches its effective degree: which degree blocks
are nonzero and the first degree with an imaginary part.  A view from
``jet_through`` takes its parent's pattern cut to its degree, so a
product's set-up is one dictionary lookup.

Partials come from one derivative table per context, built at the cap on
first use and read through a prefix at each validity
(``JetContext.derivative_table``): ``jet_partials`` gathers all 2n first
partials of a jet at once, +0.0 throughout for a jet with no nonzero
non-constant coefficient, and ``jet_derive`` is one of them.

A TJet is a truncated power series in the moment-map variable t whose
coefficients are jets, each with its own validity.  Its orders follow one
rule, enforced by ``cauchy_sum`` alone: a Cauchy sum is trusted to the
least validity of its terms, and a sum trusted below degree 0 is the shared
zero jet, with no product formed.  The series product, reciprocal and
exponential, and the solver's order step, take their t-coefficients from
it and keep no validity of their own.  A term is formed only through its
sum's validity, in ``cauchy_sum`` (on the prefix arrays, with one jet for
the whole sum) and in the determinant orders of ``geometry.det_coefficient``
(``jet_through``).  Sums, differences, scalings, conjugates, t-derivatives
and t-integrals map the jet operation over the orders; it returns the
shared zero jet for an untrusted order.
"""

from __future__ import annotations

import cmath
from bisect import bisect_right

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


def _graded_exponents(nvars: int, cap: int):
    """The exponent vectors of the monomials of degree <= cap in ``nvars``
    variables, by ascending degree and within a degree in descending
    lexicographic order (that of ``combinations_with_replacement`` over the
    variables), as an int64 array, and the number of monomials per degree.
    In v variables the degree-d block is the monomials of degree <= d in the
    last v - 1 variables, ascending in degree e, behind a first exponent
    d - e: one prefix of the previous table per degree."""
    exponents = np.arange(cap + 1, dtype=np.int64)[:, None]
    sizes = np.ones(cap + 1, dtype=np.int64)
    for _ in range(nvars - 1):
        ends = np.cumsum(sizes)
        exponents = np.concatenate([
            np.column_stack((np.repeat(np.arange(d, -1, -1), sizes[: d + 1]), exponents[: ends[d]]))
            for d in range(cap + 1)
        ])
        sizes = ends
    return exponents, sizes


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

        self.exponents, sizes = _graded_exponents(self.nvars, cap)
        starts = [0] + np.cumsum(sizes).tolist()
        self.deg_start = tuple(starts)  # ints: each operation indexes it
        self._blocks = np.array(starts[:-1])  # reduceat converts a tuple each call
        self.size = starts[-1]
        self.degrees = np.repeat(np.arange(cap + 1), np.diff(self.deg_start))

        self._shifts = 8 * np.arange(self.nvars - 1, -1, -1, dtype=np.uint64)
        self._packed = (self.exponents.astype(np.uint64) << self._shifts).sum(axis=1)
        self._order = np.argsort(self._packed, kind="stable")
        self._sorted_keys = self._packed[self._order]

        self._pair_cache: dict[int, tuple] = {}
        self._plans: dict[tuple[int, int, int | None], list | tuple] = {}
        self._derivatives: tuple | None = None
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

    def derivative_table(self):
        """The context's derivative table (up, exps), built on first use at
        the cap: one row per coordinate v and one column per monomial m_k
        of degree < cap, holding the rank of m_k x_v in ``up`` and its
        exponent of x_v in ``exps``, so the partial of a jet a along x_v has
        the coefficient a[up[v, k]] * exps[v, k] at m_k.  A jet trusted to
        vd >= 1 reads the first ``deg_start[vd]`` columns, views as the pair
        tables are read, and gathers all its first partials at once.  Ranks
        are intp and exponents float64, the types the gather and the
        complex product take without a cast: a narrower column costs numpy
        a cast buffer per process larger than the whole table of a small
        context."""
        if self._derivatives is None:
            rows = self.deg_start[self.cap]
            keys = self._packed[:rows] + (np.uint64(1) << self._shifts)[:, None]
            up = self._lookup_keys(keys.ravel()).reshape(self.nvars, rows)
            self._derivatives = (up, (self.exponents[:rows].T + 1).astype(np.float64))
        return self._derivatives

    # -- constructors ------------------------------------------------------

    def zero(self, valid_degree: int | None = None) -> "Jet":
        """A zero jet; for a negative validity the context's shared one."""
        vd = self.cap if valid_degree is None else valid_degree
        if vd >= 0:
            vd = min(vd, self.cap)
            return _fresh(self, np.zeros(self.deg_start[vd + 1], dtype=np.complex128), vd)
        jet = self._untrusted.get(vd)
        if jet is None:
            jet = self._untrusted[vd] = _fresh(self, np.zeros(0, dtype=np.complex128), vd)
        return jet

    def constant(self, value: complex, valid_degree: int | None = None) -> "Jet":
        vd = self.cap if valid_degree is None else min(valid_degree, self.cap)
        if vd < 0:
            return self.zero(vd)
        c = np.zeros(self.deg_start[vd + 1], dtype=np.complex128)
        c[0] = value
        return _fresh(self, c, vd)

    def coordinate(self, var: int) -> "Jet":
        """Jet of the real coordinate with flat index ``var`` (x_i is 2i, y_i is 2i+1)."""
        c = np.zeros(self.size, dtype=np.complex128)
        exp = np.zeros(self.nvars, dtype=np.int64)
        exp[var] = 1
        c[self.rank_of(exp)] = 1.0
        return _fresh(self, c, self.cap)

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

    Built from one coefficient per monomial of the context, it keeps those
    through ``valid_degree`` as ``prefix``.  Immutable: the array is frozen
    on construction and all operations return new jets, so values are
    safely shareable.
    """

    __slots__ = ("ctx", "prefix", "valid_degree", "_eff", "_pattern")

    def __init__(self, ctx: JetContext, coeffs: np.ndarray, valid_degree: int):
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        if coeffs.shape != (ctx.size,):
            raise DimensionMismatchError(
                f"coefficient array of length {coeffs.shape} does not match context size {ctx.size}"
            )
        vd = min(int(valid_degree), ctx.cap)
        prefix = coeffs[: ctx.deg_start[vd + 1] if vd >= 0 else 0].copy()
        prefix.setflags(write=False)
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "valid_degree", vd)
        object.__setattr__(self, "_eff", None)
        object.__setattr__(self, "_pattern", None)

    def __setattr__(self, name, value):
        raise AttributeError("Jet is immutable")

    @property
    def coeffs(self) -> np.ndarray:
        """A new read-only copy of the prefix, zero-padded to ``ctx.size``, for
        the tests and the benchmark tracer; nothing in the package reads it."""
        out = np.pad(self.prefix, (0, self.ctx.size - len(self.prefix)))
        out.setflags(write=False)
        return out

    @property
    def constant_term(self) -> complex:
        """The degree-0 coefficient; ``ValidityError`` when it is untrusted."""
        return self._read(0)

    @property
    def effective_degree(self) -> int:
        """Highest degree with a nonzero stored coefficient (-1 for the zero jet)."""
        eff = self._eff
        if eff is None:
            nz = np.flatnonzero(self.prefix)
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
        return complex(self.prefix[rank])

    def __add__(self, other):
        if isinstance(other, (int, float, complex)):
            other = self.ctx.constant(other)
        return jet_add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, float, complex)):
            other = self.ctx.constant(other)
        return jet_sub(self, other)

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
_set_prefix = Jet.prefix.__set__
_set_valid = Jet.valid_degree.__set__
_set_eff = Jet._eff.__set__
_set_pattern = Jet._pattern.__set__


def _fresh(ctx: JetContext, prefix: np.ndarray, valid_degree: int) -> Jet:
    """Wrap a freshly allocated prefix without the defensive copy and the
    checks of the public constructor.  Internal use only: the caller must
    not keep a writable reference, and ``valid_degree`` is an int no larger
    than the cap (the operands' validities bound it)."""
    jet = _new_jet(Jet)
    prefix.setflags(write=False)
    _set_ctx(jet, ctx)
    _set_prefix(jet, prefix)
    _set_valid(jet, valid_degree)
    _set_eff(jet, None)
    _set_pattern(jet, None)
    return jet


def _mask(flags: np.ndarray) -> int:
    """The int whose bit d is ``flags[d]``."""
    return sum(1 << d for d in flags.nonzero()[0].tolist())


def _pattern(a: Jet) -> tuple[int, int]:
    """The block pattern of a jet, cached on it: an int whose bit d is set
    when the degree-d block of its prefix holds a nonzero coefficient (NaN
    counts, -0.0 does not), and the first degree whose block has a nonzero
    imaginary part, ``valid_degree + 1`` when there is none."""
    pattern = a._pattern
    if pattern is None:
        ctx, prefix, vd = a.ctx, a.prefix, a.valid_degree
        if vd < 0:
            pattern = (0, vd + 1)
        else:
            imag = prefix.imag.nonzero()[0]
            pattern = (
                _mask(np.logical_or.reduceat(prefix != 0, ctx._blocks[: vd + 1])),
                int(ctx.degrees[imag[0]]) if len(imag) else vd + 1,
            )
        _set_pattern(a, pattern)
    return pattern


def _same_context(a: Jet, b: Jet) -> None:
    if a.ctx is not b.ctx and (a.ctx.n != b.ctx.n or a.ctx.cap != b.ctx.cap):
        raise DimensionMismatchError(f"jet contexts differ: {a.ctx!r} vs {b.ctx!r}")


def _operands(a: Jet, b: Jet):
    """The common validity of two jets of one context, and their prefixes
    read through it: the longer prefix is cut to the shorter."""
    _same_context(a, b)
    va, vb = a.valid_degree, b.valid_degree
    if va > vb:
        return vb, a.prefix[: len(b.prefix)], b.prefix
    return va, a.prefix, b.prefix if va == vb else b.prefix[: len(a.prefix)]


def jet_add(a: Jet, b: Jet) -> Jet:
    vd, pa, pb = _operands(a, b)
    return a.ctx.zero(vd) if vd < 0 else _fresh(a.ctx, pa + pb, vd)


def jet_sub(a: Jet, b: Jet) -> Jet:
    vd, pa, pb = _operands(a, b)
    return a.ctx.zero(vd) if vd < 0 else _fresh(a.ctx, pa - pb, vd)


def jet_scale(a: Jet, s: complex) -> Jet:
    vd = a.valid_degree
    return a.ctx.zero(vd) if vd < 0 else _fresh(a.ctx, a.prefix * s, vd)


def jet_through(a: Jet, degree: int) -> Jet:
    """``a`` read no further than ``degree``: a view of its prefix, a lower
    validity; below degree 0 the shared untrusted jet.  The view's block
    pattern is its parent's cut to ``degree``."""
    if degree < 0:
        return a.ctx.zero(min(a.valid_degree, degree))
    if a.valid_degree <= degree:
        return a
    mask, real = _pattern(a)
    view = _fresh(a.ctx, a.prefix[: a.ctx.deg_start[degree + 1]], degree)
    _set_pattern(view, (mask & ((2 << degree) - 1), min(real, degree + 1)))
    return view


# Largest plan, in pair products, cached as chunks; see ``_plan``.
_PLAN_PAIRS = 4096


def jet_mul(a: Jet, b: Jet) -> Jet:
    """Truncated Cauchy product through the trusted degree of the result.

    Only degree blocks da + db <= vd = min(valid_degree) are formed, and the
    operands are read only through vd, by ``_product`` on the plan of
    ``_plan``.  The kernel drops to float arithmetic, on the real parts of
    the prefixes and of the output, when both operands are real through vd.
    Which blocks are nonzero and the first degree with an imaginary part
    are read from the block pattern each jet caches on its first product,
    so a product's set-up is a dictionary lookup.  A product trusted only at
    degree 0 is the constant pair alone, formed as the kernel forms it,
    with no tables.
    """
    _same_context(a, b)
    vd = min(a.valid_degree, b.valid_degree)
    if vd < 0:
        return a.ctx.zero(vd)
    return _fresh(a.ctx, _product(a.ctx, a, b, vd), vd)


def _product(ctx: JetContext, a: Jet, b: Jet, vd: int) -> np.ndarray:
    """The coefficients of the product of two jets of ``ctx`` trusted at
    least to ``vd`` >= 0, read through ``vd``, as a new complex array (see
    ``jet_mul``)."""
    if vd == 0:
        out = np.zeros(1, dtype=np.complex128)
        a0, b0 = a.prefix[0], b.prefix[0]
        if a0 != 0 and b0 != 0:
            out[0] = 0.0 + a0.real * b0.real if not (a0.imag or b0.imag) else 0j + a0 * b0
        return out

    rows, real_a = _pattern(a)
    cols, real_b = _pattern(b)
    keep = (2 << vd) - 1
    key = (vd, rows & keep, cols & keep)
    plan = ctx._plans.get(key)
    if plan is None:
        plan = ctx._plans[key] = _plan(ctx, *key)
    out = np.zeros(ctx.deg_start[vd + 1], dtype=np.complex128)
    if not plan:  # no nonzero pair
        return out
    if real_a > vd and real_b > vd:
        _run(ctx, plan, a.prefix.real, b.prefix.real, out.real)
    else:
        _run(ctx, plan, a.prefix, b.prefix, out)
    return out


def _plan(ctx: JetContext, vd: int, rows: int, cols: int | None):
    """The plan of a product at validity ``vd`` >= 0 whose first factor has
    the nonzero degree rows ``rows`` and whose second has the nonzero
    blocks ``cols`` (bit d for degree d), or, with ``cols`` None, of a
    ``_graded_series`` whose first factor has those rows.  The context
    caches it in ``ctx._plans`` under (vd, rows, cols).

    A product's plan is one group: each nonzero row j of the first factor
    that meets a nonzero block db <= vd - j of the second, read through the
    highest such db with the zero blocks below it, as the prefix of
    ``ctx.row_pairs(j, db)``.  A series' plan is one group per block d =
    1..vd: the slices (j, d - j) of the rows ``row_pairs(j, vd - j)``, for
    its rows j <= d.  Each piece of a group is one row's blocks lo..hi, and
    its targets are one run of consecutive monomials, those of degrees
    j + lo..j + hi, because each product of a row with a block covers its
    target block.

    A plan of at most ``_PLAN_PAIRS`` pairs caches each group as a chunk:
    its pieces' tables copied and concatenated in row order, each piece's
    segment starts offset by the pairs before it, with the targets of the
    ``targets`` column, run as one gather, multiply, segmented sum and
    ``np.add.at``.  A larger plan caches only its layout, six integers per
    piece (row, pairs, segments, first target), and ``_run`` cuts views of
    the row tables on each call and adds each piece into its target slice,
    so it copies and pins no table.  The bound keeps chunks where they pay.
    A small product spends most of its time in per-call overhead, which one
    gather removes.  A large one gains nothing: a dense n=2 product at
    validity 12 (125,970 pairs) took 2.1 ms as one chunk against 0.8-1.1 ms
    by rows, whose tables stay in cache.  A chunk also copies its tables,
    so an unbounded plan cache raised the peak memory of an n=3 M6 D14
    ``verify`` from 121 to 197 MB.

    Both forms give the bits of a loop over the pieces: each target
    receives one sum per row j, in ascending j, each over the same pairs in
    the same order, added to an output that starts as +0.0 and is only ever
    added to, so a sum of -0.0 never shows as -0.0.  The constant pair,
    first in row 0, is multiplied as scalars, because numpy rounds a
    complex product of length one (its scalar path) differently from the
    same product inside a longer array.
    """
    start = ctx.deg_start
    rows = [j for j in range(vd + 1) if rows >> j & 1]
    if cols is None:
        reach = {j: vd - j for j in rows}
        groups = [[(j, d - j, d - j) for j in rows if j <= d] for d in range(1, vd + 1)]
    else:
        cols = [d for d in range(vd + 1) if cols >> d & 1]
        reach = {j: cols[bisect_right(cols, vd - j) - 1] for j in rows if cols and cols[0] <= vd - j}
        groups = [[(j, 0, db) for j, db in reach.items()]]
    chunked = sum((start[j + 1] - start[j]) * start[db + 1] for j, db in reach.items()) <= _PLAN_PAIRS
    tables = {j: ctx.row_pairs(j, db) for j, db in reach.items()}
    plan = []
    for group in groups:
        layout = []
        for j, lo, hi in group:
            ends = tables[j][4]
            (p0, s0), (p1, s1) = ends[lo - 1] if lo else (0, 0), ends[hi]
            layout.append((j, p0, p1, s0, s1, start[j + lo]))
        if chunked and layout:
            parts, offset = [], 0
            for j, p0, p1, s0, s1, _ in layout:
                I, J, seg_starts, targets, _ = tables[j]
                parts.append((I[p0:p1], J[p0:p1], seg_starts[s0:s1] + (offset - p0), targets[s0:s1]))
                offset += p1 - p0
            chunk = tuple(np.concatenate(col) for col in zip(*parts))
            plan.append([chunk + (layout[0][:2] == (0, 0),)])
        else:
            plan.append(tuple(layout))
    return plan if cols is None else plan[0]


def _run(ctx: JetContext, group, x: np.ndarray, y: np.ndarray, acc: np.ndarray) -> None:
    """Add the pair products x_i y_j of one group of a ``_plan``, summed per
    target, into ``acc``: a chunk (a list of one piece) or the views of a
    layout (a tuple), each piece one gather, multiply, segmented sum and
    add."""
    for I, J, seg_starts, targets, pair0 in group if type(group) is list else _views(ctx, group):
        prod = x[I]
        prod *= y[J]
        if pair0:
            prod[0] = x[0] * y[0]
        sums = np.add.reduceat(prod, seg_starts)
        if type(targets) is slice:
            acc[targets] += sums
        else:
            np.add.at(acc, targets, sums)


def _views(ctx: JetContext, layout: tuple):
    """The pieces of a plan layout as views of the row tables: (I, J,
    segment starts from the piece's first pair, target slice, whether its
    first pair is the constant pair)."""
    tables = ctx._pair_cache
    for j, p0, p1, s0, s1, t0 in layout:
        I, J, seg_starts = tables[j][:3]
        yield I[p0:p1], J[p0:p1], seg_starts[s0:s1] - p0, slice(t0, t0 + s1 - s0), j == p0 == 0


def jet_conj(a: Jet) -> Jet:
    """Complex conjugate of the function values at real points, i.e. the
    coefficientwise conjugate.  In z-notation this is the usual swap z <-> zbar."""
    vd = a.valid_degree
    return a.ctx.zero(vd) if vd < 0 else _fresh(a.ctx, np.conj(a.prefix), vd)


def _graded_series(a: Jet, kind: str) -> Jet:
    """exp, log or reciprocal (``kind``) of a jet by one recurrence in the
    spatial degree.  With x_d the degree-d block of x, (E x)_d = d x_d the
    Euler operator, and p = a - a_0 (exp) or a / a_0 - 1, the series s solves

        exp:        E s = (E p) s    s_0 = 1, d s_d = sum_{j=1..d} j p_j s_{d-j}
        reciprocal: (1 + p) s = 1    s_0 = 1, s_d = -sum_{j=1..d} p_j s_{d-j}
        log:        (1 + p) s = E p  s_0 = 0, s_d = d p_d - sum_{j=1..d} p_j s_{d-j}

    and gives exp(a_0) s, s / a_0 or log a_0 + E^{-1} s.  Each block pair is
    multiplied once, the work of one ``jet_mul``, with its real path: block
    d is group d of the series plan of ``_plan``, whose first factor is E p
    (exp) or p.  The result is trusted as far as a; for an untrusted a it
    is the shared zero jet, a_0 left unread."""
    ctx, vd, start = a.ctx, a.valid_degree, a.ctx.deg_start
    if vd < 0:
        return ctx.zero(vd)
    a0 = complex(a.prefix[0])
    if kind != "exp" and a0 == 0:
        raise SingularInputError(f"jet_{kind} of a jet with zero constant term")
    p = a.prefix * (1.0 if kind == "exp" else 1.0 / a0)
    p[0] = 0
    if not p.imag.any():
        p = p.real.copy()
    first = p * ctx.degrees[: len(p)] if kind == "exp" else p
    key = (vd, _mask(np.logical_or.reduceat(first != 0, ctx._blocks[: vd + 1])), None)
    plan = ctx._plans.get(key)
    if plan is None:
        plan = ctx._plans[key] = _plan(ctx, *key)
    s = np.zeros_like(p)
    s[0] = 0.0 if kind == "log" else 1.0
    for d, group in enumerate(plan, 1):
        _run(ctx, group, first, s, s)
        block = slice(start[d], start[d + 1])
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
    constant (the result is then untrusted, not an error).  One of the
    partials of ``jet_partials``."""
    if var < 0 or var >= a.ctx.nvars:
        raise InvalidInputError(f"coordinate index {var} out of range")
    return jet_partials(a)[var]


def jet_partials(a: Jet) -> list[Jet]:
    """The 2n first partials of ``a`` along x_1, y_1, x_2, ..., trusted to
    vd - 1: the rows of ``partial_rows``, or the shared untrusted jet below
    degree 0."""
    ctx, vd = a.ctx, a.valid_degree
    if vd <= 0:
        return [ctx.zero(vd - 1)] * ctx.nvars
    return jet_rows(ctx, partial_rows(a), vd - 1)


def partial_rows(a: Jet) -> np.ndarray:
    """The 2n first partials of a jet trusted to vd >= 1 as the rows of a
    new (2n, deg_start[vd]) array, from one gather of the derivative table:
    +0.0 throughout when the jet has no nonzero non-constant coefficient
    (-0.0 is zero, NaN is not), as differentiating a constant gives."""
    up, exps = a.ctx.derivative_table()
    end = a.ctx.deg_start[a.valid_degree]
    rows = a.prefix[up[:, :end]]
    if a.effective_degree < 1:
        rows[:] = 0.0
    rows *= exps[:, :end]
    return rows


# Most coefficients one array of ``partial_runs`` or ``stacked_rows``
# holds: whole-array temporaries of several MB cost page faults on every call.
_RUN_ENTRIES = 16384


def partial_runs(ctx: JetContext, rows: np.ndarray, picks: np.ndarray, coords: np.ndarray, end):
    """(run, p) per run of at most ``_RUN_ENTRIES // len(picks)`` of the first
    ``end`` columns: row t of p is the partial along ``coords[t]`` of the
    prefix ``rows[picks[t]]``, one gather, as ``partial_rows`` less its +0.0 rule."""
    up, exps = ctx.derivative_table()
    step = max(1, _RUN_ENTRIES // len(picks))
    for lo in range(0, end, step):
        run = slice(lo, min(lo + step, end))
        p = rows[picks[:, None], up[coords, run]]
        p *= exps[coords, run]
        yield run, p


def jet_rows(ctx: JetContext, rows: np.ndarray, valid_degree: int) -> list[Jet]:
    """The rows of a new 2-D array as jets trusted to ``valid_degree`` >= 0;
    the caller writes to the array no more."""
    return [_fresh(ctx, row, valid_degree) for row in rows]


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
    powers = np.ones((len(pts), ctx.nvars, vd + 1), dtype=np.complex128)
    for d in range(1, vd + 1):
        powers[:, :, d] = powers[:, :, d - 1] * pts
    monomials = np.prod(powers[:, np.arange(ctx.nvars), ctx.exponents[: len(a.prefix)]], axis=-1)
    return monomials @ a.prefix


def jet_norm(a: Jet, r):
    """Weighted l1 norm sum_alpha |a_alpha| r^{|alpha|} of the jet through
    its ``valid_degree`` (0 for a jet with no trusted degree), at a radius
    or an array of radii.  It bounds |a| on the polydisc of radius r.  A NaN
    coefficient gives a NaN norm."""
    vd = a.valid_degree
    if vd < 0:
        return np.zeros_like(np.asarray(r, dtype=float))
    return prefix_norms(a.ctx, a.prefix, vd, r)


def prefix_norms(ctx: JetContext, prefixes: np.ndarray, vd: int, r):
    """``jet_norm`` of a prefix trusted to vd >= 0, or of each row of a 2-D
    array of them, from one ``np.add.reduceat`` and ``horner``."""
    return horner(np.add.reduceat(np.abs(prefixes), ctx._blocks[: vd + 1], axis=-1), r)


def horner(coeffs: np.ndarray, r):
    """sum_d coeffs[..., d] r^d at a radius r (a float) or at each of a
    sequence of radii (the last axis of the result), by Horner's rule: on
    Python floats for one row, one array step per degree for rows.  Each
    step is the multiply and add of ``np.polyval`` on the reversed
    coefficients, so the bits are its bits, without its numpy-scalar loop."""
    if coeffs.ndim > 1:
        x = np.asarray(r, dtype=float)
        y = np.zeros(coeffs.shape[:-1] + x.shape)
        for c in coeffs.T[::-1]:
            y *= x
            y += c[:, None] if x.ndim else c
        return y
    if not isinstance(r, (int, float)):
        return np.array([horner(coeffs, x) for x in np.asarray(r, dtype=float).tolist()])
    y = 0.0
    for c in coeffs[::-1].tolist():
        y = y * r + c
    return y


def max_coeff_diff(a: Jet, b: Jet, through_degree: int | None = None) -> float:
    """Largest |coefficient difference| through the common trusted degree."""
    return max_abs_coeff(jet_sub(a, b), through_degree)


def nan_max(*values) -> float:
    """Largest value, NaN as soon as one value is NaN, wherever it stands
    (Python's ``max`` keeps a NaN only in first place)."""
    return float("nan") if any(v != v for v in values) else float(max(values))


def max_abs(x: np.ndarray) -> float:
    """Largest |entry| by one ufunc reduction: NaN once one is NaN, 0.0 for none."""
    return float(np.maximum.reduce(np.abs(x), axis=None, initial=0.0))


def max_abs_coeff(a: Jet, through_degree: int | None = None) -> float:
    """``max_abs`` of the coefficients through the trusted degree and
    ``through_degree``: NaN as soon as one of them is NaN, 0.0 with none."""
    vd = a.valid_degree if through_degree is None else min(a.valid_degree, through_degree)
    return max_abs(a.prefix[: a.ctx.deg_start[vd + 1]]) if vd >= 0 else 0.0


def stacked_rows(stacks, degrees):
    """Sequences of k jets as the rows of new arrays, per run of whole rows
    of at most ``_RUN_ENTRIES`` coefficients (or one row): row r is its jet
    through ``degrees[r]``, which it trusts, then zeros, which add nothing
    to a largest magnitude.  No run when every degree is negative."""
    start = stacks[0][0].ctx.deg_start
    ends = [start[d + 1] if d >= 0 else 0 for d in degrees]
    step = max(1, _RUN_ENTRIES // max(max(ends), 1))
    for lo in range(0, len(ends) if max(ends) else 0, step):
        run = ends[lo : lo + step]
        arrays = [np.zeros((len(run), max(run)), dtype=np.complex128) for _ in stacks]
        for out, jets in zip(arrays, stacks):
            for row, a, end in zip(out, jets[lo : lo + step], run):
                row[:end] = a.prefix[:end]
        yield arrays


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
        return _tjet(map(jet_add, self.coeffs, other.coeffs))

    def __neg__(self):
        return _tjet(jet_scale(c, -1.0) for c in self.coeffs)

    def __sub__(self, other: "TJet") -> "TJet":
        return _tjet(map(jet_sub, self.coeffs, other.coeffs))

    def __mul__(self, other):
        """Series product with a TJet, or scaling by a number: order k is the
        Cauchy sum of the orders <= k of both factors."""
        if isinstance(other, (int, float, complex)):
            return _tjet(jet_scale(c, other) for c in self.coeffs)
        a, b = self.coeffs, other.coeffs
        return _tjet(cauchy_sum(a, b, k, range(k + 1)) for k in range(min(len(a), len(b))))

    __rmul__ = __mul__

    def __repr__(self):
        return f"TJet(order={self.order}, ctx={self.ctx!r})"


_new_tjet = object.__new__
_set_coeffs = TJet.coeffs.__set__


def _tjet(coeffs) -> TJet:
    """A series from jets that an operation on series of one context made,
    without the public constructor's checks, which its operands passed."""
    series = _new_tjet(TJet)
    _set_coeffs(series, tuple(coeffs))
    return series


def cauchy_sum(a, b, k: int, js: range, weight=None) -> Jet:
    """sum over j in ``js`` of a_j b_{k-j}, each term scaled by ``weight(j)``
    when a weight is given, for jet sequences ``a`` and ``b``.  The terms are
    added in ascending j.  The sum is trusted to the least validity of its
    terms; when that is negative the sum is untrusted, and it is returned as
    a zero jet without forming its products.  A term is formed only through
    the sum's validity, by ``_product`` on the two jets, and scaled and
    added as ``jet_scale`` and ``jet_add`` would: one jet wraps the sum."""
    first = a[js[0]]
    ctx, vd = first.ctx, first.valid_degree
    for j in js:  # one pass for the validity and the contexts
        x, y = a[j], b[k - j]
        if x.ctx is not ctx or y.ctx is not ctx:
            _same_context(first, x)
            _same_context(first, y)
        if x.valid_degree < vd:
            vd = x.valid_degree
        if y.valid_degree < vd:
            vd = y.valid_degree
    if vd < 0:
        return ctx.zero(vd)
    acc = None
    for j in js:
        term = _product(ctx, a[j], b[k - j], vd)
        if weight is not None:
            term *= weight(j)
        if acc is None:
            acc = term
        else:
            acc += term
    return _fresh(ctx, acc, vd)


def t_integrate(a: TJet) -> TJet:
    """Integral from 0 to t: order m shifts to m+1 with division by m+1.

    The result gains one order of headroom (constant term zero).
    """
    out = [a.ctx.zero()]
    out.extend(jet_scale(c, 1.0 / (m + 1)) for m, c in enumerate(a.coeffs))
    return _tjet(out)


def t_derive(a: TJet) -> TJet:
    """d/dt: order m shifts to m-1 with multiplication by m."""
    if a.order == 0:
        return _tjet([a.ctx.zero(valid_degree=a.coeffs[0].valid_degree)])
    return _tjet(jet_scale(a.coeffs[m], float(m)) for m in range(1, a.order + 1))


def t_reciprocal(a: TJet) -> TJet:
    """Truncated 1/a for a series whose constant jet has nonzero constant term."""
    b0 = jet_reciprocal(a.coeffs[0])
    out = [b0]
    for m in range(1, a.order + 1):
        acc = cauchy_sum(a.coeffs, out, m, range(1, m + 1))
        out.append(jet_scale(jet_mul(b0, acc), -1.0))
    return _tjet(out)


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
    return _tjet(out)
