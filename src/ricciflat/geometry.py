"""Kahler-specific structures on top of the jet algebra.

Hermitian matrices of jets (initial metrics h_ij and evolved metrics g_ij),
the complex mixed Hessian, truncated determinants and adjugates (one
expansion when they share a memo of minors), the Ricci coefficient matrix,
and a registry of built-in real-analytic metrics used by scenarios and
tests.  Conventions are fixed in ``conventions.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import combinations, product as iproduct

import numpy as np

from .conventions import MIXED_HESSIAN_FACTOR
from .errors import InvalidInputError
from .jets import (
    Jet,
    JetContext,
    TJet,
    context,
    jet_add,
    jet_conj,
    jet_log,
    jet_mul,
    jet_reciprocal,
    jet_rows,
    jet_scale,
    jet_through,
    max_abs,
    nan_max,
    partial_rows,
    partial_runs,
    stacked_rows,
)


class HermitianJetMatrix:
    """n x n matrix of Jet (or TJet) entries with conjugate-transpose symmetry.

    Symmetry is not enforced on construction; computed matrices can be
    audited with ``hermitian_defect``.
    """

    __slots__ = ("n", "entries")

    def __init__(self, entries):
        entries = tuple(tuple(row) for row in entries)
        n = len(entries)
        if any(len(row) != n for row in entries):
            raise InvalidInputError("matrix entries must be square")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("HermitianJetMatrix is immutable")

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def map(self, fn) -> "HermitianJetMatrix":
        return HermitianJetMatrix(
            [[fn(self.entries[i][j]) for j in range(self.n)] for i in range(self.n)]
        )

    def hermitian_defect(self) -> float:
        """Max coefficientwise deviation |entry(i,j) - conj(entry(j,i))|; NaN
        as soon as one compared coefficient is NaN.  Each t-order of a
        series matrix is one stack of its upper entries against the mirrored
        ones, each pair read through its common trusted degree."""
        # (j, i) gives the conjugate differences of (i, j): equal magnitudes
        pairs = [(self[i, j], self[j, i]) for i in range(self.n) for j in range(i, self.n)]
        series = isinstance(pairs[0][0], TJet)
        worst = 0.0
        for m in range(pairs[0][0].order + 1) if series else (None,):
            a, b = zip(*[(x.coeffs[m], y.coeffs[m]) if series else (x, y) for x, y in pairs])
            degrees = [min(x.valid_degree, y.valid_degree) for x, y in zip(a, b)]
            for x, y in stacked_rows((a, b), degrees):
                worst = nan_max(worst, max_abs(x - np.conj(y)))
        return worst

    def base_matrix(self) -> np.ndarray:
        """Constant terms of Jet entries at the base point as a plain complex
        matrix."""
        out = np.empty((self.n, self.n), dtype=np.complex128)
        for i in range(self.n):
            for j in range(self.n):
                out[i, j] = self.entries[i][j].constant_term
        return out

    def __repr__(self):
        kind = "TJet" if isinstance(self.entries[0][0], TJet) else "Jet"
        return f"HermitianJetMatrix(n={self.n}, {kind})"


def jet_det(g: HermitianJetMatrix, memo: dict | None = None):
    """Truncated determinant by cofactor expansion (n <= 4: a jet context
    packs monomial keys into 64 bits); works for Jet and TJet entries alike.
    ``memo`` keeps the expanded minors, the cofactors of row 0 among them,
    for a later ``adjugate`` of g."""
    full = tuple(range(g.n))
    return minor_det(g.entries, full, full, {} if memo is None else memo)


def adjugate(g: HermitianJetMatrix, memo: dict | None = None):
    """Adjugate of g, the transpose of its cofactors.  Given the memo that
    ``jet_det(g, memo)`` filled, the row-0 cofactors and the smaller minors
    are read back from it, so det g and adj g cost one expansion."""
    n = g.n
    rows = g.entries
    if n == 1:
        e = rows[0][0]
        if isinstance(e, TJet):
            ctx = e.ctx
            return [[TJet([ctx.constant(1.0)] + [ctx.zero() for _ in range(e.order)])]]
        return [[e.ctx.constant(1.0)]]
    memo = {} if memo is None else memo
    full = tuple(range(n))
    adj = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            cof = minor_det(rows, full[:i] + full[i + 1 :], full[:j] + full[j + 1 :], memo)
            if (i + j) % 2 == 1:
                cof = -cof
            adj[j][i] = cof
    return adj


def minor_det(rows, R: tuple, C: tuple, memo: dict, cap: int | None = None):
    """Determinant of the minor on row tuple R and column tuple C by
    Laplace expansion along its first row; ``memo`` maps (R, C) to the
    minors already expanded within the caller's call.  This division-free
    cofactor expansion is the one determinant routine of the package.
    Each product is formed only through ``cap`` when one is given."""
    det = memo.get((R, C))
    if det is None:
        if len(R) == 1:
            det = rows[R[0]][C[0]]
        else:
            first = rows[R[0]] if cap is None else [jet_through(e, cap) for e in rows[R[0]]]
            for k, j in enumerate(C):
                term = first[j] * minor_det(rows, R[1:], C[:k] + C[k + 1 :], memo, cap)
                det = term if det is None else det - term if k % 2 else det + term
        memo[(R, C)] = det
    return det


def det_coefficient(g_orders, m: int, memo: dict, R=None, C=None) -> Jet:
    """[t^m] of the minor on row tuple R and column tuple C (by default the
    whole matrix) of sum_k g^(k) t^k, for matrices g^(k) of Jet entries.

    The determinant is multilinear in rows, so the coefficient is the sum,
    over order tuples (k_r) with sum m, one order per row r of R, of the
    minor whose row r comes from g^(k_r).  With the orders stacked into one
    row list, that row sits at index k_r n + r, and all tuples share ``memo``.

    A row index names the same row for every m, so one memo serves every
    order and every minor of one family of orders: the solver keeps it from
    m = 0 up and drops it with that solve, so order m expands only the minors
    whose orders sum to m.  The minors on all rows of R are removed once
    read; a caller that also wants minors inside them asks for the larger
    first (``majorant``).  A term is formed only through the minor's
    validity, the least among its own entries in g^(0)..g^(m); in det g a
    minor whose orders sum to s is expanded at order s, and later orders
    trust no further.  So once that validity is negative (more than one row)
    the coefficient is the shared untrusted jet, and no minor is expanded.
    """
    n = len(g_orders[0])
    R = tuple(range(n)) if R is None else R
    C = tuple(range(n)) if C is None else C
    cap = min(g[r][c].valid_degree for g in g_orders[: m + 1] for r in R for c in C)
    if cap < 0 and len(R) > 1:
        return g_orders[0][0][0].ctx.zero(cap)
    rows = [row for g in g_orders for row in g]
    acc = None
    orders = range(min(m, len(g_orders) - 1) + 1)
    for combo in iproduct(orders, repeat=len(R)):
        if sum(combo) != m:
            continue
        stacked = tuple(k * n + r for r, k in zip(R, combo))
        term = minor_det(rows, stacked, C, memo, cap)
        del memo[(stacked, C)]
        acc = term if acc is None else acc + term
    return acc if acc is not None else g_orders[0][0][0].ctx.zero()


@cache
def _hessian_terms(n: int) -> np.ndarray:
    """(a, b) per real second partial d/dx_b d/dx_a that the mixed Hessian
    in n complex variables reads, as two rows, coordinates flat (x_i is 2i,
    y_i is 2i + 1), in four blocks over the upper entries (i, j), the
    diagonal first, then i < j row by row: d_{x_i} d_{x_j} and d_{y_i}
    d_{y_j} of every upper entry, d_{x_i} d_{y_j} and d_{y_i} d_{x_j} of
    those off the diagonal.  b is i's coordinate and a is j's, as a chain
    of single partials differentiates."""
    upper = [(i, i) for i in range(n)] + list(combinations(range(n), 2))
    blocks = ((0, 0, upper), (1, 1, upper), (1, 0, upper[n:]), (0, 1, upper[n:]))
    terms = np.array([(2 * j + s, 2 * i + t) for s, t, entries in blocks for i, j in entries]).T
    terms.setflags(write=False)  # one array serves every call
    return terms


def complex_mixed_hessian(f: Jet) -> HermitianJetMatrix:
    """Matrix H_ij = 4 d^2 f / dz_i dzbar_j, computed through real partials.

    The upper entries are the rows of ``hessian_rows``; the lower triangle
    mirrors them through conjugation.  Validity drops by two; when f is
    trusted to degree 1 or less every entry is the shared untrusted jet.
    """
    ctx, vd, n = f.ctx, f.valid_degree, f.ctx.n
    if vd < 2:
        return HermitianJetMatrix([[ctx.zero(vd - 2)] * n] * n)
    h = hessian_rows(f)
    upper = jet_rows(ctx, h, vd - 2)
    lower = jet_rows(ctx, np.conj(h[n:]), vd - 2)
    rows = [[upper[i] if i == j else None for j in range(n)] for i in range(n)]
    for (i, j), e, conj in zip(combinations(range(n), 2), upper[n:], lower):
        rows[i][j], rows[j][i] = e, conj
    return HermitianJetMatrix(rows)


def hessian_rows(f: Jet) -> np.ndarray:
    """The upper entries of H(f), (i, i) and then (i, j) for i < j row by
    row, as the rows of a new array, for f trusted to degree 2 or more.

    Diagonal entries are f_{x_i x_i} + f_{y_i y_i}, so they agree with the
    real Laplacian exactly.  All first partials are one gather of the
    derivative table, the second partials of ``_hessian_terms`` one gather
    of them per run of ``partial_runs``.  Each coefficient is multiplied by
    its two exponents in turn, and each entry adds them as a chain of single
    partials does, so the bits are the chain's; as in ``jet_derive``, a
    first partial with no nonzero non-constant coefficient (-0.0 is zero,
    NaN is not) gives +0.0 second partials.
    """
    ctx, vd, n = f.ctx, f.valid_degree, f.ctx.n
    a, b = _hessian_terms(n)
    first, cols = partial_rows(f), ctx.deg_start[vd - 1]
    dead = np.flatnonzero(~first[:, 1:].any(axis=1)[a])  # terms of a +0.0 rule
    k = n * (n + 1) // 2
    h = np.empty((k, cols), dtype=np.complex128)
    for run, second in partial_runs(ctx, first, a, b, cols):
        if len(dead):
            second[dead] = 0.0
        np.add(second[:k], second[k : 2 * k], out=h[:, run])
        # 4 dz_i dzbar_j = dx_i dx_j + dy_i dy_j + i(dx_i dy_j - dy_i dx_j)
        skew = second[2 * k : 3 * k - n]
        skew += second[3 * k - n :] * -1.0
        skew *= 1j
        h[n:, run] += skew
    return h


def ricci_form(g: HermitianJetMatrix) -> HermitianJetMatrix:
    """Ricci coefficient matrix -d^2(log det g)/dz_i dzbar_j (no factor 4).

    The factor 4 is owned by ``complex_mixed_hessian`` and applied where the
    flow equation requires it.
    """
    ld = jet_log(jet_det(g))
    return complex_mixed_hessian(ld).map(
        lambda e: jet_scale(e, -1.0 / MIXED_HESSIAN_FACTOR)
    )


# ---------------------------------------------------------------------------
# Initial data and built-in metrics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InitialData:
    """Real-analytic Hermitian metric data at the origin of a chart.

    ``h`` holds order-0 jets and fixes the solve's shape: n is its size, which
    must be its jets' dimension, and the degree cap D is their context's cap.
    ``polydisc_radius`` bounds the region where the jets are meant to
    represent the metric.
    """

    h: HermitianJetMatrix
    polydisc_radius: float = 1.0
    name: str = "custom"
    chart_info: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.h.n != self.ctx.n:
            raise InvalidInputError(
                f"initial metric is {self.n}x{self.n} but its jets have dimension {self.ctx.n}"
            )
        for i, row in enumerate(self.h.entries):
            for j, entry in enumerate(row):
                if entry.valid_degree < 0:
                    raise InvalidInputError(
                        f"initial metric entry h_{i + 1}_{j + 1} has valid_degree "
                        f"{entry.valid_degree}: the degree cap leaves it no trusted coefficient"
                    )
        base = self.h.base_matrix()
        if not np.isfinite(base).all():
            raise InvalidInputError("initial metric is not finite at the base point")
        herm = self.h.hermitian_defect()
        if not herm <= 1e-9:
            raise InvalidInputError(
                f"initial metric is not Hermitian (defect {herm:.3e})"
            )
        eig = np.linalg.eigvalsh((base + base.conj().T) / 2)
        if eig.min() <= 0:
            raise InvalidInputError(
                f"initial metric is not positive definite at the base point "
                f"(min eigenvalue {eig.min():.3e})"
            )

    @property
    def n(self) -> int:
        return self.h.n

    @property
    def ctx(self) -> JetContext:
        return self.h.entries[0][0].ctx


def _identity_rows(ctx: JetContext, n: int) -> list:
    return [[ctx.constant(1.0 if i == j else 0.0) for j in range(n)] for i in range(n)]


def flat(n: int, cap: int) -> InitialData:
    return InitialData(
        h=HermitianJetMatrix(_identity_rows(context(n, cap), n)),
        name=f"flat:{n}",
        chart_info={"kind": "flat"},
    )


def fubini_study_chart(n: int, scale: float, cap: int) -> InitialData:
    """Affine-chart jets of the standard projective-space metric, multiplied
    by ``scale``:  h_ij = scale * [ (1+|z|^2) delta_ij - zbar_i z_j ] / (1+|z|^2)^2.

    The induced Einstein constant is computed by the callers, never assumed.
    """
    if scale <= 0:
        raise InvalidInputError("fubini_study_chart scale must be positive")
    ctx = context(n, cap)
    q = ctx.constant(1.0)
    for k in range(n):
        q = jet_add(q, jet_add(jet_mul(ctx.x(k), ctx.x(k)), jet_mul(ctx.y(k), ctx.y(k))))
    r = jet_reciprocal(q)
    r2 = jet_mul(r, r)
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            e = jet_scale(jet_mul(jet_mul(ctx.zbar(i), ctx.z(j)), r2), -scale)
            if i == j:
                e = jet_add(e, jet_scale(r, scale))
            rows[i][j] = e
            if i != j:
                rows[j][i] = jet_conj(e)
    return InitialData(
        h=HermitianJetMatrix(rows),
        polydisc_radius=0.9,
        name=f"fubini_study_chart:{n},{scale}",
        chart_info={"kind": "fubini_study", "scale": scale},
    )


def product(parts: list[InitialData], cap: int) -> InitialData:
    """Block-diagonal product metric of the given factors."""
    n = sum(p.n for p in parts)
    ctx = context(n, cap)
    rows = [[ctx.zero() for _ in range(n)] for _ in range(n)]
    offset = 0
    var_offset = 0
    for p in parts:
        remap = _remap_vars(p.ctx, ctx, var_offset)
        for i in range(p.n):
            for j in range(p.n):
                rows[offset + i][offset + j] = remap(p.h.entries[i][j])
        offset += p.n
        var_offset += 2 * p.n
    radius = min(p.polydisc_radius for p in parts)
    name = "product(" + ",".join(p.name for p in parts) + ")"
    return InitialData(h=HermitianJetMatrix(rows), polydisc_radius=radius, name=name)


def _remap_vars(src: JetContext, dst: JetContext, var_offset: int):
    """Embed jets of a factor into the product context by shifting variables."""
    shifted = np.zeros((src.size, dst.nvars), dtype=np.int64)
    shifted[:, var_offset : var_offset + src.nvars] = src.exponents
    idx = np.array([dst.rank_of(e) for e in shifted], dtype=np.int64)

    def remap(jet: Jet) -> Jet:
        out = np.zeros(dst.size, dtype=np.complex128)
        out[idx[: len(jet.prefix)]] = jet.prefix
        return Jet(dst, out, jet.valid_degree)

    return remap


def perturbed_flat(n: int, eps: float, seed: int, degree: int, cap: int) -> InitialData:
    """Flat metric plus a random closed Hermitian perturbation.

    The perturbation is the mixed Hessian of a random real polynomial
    potential (coefficients seeded, degree ``degree + 2``), scaled by eps.
    Going through a potential keeps the data Hermitian and genuinely Kahler
    for every n, and the perturbation is positivity-preserving for the small
    eps used in scenarios; positivity at the base is still checked.
    """
    if eps < 0:
        raise InvalidInputError("perturbation size must be nonnegative")
    if seed < 0 or degree < 0:
        raise InvalidInputError(
            f"perturbed_flat seed and degree must be nonnegative, got {seed} and {degree}"
        )
    ctx = context(n, cap)
    base = _identity_rows(ctx, n)
    if eps == 0:
        return InitialData(
            h=HermitianJetMatrix(base),
            name=f"perturbed_flat:{n},{eps},{seed},{degree}",
            chart_info={"kind": "flat"},
        )
    rng = np.random.default_rng(seed)
    pot = np.zeros(ctx.size)
    top = min(degree + 2, cap)
    lo = ctx.deg_start[2] if top >= 2 else ctx.deg_start[0]
    hi = ctx.deg_start[top + 1]
    pot[lo:hi] = rng.uniform(-1.0, 1.0, hi - lo)
    # The potential has no term past degree top, so its Hessian is formed
    # through degree top - 2 only and zero-padded to cap - 2: once the
    # identity is added the tail is +0.0, as the Hessian formed at the cap
    # gives.
    potential = Jet(ctx, pot.astype(np.complex128), top)
    bump = complex_mixed_hessian(potential).map(
        lambda e: jet_scale(e, eps / MIXED_HESSIAN_FACTOR)
    )
    if top < cap:

        def padded(e):
            coeffs = np.zeros(ctx.size, dtype=np.complex128)
            coeffs[: len(e.prefix)] = e.prefix
            return Jet(ctx, coeffs, cap - 2)

        bump = bump.map(padded)
    rows = [
        [jet_add(base[i][j], bump.entries[i][j]) for j in range(n)]
        for i in range(n)
    ]
    return InitialData(
        h=HermitianJetMatrix(rows),
        name=f"perturbed_flat:{n},{eps},{seed},{degree}",
    )


# name -> (constructor, {parameter: type}, help).  A product's parameters
# are its factor specs, which ``builtin_metric`` reads itself.
BUILTIN_METRICS = {
    "flat": (flat, {"n": int}, "identity metric on C^n"),
    "fubini_study_chart": (
        fubini_study_chart,
        {"n": int, "scale": float},
        "projective-space chart metric times scale",
    ),
    "perturbed_flat": (
        perturbed_flat,
        {"n": int, "eps": float, "seed": int, "degree": int},
        "flat plus seeded random Kahler bump",
    ),
    "product": (product, {"spec1|spec2|...": None}, "block-diagonal product"),
}


def builtin_metric(name: str, params: list, cap: int) -> InitialData:
    """Instantiate a built-in metric by name and positional parameters,
    checked for count and type against its ``BUILTIN_METRICS`` row: an
    integer parameter takes an int, a real one an int or a float."""
    if name == "product":
        return product([builtin_metric(p["name"], p["params"], cap) for p in params], cap)
    if name not in BUILTIN_METRICS:
        raise InvalidInputError(
            f"unknown metric {name!r}; known: {sorted(BUILTIN_METRICS)}"
        )
    make, kinds, _ = BUILTIN_METRICS[name]
    usage = f"{name}:{','.join(kinds)}"
    if len(params) != len(kinds):
        raise InvalidInputError(f"{usage} takes {len(kinds)} parameter(s), got {len(params)}")
    for (param, kind), value in zip(kinds.items(), params):
        if not isinstance(value, int if kind is int else (int, float)):
            what = "an integer" if kind is int else "a number"
            raise InvalidInputError(f"{usage}: {param} must be {what}, got {value!r}")
    return make(*(kind(v) for kind, v in zip(kinds.values(), params)), cap)
