"""Kahler-specific structures on top of the jet algebra.

Hermitian matrices of jets (initial metrics h_ij and evolved metrics g_ij),
the complex mixed Hessian, truncated determinants, the Ricci coefficient
matrix, and a registry of built-in real-analytic metrics used by scenarios
and tests.  Conventions are fixed in ``conventions.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product as iproduct

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
    jet_derive,
    jet_log,
    jet_mul,
    jet_reciprocal,
    jet_scale,
    max_coeff_diff,
    t_conj,
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
        as soon as one compared coefficient is NaN."""
        diffs = [0.0]
        for i in range(self.n):
            for j in range(self.n):
                a = self.entries[i][j]
                b = _conj_entry(self.entries[j][i])
                if isinstance(a, TJet):
                    diffs.extend(map(max_coeff_diff, a.coeffs, b.coeffs))
                else:
                    diffs.append(max_coeff_diff(a, b))
        return float(np.max(diffs))

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


def _conj_entry(e):
    return t_conj(e) if isinstance(e, TJet) else jet_conj(e)


def jet_det(g: HermitianJetMatrix):
    """Truncated determinant by cofactor expansion (n <= 4); works for Jet
    and TJet entries alike."""
    full = tuple(range(g.n))
    return minor_det(g.entries, full, full, {})


def det_and_adjugate(g: HermitianJetMatrix):
    """(det g, adjugate of g) from one memo of minors.  The adjugate is the
    transpose of the cofactors; det's first-row expansion reuses the
    cofactor minors of row 0, so both cost one expansion."""
    n = g.n
    rows = g.entries
    full = tuple(range(n))
    memo = {}
    det = minor_det(rows, full, full, memo)
    if n == 1:
        e = rows[0][0]
        if isinstance(e, TJet):
            ctx = e.ctx
            one = TJet([ctx.constant(1.0)] + [ctx.zero() for _ in range(e.order)])
        else:
            one = e.ctx.constant(1.0)
        return det, [[one]]
    adj = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            cof = minor_det(rows, full[:i] + full[i + 1 :], full[:j] + full[j + 1 :], memo)
            if (i + j) % 2 == 1:
                cof = -cof
            adj[j][i] = cof
    return det, adj


def adjugate(g: HermitianJetMatrix):
    """The adjugate half of ``det_and_adjugate``; kept as a name because
    the benchmark tracer (``perfbench/tracer.py``) times it."""
    return det_and_adjugate(g)[1]


def minor_det(rows, R: tuple, C: tuple, memo: dict):
    """Determinant of the minor on row tuple R and column tuple C by
    Laplace expansion along its first row; ``memo`` maps (R, C) to the
    minors already expanded within the caller's call.  This division-free
    cofactor expansion is the one determinant routine of the package."""
    det = memo.get((R, C))
    if det is None:
        if len(R) == 1:
            det = rows[R[0]][C[0]]
        else:
            for k, j in enumerate(C):
                term = rows[R[0]][j] * minor_det(rows, R[1:], C[:k] + C[k + 1 :], memo)
                if k % 2 == 1:
                    term = -term
                det = term if det is None else det + term
        memo[(R, C)] = det
    return det


def det_coefficient(g_orders, m: int, memo: dict) -> Jet:
    """[t^m] det(sum_k g^(k) t^k) for matrices g^(k) of Jet entries.

    The determinant is multilinear in rows, so the coefficient is the sum,
    over order tuples (k_0, .., k_{n-1}) with sum m, of the determinant whose
    row r comes from g^(k_r).  With the orders stacked into one row list,
    that row sits at index k_r n + r, and all tuples share ``memo``.

    A row index names the same row for every m, so one memo serves every
    order of one solve: the caller keeps it from m = 0 up and drops it with
    that solve (see ``solver``), and order m then expands only the minors
    whose orders sum to m.  Each n-row minor is read by one tuple of one
    order, so it is removed from the memo once read.
    """
    n = len(g_orders[0])
    rows = [row for g in g_orders for row in g]
    cols = tuple(range(n))
    acc = None
    orders = range(min(m, len(g_orders) - 1) + 1)
    for combo in iproduct(orders, repeat=n):
        if sum(combo) != m:
            continue
        R = tuple(k * n + r for r, k in enumerate(combo))
        term = minor_det(rows, R, cols, memo)
        del memo[(R, cols)]
        acc = term if acc is None else acc + term
    return acc if acc is not None else g_orders[0][0][0].ctx.zero()


def complex_mixed_hessian(f: Jet) -> HermitianJetMatrix:
    """Matrix H_ij = 4 d^2 f / dz_i dzbar_j, computed through real partials.

    Diagonal entries are assembled directly as f_{x_i x_i} + f_{y_i y_i} so
    they agree with the real Laplacian exactly; the lower triangle mirrors
    the upper one through conjugation.  Validity drops by two, below zero
    when f is trusted to degree 1 or less.
    """
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


def dz(f: Jet, i: int) -> Jet:
    """d/dz_i = (d/dx_i - i d/dy_i)/2."""
    a = jet_derive(f, 2 * i)
    b = jet_derive(f, 2 * i + 1)
    return jet_scale(jet_add(a, jet_scale(b, -1j)), 0.5)


def dzbar(f: Jet, i: int) -> Jet:
    """d/dzbar_i = (d/dx_i + i d/dy_i)/2."""
    a = jet_derive(f, 2 * i)
    b = jet_derive(f, 2 * i + 1)
    return jet_scale(jet_add(a, jet_scale(b, 1j)), 0.5)


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

    ``h`` holds order-0 jets; ``polydisc_radius`` bounds the region where
    the jets are meant to represent the metric.
    """

    n: int
    h: HermitianJetMatrix
    polydisc_radius: float = 1.0
    name: str = "custom"
    chart_info: dict = field(default_factory=dict)

    def __post_init__(self):
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
    def ctx(self) -> JetContext:
        return self.h.entries[0][0].ctx


def flat(n: int, cap: int) -> InitialData:
    ctx = context(n, cap)
    rows = [
        [ctx.constant(1.0 if i == j else 0.0) for j in range(n)] for i in range(n)
    ]
    return InitialData(
        n=n,
        h=HermitianJetMatrix(rows),
        name=f"flat:{n}",
        chart_info={"kind": "flat", "n": n},
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
        n=n,
        h=HermitianJetMatrix(rows),
        polydisc_radius=0.9,
        name=f"fubini_study_chart:{n},{scale}",
        chart_info={"kind": "fubini_study", "n": n, "scale": scale},
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
    return InitialData(n=n, h=HermitianJetMatrix(rows), polydisc_radius=radius, name=name)


def _remap_vars(src: JetContext, dst: JetContext, var_offset: int):
    """Embed jets of a factor into the product context by shifting variables."""
    shifted = np.zeros((src.size, dst.nvars), dtype=np.int64)
    shifted[:, var_offset : var_offset + src.nvars] = src.exponents
    idx = np.array([dst.rank_of(e) for e in shifted], dtype=np.int64)

    def remap(jet: Jet) -> Jet:
        out = np.zeros(dst.size, dtype=np.complex128)
        out[idx] = jet.coeffs[: src.size]
        return Jet(dst, out, min(jet.valid_degree, dst.cap))

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
    ctx = context(n, cap)
    base = flat(n, cap)
    if eps == 0:
        return InitialData(
            n=n,
            h=base.h,
            name=f"perturbed_flat:{n},{eps},{seed},{degree}",
            chart_info={"kind": "flat", "n": n},
        )
    rng = np.random.default_rng(seed)
    pot_ctx = ctx
    pot = np.zeros(pot_ctx.size)
    top = min(degree + 2, cap)
    lo = pot_ctx.deg_start[2] if top >= 2 else pot_ctx.deg_start[0]
    hi = pot_ctx.deg_start[top + 1]
    pot[lo:hi] = rng.uniform(-1.0, 1.0, hi - lo)
    potential = Jet(pot_ctx, pot.astype(np.complex128), cap)
    bump = complex_mixed_hessian(potential).map(
        lambda e: jet_scale(e, eps / MIXED_HESSIAN_FACTOR)
    )
    rows = [
        [jet_add(base.h.entries[i][j], bump.entries[i][j]) for j in range(n)]
        for i in range(n)
    ]
    return InitialData(
        n=n,
        h=HermitianJetMatrix(rows),
        name=f"perturbed_flat:{n},{eps},{seed},{degree}",
    )


BUILTIN_METRICS = {
    "flat": (flat, "flat:n  identity metric on C^n"),
    "fubini_study_chart": (
        fubini_study_chart,
        "fubini_study_chart:n,scale  projective-space chart metric times scale",
    ),
    "perturbed_flat": (
        perturbed_flat,
        "perturbed_flat:n,eps,seed,degree  flat plus seeded random Kahler bump",
    ),
    "product": (product, "product:spec1|spec2|...  block-diagonal product"),
}


def builtin_metric(name: str, params: list, cap: int) -> InitialData:
    """Instantiate a built-in metric by name and positional parameters."""
    if name == "flat":
        (n,) = params
        return flat(int(n), cap)
    if name == "fubini_study_chart":
        n, scale = params
        return fubini_study_chart(int(n), float(scale), cap)
    if name == "perturbed_flat":
        n, eps, seed, degree = params
        return perturbed_flat(int(n), float(eps), int(seed), int(degree), cap)
    if name == "product":
        parts = [
            builtin_metric(p["name"], p["params"], cap) if isinstance(p, dict) else p
            for p in params
        ]
        return product(parts, cap)
    raise InvalidInputError(
        f"unknown metric {name!r}; known: {sorted(BUILTIN_METRICS)}"
    )
