"""Empirical majorant machinery for the series construction.

The solved potential series sum v_m t^m is dominated, order by order, by the
solution Y = sum Y_m t^m of a scalar analytic equation whose coefficients
bound the nonlinearity of the system.  Y_m(r) has the closed shape
C_m / (R - r)^{2m-2} on the polydisc of radius r < R < 1, with C_1 = A and
the remaining C_m produced by a positive recursion; domination then follows
from three inequalities per order plus a derivative growth lemma.

Everything here is an empirical validation, not a proof: the bounds A and
A_{p,q,beta} are estimated by sampling the relevant holomorphic data on the
polydisc (with a documented inflation factor), and the inequalities are
checked on deterministic grids.  A failure therefore signals a defect in the
solver or in the bound estimation, never a rounding of the theory.

Operator accounting convention: the integral operators feeding the
nonlinearity are L_ij = -(4/c) d^2/dz_i dzbar_j, whose real-coordinate
expansion has absolute coefficient sum 4/|c|; that value is used as the
shared operator bound and recorded in the report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np

from .errors import InvalidInputError
from .geometry import complex_mixed_hessian, jet_det, minor_det
from .jets import (
    Jet,
    TJet,
    context,
    jet_derive,
    jet_eval_lists,
    jet_mul,
    jet_reciprocal,
    jet_scale,
)
from .solver import Solution

_GRID_SEED = 120221

# A is clamped up to this floor when the first-order data vanish identically.
_A_FLOOR = 1e-8

# Every sampled supremum of a nonlinearity coefficient is inflated by this
# factor before it enters the bounds, a margin for the points the grid misses.
SUP_INFLATION = 1.25

# Sample points per radius of the bound estimates and the domination checks.
GRID_POINTS = 128


@dataclass(frozen=True)
class MajorantParams:
    """Constants of the domination scheme that depend on the solution.

    A bounds the first-order data (|v_1|, its gradient, and the operator
    images L(v_1)) on the polydisc of radius R < 1; M_const is the operator
    coefficient bound 4/|c|.  The constants shared by every solution are
    fixed here: the resonance gap sigma is exactly 1, because the unit
    identity c e^{-v_0} det h = 1 makes the linearized symbol the constant
    -1, so the gap |m + 1| >= m never degrades (docs/conventions.md);
    Euler's number e enters through the derivative growth lemma; sampled
    suprema are inflated by ``SUP_INFLATION`` and taken over
    ``GRID_POINTS`` points per radius.
    """

    R: float
    A: float
    M_const: float
    A_clamped: bool = False
    notes: tuple[str, ...] = ()


def polydisc_grid(nvars: int, radius: float, count: int) -> np.ndarray:
    """Deterministic complex sample points with every coordinate of modulus
    <= radius: real axis extremes per coordinate plus a seeded fill."""
    pts = []
    for v in range(nvars):
        for sign in (1.0, -1.0):
            p = np.zeros(nvars, dtype=np.complex128)
            p[v] = sign * radius
            pts.append(p)
    rng = np.random.default_rng(_GRID_SEED)
    need = max(count - len(pts), 0)
    rho = radius * rng.uniform(0.2, 1.0, size=(need, nvars))
    theta = rng.uniform(0.0, 2.0 * math.pi, size=(need, nvars))
    pts.extend(rho * np.exp(1j * theta))
    return np.array(pts[: max(count, len(pts))])


def domination_radii(R: float) -> tuple[float, float, float]:
    return (R / 4.0, R / 2.0, 3.0 * R / 4.0)


def _operator_images(v1: Jet, c: float) -> list[Jet]:
    hess = complex_mixed_hessian(v1)
    n = v1.ctx.n
    return [
        jet_scale(hess.entries[i][j], -1.0 / c) for i in range(n) for j in range(n)
    ]


class MajorantRun:
    """What the stages of one majorant run share, passed to them in place of
    the ``Solution`` as ``verify.SolutionView`` is to the checks of a verify
    run.  It holds the jets behind the domination rows of the orders
    1..min(t_order, m_max) and, once ``estimate_params`` has sampled them in
    its own pass over the domination grids, the radius R of that pass and
    their suprema per check radius: the floats that ``check_domination``
    reads once C is known."""

    def __init__(self, sol: Solution, m_max: int):
        self.sol = sol
        self.m_max = m_max
        self.groups = _domination_groups(sol, m_max)
        self.sampled = [jet for groups in self.groups.values() for g in groups for jet in g]
        self.sups: tuple[float, list[np.ndarray]] | None = None  # (R, per-radius suprema)


def _domination_groups(sol: Solution, m_max: int) -> dict:
    """Per order m <= min(t_order, m_max): the jets behind the value,
    gradient and operator rows, each group empty when v_m lacks the
    validity to support it."""
    nvars = sol.input.ctx.nvars
    groups = {}
    for m in range(1, min(sol.t_order, m_max) + 1):
        vm = sol.v.coeffs[m]
        groups[m] = (
            [vm] if vm.valid_degree >= 0 else [],
            [jet_derive(vm, v) for v in range(nvars)] if vm.valid_degree >= 1 else [],
            _operator_images(vm, sol.config.c) if vm.valid_degree >= 2 else [],
        )
    return groups


def estimate_params(run: MajorantRun, R: float) -> MajorantParams:
    """Sample |v_1|, its coordinate gradient and the operator images over the
    polydisc, ``GRID_POINTS`` points per radius, to produce A; the operator
    bound is structural.

    The sample set is the union of the domination grids (all three check
    radii) plus a near-boundary shell, so the first-order inequality holds on
    the check grids by construction of A.  The same pass samples the run's
    domination jets on those grids, against the same monomial matrices, and
    keeps their suprema at this R for ``check_domination``.
    """
    sol = run.sol
    if not (0.0 < R < 1.0) or R >= sol.input.polydisc_radius:
        raise InvalidInputError(
            f"majorant radius must satisfy 0 < R < min(1, input radius "
            f"{sol.input.polydisc_radius}), got {R}"
        )
    if sol.t_order < 1:
        raise InvalidInputError("need at least one solved order")
    c = sol.config.c
    ctx = sol.input.ctx
    v1 = sol.v.coeffs[1]

    jets = [v1]
    jets.extend(jet_derive(v1, var) for var in range(ctx.nvars))
    jets.extend(_operator_images(v1, c))

    sups, dominated = [], []
    for r in domination_radii(R):
        pts = polydisc_grid(ctx.nvars, r, GRID_POINTS)
        first, sampled = jet_eval_lists([jets, run.sampled], pts)
        sups.append(np.max(np.abs(first)))
        dominated.append(np.max(np.abs(sampled), axis=1))
    shell = polydisc_grid(ctx.nvars, 0.999 * R, GRID_POINTS)
    sups.append(np.max(np.abs(jet_eval_lists([jets], shell)[0])))
    run.sups = (R, dominated)
    A = float(np.max(sups))  # np.max keeps a NaN sample, so the checks fail

    notes = []
    clamped = A < _A_FLOOR
    if clamped:
        A = _A_FLOOR
        notes.append("degenerate first-order data: A clamped to the 1e-8 floor")
    return MajorantParams(
        R=R,
        A=A,
        M_const=4.0 / abs(c),
        A_clamped=clamped,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# Nonlinearity bounds for the concrete system
# ---------------------------------------------------------------------------


def nonlinearity_bounds(sol: Solution, params: MajorantParams, m_max: int) -> dict:
    """Bounds A_{p,q,beta} on the expansion coefficients of the concrete
    nonlinearity

        G = e^{-Z} det(h + Y + t L(v_0)) / det h  - 1 + Z - t b(x),

    where Z stands for the shifted potential and the Y_{ij} for the
    integrated operator images.  The determinant is multilinear in columns,
    so the coefficient of t^p Y^beta is an explicit jet: columns selected by
    beta become unit vectors e_rows, the rest stay A = h + t L(v_0).  Such a
    determinant is the signed complementary minor of A on the remaining rows
    and columns, and all minors come from one memo.  The e^{-Z} factor
    contributes the exact scalar (-1)^q / q!.  Each jet coefficient is
    bounded by its supremum over ``GRID_POINTS`` points of the polydisc of
    radius R, times ``SUP_INFLATION``.

    Returns {(p, q, s, alpha_total, beta_total): bound} with s = alpha = 0
    (the concrete nonlinearity involves neither t dv/dt nor the gradient),
    aggregated over beta patterns with equal totals, restricted to total
    weight p + q + 2|beta| >= 2 and p + q + |beta| <= m_max.
    """
    ctx = sol.input.ctx
    n = sol.n
    c = sol.config.c
    h = sol.input.h
    v0 = sol.v.coeffs[0]
    hess = complex_mixed_hessian(v0)
    Lv0 = hess.map(lambda e: jet_scale(e, -1.0 / c))
    recip_det_h = jet_reciprocal(jet_det(h))

    # A = h + t L(v_0), padded to order n so one memo serves every minor.
    zero = ctx.zero()
    A = [
        [TJet([h.entries[i][j], Lv0.entries[i][j]] + [zero] * (n - 1)) for j in range(n)]
        for i in range(n)
    ]
    memo = {}

    # sup |[t^p Y^beta] det(...) / det h| aggregated over patterns by |beta|
    keyed = []
    for k in range(n + 1):
        for cols in combinations(range(n), k):
            for rows in permutations(range(n), k):
                series = _pattern_series(A, rows, cols, memo)
                for p, coeff in enumerate(series.coeffs):
                    keyed.append(((p, k), jet_mul(coeff, recip_det_h)))
    pts = polydisc_grid(ctx.nvars, params.R, GRID_POINTS)
    sups = np.max(np.abs(jet_eval_lists([[d for _, d in keyed]], pts)[0]), axis=1)
    agg: dict[tuple[int, int], float] = {}
    for (key, _), sup in zip(keyed, sups.tolist()):
        val = sup * SUP_INFLATION
        if val != 0.0:  # a NaN bound is kept, so the checks built on it fail
            agg[key] = agg.get(key, 0.0) + val

    bounds: dict[tuple[int, int, int, int, int], float] = {}
    for (p, btot), ahat in agg.items():
        for q in range(0, m_max + 1):
            if p + q + 2 * btot < 2 or p + q + btot > m_max:
                continue
            key = (p, q, 0, 0, btot)
            bounds[key] = bounds.get(key, 0.0) + ahat / math.factorial(q)
    return bounds


def _pattern_series(A, rows, cols, memo: dict) -> TJet:
    """det of A with the columns ``cols`` replaced by the unit vectors e_rows,
    as a t-series of order n - k.  Laplace expansion along those columns
    leaves the complementary minor of A, signed by
    (-1)^(sum rows + sum cols + inversions of rows)."""
    n, k = len(A), len(cols)
    inversions = sum(a > b for a, b in combinations(rows, 2))
    sign = (-1) ** (sum(rows) + sum(cols) + inversions)
    if k == n:
        return TJet([A[0][0].ctx.constant(float(sign))])
    R = tuple(i for i in range(n) if i not in rows)
    C = tuple(j for j in range(n) if j not in cols)
    series = minor_det(A, R, C, memo).truncate(n - k)
    return series if sign > 0 else -series


# ---------------------------------------------------------------------------
# Majorant coefficient recursion
# ---------------------------------------------------------------------------


def majorant_sequence(params: MajorantParams, bounds: dict, m_max: int) -> list[float]:
    """Coefficients C_1..C_m_max of the dominating series, C_1 = A.

    ``bounds`` is the {(p, q, s, |alpha|, |beta|): A} table of
    ``nonlinearity_bounds``.  Every term of the scalar majorant equation
    contributes, at order m,

        A_{p,q,s,alpha,beta} (2e)^{|alpha|} (4 e^2 M)^{|beta|} R^{w-2}
            * sum over compositions k_1+..+k_Q = m - p - |beta| of prod C_k,

    with Q = q+s+|alpha|+|beta| factors and weight w = p+q+s+|alpha|+2|beta|,
    divided by the resonance gap sigma = 1 (a no-op, so not written out).
    The residual power (R-r)^{w-2} of each term is replaced by its supremum
    R^{w-2} <= 1 over 0 < r < R so the C_m stay r-independent; that keeps
    C_m/(R-r)^{2m-2} an upper bound for the exact order-m majorant at every
    radius (recorded in the report notes).
    """
    if m_max < 1:
        raise InvalidInputError("m_max must be >= 1")
    e = math.e
    M = params.M_const
    C = [0.0, params.A]
    for m in range(2, m_max + 1):
        comp = _composition_sums(C, m)
        total = 0.0
        for (p, q, s, at, bt), aval in bounds.items():
            w = p + q + s + at + 2 * bt
            if w < 2 or p + q + s + at + bt > m:
                continue
            Q = q + s + at + bt
            j = m - p - bt
            if Q == 0:
                S = 1.0 if j == 0 else 0.0
            elif j < Q:
                continue
            else:
                S = comp[Q][j] if Q < len(comp) and j < len(comp[Q]) else 0.0
            if S == 0.0:
                continue
            total += aval * (2 * e) ** at * (4 * e * e * M) ** bt * params.R ** (w - 2) * S
        C.append(total)
    return C


def _composition_sums(C: list[float], m: int) -> list[list[float]]:
    """comp[Q][j] = sum over k_1+..+k_Q = j (k_i >= 1) of prod C_{k_i}."""
    avail = len(C) - 1
    comp = [[0.0] * (m + 1) for _ in range(m + 1)]
    comp[0][0] = 1.0
    for Q in range(1, m + 1):
        for j in range(Q, m + 1):
            acc = 0.0
            for k in range(1, min(j - Q + 1, avail) + 1):
                acc += C[k] * comp[Q - 1][j - k]
            comp[Q][j] = acc
    return comp


# ---------------------------------------------------------------------------
# Domination checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DominationRow:
    inequality: str
    m: int
    radius: float
    observed: float
    bound: float
    status: str  # "pass" | "fail" | "skipped"

    @property
    def margin(self) -> float:
        return self.bound - self.observed


@dataclass(frozen=True)
class MajorantReport:
    params: MajorantParams
    C: tuple[float, ...]
    rows: tuple[DominationRow, ...]
    radius_estimate: float | None
    radius_note: str
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return all(r.status != "fail" for r in self.rows)

    def as_dict(self) -> dict:
        return {
            "R": self.params.R,
            "A": self.params.A,
            "sigma": 1.0,
            "M_const": self.params.M_const,
            "C": list(self.C),
            "passed": self.passed,
            "radius_estimate": self.radius_estimate,
            "radius_note": self.radius_note,
            "notes": list(self.notes) + list(self.params.notes),
            "rows": [
                {
                    "inequality": r.inequality,
                    "m": r.m,
                    "radius": r.radius,
                    "observed": r.observed,
                    "bound": r.bound,
                    "margin": r.margin,
                    "status": r.status,
                }
                for r in self.rows
            ],
        }


def check_domination(run: MajorantRun, params: MajorantParams, C: list[float]) -> MajorantReport:
    """Verify the three domination inequalities on deterministic grids of
    ``GRID_POINTS`` points at the radii R/4, R/2, 3R/4:

        m |v_m|        <= Y_m(r)
        |d_i v_m|      <= 2 e Y_m(r)
        |L(v_m)|       <= 4 e^2 (m+1) M Y_m(r)

    with Y_m(r) = C_m / (R - r)^{2m-2}.  Failures are recorded as rows, not
    raised; orders whose spatial validity cannot support the evaluation are
    marked skipped.  The observed sides are the suprema that the run's
    ``estimate_params`` pass sampled, each jet through its trusted degree
    only; params from any other R are refused.
    """
    e = math.e
    if run.m_max != len(C) - 1:
        raise InvalidInputError(f"C has {len(C) - 1} orders, the run {run.m_max}")
    if run.sups is None or run.sups[0] != params.R:
        raise InvalidInputError(
            f"params at R = {params.R} were not estimated on this majorant run"
        )

    rows = []
    for r, sups in zip(domination_radii(params.R), run.sups[1]):
        pos = 0
        for m, groups in run.groups.items():
            Y = C[m] / (params.R - r) ** (2 * m - 2)
            limits = (Y, 2 * e * Y, 4 * e * e * (m + 1) * params.M_const * Y)
            for name, group, weight, bound in zip(
                ("value", "gradient", "operator"), groups, (m, 1, 1), limits
            ):
                if not group:
                    rows.append(DominationRow(name, m, r, 0.0, bound, "skipped"))
                    continue
                observed = weight * float(np.max(sups[pos : pos + len(group)]))
                pos += len(group)
                rows.append(_dom_row(name, m, r, observed, bound))

    if params.A_clamped:
        # First-order data vanished identically: the true dominating series
        # is zero and the clamped floor would fake geometric growth.
        est, note = None, "majorant tail vanishes: series is entire in t at this order"
    else:
        est, note = radius_estimate(C, params.R, params.R / 2.0)
    return MajorantReport(
        params=params,
        C=tuple(C),
        rows=tuple(rows),
        radius_estimate=est,
        radius_note=note,
        notes=(
            "empirical validation from sampled bounds, not a proof",
            "operator bound convention: sum of |real second-order coefficients| "
            f"of each L_ij, = 4/|c| = {params.M_const}",
            "C_m recursion caps the residual (R-r)^(w-2) factor at R^(w-2)",
        ),
    )


def _dom_row(name, m, r, observed, bound) -> DominationRow:
    """Pass only when the observed value is finite and within the bound."""
    status = "pass" if math.isfinite(observed) and observed <= bound else "fail"
    return DominationRow(name, m, r, observed, bound, status)


def require_radius_orders(m_max: int) -> None:
    """Refuse a majorant sequence too short for ``radius_estimate``."""
    if m_max < 4:
        raise InvalidInputError("radius estimate needs at least 4 coefficients")


def radius_estimate(C: list[float], R: float, r: float) -> tuple[float | None, str]:
    """Heuristic lower-bound estimate of the t-convergence radius: reciprocal
    of the largest observed m-th root of C_m/(R-r)^{2m-2}.

    Returns (None, note) when the tail coefficients vanish, which means the
    dominating series is polynomial at this order.
    """
    require_radius_orders(len(C) - 1)
    xs = [
        (m, C[m] / (R - r) ** (2 * m - 2))
        for m in range(1, len(C))
        if C[m] > 0.0
    ]
    if all(m == 1 for m, _ in xs) or not xs:
        return None, "majorant tail vanishes: series is entire in t at this order"
    rate = max(x ** (1.0 / m) for m, x in xs)
    return 1.0 / rate, "heuristic root-test estimate from the majorant coefficients"


# ---------------------------------------------------------------------------
# Derivative growth lemma check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CauchyEstimateRow:
    p: int
    radius: float
    observed: float
    bound: float
    status: str


# The powers p of the lemma's test family.
LEMMA_POWERS = range(4)


def cauchy_estimate_check(C: float, R: float) -> list[CauchyEstimateRow]:
    """Derivative growth on the documented test family f_p = C/(R - x1)^p,
    p in ``LEMMA_POWERS``: from |f_p| <= C/(R-r)^p the bound
    |df_p| <= C e (p+1)/(R-r)^{p+1} follows.  Rows come p by p, each p at
    the domination radii.

    The family is expanded as one-variable jets of degree 40, f_p = f_{p-1}
    times the one reciprocal of R - x1.  Both sides are evaluated on
    deterministic grids of 64 points at the domination radii, every df_p
    against one monomial matrix per radius.
    """
    if not (0.0 < R < 1.0):
        raise InvalidInputError("need 0 < R < 1")
    ctx = context(1, 40)
    rec = jet_reciprocal(jet_scale(ctx.x(0), -1.0) + R)
    f = ctx.constant(C)
    dfs = []
    for p in LEMMA_POWERS:
        if p:
            f = jet_mul(f, rec)
        dfs.append(jet_derive(f, 0))

    radii = domination_radii(R)
    observed = [
        jet_eval_lists([[df] for df in dfs], polydisc_grid(ctx.nvars, r, 64))
        for r in radii
    ]
    rows = []
    e = math.e
    for p in LEMMA_POWERS:
        for r, values in zip(radii, observed):
            obs = float(np.max(np.abs(values[p])))
            bound = C * e * (p + 1) / (R - r) ** (p + 1)
            rows.append(
                CauchyEstimateRow(p, r, obs, bound, "pass" if obs <= bound else "fail")
            )
    return rows
