"""Majorant machinery for the series construction.

The solved potential series sum v_m t^m is dominated, order by order, by the
solution Y = sum Y_m t^m of a scalar analytic equation whose coefficients
bound the nonlinearity of the system.  Y_m(r) has the closed shape
C_m / (R - r)^{2m-2} on the polydisc of radius r < R < 1, with C_1 = A and
the remaining C_m produced by a positive recursion; domination then follows
from three inequalities per order plus a derivative growth lemma.

Every bound here is the weighted l1 norm ||f||_r = sum_alpha |f_alpha|
r^{|alpha|} of a jet's trusted prefix, which bounds |f| on the whole
polydisc of radius r and is an algebra norm (||fg||_r <= ||f||_r ||g||_r):
A, the A_{p,q,beta} (unsigned norms of complementary minors, each weighted
by k! for the k! unit-column patterns it stands for), the observed sides of
the domination inequalities and those of the lemma rows.  The norms are
computed in floating point, without outward rounding and without a bound on
the tail past ``valid_degree``, so a pass is a validation, not a proof; a
failure signals a defect in the solver or in the bounds, never a rounding
of the theory.

Operator accounting convention: the integral operators feeding the
nonlinearity are L_ij = -(4/c) d^2/dz_i dzbar_j, whose real-coordinate
expansion has absolute coefficient sum 4/|c|; that value is used as the
shared operator bound and recorded in the report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

from .errors import InvalidInputError
from .geometry import complex_mixed_hessian, det_coefficient, jet_det
from .jets import (
    Jet,
    horner,
    jet_mul,
    jet_norm,
    jet_partials,
    jet_reciprocal,
    jet_scale,
)
from .solver import Solution

# A is clamped up to this floor when the first-order data vanish identically.
_A_FLOOR = 1e-8


@dataclass(frozen=True)
class MajorantParams:
    """Constants of the domination scheme that depend on the solution.

    A is the largest weighted l1 norm at R < 1 of the first-order data
    (v_1, its gradient, and the operator images L(v_1)); M_const is the
    operator coefficient bound 4/|c|.  The constants shared by every
    solution are fixed here: the resonance gap sigma is exactly 1, because
    the unit identity c e^{-v_0} det h = 1 makes the linearized symbol the
    constant -1, so the gap |m + 1| >= m never degrades
    (docs/conventions.md); Euler's number e enters through the derivative
    growth lemma.
    """

    R: float
    A: float
    M_const: float
    A_clamped: bool = False


def domination_radii(R: float) -> tuple[float, float, float]:
    return (R / 4.0, R / 2.0, 3.0 * R / 4.0)


def _group_norms(vm: Jet, c: float, r) -> list:
    """The largest norms at r (a radius or a sequence of radii) of the
    value, gradient and operator jets of v_m; None for a group whose
    validity v_m lacks (degree 0, 1 or 2).  np.max keeps a NaN, so the
    checks built on it fail."""
    groups = (
        [vm] if vm.valid_degree >= 0 else [],
        jet_partials(vm) if vm.valid_degree >= 1 else [],
        [jet_scale(e, -1.0 / c) for row in complex_mixed_hessian(vm).entries for e in row]
        if vm.valid_degree >= 2
        else [],
    )
    return [
        np.max([jet_norm(jet, r) for jet in group], axis=0) if group else None for group in groups
    ]


def estimate_params(sol: Solution, R: float) -> MajorantParams:
    """A as the largest norm at R of v_1, its coordinate gradient and the
    operator images; the operator bound is structural.  The norms grow with
    the radius, so the first-order inequalities hold at every check radius
    r < R by construction of A.  The operator images are second derivatives
    of v_1, so v_1 must be trusted to degree 2: below it an untrusted norm
    would read 0 and lower A.
    """
    if not (0.0 < R < 1.0) or R >= sol.input.polydisc_radius:
        raise InvalidInputError(
            f"majorant radius must satisfy 0 < R < min(1, input radius "
            f"{sol.input.polydisc_radius}), got {R}"
        )
    if sol.t_order < 1:
        raise InvalidInputError("need at least one solved order")
    c = sol.config.c
    v1 = sol.v.coeffs[1]
    if v1.valid_degree < 2:
        raise InvalidInputError(
            f"the majorant needs v_1 trusted to degree 2 for its second derivatives, "
            f"but v_1 has valid_degree {v1.valid_degree}: raise the space degree D"
        )
    A = float(np.max(_group_norms(v1, c, R)))
    clamped = A < _A_FLOOR
    A = _A_FLOOR if clamped else A
    return MajorantParams(R=R, A=A, M_const=4.0 / abs(c), A_clamped=clamped)


def run(sol: Solution, R: float, m_max: int | None = None) -> MajorantReport:
    """The majorant pipeline at radius R over C_1..C_m_max (by default the
    t-order), derivative lemma rows included.  A sequence too short for the
    radius estimate is refused before any bound is built, unless A is
    clamped.  Stages are looked up by name per call, so a rebound one runs."""
    m_max = sol.t_order if m_max is None else m_max
    params = estimate_params(sol, R)
    if not params.A_clamped:
        _require_radius_orders(m_max)
    bounds = nonlinearity_bounds(sol, params, m_max)
    C = majorant_sequence(params, bounds, m_max)
    rep = check_domination(sol, params, C)
    return replace(rep, lemma=tuple(cauchy_estimate_check(1.0, R)))


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
    beta become unit vectors e_rows, the rest stay h + t L(v_0).  Such a
    determinant is +- [t^p] of the complementary minor on the other rows and
    columns; its norm drops the sign, and the k! patterns sharing one minor
    weight its norm by k!.  All minors come from ``det_coefficient`` with one
    memo.  L(v_0) = -H(v_0)/c is the solution's own g^(1), read off
    ``sol.g`` rather than formed again.  The e^{-Z} factor contributes the
    exact scalar (-1)^q / q!.  Each jet coefficient is bounded by its
    weighted l1 norm at R.

    Returns {(p, q, |beta|): bound}, aggregated over beta patterns with
    equal totals, restricted to weight p + q + 2|beta| >= 2 and
    p + q + |beta| <= m_max.  G reads the potential only through Z and the
    second derivatives Y, never through t dv/dt or the gradient of v, so the
    table has no index for either.
    """
    n = sol.n
    h = sol.input.h
    orders = (h.entries, [[e.coeffs[1] for e in row] for row in sol.g.entries])
    recip_det_h = jet_reciprocal(jet_det(h))
    one = sol.input.ctx.constant(1.0)  # the minor on no rows
    memo = {}

    # ||[t^p Y^beta] det(...) / det h||_R aggregated over patterns by |beta|;
    # largest minors first, so one expanded inside a larger one is read back
    agg: dict[tuple[int, int], float] = {}
    for k in range(n + 1):
        for cols in combinations(range(n), k):
            C = tuple(j for j in range(n) if j not in cols)
            for rows in combinations(range(n), k):
                R = tuple(i for i in range(n) if i not in rows)
                for p in range(n - k + 1):
                    minor = det_coefficient(orders, p, memo, R, C) if R else one
                    quotient = jet_mul(minor, recip_det_h)
                    val = math.factorial(k) * float(jet_norm(quotient, params.R))
                    if val != 0.0:  # a NaN bound is kept, so the checks built on it fail
                        agg[(p, k)] = agg.get((p, k), 0.0) + val

    return {
        (p, q, b): ahat / math.factorial(q)
        for (p, b), ahat in agg.items()
        for q in range(m_max + 1)
        if p + q + 2 * b >= 2 and p + q + b <= m_max
    }


# ---------------------------------------------------------------------------
# Majorant coefficient recursion
# ---------------------------------------------------------------------------


def majorant_sequence(params: MajorantParams, bounds: dict, m_max: int) -> list[float]:
    """Coefficients C_1..C_m_max of the dominating series, C_1 = A.

    ``bounds`` is the {(p, q, |beta|): A} table of ``nonlinearity_bounds``.
    Every term of the scalar majorant equation contributes, at order m,

        A_{p,q,beta} (4 e^2 M)^{|beta|} R^{w-2}
            * sum over compositions k_1+..+k_Q = m - p - |beta| of prod C_k,

    with Q = q+|beta| factors and weight w = p+q+2|beta|, divided by the
    resonance gap sigma = 1 (a no-op, so not written out).  The system has
    no t dv/dt or gradient argument, so no term carries their factors.
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
        for (p, q, b), aval in bounds.items():
            w = p + q + 2 * b
            if w < 2 or p + q + b > m:
                continue
            S = comp[q + b][m - p - b]  # q + b <= m - p - b <= m: in the table
            if S == 0.0:
                continue
            total += aval * (4 * e * e * M) ** b * params.R ** (w - 2) * S
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
    lemma: tuple[CauchyEstimateRow, ...] = ()

    @property
    def passed(self) -> bool:
        return all(r.status != "fail" for r in self.rows + self.lemma)

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
            "notes": list(self.notes),
            "rows": [{**vars(r), "margin": r.margin} for r in self.rows],
            "derivative_lemma": [dict(vars(r)) for r in self.lemma],
        }


def check_domination(sol: Solution, params: MajorantParams, C: list[float]) -> MajorantReport:
    """Verify the three domination inequalities at the radii R/4, R/2, 3R/4
    for the orders 1..min(t_order, len(C) - 1):

        m ||v_m||_r        <= Y_m(r)
        ||d_i v_m||_r      <= 2 e Y_m(r)
        ||L(v_m)||_r       <= 4 e^2 (m+1) M Y_m(r)

    with Y_m(r) = C_m / (R - r)^{2m-2}; each observed side is the largest
    weighted l1 norm of its jets.  Failures are recorded as rows, not
    raised; a group whose jet lacks the validity to support it (v_m below
    degree 0, 1 or 2) is marked skipped.
    """
    e = math.e
    radii = domination_radii(params.R)
    largest = {
        m: _group_norms(sol.v.coeffs[m], sol.config.c, radii)
        for m in range(1, min(sol.t_order, len(C) - 1) + 1)
    }

    rows = []
    for k, r in enumerate(radii):
        for m, maxima in largest.items():
            Y = C[m] / (params.R - r) ** (2 * m - 2)
            limits = (Y, 2 * e * Y, 4 * e * e * (m + 1) * params.M_const * Y)
            for name, norms, weight, bound in zip(
                ("value", "gradient", "operator"), maxima, (m, 1, 1), limits
            ):
                if norms is None:
                    rows.append(DominationRow(name, m, r, 0.0, bound, "skipped"))
                else:
                    rows.append(_dom_row(name, m, r, weight * float(norms[k]), bound))

    notes = [
        "bounds are weighted l1 norms of the truncated jets, computed in "
        "floating point with no outward rounding and no bound on the tail "
        "past valid_degree: not a proof",
        "operator bound convention: sum of |real second-order coefficients| "
        f"of each L_ij, = 4/|c| = {params.M_const}",
        "C_m recursion caps the residual (R-r)^(w-2) factor at R^(w-2)",
    ]
    if params.A_clamped:
        # First-order data vanished identically: the true dominating series
        # is zero and the clamped floor would fake geometric growth.
        est, note = None, "majorant tail vanishes: series is entire in t at this order"
        notes.append("degenerate first-order data: A clamped to the 1e-8 floor")
    else:
        est, note = radius_estimate(C, params.R, params.R / 2.0)
    return MajorantReport(
        params=params,
        C=tuple(C),
        rows=tuple(rows),
        radius_estimate=est,
        radius_note=note,
        notes=tuple(notes),
    )


def _dom_row(name, m, r, observed, bound) -> DominationRow:
    """Pass only when the observed value is finite and within the bound."""
    status = "pass" if math.isfinite(observed) and observed <= bound else "fail"
    return DominationRow(name, m, r, observed, bound, status)


def _require_radius_orders(m_max: int) -> None:
    """Refuse a majorant sequence too short for ``radius_estimate``."""
    if m_max < 4:
        raise InvalidInputError("radius estimate needs at least 4 coefficients")


def radius_estimate(C: list[float], R: float, r: float) -> tuple[float | None, str]:
    """Heuristic lower-bound estimate of the t-convergence radius: reciprocal
    of the largest observed m-th root of C_m/(R-r)^{2m-2}.

    Returns (None, note) when the tail coefficients vanish, which means the
    dominating series is polynomial at this order.
    """
    _require_radius_orders(len(C) - 1)
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


def _lemma_derivatives(C: float, R: float):
    """The x1^0..x1^39 coefficients of df_p, p in ``LEMMA_POWERS``: the sums
    of the degree-40 jet kernels on plain arrays, so the same bits."""
    # 1/(R - x1): jet_reciprocal's s_d = -((-1/R) s_{d-1}) times 1/R, a running product
    rec, f = np.cumprod(np.full(41, 1.0 / R)), np.r_[C, np.zeros(40)]
    for p in LEMMA_POWERS:
        if p:  # f_p = f_{p-1} rec, summed over ascending da as jet_mul does
            f, prev = np.zeros(41), f
            for da in np.flatnonzero(prev):
                f[da:] += prev[da] * rec[: 41 - da]
        yield np.arange(1, 41) * f[1:]


def cauchy_estimate_check(C: float, R: float) -> list[CauchyEstimateRow]:
    """Derivative growth on the documented test family f_p = C/(R - x1)^p,
    p in ``LEMMA_POWERS``: from |f_p| <= C/(R-r)^p the bound
    |df_p| <= C e (p+1)/(R-r)^{p+1} follows.  Rows come p by p, each p at
    the domination radii.

    The family is expanded to degree 40 in x1 on plain arrays.  Each
    observed side is the weighted l1 norm of df_p at the radius; the family
    has positive coefficients, so that is the truncated df_p at x1 = r.
    """
    if not (0.0 < R < 1.0):
        raise InvalidInputError("need 0 < R < 1")
    radii = domination_radii(R)
    rows = []
    for p, df in zip(LEMMA_POWERS, _lemma_derivatives(C, R)):
        for r, obs in zip(radii, horner(np.abs(df), radii).tolist()):
            bound = C * math.e * (p + 1) / (R - r) ** (p + 1)
            rows.append(CauchyEstimateRow(p, r, obs, bound, "pass" if obs <= bound else "fail"))
    return rows

