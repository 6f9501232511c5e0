"""Closed-form solutions for bases with constant principal Ricci curvatures.

When the eigenvalues of the Ricci curvature relative to the metric are
constant on the base, the evolved Kahler form is affine in the flow
parameter,

    omega(tau) = Phi + tau * ricci(Phi),

the relative volume polynomial is P(tau) = prod_i (1 + lambda_i tau), and the
fiber weight reciprocal is the rational function

    w^{-1}(tau) = integral_0^tau P / P.

These exact expressions are the independent oracle for the series solver.
The solver's flow variable differs from tau by a factor kappa that the flow
fixes: g^(1) = -H(v_0)/c = (4/c) ricci(h), so kappa = 4/c is derived, not
fitted, and ``calibrate`` checks the solution against the closed form at that
one value; no constant is searched for in which a real bug could hide.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conventions import MIXED_HESSIAN_FACTOR
from .errors import InvalidInputError
from .geometry import HermitianJetMatrix, InitialData, det_coefficient, ricci_form
from .jets import (
    Jet,
    jet_mul,
    jet_norm,
    jet_reciprocal,
    jet_scale,
    max_abs_coeff,
    max_coeff_diff,
    nan_max,
)


@dataclass(frozen=True)
class RicciSpectrum:
    """Constant principal Ricci curvatures of a base metric."""

    n: int
    eigenvalues: tuple[float, ...]

    def __post_init__(self):
        if len(self.eigenvalues) != self.n:
            raise InvalidInputError("need one eigenvalue per complex dimension")
        if not all(np.isfinite(self.eigenvalues)):
            raise InvalidInputError("eigenvalues must be finite")


@dataclass(frozen=True)
class RationalT:
    """Ratio of two real polynomials in t, denominator nonzero at t = 0.

    Comparisons cross-multiply, so no reduction to lowest terms is needed.
    """

    numerator: tuple[float, ...]
    denominator: tuple[float, ...]

    def __post_init__(self):
        if abs(self.denominator[0]) == 0:
            raise InvalidInputError("denominator vanishes at t = 0")

    def series(self, order: int) -> np.ndarray:
        """Taylor coefficients through t^order."""
        if order < 0:
            raise InvalidInputError(f"series order must be >= 0, got {order}")
        num = np.zeros(order + 1)
        num[: min(len(self.numerator), order + 1)] = self.numerator[: order + 1]
        den = np.zeros(order + 1)
        den[: min(len(self.denominator), order + 1)] = self.denominator[: order + 1]
        out = np.empty(order + 1)
        for m in range(order + 1):
            acc = num[m]
            for k in range(1, m + 1):
                acc -= den[k] * out[m - k]
            out[m] = acc / den[0]
        return out


def p_of_t(spectrum: RicciSpectrum) -> np.ndarray:
    """Relative volume polynomial prod_i (1 + lambda_i t), ascending coefficients."""
    poly = np.array([1.0])
    for lam in spectrum.eigenvalues:
        poly = np.convolve(poly, np.array([1.0, lam]))
    last = np.max(np.flatnonzero(poly))
    return poly[: last + 1]


def w_inv_closed(P: np.ndarray) -> RationalT:
    """w^{-1}(t) = (integral_0^t P) / P as an exact rational function."""
    P = np.asarray(P, dtype=float)
    if abs(P[0] - 1.0) > 1e-12:
        raise InvalidInputError(f"P(0) must be 1, got {P[0]}")
    integral = np.concatenate([[0.0], P / np.arange(1, len(P) + 1)])
    return RationalT(tuple(integral), tuple(P))


def characteristic_coefficients(initial: InitialData, rho: HermitianJetMatrix) -> list[Jet]:
    """The jets q_0..q_{n-1} of det(s h - rho) / det h = s^n + sum_k q_k s^k,
    the characteristic polynomial of h^{-1} rho: c_k = [s^k] det of the
    orders (-rho, h), from ``det_coefficient`` with one memo."""
    orders = (rho.map(lambda e: -e).entries, initial.h.entries)
    memo = {}
    c = [det_coefficient(orders, k, memo) for k in range(initial.n + 1)]
    recip_det_h = jet_reciprocal(c[-1])
    return [jet_mul(ck, recip_det_h) for ck in c[:-1]]


def ricci_spectrum_of(
    initial: InitialData, rho: HermitianJetMatrix
) -> tuple[RicciSpectrum, float]:
    """Eigenvalues of the Ricci matrix ``rho = ricci_form(initial.h)``
    relative to h at the base point, and the variation of the spectrum: the
    largest weighted l1 norm of q_k - q_k(0) for its characteristic
    polynomial's coefficients q_k, at radius 0.05 min(1, polydisc radius).
    It bounds their change over that whole polydisc.  A q_k trusted below
    degree 1 says nothing past the base point and is refused before rho is
    read at the base point, where it may be untrusted too."""
    qs = characteristic_coefficients(initial, rho)
    for k, q in enumerate(qs):
        if q.valid_degree < 1:
            raise InvalidInputError(
                f"the characteristic polynomial's s^{k} coefficient has valid_degree "
                f"{q.valid_degree}: constant Ricci curvature cannot be tested past the base point"
            )
    eig0 = np.linalg.eigvals(np.linalg.solve(initial.h.base_matrix(), rho.base_matrix()))
    radius = 0.05 * min(1.0, initial.polydisc_radius)
    variation = nan_max(0.0, *(float(jet_norm(q - q.constant_term, radius)) for q in qs))
    return RicciSpectrum(initial.n, tuple(np.sort(eig0.real))), variation


@dataclass(frozen=True)
class CalibrationReport:
    """Outcome of matching a solver run against the affine closed form."""

    kappa: float | None
    max_relative_deviation: float
    metric_deviation: float
    w_inv_deviation: float
    eigenvalues: tuple[float, ...]
    spectrum_variation: float
    P: tuple[float, ...]

    @property
    def matched(self) -> bool:
        return self.kappa is not None

    def as_dict(self) -> dict:
        return dict(vars(self), matched=self.matched)


def calibrate(solution, tolerance: float = 1e-9) -> CalibrationReport:
    """Match solver output against Phi + (kappa t) rho at kappa = 4/c, the
    factor of the flow H(u) + c dg/dt = 0; the fiber weight must then
    satisfy w_inv_solver(t) = (c/kappa) * w_inv_closed(kappa t).  Matched
    means a deviation of at most ``tolerance`` times the solution's scale;
    kappa is None otherwise.

    Raises on bases whose principal Ricci curvatures vary by more than 1e-6
    (``ricci_spectrum_of``), i.e. are not constant.  Every maximum here keeps
    a NaN, so a solution with a NaN coefficient does not match.
    """
    initial = solution.input
    rho = ricci_form(initial.h)
    spectrum, variation = ricci_spectrum_of(initial, rho)
    if not variation <= 1e-6:
        raise InvalidInputError(
            f"principal Ricci curvatures are not constant (spectrum variation "
            f"{variation:.3e} > 1e-06)"
        )
    P = p_of_t(spectrum)
    closed_w = w_inv_closed(P)
    c = solution.config.c
    kappa = MIXED_HESSIAN_FACTOR / c
    gdev = _metric_deviation(solution, initial.h, rho, kappa)
    wdev = _w_inv_deviation(solution, closed_w, kappa, c)
    dev = nan_max(gdev, wdev)
    scale = _solution_scale(solution)
    # v is not compared with the closed form, but a potential that is not
    # finite does not match either.
    v_finite = np.isfinite(nan_max(*map(max_abs_coeff, solution.v.coeffs)))
    matched = bool(v_finite and dev <= tolerance * scale)
    return CalibrationReport(
        kappa=kappa if matched else None,
        max_relative_deviation=dev / scale,
        metric_deviation=gdev / scale,
        w_inv_deviation=wdev / scale,
        eigenvalues=spectrum.eigenvalues,
        spectrum_variation=variation,
        P=tuple(P),
    )


def _solution_scale(solution) -> float:
    """Magnitude reference for relative deviations."""
    scale = 1.0
    for i in range(solution.n):
        for j in range(solution.n):
            for cj in solution.g.entries[i][j].coeffs:
                scale = nan_max(scale, max_abs_coeff(cj))
    return scale


def _metric_deviation(solution, Phi, rho, kappa) -> float:
    worst = 0.0
    n = solution.n
    for i in range(n):
        for j in range(n):
            series = solution.g.entries[i][j]
            for m, cj in enumerate(series.coeffs):
                if m == 0:
                    target = Phi.entries[i][j]
                elif m == 1:
                    target = jet_scale(rho.entries[i][j], kappa)
                else:
                    target = cj.ctx.zero()
                worst = nan_max(worst, max_coeff_diff(cj, target))
    return worst


def _w_inv_deviation(solution, closed_w: RationalT, kappa: float, c: float) -> float:
    order = solution.w_inv.order
    target = closed_w.series(order) * (c / kappa)
    target *= kappa ** np.arange(order + 1)
    worst = 0.0
    for m, cj in enumerate(solution.w_inv.coeffs):
        worst = nan_max(worst, max_coeff_diff(cj, cj.ctx.constant(target[m])))
    return worst
