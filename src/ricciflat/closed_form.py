"""Closed-form solutions for bases with constant principal Ricci curvatures.

When the eigenvalues of the Ricci curvature relative to the metric are
constant on the base, the evolved Kahler form is affine in the flow
parameter,

    omega(tau) = Phi + tau * ricci(Phi),

the relative volume polynomial is P(tau) = prod_i (1 + lambda_i tau), and the
fiber weight reciprocal is the rational function

    w^{-1}(tau) = integral_0^tau P / P.

These exact expressions are the independent oracle for the series solver.
The solver's flow variable differs from tau by a convention factor kappa
(powers of two coming from the mixed-Hessian normalization); ``calibrate``
finds kappa from a documented finite candidate set instead of fitting it
continuously, so a real bug cannot hide inside a fitted constant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .conventions import CALIBRATION_CANDIDATES
from .errors import InvalidInputError
from .geometry import HermitianJetMatrix, InitialData, jet_det, ricci_form
from .jets import (
    Jet,
    TJet,
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

    def __call__(self, t: float) -> float:
        return float(
            np.polyval(self.numerator[::-1], t) / np.polyval(self.denominator[::-1], t)
        )


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
    the characteristic polynomial of h^{-1} rho, from the determinant of the
    pencil whose entries are the series -rho_ij + s h_ij."""
    n, h = initial.n, initial.h
    pad = [initial.ctx.zero()] * (n - 1)
    pencil = [[TJet([-rho[i, j], h[i, j], *pad]) for j in range(n)] for i in range(n)]
    c = jet_det(HermitianJetMatrix(pencil)).coeffs
    recip_det_h = jet_reciprocal(c[n])
    return [jet_mul(ck, recip_det_h) for ck in c[:n]]


def ricci_spectrum_of(
    initial: InitialData, rho: HermitianJetMatrix
) -> tuple[RicciSpectrum, float]:
    """Eigenvalues of the Ricci matrix ``rho = ricci_form(initial.h)``
    relative to h at the base point, and the variation of the spectrum: the
    largest weighted l1 norm of q_k - q_k(0) for its characteristic
    polynomial's coefficients q_k, at radius 0.05 min(1, polydisc radius).
    It bounds their change over that whole polydisc.  A q_k trusted below
    degree 1 says nothing past the base point and is refused."""
    h0 = initial.h.base_matrix()
    r0 = rho.base_matrix()
    eig0 = np.sort(np.linalg.eigvals(np.linalg.solve(h0, r0)).real)

    radius = 0.05 * min(1.0, initial.polydisc_radius)
    variation = 0.0
    for k, q in enumerate(characteristic_coefficients(initial, rho)):
        if q.valid_degree < 1:
            raise InvalidInputError(
                f"the characteristic polynomial's s^{k} coefficient has valid_degree "
                f"{q.valid_degree}: constant Ricci curvature cannot be tested past the base point"
            )
        variation = nan_max(variation, float(jet_norm(q - q.constant_term, radius)))
    return RicciSpectrum(initial.n, tuple(eig0)), variation


@dataclass(frozen=True)
class CalibrationReport:
    """Outcome of matching a solver run against the affine closed form."""

    kappa: float | None
    max_deviation: float
    metric_deviation: float
    w_inv_deviation: float
    eigenvalues: tuple[float, ...]
    spectrum_variation: float
    P: tuple[float, ...]
    candidates: tuple[float, ...] = CALIBRATION_CANDIDATES
    per_candidate: dict = field(default_factory=dict)

    @property
    def matched(self) -> bool:
        return self.kappa is not None


def calibrate(solution, tolerance: float = 1e-9) -> CalibrationReport:
    """Match solver output against Phi + (kappa t) rho for kappa in the
    documented candidate set; the fiber weight must then satisfy
    w_inv_solver(t) = (c/kappa) * w_inv_closed(kappa t).

    Raises on bases whose principal Ricci curvatures vary by more than 1e-6
    (``ricci_spectrum_of``), i.e. are not constant.  Every maximum here keeps
    a NaN, so a solution with a NaN coefficient matches no factor.
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

    per_candidate = {}
    best = (None, np.inf, np.inf, np.inf)
    for kappa in CALIBRATION_CANDIDATES:
        gdev = _metric_deviation(solution, initial.h, rho, kappa)
        wdev = _w_inv_deviation(solution, closed_w, kappa, c)
        dev = nan_max(gdev, wdev)
        per_candidate[kappa] = dev
        if dev < best[1]:
            best = (kappa, dev, gdev, wdev)

    kappa, dev, gdev, wdev = best
    scale = _solution_scale(solution)
    # v is not compared with the closed form, but a potential that is not
    # finite matches no convention factor either.
    v_finite = np.isfinite(nan_max(*map(max_abs_coeff, solution.v.coeffs)))
    matched = bool(v_finite and dev <= tolerance * scale)
    return CalibrationReport(
        kappa=kappa if matched else None,
        max_deviation=dev / scale,
        metric_deviation=gdev / scale,
        w_inv_deviation=wdev / scale,
        eigenvalues=spectrum.eigenvalues,
        spectrum_variation=variation,
        P=tuple(P),
        per_candidate=per_candidate,
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
