"""Independent residual checks on assembled solutions.

Each operation re-derives an identity the construction is supposed to
satisfy and reports the worst coefficient residual per t-order, relative to
the magnitude of the terms entering the identity.  Identities involving the
fiber weight w are rewritten in the regular quantities (v, w_inv) first; the
1/(ct) pole of w is spatially constant, so it drops out of every spatial
derivative and cancels explicitly elsewhere (see docs/conventions.md for the
worked rewrites).  Coefficients beyond the recorded spatial validity are
never read: orders without trusted coefficients appear as skipped rows, not
as passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .closed_form import calibrate
from .errors import DegeneracyError, InvalidInputError
from .geometry import (
    HermitianJetMatrix,
    complex_mixed_hessian,
    det_and_adjugate,
    dz,
    dzbar,
    jet_det,
)
from .jets import (
    Jet,
    TJet,
    jet_add,
    jet_conj,
    jet_scale,
    max_abs_coeff,
    max_coeff_diff,
    t_derive,
    t_exp,
    t_integrate,
    t_reciprocal,
)
from .solver import Solution


@dataclass(frozen=True)
class ResidualRow:
    identity: str
    t_order: int
    valid_degree: int
    residual: float
    scale: float
    status: str  # "pass" | "fail" | "skipped"


@dataclass(frozen=True)
class ResidualReport:
    name: str
    rows: tuple[ResidualRow, ...]
    tolerance: float
    metadata: dict = field(default_factory=dict)

    @property
    def max_relative_residual(self) -> float:
        """Worst residual/scale over the checked rows; NaN when any of them
        is not finite, whatever its position."""
        vals = [r.residual / r.scale for r in self.rows if r.status != "skipped"]
        if not all(math.isfinite(v) for v in vals):
            return math.nan
        return max(vals) if vals else 0.0

    @property
    def passed(self) -> bool:
        return all(r.status != "fail" for r in self.rows)

    @property
    def skipped_orders(self) -> tuple[int, ...]:
        return tuple(sorted({r.t_order for r in self.rows if r.status == "skipped"}))

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "max_relative_residual": self.max_relative_residual,
            "tolerance": self.tolerance,
            "skipped_orders": list(self.skipped_orders),
            "rows": [
                {
                    "identity": r.identity,
                    "t_order": r.t_order,
                    "valid_degree": r.valid_degree,
                    "residual": r.residual,
                    "scale": r.scale,
                    "status": r.status,
                }
                for r in self.rows
            ],
            "metadata": self.metadata,
        }


def _row(identity, m, valid, resid, scale, tol) -> ResidualRow:
    """A non-finite residual or scale fails the row."""
    if valid < 0:
        return ResidualRow(identity, m, valid, 0.0, max(scale, 1.0), "skipped")
    ok = math.isfinite(resid) and math.isfinite(scale) and resid <= tol * max(scale, 1.0)
    return ResidualRow(identity, m, valid, resid, max(scale, 1.0), "pass" if ok else "fail")


def _max(*values) -> float:
    """Largest value, NaN as soon as one value is NaN (Python's ``max``
    drops a NaN that is not its first argument)."""
    return float(np.max(values))


# ---------------------------------------------------------------------------
# Core system residuals
# ---------------------------------------------------------------------------


def residual_system(sol: Solution, tolerance: float = 1e-9) -> ResidualReport:
    """Residuals of the defining system on the assembled series:

    * hessian flow      H(v_m) + c (m+1) g^(m+1) = 0
    * volume growth     e^v (1 + t dv/dt) - c det g = 0
    * weight consistency  w_inv * det g - c * integral(det g) = 0
    """
    c = sol.config.c
    rows = []

    for m in range(sol.t_order):
        vm = sol.v.coeffs[m]
        hess = complex_mixed_hessian(vm, allow_exhausted=True)
        scale = 0.0
        worst = 0.0
        valid = vm.valid_degree - 2
        for i in range(sol.n):
            for j in range(sol.n):
                g_next = sol.g.entries[i][j].coeffs[m + 1]
                term = jet_scale(g_next, c * (m + 1))
                resid = jet_add(hess.entries[i][j], term)
                v = min(resid.valid_degree, valid)
                if v >= 0:
                    worst = _max(worst, max_abs_coeff(resid, v))
                    scale = _max(
                        scale, max_abs_coeff(hess.entries[i][j], v), max_abs_coeff(term, v)
                    )
        rows.append(_row("hessian_flow", m, valid, worst, scale, tolerance))

    exp_v = t_exp(sol.v)
    one_plus = TJet((sol.input.ctx.constant(1.0),) + t_derive(sol.v).coeffs)
    lhs = exp_v * one_plus
    det_g = jet_det(sol.g)
    for m in range(min(lhs.order, det_g.order) + 1):
        resid = jet_add(lhs.coeffs[m], jet_scale(det_g.coeffs[m], -c))
        valid = min(lhs.coeffs[m].valid_degree, det_g.coeffs[m].valid_degree)
        worst = max_abs_coeff(resid, valid) if valid >= 0 else 0.0
        scale = max_abs_coeff(lhs.coeffs[m], valid) if valid >= 0 else 1.0
        rows.append(_row("volume_growth", m, valid, worst, scale, tolerance))

    wd = sol.w_inv * det_g
    target = t_integrate(det_g) * c
    for m in range(min(wd.order, target.order) + 1):
        resid = jet_add(wd.coeffs[m], jet_scale(target.coeffs[m], -1.0))
        valid = min(wd.coeffs[m].valid_degree, target.coeffs[m].valid_degree)
        worst = max_abs_coeff(resid, valid) if valid >= 0 else 0.0
        scale = max_abs_coeff(target.coeffs[m], valid) if valid >= 0 else 1.0
        rows.append(_row("weight_consistency", m, valid, worst, scale, tolerance))

    return ResidualReport(
        name="residual_system",
        rows=tuple(rows),
        tolerance=tolerance,
        metadata={"c": c, "t_order": sol.t_order},
    )


def residual_consequence(sol: Solution, tolerance: float = 1e-9) -> ResidualReport:
    """The second-order flow identity 4 w_{z_i zbar_j} + (g_ij)_tt = 0,
    rewritten pole-free as (1/c) H(dv/dt) + d^2 g/dt^2 = 0.

    The 1/(ct) singular part of w is spatially constant and vanishes under
    the mixed Hessian, which is what makes the rewrite exact.  This identity
    is redundant given the other two whenever c is nonzero; the check
    confirms that on every constructed solution.
    """
    if sol.t_order < 3:
        raise InvalidInputError("consequence residual needs t_order >= 3")
    return ResidualReport(
        name="residual_consequence",
        rows=tuple(_second_order_flow_rows(sol, "second_order_flow", tolerance)),
        tolerance=tolerance,
        metadata={"c": sol.config.c, "orders_checked": sol.t_order - 1},
    )


def _second_order_flow_rows(sol: Solution, identity: str, tolerance: float):
    """Rows of (1/c) H(dv/dt) + d^2 g/dt^2 = 0, one per t-order m, in the
    coefficient form (m+1)/c H(v_{m+1}) + (m+1)(m+2) g^(m+2) = 0."""
    c = sol.config.c
    for m in range(sol.t_order - 1):
        vnext = sol.v.coeffs[m + 1]
        hess = complex_mixed_hessian(vnext, allow_exhausted=True)
        valid = vnext.valid_degree - 2
        worst, scale = 0.0, 0.0
        for i in range(sol.n):
            for j in range(sol.n):
                a = jet_scale(hess.entries[i][j], (m + 1) / c)
                b = jet_scale(
                    sol.g.entries[i][j].coeffs[m + 2], float((m + 1) * (m + 2))
                )
                resid = jet_add(a, b)
                v = min(resid.valid_degree, valid)
                if v >= 0:
                    worst = _max(worst, max_abs_coeff(resid, v))
                    scale = _max(scale, max_abs_coeff(a, v), max_abs_coeff(b, v))
        yield _row(identity, m, valid, worst, scale, tolerance)


def laplacian_moment(sol: Solution, tolerance: float = 1e-9) -> ResidualReport:
    """The moment map has constant metric Laplacian equal to c:

        g^{ij} w^{-1} (g_ij)_t + (w^{-1})_t = c.

    Both terms are regular in t because w^{-1} is; the metric inverse is
    assembled from the adjugate and the reciprocal determinant series.
    """
    det_g, adj = det_and_adjugate(sol.g)
    if abs(det_g.coeffs[0].constant_term) < 1e-14:
        raise DegeneracyError("metric determinant vanishes at the base point")
    # g^{ij} = adj(g)_{ij} / det g; the scalar reciprocal factors out of the
    # trace, which keeps the series arithmetic quadratic instead of cubic.
    recip = t_reciprocal(det_g)
    n = sol.n

    adj_trace = None
    for i in range(n):
        for k in range(n):
            gt_ki = t_derive(sol.g.entries[k][i])
            term = adj[i][k] * gt_ki
            adj_trace = term if adj_trace is None else adj_trace + term

    delta = (sol.w_inv * recip) * adj_trace + t_derive(sol.w_inv)
    c = sol.config.c
    rows = []
    for m in range(delta.order + 1):
        coeff = delta.coeffs[m]
        target = coeff.ctx.constant(c if m == 0 else 0.0)
        valid = coeff.valid_degree
        resid = max_coeff_diff(coeff, target, valid) if valid >= 0 else 0.0
        rows.append(_row("moment_laplacian", m, valid, resid, abs(c), tolerance))
    return ResidualReport(
        name="laplacian_moment",
        rows=tuple(rows),
        tolerance=tolerance,
        metadata={"c": c},
    )


# ---------------------------------------------------------------------------
# Curvature 2-form and its cohomology class
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CurvatureForm:
    """Blocks of F = -((i/2)(g_ij)_t dz^dzbar + i w_{z_i} dt^dz - i w_{zbar_j} dt^dzbar).

    ``g_t`` holds the (1,1) block before the -i/2 prefactor; ``w_z`` and
    ``w_zbar`` hold the fiber-weight gradients (1/c) d(dv/dt)/dz_i, which are
    regular in t because the pole of w is spatially constant.
    """

    g_t: HermitianJetMatrix
    w_z: tuple[TJet, ...]
    w_zbar: tuple[TJet, ...]
    realness_defect: float


@dataclass(frozen=True)
class CurvatureReport:
    form: CurvatureForm
    closedness: ResidualReport
    class_integral: float | None
    nearest_integer: int | None
    integral_deviation: float | None
    quadrature_points: int
    kappa: float | None
    proportionality_defect: float | None
    notes: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return self.closedness.passed


def curvature_and_class(
    sol: Solution,
    tolerance: float = 1e-9,
    min_quadrature_points: int = 256,
) -> CurvatureReport:
    """Assemble the curvature blocks, check dF = 0 coefficientwise, and for
    supported bases integrate F/(2 pi) over the base at t = 0.

    The class integral is evaluated in the calibrated normalization (factor
    2/kappa, kappa from ``closed_form.calibrate``), which is the scaling that
    makes the form's periods integer multiples of 2 pi; the verbatim blocks
    are reported unscaled.  Supported bases: flat charts (integral is exactly
    zero) and the dimension-1 projective chart, integrated with its global
    closed-form profile.
    """
    c = sol.config.c
    vt = t_derive(sol.v)
    n = sol.n

    g_t = HermitianJetMatrix(
        [[t_derive(sol.g.entries[i][j]) for j in range(n)] for i in range(n)]
    )
    w_z = tuple(
        TJet([jet_scale(dz(cj, i, allow_exhausted=True), 1.0 / c) for cj in vt.coeffs])
        for i in range(n)
    )
    w_zbar = tuple(
        TJet([jet_scale(dzbar(cj, j, allow_exhausted=True), 1.0 / c) for cj in vt.coeffs])
        for j in range(n)
    )

    realness = g_t.hermitian_defect()
    for i in range(n):
        for k in range(min(w_z[i].order, w_zbar[i].order) + 1):
            a, b = w_z[i].coeffs[k], w_zbar[i].coeffs[k]
            if min(a.valid_degree, b.valid_degree) >= 0:
                realness = _max(realness, max_coeff_diff(jet_conj(a), b))

    rows = list(_closedness_rows(sol, g_t, tolerance))
    closed = ResidualReport(
        name="curvature_closedness",
        rows=tuple(rows),
        tolerance=tolerance,
        metadata={"realness_defect": realness},
    )

    integral = nearest = deviation = None
    kappa = prop_defect = None
    npts = 0
    notes = []
    chart = sol.input.chart_info if hasattr(sol.input, "chart_info") else {}
    kind = chart.get("kind")
    if kind == "flat":
        integral, nearest, deviation = 0.0, 0, 0.0
        notes.append("flat chart: curvature blocks vanish identically, integral 0")
    elif kind == "fubini_study" and chart.get("n") == 1:
        integral, nearest, deviation, npts, kappa, prop_defect, extra = (
            _projective_line_integral(sol, chart["scale"], min_quadrature_points)
        )
        notes.extend(extra)
        notes.append(
            "single compact-base integral only; integrality of general "
            "periods is not machine-checked"
        )
    else:
        notes.append(
            "class integral skipped: no compact-base chart recipe for this metric"
        )

    form = CurvatureForm(g_t=g_t, w_z=w_z, w_zbar=w_zbar, realness_defect=realness)
    return CurvatureReport(
        form=form,
        closedness=closed,
        class_integral=integral,
        nearest_integer=nearest,
        integral_deviation=deviation,
        quadrature_points=npts,
        kappa=kappa,
        proportionality_defect=prop_defect,
        notes=tuple(notes),
    )


def _closedness_rows(sol: Solution, g_t, tolerance):
    """dF = 0 splits into the second-order flow identity (dt dz dzbar part)
    and the symmetry of spatial gradients of (g_ij)_t (dz dz dzbar part)."""
    n = sol.n
    yield from _second_order_flow_rows(sol, "dF_dt_dz_dzbar", tolerance)

    if n >= 2:
        for m in range(g_t.entries[0][0].order + 1):
            worst, scale = 0.0, 0.0
            valid = min(
                g_t.entries[i][j].coeffs[m].valid_degree - 1
                for i in range(n)
                for j in range(n)
            )
            for j in range(n):
                for k in range(n):
                    for i in range(k + 1, n):
                        a = dz(g_t.entries[i][j].coeffs[m], k, allow_exhausted=True)
                        b = dz(g_t.entries[k][j].coeffs[m], i, allow_exhausted=True)
                        resid = jet_add(a, jet_scale(b, -1.0))
                        v = min(resid.valid_degree, valid)
                        if v >= 0:
                            worst = _max(worst, max_abs_coeff(resid, v))
                            scale = _max(scale, max_abs_coeff(a, v), max_abs_coeff(b, v))
            yield _row("dF_dz_dz_dzbar", m, valid, worst, scale, tolerance)


def _projective_line_integral(sol: Solution, scale: float, min_points: int):
    """Integrate F/(2 pi) over the projective line at t = 0.

    The t = 0 slice of the calibrated form is -(i/kappa) g^(1) dz^dzbar.
    On this chart g^(1) is a constant multiple gamma of the metric itself
    (verified, not assumed), and the metric has the global closed-form
    profile scale/(1+|z|^2)^2, so the quadrature integrates that profile in
    polar coordinates with refinement until the value settles.
    """
    notes = []
    cal = calibrate(sol)
    if not cal.matched:
        return None, None, None, 0, None, None, (
            "class integral skipped: calibration found no matching convention factor",
        )
    kappa = cal.kappa

    h00 = sol.input.h.entries[0][0]
    g1 = sol.g.entries[0][0].coeffs[1]
    gamma = (g1.constant_term / h00.constant_term).real
    prop = max_coeff_diff(g1, jet_scale(h00, gamma)) / max(1.0, abs(gamma))
    notes.append(f"g^(1) = gamma * h with gamma = {gamma:.12g}")

    # integral of h_closed over the chart, polar product rule, r = tan(chi)
    def profile(r):
        return scale / (1.0 + r * r) ** 2

    n_theta = 16
    n_r = max(32, min_points // n_theta)
    prev = None
    value = None
    npts = 0
    for _ in range(8):
        nodes, weights = np.polynomial.legendre.leggauss(n_r)
        chi = 0.25 * math.pi * (nodes + 1.0)
        wchi = 0.25 * math.pi * weights
        r = np.tan(chi)
        jac = 1.0 / np.cos(chi) ** 2
        radial = float(np.sum(profile(r) * r * jac * wchi))
        theta_w = 2.0 * math.pi / n_theta
        value = radial * theta_w * n_theta  # integrand is angle-independent
        npts = n_r * n_theta
        if prev is not None and abs(value - prev) <= 1e-10 * max(1.0, abs(value)):
            break
        prev = value
        n_r *= 2

    integral = -gamma * value / (math.pi * kappa)
    nearest = int(round(integral))
    return integral, nearest, abs(integral - nearest), npts, kappa, prop, tuple(notes)


# ---------------------------------------------------------------------------
# Fiber smoothness at t = 0
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SmoothnessReport:
    a_base: float
    a_expected: float
    a_deviation: float
    w_inv_linear: float
    is_smooth: bool
    tolerance: float

    def as_dict(self) -> dict:
        return {
            "a_base": self.a_base,
            "a_expected": self.a_expected,
            "a_deviation": self.a_deviation,
            "w_inv_linear": self.w_inv_linear,
            "is_smooth": self.is_smooth,
            "tolerance": self.tolerance,
        }


def smoothness_check(sol: Solution, tolerance: float = 1e-9) -> SmoothnessReport:
    """Leading fiber behavior at t = 0.

    e^u = t(a + b t + ...) with a = c det h nonzero, and w^{-1} = a_w t +
    O(t^2).  Substituting t = r^2 turns the fiber metric into
    (4/a_w)(dr^2 + (a_w/2)^2 r^2 phi^2): the angular factor closes up
    smoothly exactly when a_w = 1, so the verdict reads the computed linear
    coefficient rather than echoing the configured c.
    """
    a_jet = sol.exp_u.coeffs[1]
    a_base = a_jet.constant_term.real
    det_h = jet_det(sol.input.h)
    expected = sol.config.c * det_h.constant_term.real
    w_lin = sol.w_inv.coeffs[1].constant_term.real
    return SmoothnessReport(
        a_base=a_base,
        a_expected=expected,
        a_deviation=abs(a_base - expected),
        w_inv_linear=w_lin,
        is_smooth=abs(w_lin - 1.0) <= 1e-6,
        tolerance=tolerance,
    )


# ---------------------------------------------------------------------------
# Fault injection for negative controls
# ---------------------------------------------------------------------------


def perturb_solution(sol: Solution, target: str, order: int, eps: float) -> Solution:
    """Return a copy of the solution with one corrupted coefficient.

    Targets: ``v`` bumps the order-``order`` potential coefficient (constant
    and x1^2 monomial, so both value and Hessian based checks see it), ``g``
    bumps the (0,0) metric entry the same way, ``w`` bumps the constant
    coefficient of w_inv.  Derived series are left untouched: the point is to
    hand the verifier an inconsistent object.
    """
    ctx = sol.input.ctx
    bump_exp = tuple([2] + [0] * (ctx.nvars - 1))

    def bumped(jet: Jet) -> Jet:
        c = jet.coeffs.copy()
        c[0] += eps
        c[ctx.rank_of(bump_exp)] += eps
        return Jet(ctx, c, jet.valid_degree)

    if target == "v":
        if order > sol.v.order:
            raise InvalidInputError(f"v has no order-{order} coefficient")
        coeffs = list(sol.v.coeffs)
        coeffs[order] = bumped(coeffs[order])
        return replace(
            sol,
            v=TJet(coeffs),
            perturbations=sol.perturbations + (f"v:{order}:{eps}",),
        )
    if target == "g":
        if order > sol.g.entries[0][0].order:
            raise InvalidInputError(f"g has no order-{order} coefficient")
        n = sol.n
        rows = [[sol.g.entries[i][j] for j in range(n)] for i in range(n)]
        coeffs = list(rows[0][0].coeffs)
        coeffs[order] = bumped(coeffs[order])
        rows[0][0] = TJet(coeffs)
        return replace(
            sol,
            g=HermitianJetMatrix(rows),
            perturbations=sol.perturbations + (f"g:{order}:{eps}",),
        )
    if target == "w":
        if order > sol.w_inv.order:
            raise InvalidInputError(f"w_inv has no order-{order} coefficient")
        coeffs = list(sol.w_inv.coeffs)
        c = coeffs[order].coeffs.copy()
        c[0] += eps
        coeffs[order] = Jet(ctx, c, coeffs[order].valid_degree)
        return replace(
            sol,
            w_inv=TJet(coeffs),
            perturbations=sol.perturbations + (f"w:{order}:{eps}",),
        )
    raise InvalidInputError(f"unknown perturbation target {target!r} (use v, g or w)")
