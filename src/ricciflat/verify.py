"""Independent residual checks on assembled solutions.

Each operation re-derives an identity the construction is supposed to
satisfy and reports the worst coefficient residual per t-order, relative to
the magnitude of the terms entering the identity.  Identities involving the
fiber weight w are rewritten in the regular quantities (v, w_inv) first; the
1/(ct) pole of w is spatially constant, so it drops out of every spatial
derivative and cancels explicitly elsewhere (see docs/conventions.md for the
worked rewrites).  Coefficients beyond the recorded spatial validity are
never read: orders without trusted coefficients appear as skipped rows, not
as passes.  The checks of one run share one ``SolutionView``, where det g
and adj g come from one cofactor expansion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .closed_form import calibrate
from .errors import DegeneracyError, InvalidInputError
from .geometry import (
    HermitianJetMatrix,
    adjugate,
    complex_mixed_hessian,
    jet_det,
    minor_det,
)
from .jets import (
    Jet,
    TJet,
    jet_scale,
    max_abs,
    max_abs_coeff,
    max_coeff_diff,
    nan_max,
    partial_rows,
    partial_runs,
    stacked_rows,
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
        return dict(
            vars(self),
            rows=[dict(vars(r)) for r in self.rows],
            passed=self.passed,
            max_relative_residual=self.max_relative_residual,
            skipped_orders=list(self.skipped_orders),
        )


def _row(identity, m, valid, resid, scale, tol) -> ResidualRow:
    """A non-finite residual or scale fails the row."""
    if valid < 0:
        return ResidualRow(identity, m, valid, 0.0, max(scale, 1.0), "skipped")
    ok = math.isfinite(resid) and math.isfinite(scale) and resid <= tol * max(scale, 1.0)
    return ResidualRow(identity, m, valid, resid, max(scale, 1.0), "pass" if ok else "fail")


# ---------------------------------------------------------------------------
# Core system residuals
# ---------------------------------------------------------------------------


class SolutionView:
    """What several checks of one verify run read, derived from the
    ``Solution`` alone and each formed once, on first read.  det g and adj g
    share one memo of the minors of g, which ``adj_g`` drops.  ``checks``
    names the run's checks: one pass over the H(v_m) makes both flow
    identities' rows when both are read."""

    def __init__(self, sol: Solution, checks=()):
        self.sol = sol
        self.checks = frozenset(checks)
        self._det = None
        self._minors = {}
        self._g_t = {}
        self._flow = {}

    @cached_property
    def v_t(self) -> TJet:
        return t_derive(self.sol.v)

    def g_t(self, i: int, j: int) -> TJet:
        if (i, j) not in self._g_t:
            self._g_t[i, j] = t_derive(self.sol.g.entries[i][j])
        return self._g_t[i, j]

    def det_g(self) -> TJet:
        if self._det is None:
            self._det = jet_det(self.sol.g, self._minors)
        return self._det

    def adj_g(self) -> list:
        """adj g, after which the view holds no minor of g."""
        adj = adjugate(self.sol.g, self._minors)
        self._minors = {}
        return adj

    def flow(self, kind: str) -> list:
        """(t_order, valid_degree, residual, scale) per row of ``kind``."""
        if kind not in self._flow:
            both = "system" in self.checks and self.checks & {"consequence", "curvature"}
            kinds = ("hessian_flow", "second_order_flow") if both else (kind,)
            self._flow.update(_flow_residuals(self.sol, kinds))
        return self._flow[kind]


def _view(sol, check: str) -> SolutionView:
    """The run's view, or a view of a bare Solution for one check."""
    return sol if isinstance(sol, SolutionView) else SolutionView(sol, (check,))


def _flow_residuals(sol: Solution, kinds) -> dict:
    """Rows of the flow identities in ``kinds``, per t-order m:

    * hessian_flow       H(v_m) + c (m+1) g^(m+1) = 0
    * second_order_flow  (1/c) H(dv/dt) + d^2 g/dt^2 = 0, in the coefficient
      form (m+1)/c H(v_{m+1}) + (m+1)(m+2) g^(m+2) = 0

    Both rows that read H(v_m), hessian_flow m and second_order_flow m - 1,
    are made from one H(v_m).  A row is read off the stacked entries of
    H(v_m) and g^(m+1), each through the least of its own validity and H's.
    """
    c = sol.config.c
    out = {kind: [] for kind in kinds}
    g = [e for row in sol.g.entries for e in row]
    for m in range(0 if "hessian_flow" in kinds else 1, sol.t_order):
        vm = sol.v.coeffs[m]
        hess = [e for row in complex_mixed_hessian(vm).entries for e in row]
        g_next = [e.coeffs[m + 1] for e in g]
        valid = vm.valid_degree - 2
        flow = second = (0.0, 0.0)
        for h, gm in stacked_rows((hess, g_next), [min(valid, e.valid_degree) for e in g_next]):
            if "hessian_flow" in kinds:
                flow = _fold(flow, h, gm * (c * (m + 1)))
            if m >= 1 and "second_order_flow" in kinds:
                second = _fold(second, h * (m / c), gm * float(m * (m + 1)))
        if "hessian_flow" in kinds:
            out["hessian_flow"].append((m, valid, *flow))
        if m >= 1 and "second_order_flow" in kinds:
            out["second_order_flow"].append((m - 1, valid, *second))
    return out


def _fold(acc, a: np.ndarray, b: np.ndarray):
    """(worst, scale) of ``acc`` with the largest |a + b| and |a|, |b| of arrays."""
    worst, scale = acc
    return nan_max(worst, max_abs(a + b)), nan_max(scale, max_abs(a), max_abs(b))


def _series_rows(identity, a: TJet, b: TJet, factor, scaled_by: TJet, tolerance):
    """Rows of a + factor b = 0, one per t-order, each read through the
    trusted degree of a_m and b_m, scaled by the coefficient of ``scaled_by``."""
    start = a.ctx.deg_start
    for m in range(min(a.order, b.order) + 1):
        am, bm = a.coeffs[m], b.coeffs[m]
        valid = min(am.valid_degree, bm.valid_degree)
        end = start[valid + 1] if valid >= 0 else 0
        resid = max_abs(am.prefix[:end] + bm.prefix[:end] * factor)
        scale = max_abs_coeff(scaled_by.coeffs[m], valid)
        yield _row(identity, m, valid, resid, scale, tolerance)


def residual_system(sol, tolerance: float = 1e-9) -> ResidualReport:
    """Residuals of the defining system on the assembled series:

    * hessian flow      H(v_m) + c (m+1) g^(m+1) = 0
    * volume growth     e^v (1 + t dv/dt) - c det g = 0
    * weight consistency  w_inv * det g - c * integral(det g) = 0
    """
    d = _view(sol, "system")
    sol = d.sol
    c = sol.config.c
    rows = [_row("hessian_flow", *r, tolerance) for r in d.flow("hessian_flow")]

    lhs = t_exp(sol.v) * TJet((sol.input.ctx.constant(1.0),) + d.v_t.coeffs)
    det_g = d.det_g()
    rows.extend(_series_rows("volume_growth", lhs, det_g, -c, lhs, tolerance))
    target = t_integrate(det_g) * c
    rows.extend(
        _series_rows("weight_consistency", sol.w_inv * det_g, target, -1.0, target, tolerance)
    )
    return ResidualReport(
        name="residual_system",
        rows=tuple(rows),
        tolerance=tolerance,
        metadata={"c": c, "t_order": sol.t_order},
    )


def residual_consequence(sol, tolerance: float = 1e-9) -> ResidualReport:
    """The second-order flow identity 4 w_{z_i zbar_j} + (g_ij)_tt = 0,
    rewritten pole-free as (1/c) H(dv/dt) + d^2 g/dt^2 = 0.

    The 1/(ct) singular part of w is spatially constant and vanishes under
    the mixed Hessian, which is what makes the rewrite exact.  This identity
    is redundant given the other two whenever c is nonzero; the check
    confirms that on every constructed solution.
    """
    d = _view(sol, "consequence")
    if d.sol.t_order < 3:
        raise InvalidInputError("consequence residual needs t_order >= 3")
    return ResidualReport(
        name="residual_consequence",
        rows=tuple(_row("second_order_flow", *r, tolerance) for r in d.flow("second_order_flow")),
        tolerance=tolerance,
        metadata={"c": d.sol.config.c, "orders_checked": d.sol.t_order - 1},
    )


def laplacian_moment(sol, tolerance: float = 1e-9) -> ResidualReport:
    """The moment map has constant metric Laplacian equal to c:

        g^{ij} w^{-1} (g_ij)_t + (w^{-1})_t = c.

    Both terms are regular in t because w^{-1} is; the metric inverse is
    assembled from the adjugate and the reciprocal determinant series.
    """
    d = _view(sol, "laplacian")
    sol = d.sol
    det_g, adj = d.det_g(), d.adj_g()
    if abs(det_g.coeffs[0].constant_term) < 1e-14:
        raise DegeneracyError("metric determinant vanishes at the base point")
    # g^{ij} = adj(g)_{ij} / det g; the scalar reciprocal factors out of the
    # trace, which keeps the series arithmetic quadratic instead of cubic.
    n = sol.n
    adj_trace = None
    for i in range(n):
        for k in range(n):
            term = adj[i][k] * d.g_t(k, i)
            # This is the cofactor's last read: free it before (g_t)_ki of
            # the next term is formed, so adj g and g_t are never both whole.
            adj[i][k] = None
            adj_trace = term if adj_trace is None else adj_trace + term

    delta = (sol.w_inv * t_reciprocal(det_g)) * adj_trace + t_derive(sol.w_inv)
    c = sol.config.c
    return ResidualReport(
        name="laplacian_moment",
        rows=tuple(_moment_rows(delta, c, tolerance)),
        tolerance=tolerance,
        metadata={"c": c},
    )


def _moment_rows(delta: TJet, c: float, tolerance):
    """Rows of delta = c, one per t-order: the largest |coefficient - target|
    through its trusted degree, the target c at order 0 and 0 past it."""
    for m, coeff in enumerate(delta.coeffs):
        p = coeff.prefix
        resid = nan_max(max_abs(p[:1] - (c if m == 0 else 0.0)), max_abs(p[1:]))
        yield _row("moment_laplacian", m, coeff.valid_degree, resid, abs(c), tolerance)


# ---------------------------------------------------------------------------
# Curvature 2-form and its cohomology class
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CurvatureReport:
    closedness: ResidualReport
    class_integral: float | None
    nearest_integer: int | None
    integral_deviation: float | None
    quadrature_points: int
    kappa: float | None
    proportionality_defect: float | None
    realness_defect: float
    notes: tuple[str, ...]
    # closedness, a finite realness defect, and on a chart with a
    # class-integral recipe an integral within tolerance of an integer;
    # decided where the chart is known
    passed: bool

    def as_dict(self) -> dict:
        return dict(vars(self), closedness=self.closedness.as_dict())


def curvature_and_class(sol, tolerance: float = 1e-9) -> CurvatureReport:
    """Check that the curvature form

        F = -((i/2)(g_ij)_t dz^dzbar + i w_{z_i} dt^dz - i w_{zbar_j} dt^dzbar)

    is real and closed (dF = 0 coefficientwise), and for supported bases
    integrate F/(2 pi) over the base at t = 0.  The blocks are read, not
    kept; w_{z_i} = (1/c) d(dv/dt)/dz_i is regular in t because the pole of
    w is spatially constant.

    The class integral is evaluated in the normalization 2/kappa, with
    kappa = 4/c checked by ``closed_form.calibrate``, which is the scaling
    that makes the form's periods integer multiples of 2 pi.  Supported
    bases: flat charts (integral is exactly zero) and the dimension-1
    projective chart, integrated with its global closed-form profile.  On
    those the check passes only with an integral computed and within
    ``tolerance`` (relative to max(1, |integral|)) of an integer; a skipped
    integral fails it.
    """
    d = _view(sol, "curvature")
    sol = d.sol
    n = sol.n
    g_t = HermitianJetMatrix([[d.g_t(i, j) for j in range(n)] for i in range(n)])

    # F is real when (g_ij)_t is Hermitian and w_{zbar_i} = conj(w_{z_i})
    realness = nan_max(g_t.hermitian_defect(), _weight_gradient_defect(d.v_t, sol.config.c))

    # dF = 0 splits into the second-order flow identity (dt dz dzbar part)
    # and the symmetry of spatial gradients of (g_ij)_t (dz dz dzbar part)
    rows = [_row("dF_dt_dz_dzbar", *r, tolerance) for r in d.flow("second_order_flow")]
    if n >= 2:
        rows += [_row("dF_dz_dz_dzbar", *r, tolerance) for r in _symmetry_rows(g_t)]
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
    recipe = True
    chart = sol.input.chart_info
    kind = chart.get("kind")
    if kind == "flat":
        integral, nearest, deviation = 0.0, 0, 0.0
        notes.append("flat chart: curvature blocks vanish identically, integral 0")
    elif kind == "fubini_study" and n == 1:
        integral, nearest, deviation, npts, kappa, prop_defect, extra = (
            _projective_line_integral(sol, chart["scale"])
        )
        notes.extend(extra)
        notes.append(
            "single compact-base integral only; integrality of general "
            "periods is not machine-checked"
        )
    else:
        recipe = False
        notes.append(
            "class integral skipped: no compact-base chart recipe for this metric"
        )
    integral_ok = not recipe or (
        deviation is not None and deviation <= tolerance * max(1.0, abs(integral))
    )

    return CurvatureReport(
        closedness=closed,
        class_integral=integral,
        nearest_integer=nearest,
        integral_deviation=deviation,
        quadrature_points=npts,
        kappa=kappa,
        proportionality_defect=prop_defect,
        realness_defect=realness,
        notes=tuple(notes),
        passed=closed.passed and integral_ok and math.isfinite(realness),
    )


def _weight_gradient_defect(vt: TJet, c: float) -> float:
    """Largest |conj(w_{z_i}) - w_{zbar_i}| over i and the orders of
    w_z = (1/c) d(dv/dt)/dz, each order from one gather of its partials."""
    worst = 0.0
    for cj in vt.coeffs:
        if cj.valid_degree >= 1:
            p = partial_rows(cj)
            w_z = (p[0::2] + p[1::2] * -1j) * 0.5 * (1.0 / c)
            w_zbar = (p[0::2] + p[1::2] * 1j) * 0.5 * (1.0 / c)
            worst = nan_max(worst, max_abs(np.conj(w_z) - w_zbar))
    return worst


def _symmetry_rows(g_t) -> list:
    """(t_order, valid_degree, residual, scale) per order of dz_k (g_ij)_t
    = dz_i (g_kj)_t for i > k, each order read through the least validity
    of its entries less one: per run of columns one gather of all 2n first
    partials of the n^2 entries, from which the terms are picked."""
    n, ctx = g_t.n, g_t.entries[0][0].ctx
    terms = [
        (i * n + j, k, k * n + j, i) for j in range(n) for k in range(n) for i in range(k + 1, n)
    ]
    left_e, left_k, right_e, right_i = np.array(terms).T
    picks, coords = np.divmod(np.arange(2 * n**3), 2 * n)
    rows = []
    for m in range(g_t.entries[0][0].order + 1):
        entries = [e.coeffs[m] for row in g_t.entries for e in row]
        valid = min(e.valid_degree for e in entries) - 1
        acc = (0.0, 0.0)
        if valid >= 0:
            stack = np.array([e.prefix[: ctx.deg_start[valid + 2]] for e in entries])
            for _, p in partial_runs(ctx, stack, picks, coords, ctx.deg_start[valid + 1]):
                p = p.reshape(n * n, n, 2, -1)
                dz = (p[:, :, 0] + p[:, :, 1] * -1j) * 0.5  # (d/dx - i d/dy)/2
                acc = _fold(acc, dz[left_e, left_k], dz[right_e, right_i] * -1.0)
        rows.append((m, valid, *acc))
    return rows


def _projective_line_integral(sol: Solution, scale: float):
    """Integrate F/(2 pi) over the projective line at t = 0.

    The t = 0 slice of the normalized form is -(i/kappa) g^(1) dz^dzbar,
    with kappa = 4/c once ``calibrate`` has matched the solution at it; a
    solution it does not match gets no integral.
    On this chart g^(1) is a constant multiple gamma of the metric itself
    (verified, not assumed), and the metric has the global closed-form
    profile scale/(1+|z|^2)^2, so the quadrature integrates that profile in
    polar coordinates, from 32 radial by 16 angular nodes, doubling the
    radial nodes until the value settles.
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
    n_r = 32
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
    verdict_matches_c: bool  # is_smooth exactly when c = 1

    @property
    def passed(self) -> bool:
        """a_base equals c det h(0), and the verdict agrees with c."""
        base_ok = self.a_deviation <= 1e-10 * max(1.0, abs(self.a_expected))
        return base_ok and self.verdict_matches_c

    def as_dict(self) -> dict:
        return dict(vars(self), passed=self.passed)


def smoothness_check(sol, tolerance: float = 1e-9) -> SmoothnessReport:
    """Leading fiber behavior at t = 0.

    e^u = t(a + b t + ...) with a = c det h nonzero, and w^{-1} = a_w t +
    O(t^2).  Substituting t = r^2 turns the fiber metric into
    (4/a_w)(dr^2 + (a_w/2)^2 r^2 phi^2): the angular factor closes up
    smoothly exactly when a_w = 1, so the verdict reads the computed linear
    coefficient rather than echoing the configured c; it is then compared
    with the c the solve was configured with.
    """
    sol = _view(sol, "smoothness").sol
    a_jet = sol.exp_u.coeffs[1]
    a_base = a_jet.constant_term.real
    # The constant term of det h is the determinant of the constant terms.
    full = tuple(range(sol.n))
    det_h0 = minor_det(sol.input.h.base_matrix().tolist(), full, full, {})
    c = sol.config.c
    expected = c * det_h0.real
    w_lin = sol.w_inv.coeffs[1].constant_term.real
    is_smooth = abs(w_lin - 1.0) <= 1e-6
    return SmoothnessReport(
        a_base=a_base,
        a_expected=expected,
        a_deviation=abs(a_base - expected),
        w_inv_linear=w_lin,
        is_smooth=is_smooth,
        tolerance=tolerance,
        verdict_matches_c=is_smooth == (abs(c - 1.0) <= 1e-12),
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
    hand the verifier an inconsistent object.  An order outside the series,
    or one trusted below a bumped degree (2; 0 for ``w``), is refused.
    """
    series = {"v": sol.v, "g": sol.g.entries[0][0], "w": sol.w_inv}.get(target)
    if series is None:
        raise InvalidInputError(f"unknown perturbation target {target!r} (use v, g or w)")
    name = "w_inv" if target == "w" else target
    if not 0 <= order <= series.order:
        raise InvalidInputError(f"{name} has no order {order}: its orders are 0..{series.order}")
    vd = series.coeffs[order].valid_degree
    need = 0 if target == "w" else 2
    if vd < need:
        raise InvalidInputError(
            f"{name} order {order} has valid_degree {vd}, below the degree {need} "
            f"it bumps: no check reads the bump there, so it cannot be seen"
        )
    ctx = sol.input.ctx
    coeffs = list(series.coeffs)
    c = np.pad(coeffs[order].prefix, (0, ctx.size - ctx.deg_start[vd + 1]))
    c[0] += eps
    if target != "w":
        c[ctx.rank_of((2,) + (0,) * (ctx.nvars - 1))] += eps
    coeffs[order] = Jet(ctx, c, vd)
    if target == "g":
        rows = [list(row) for row in sol.g.entries]
        rows[0][0] = TJet(coeffs)
        changed = {"g": HermitianJetMatrix(rows)}
    else:
        changed = {"v" if target == "v" else "w_inv": TJet(coeffs)}
    return replace(sol, perturbations=sol.perturbations + (f"{target}:{order}:{eps}",), **changed)
