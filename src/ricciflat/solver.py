"""Order-by-order construction of the metric series from initial data.

The construction solves the singular evolution system

    t dv/dt = -1 + c e^{-v} det g,
    H(v) + c dg/dt = 0,           g|_{t=0} = h,  e^v|_{t=0} = c det h,

where H is the mixed Hessian of ``geometry.complex_mixed_hessian`` and
v is the regular part of the log-volume potential u = log t + v.  Working in
(v, g) keeps every series pole-free: e^u vanishes at t = 0, so u itself has a
log t singularity no jet could hold, and w has a 1/(ct) pole, so only the
regular reciprocal w^{-1} = c t / (1 + t dv/dt) is ever materialized.

One order of the recursion (state holds v_0..v_m, g^(0)..g^(m)):

    g^(m+1) = -(1/(c(m+1))) H(v_m)
    v_{m+1} = [t^{m+1}] (c e^{-v} det g) / (m+2),   with v_{m+1} set to 0
              inside e^{-v} while extracting the coefficient.

The divisor m+2 comes from the fact that v_{m+1} occurs linearly in the
right-hand side with coefficient -c e^{-v_0} det h = -1 identically; that
identity is asserted at startup rather than re-derived each run, and it is
what makes the recursion non-resonant (the divisor never vanishes).  Each
order consumes two spatial degrees, so v_m is trusted two degrees less than
v_{m-1}: to D - 2m when h is trusted through the cap D.  When the top order
ends with no trusted degree, ``solve`` warns and the checks skip it.

The new coefficient [t^{m+1}] det g comes from ``geometry.det_coefficient``,
the row-multilinear expansion over order tuples on top of the package's one
memoised Laplace expansion; only that coefficient is formed per order, the
lower ones are kept in the state.  ``solve`` keeps one memo of minors for
the whole run, from det h in ``init_state`` to the last ``step``: a minor
whose rows come from orders summing to s is expanded once, at order s, and
read again by every later order.  The n-row minors are read once and not
kept, and the memo is cleared before ``solve`` assembles its outputs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

from .errors import DegeneracyError, InvalidInputError
from .geometry import (
    HermitianJetMatrix,
    InitialData,
    complex_mixed_hessian,
    det_coefficient,
)
from .jets import (
    Jet,
    TJet,
    cauchy_sum,
    jet_add,
    jet_log,
    jet_mul,
    jet_reciprocal,
    jet_scale,
    max_abs_coeff,
    t_derive,
    t_exp,
    t_exp_coeff,
    t_integrate,
    t_reciprocal,
)


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of one solve.

    ``c`` is the constant the moment-map Laplacian must equal (1 gives the
    smooth fiber extension, other values a cone); ``t_order`` is the
    truncation order M in t; ``space_degree`` the spatial degree cap D.
    Order m is trusted two spatial degrees less than order m - 1, starting
    from the validity of log(c det h) (D, or less when h itself is trusted
    only to a lower degree).  When the top orders run out of trusted degrees
    the solver continues with negative validity (downstream checks skip
    those coefficients) and warns.
    """

    c: float = 1.0
    t_order: int = 8
    space_degree: int = 12
    tolerance: float = 1e-9

    def __post_init__(self):
        if not math.isfinite(self.c) or self.c == 0:
            raise InvalidInputError(f"constant c must be finite and nonzero, got {self.c}")
        if self.t_order < 1:
            raise InvalidInputError("t_order must be >= 1")
        if self.space_degree < 2:
            raise InvalidInputError("space_degree must be >= 2")


@dataclass(frozen=True)
class SolverState:
    """Immutable snapshot after ``m`` completed orders."""

    config: SolverConfig
    initial: InitialData
    m: int
    v: tuple[Jet, ...]                      # v_0 .. v_m
    g: tuple                                # g^(0) .. g^(m), entry matrices
    exp_neg_v: tuple[Jet, ...]              # coefficients of e^{-v}
    det_g: tuple[Jet, ...]                  # coefficients of det g


@dataclass(frozen=True)
class Solution:
    """Full solver output.

    ``v`` is the regular part of the log-volume potential u = log t + v;
    ``exp_u`` is t e^v, whose constant term vanishes and whose linear
    coefficient is c det h; ``w_inv`` is the fiber weight reciprocal with
    zero constant term.  ``validity`` is the ``valid_degree`` of each v_m
    (reported as ``validity_per_order``).  ``w_inv_crosscheck`` records the
    worst coefficient gap between the assembled w_inv and
    c * integral(det g)/det g.
    """

    config: SolverConfig
    input: InitialData
    v: TJet
    g: HermitianJetMatrix
    w_inv: TJet
    exp_u: TJet
    w_inv_crosscheck: float
    base_identity_margin: float
    warnings: tuple[str, ...] = ()
    perturbations: tuple[str, ...] = ()

    @property
    def n(self) -> int:
        return self.input.n

    @property
    def t_order(self) -> int:
        return self.v.order

    @property
    def validity(self) -> tuple[int, ...]:
        return self.v.valid_degrees


def init_state(
    initial: InitialData, config: SolverConfig, minors: dict | None = None
) -> SolverState:
    """Order-0 state: v_0 = log(c det h), g^(0) = h.  ``minors`` is the memo
    of minors that the later steps of the same solve share (a fresh one when
    absent)."""
    ctx = initial.ctx
    if config.space_degree != ctx.cap:
        raise InvalidInputError(
            f"config space_degree {config.space_degree} does not match the "
            f"initial data degree cap {ctx.cap}"
        )
    det_h = det_coefficient((initial.h.entries,), 0, {} if minors is None else minors)
    scaled = jet_scale(det_h, config.c)
    if scaled.constant_term.real <= 0 or abs(scaled.constant_term.imag) > 1e-12:
        raise InvalidInputError(
            f"c * det h at the base point must be real positive, "
            f"got {scaled.constant_term}"
        )
    v0 = jet_log(scaled)
    return SolverState(
        config=config,
        initial=initial,
        m=0,
        v=(v0,),
        g=(initial.h.entries,),
        exp_neg_v=(jet_reciprocal(scaled),),
        det_g=(det_h,),
    )


def step(state: SolverState, minors: dict | None = None) -> SolverState:
    """Advance one order: produce g^(m+1) and v_{m+1}.  ``minors`` is the
    memo of minors of g^(0)..g^(m) that the earlier orders of this solve
    filled (a fresh one when absent); it must not outlive that solve."""
    m = state.m
    c = state.config.c
    hess = complex_mixed_hessian(state.v[m])
    g_new = hess.map(lambda e: jet_scale(e, -1.0 / (c * (m + 1)))).entries

    det_new = det_coefficient(state.g + (g_new,), m + 1, {} if minors is None else minors)

    # [t^{m+1}] e^{-v} with v_{m+1} pinned to zero: the k = m+1 term of the
    # exponential recursion drops out.
    x_partial = t_exp_coeff(state.v, state.exp_neg_v, m + 1, sign=-1.0)

    # [t^{m+1}] e^{-v} det g, with x_partial as the t^{m+1} coefficient of e^{-v}.
    e_coeff = cauchy_sum(
        state.exp_neg_v + (x_partial,), state.det_g + (det_new,), m + 1, range(m + 2)
    )
    v_new = jet_scale(e_coeff, c / (m + 2))

    x_new = jet_add(x_partial, jet_scale(jet_mul(v_new, state.exp_neg_v[0]), -1.0))

    return replace(
        state,
        m=m + 1,
        v=state.v + (v_new,),
        g=state.g + (g_new,),
        exp_neg_v=state.exp_neg_v + (x_new,),
        det_g=state.det_g + (det_new,),
    )


def solve(initial: InitialData, config: SolverConfig) -> Solution:
    """Run the recursion to the configured order and assemble the outputs."""
    minors = {}
    state = init_state(initial, config, minors)

    # The extraction divisor hard-codes the unit identity c e^{-v0} det h = 1.
    unit = jet_mul(jet_scale(state.exp_neg_v[0], config.c), state.det_g[0])
    margin = max(
        abs(unit.constant_term - 1.0),
        max_abs_coeff(jet_add(unit, unit.ctx.constant(-1.0))),
    )
    if margin > max(config.tolerance, 1e-8):
        raise DegeneracyError(
            f"normalization identity c e^(-v0) det h = 1 fails by {margin:.3e}"
        )

    for _ in range(config.t_order):
        state = step(state, minors)
    minors.clear()

    v = TJet(state.v)
    notes = []
    if v.valid_degrees[-1] < 0:
        msg = (
            f"space_degree {config.space_degree} < 2*t_order + 2 = "
            f"{2 * config.t_order + 2}: top orders have no trusted spatial "
            f"coefficients and are skipped by checks"
        )
        warnings.warn(msg, stacklevel=2)
        notes.append(msg)
    n = initial.n
    g = HermitianJetMatrix(
        [
            [TJet([state.g[m][i][j] for m in range(config.t_order + 1)]) for j in range(n)]
            for i in range(n)
        ]
    )

    # e^u = t e^v, zero constant term by construction.
    ctx = initial.ctx
    exp_v = t_exp(v, jet_reciprocal(state.exp_neg_v[0]))
    exp_u = TJet((ctx.zero(),) + exp_v.coeffs)

    # w^{-1} = c t / (1 + t dv/dt), a regular series with zero constant term.
    one_plus = TJet((ctx.constant(1.0),) + t_derive(v).coeffs)
    recip = t_reciprocal(one_plus)
    w_inv = TJet((ctx.zero(),) + tuple(jet_scale(cj, config.c) for cj in recip.coeffs))

    # Cross-multiplied form of w^{-1} = c * integral(det g) / det g.
    det_g = TJet(state.det_g)
    resid = w_inv * det_g - t_integrate(det_g) * config.c
    cross = max(max_abs_coeff(c) for c in resid.coeffs)

    return Solution(
        config=config,
        input=initial,
        v=v,
        g=g,
        w_inv=w_inv,
        exp_u=exp_u,
        w_inv_crosscheck=cross,
        base_identity_margin=margin,
        warnings=tuple(notes),
    )
