"""First-order convex surrogates of the secrecy objective.

Given the current design (trajectory and power), this module builds the two
convex subproblems of the alternating scheme as ``StructuredConvexProgram``
instances: the trajectory subproblem (the 2N position coordinates, power
fixed) and the power subproblem (the N powers, trajectory fixed, whose
average-power budget is its one linear row), and the slack-reformulated
objective they are tangent to. ``expansion_from`` is the one place a
design is linearized: it returns the tight slacks and each slot's loss
bound, affine in the two SNRs. Each builder substitutes every slack by the
value at which it binds at the subproblem's optimum, so neither program
carries a slack variable.

Both subproblem objectives under-estimate the slack-reformulated objective
everywhere and agree with it (value and gradient) at the expansion point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .model import (
    LN2,
    PowerProfile,
    ScenarioConfig,
    Trajectory,
    dispersion,
    line_segment_trajectory,
    penalty_coeffs,
    sq_dists,
)

# Floor on dispersion-root expansion values. The linearized dispersion
# constraint degenerates at z_hat = 0 (its left side could not dominate a
# positive right side), so expansion points keep z_hat >= Z_MIN.
Z_MIN = 1e-6
# The linearized squared distance to each receiver is lower-bounded by
# altitude^2 relaxed by this relative margin, so a slot hovering exactly
# above a receiver still leaves the bound a non-empty strict interior.
L_LOWER_RELAX = 1e-6
# A trajectory solve starts this fraction of the way from the design toward
# the straight segment, a warm start off the boundary (Yildirim & Wright,
# SIAM J. Optim. 2002). A solved design's speed rows are tight to about
# 1e-6 m^2; the move lifts each speed slack to at least
# START_SHIFT * h * (h - h_seg), where h_seg is the segment's step.
START_SHIFT = 0.01


def _empty(*shape, dtype=float):
    """Default of a term or row family's array: no entries."""
    return field(default_factory=lambda: np.zeros((0, *shape), dtype=dtype))


# ---------------------------------------------------------------------------
# Canonical convex program container
# ---------------------------------------------------------------------------

@dataclass(eq=False, kw_only=True)
class StructuredConvexProgram:
    """Concave maximization over linear, box, speed, and hyperbolic rows.

    objective(x) = constant + c.x
                   + sum_k log_alpha[k] * ln(1 + log_a[k] * x[log_i[k]])
                   - sum_k quad_beta[k] * (x[quad_i[k]] - quad_c[k])^2
                   - sum_r lin_k[r] / (lin_slack(x)[r] + lin_o[r])
    subject to     sum_k lin_a[r, k] x[lin_i[r, k]] <= lin_b[r]  (linear rows)
                   |x[speed_j[k]] - x[speed_i[k]]| <= speed_h[k]   (speed rows)
                   x[i]*x[j] >= k, x[i] >= 0, x[j] >= 0  (hyperbolic rows)
                   lb <= x <= ub                          (boxes, +-inf allowed)
                   x[i] = v                               (fixed coordinates)

    Every term and row family is a set of index and coefficient arrays,
    empty unless given. Log and quad terms have one entry per coordinate,
    with log_alpha and quad_beta >= 0. The linear rows share one arity k:
    ``lin_i`` and ``lin_a`` have shape (m, k) and hold each row's
    coordinates and coefficients (a coordinate may repeat). Each row r
    carries a reciprocal term of its slack with lin_k[r] >= 0 and
    lin_o[r] > 0 (lin_k[r] = 0 for a plain row), so the term is finite and
    concave wherever the row holds. A speed row bounds the distance between
    two points whose coordinates are the index pairs ``speed_i[k]`` and
    ``speed_j[k]`` (arrays of shape (m, 2)), with ``speed_h > 0``.

    ``start`` is a strictly feasible point. ``layout`` maps variable-block
    names to index arrays.
    """

    n: int
    lb: np.ndarray
    ub: np.ndarray
    c: np.ndarray
    constant: float = 0.0
    log_i: np.ndarray = _empty(dtype=int)
    log_a: np.ndarray = _empty()
    log_alpha: np.ndarray = _empty()
    quad_i: np.ndarray = _empty(dtype=int)
    quad_c: np.ndarray = _empty()
    quad_beta: np.ndarray = _empty()
    lin_i: np.ndarray = _empty(0, dtype=int)
    lin_a: np.ndarray = _empty(0)
    lin_b: np.ndarray = _empty()
    lin_k: np.ndarray = _empty()
    lin_o: np.ndarray = _empty()
    speed_i: np.ndarray = _empty(2, dtype=int)
    speed_j: np.ndarray = _empty(2, dtype=int)
    speed_h: np.ndarray = _empty()
    hyper_i: np.ndarray = _empty(dtype=int)
    hyper_j: np.ndarray = _empty(dtype=int)
    hyper_k: np.ndarray = _empty()
    fixed_idx: np.ndarray = _empty(dtype=int)
    fixed_val: np.ndarray = _empty()
    start: np.ndarray
    layout: dict

    def lin_slack(self, x: np.ndarray) -> np.ndarray:
        """lin_b - (row sums of lin_a * x[lin_i]): each linear row's slack at x."""
        return self.lin_b - (self.lin_a * x[self.lin_i]).sum(axis=1)

    def objective_value(self, x: np.ndarray, lin_slack=None) -> float:
        """The objective at x; -inf where a log or reciprocal term is
        undefined. ``lin_slack``, if given, is ``self.lin_slack(x)``. A term
        family the program does not have is skipped."""
        x = np.asarray(x, dtype=float)
        f = self.constant + float(self.c @ x)
        if self.log_i.size:
            arg = 1.0 + self.log_a * x[self.log_i]
            if arg.min() <= 0.0:
                return -math.inf
            f += float((self.log_alpha * np.log(arg)).sum())
        if self.quad_i.size:
            diff = x[self.quad_i] - self.quad_c
            f -= float((self.quad_beta * (diff * diff)).sum())
        if self.lin_b.size:
            den = (self.lin_slack(x) if lin_slack is None else lin_slack) + self.lin_o
            if den.min() <= 0.0:
                return -math.inf
            f -= float((self.lin_k / den).sum())
        return f


# ---------------------------------------------------------------------------
# Expansion points
# ---------------------------------------------------------------------------

class ExpansionPoint(NamedTuple):
    """A design linearized by ``expansion_from``: its tight slacks, squared
    distances, and each slot's loss bound loss0 + k_b*u_b + k_e*u_e."""

    q_hat: np.ndarray    # (N, 2)
    p_hat: np.ndarray    # (N,)
    d2_b: np.ndarray
    d2_e: np.ndarray
    u_hat_b: np.ndarray
    u_hat_e: np.ndarray
    z_hat_b: np.ndarray
    z_hat_e: np.ndarray
    loss0: np.ndarray
    k_b: np.ndarray
    k_e: np.ndarray


def expansion_from(traj: Trajectory, pw: PowerProfile, cfg: ScenarioConfig) -> ExpansionPoint:
    """Linearize the slack-reformulated objective at the design (traj, pw).

    The slacks are tight: d2 is each receiver's squared distance, u = xi0*p/d2
    the exact SNR and z the exact dispersion root floored at ``Z_MIN``. Each
    slot's loss, log2(1 + u_e) + pen_b*z_b + pen_e*z_e, is bounded above by
    loss0 + k_b*u_b + k_e*u_e: Eve's log, which is concave, by its tangent
    at u_hat_e, and each root z >= sqrt(V(u)) by ``_required_z(u)``, the
    least z its linearized row allows. The bound is affine in the two SNRs
    and tight at the design on every slot whose root is not floored; at
    L = inf both penalties vanish and k_b is 0. Both subproblem builders read
    it from here.

    Raises ValueError if the design and the scenario disagree on N, or if
    a power is negative.
    """
    if len(traj) != cfg.N or len(pw) != cfg.N:
        raise ValueError("trajectory, power profile, and scenario disagree on N")
    if np.any(pw.p < 0.0):
        raise ValueError("powers must be non-negative")
    d2_b = sq_dists(traj.points, cfg.w_b, cfg.H)
    d2_e = sq_dists(traj.points, cfg.w_e, cfg.H)
    u_b = cfg.xi0 * pw.p / d2_b
    u_e = cfg.xi0 * pw.p / d2_e
    z_b = np.maximum(np.sqrt(dispersion(u_b)), Z_MIN)
    z_e = np.maximum(np.sqrt(dispersion(u_e)), Z_MIN)
    pen_b, pen_e = penalty_coeffs(cfg)
    eve_slope = 1.0 / ((1.0 + u_e) * LN2)
    loss0 = (np.log2(1.0 + u_e) - u_e * eve_slope
             + pen_b * _required_z(0.0, u_b, z_b) + pen_e * _required_z(0.0, u_e, z_e))
    k_b = pen_b * _disp_lin(u_b)[1] / (2.0 * z_b)
    k_e = eve_slope + pen_e * _disp_lin(u_e)[1] / (2.0 * z_e)
    return ExpansionPoint(traj.points, pw.p, d2_b, d2_e, u_b, u_e, z_b, z_e, loss0, k_b, k_e)


def _disp_lin(u_hat: np.ndarray):
    """Value and slope of the dispersion 1-(1+u)^-2 at u_hat."""
    v = 1.0 - (1.0 + u_hat) ** (-2.0)
    dv = 2.0 * (1.0 + u_hat) ** (-3.0)
    return v, dv


def _required_z(u: np.ndarray, u_hat: np.ndarray, z_hat: np.ndarray) -> np.ndarray:
    """Smallest z satisfying the linearized dispersion row at u: affine in u,
    and >= 0 at u = 0 because v is concave with v(0) = 0."""
    v, dv = _disp_lin(u_hat)
    return (v + dv * (u - u_hat) + z_hat * z_hat) / (2.0 * z_hat)


# ---------------------------------------------------------------------------
# Trajectory subproblem
# ---------------------------------------------------------------------------

def build_trajectory_subproblem(
    traj: Trajectory, pw: PowerProfile, cfg: ScenarioConfig
) -> StructuredConvexProgram:
    """Convex trajectory subproblem linearized at the design (traj, pw),
    power fixed.

    The variables are the 2N coordinates of the positions, slot by slot.
    Bob's log rate is linearized in his squared distance, which stays exact
    (the quad terms). Each receiver's squared distance is under-estimated
    by its linearization l(q) = d2_hat + grad.(q - q_hat), and each slot's
    loss by the bound of ``expansion_from`` at u = xi0*p / l(q), so each
    receiver's slot term is -k / l(q) with k = xi0*p*scale*k_r >= 0. It is
    carried on the linear row l(q) >= l_lo, which silent slots keep with
    k = 0. At L = inf, k_b is 0 and Bob's rows are left out. The start is
    the design moved ``START_SHIFT`` of the way toward the straight segment
    (``_trajectory_start``), off the speed rows a solved design leaves
    tight.
    """
    N = cfg.N
    ep = expansion_from(traj, pw, cfg)
    scale = (1.0 - cfg.eps_b) / N
    q_idx = np.arange(2 * N).reshape(N, 2)

    # Objective: the exact log of Bob's rate linearized in the squared
    # distance, less the constant of each slot's loss bound.
    xp = cfg.xi0 * ep.p_hat
    b_n = xp / (ep.d2_b * (ep.d2_b + xp) * LN2)
    a_n = np.log2(1.0 + ep.u_hat_b)
    constant = float(np.sum(scale * (a_n + b_n * ep.d2_b - b_n * cfg.H * cfg.H)))
    constant -= float(np.sum(scale * ep.loss0))
    curved = np.repeat(b_n > 0.0, 2)
    quad_i = q_idx.ravel()[curved]
    quad_c = np.tile(cfg.w_b[:2], N)[curved]
    quad_beta = np.repeat(scale * b_n, 2)[curved]

    # Per receiver, the row l(q) >= l_lo as -grad.q <= d2_hat - grad.q_hat - l_lo,
    # whose slack plus l_lo is l(q).
    l_lo = cfg.H * cfg.H * (1.0 - L_LOWER_RELAX)
    receivers = [(cfg.w_b, ep.d2_b, ep.k_b), (cfg.w_e, ep.d2_e, ep.k_e)]
    if not math.isfinite(cfg.L):
        del receivers[0]
    grads = [2.0 * (ep.q_hat - w[:2]) for w, _, _ in receivers]
    rhs = [d2 - np.sum(g * ep.q_hat, axis=1) - l_lo for (_, d2, _), g in zip(receivers, grads)]
    lin_k = [xp * scale * k for _, _, k in receivers]
    rows = len(receivers) * N
    prog = StructuredConvexProgram(
        n=2 * N, lb=np.full(2 * N, -np.inf), ub=np.full(2 * N, np.inf), c=np.zeros(2 * N),
        constant=constant, quad_i=quad_i, quad_c=quad_c, quad_beta=quad_beta,
        lin_i=np.tile(q_idx, (len(receivers), 1)), lin_a=-np.concatenate(grads),
        lin_b=np.concatenate(rhs), lin_k=np.concatenate(lin_k), lin_o=np.full(rows, l_lo),
        speed_i=q_idx[:-1], speed_j=q_idx[1:], speed_h=np.full(N - 1, cfg.V_max * cfg.delta_t),
        fixed_idx=np.concatenate([q_idx[0], q_idx[N - 1]]),
        fixed_val=np.concatenate([cfg.q_I[:2], cfg.q_F[:2]]),
        start=ep.q_hat.ravel(), layout={"q": q_idx.ravel()},
    )
    prog.start = _trajectory_start(prog, line_segment_trajectory(cfg).points)
    return prog


def _trajectory_start(prog: StructuredConvexProgram, segment: np.ndarray) -> np.ndarray:
    """The design ``prog.start`` moved ``START_SHIFT`` of the way toward
    the segment, the shift halved until the point is strictly inside every
    distance row and speed row, or the design itself if the shift reaches
    0. The design is strictly inside, and so is the segment unless it is
    forced, so every speed row of the moved point is too; only a distance
    row can need a smaller shift."""
    q = prog.start
    toward = segment.ravel() - q
    theta = START_SHIFT
    while theta > 0.0:
        x = q + theta * toward
        y = x[prog.speed_j] - x[prog.speed_i]
        speed_slack = prog.speed_h * prog.speed_h - (y * y).sum(axis=1)
        if min(prog.lin_slack(x).min(initial=math.inf), speed_slack.min(initial=math.inf)) > 0.0:
            return x
        theta *= 0.5
    return q


# ---------------------------------------------------------------------------
# Power subproblem
# ---------------------------------------------------------------------------

def build_power_subproblem(
    traj: Trajectory, pw: PowerProfile, cfg: ScenarioConfig
) -> StructuredConvexProgram:
    """Convex power subproblem linearized at the design (traj, pw), trajectory
    fixed.

    The variables are the N powers. Bob's rate keeps its exact log in P, and
    each slot's loss is the bound of ``expansion_from`` at the SNRs g*P,
    affine in P. Each slot's objective is then alpha*ln(1 + g_b*P) + c*P,
    and ``solver.water_fill`` solves the program in closed form.
    """
    N = cfg.N
    ep = expansion_from(traj, pw, cfg)
    scale = (1.0 - cfg.eps_b) / N
    g_b = cfg.xi0 / ep.d2_b
    g_e = cfg.xi0 / ep.d2_e
    p_ix = np.arange(N)
    return StructuredConvexProgram(
        n=N, lb=np.zeros(N), ub=np.full(N, cfg.P_max), c=-scale * (g_b * ep.k_b + g_e * ep.k_e),
        constant=-float(np.sum(scale * ep.loss0)),
        log_i=p_ix, log_a=g_b, log_alpha=np.full(N, scale / LN2),
        # the average power budget: one row over every slot
        lin_i=p_ix[None, :], lin_a=np.ones((1, N)), lin_b=np.array([N * cfg.P_bar]),
        lin_k=np.zeros(1), lin_o=np.ones(1),
        # strictly feasible start for the interior-point solver: uniform half-average power
        start=np.full(N, cfg.P_bar / 2.0), layout={"p": p_ix},
    )


# ---------------------------------------------------------------------------
# Slack-reformulated objective
# ---------------------------------------------------------------------------

def slack_rate_objective(q_points, p, u_e, z_b, z_e, cfg: ScenarioConfig) -> float:
    """Slack-reformulated objective the surrogates are tangent to.

    (1/N) sum (1-eps_b) [log2(1 + xi0 P / |q-w_b|^2) - log2(1+u_e)
                         - pen_b z_b - pen_e z_e]
    """
    pen_b, pen_e = penalty_coeffs(cfg)
    d2_b = sq_dists(np.asarray(q_points, dtype=float), cfg.w_b, cfg.H)
    p = np.asarray(p, dtype=float)
    u_e = np.asarray(u_e, dtype=float)
    terms = (
        np.log2(1.0 + cfg.xi0 * p / d2_b)
        - np.log2(1.0 + u_e)
        - pen_b * np.asarray(z_b, dtype=float)
        - pen_e * np.asarray(z_e, dtype=float)
    )
    return float(np.sum(terms) * (1.0 - cfg.eps_b) / cfg.N)
