"""First-order convex surrogates of the secrecy objective.

Given the current design (trajectory and power), this module builds the two
convex subproblems of the alternating scheme as ``StructuredConvexProgram``
instances: the trajectory subproblem (the 2N position coordinates, power
fixed) and the power subproblem (the N powers, trajectory fixed, whose
average-power budget is its one linear row), and the slack-reformulated
objective they are tangent to. Each builder linearizes at the design's
expansion point, whose slacks are tight (``expansion_from``), and
substitutes every slack by the value at which it binds at the
subproblem's optimum, so neither program carries a slack variable.

Both subproblem objectives under-estimate the slack-reformulated objective
everywhere and agree with it (value and gradient) at the expansion point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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

@dataclass(frozen=True, eq=False)
class ExpansionPoint:
    """Design, with its slacks, around which the surrogates are linearized."""

    q_hat: np.ndarray    # (N, 2)
    p_hat: np.ndarray    # (N,)
    u_hat_b: np.ndarray
    u_hat_e: np.ndarray
    z_hat_b: np.ndarray
    z_hat_e: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q_hat, dtype=float)
        p = np.asarray(self.p_hat, dtype=float)
        object.__setattr__(self, "q_hat", q)
        object.__setattr__(self, "p_hat", p)
        n = q.shape[0]
        if q.ndim != 2 or q.shape[1] != 2:
            raise ValueError(f"q_hat must have shape (N, 2), got {q.shape}")
        for name in ("p_hat", "u_hat_b", "u_hat_e", "z_hat_b", "z_hat_e"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (n,):
                raise ValueError(f"{name} must have shape ({n},), got {arr.shape}")
            object.__setattr__(self, name, arr)
        if np.any(self.u_hat_b < 0.0) or np.any(self.u_hat_e < 0.0):
            raise ValueError("expansion SNR slacks must be non-negative")
        if np.any(self.z_hat_b < Z_MIN) or np.any(self.z_hat_e < Z_MIN):
            raise ValueError(f"expansion dispersion roots must be >= {Z_MIN}")


def expansion_from(traj: Trajectory, pw: PowerProfile, cfg: ScenarioConfig) -> ExpansionPoint:
    """Expansion point with tight slacks at the design (traj, pw).

    u is the exact SNR and z the exact dispersion root floored at ``Z_MIN``.
    Raises ValueError if the design and the scenario disagree on N.
    """
    if len(traj) != cfg.N or len(pw) != cfg.N:
        raise ValueError("trajectory, power profile, and scenario disagree on N")
    u_b = cfg.xi0 * pw.p / sq_dists(traj.points, cfg.w_b, cfg.H)
    u_e = cfg.xi0 * pw.p / sq_dists(traj.points, cfg.w_e, cfg.H)
    return ExpansionPoint(
        q_hat=traj.points, p_hat=pw.p, u_hat_b=u_b, u_hat_e=u_e,
        z_hat_b=np.maximum(np.sqrt(dispersion(u_b)), Z_MIN),
        z_hat_e=np.maximum(np.sqrt(dispersion(u_e)), Z_MIN),
    )


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
    by its linearization l(q) = d2_hat + grad.(q - q_hat), and the slacks
    of the slack-reformulated objective are replaced by the values at which
    they bind at any optimum, since the objective is monotone in each: the
    squared-distance slack by l(q), the SNR slack u by xi0*p / l(q), and the
    dispersion root z by ``_required_z(u)``, which is affine in u and never
    negative. Each receiver's slot term is then a constant minus k / l(q),
    k >= 0, carried on the linear row l(q) >= l_lo that keeps the slack's
    lower bound; silent slots keep the row with k = 0. In the long-packet
    limit the dispersion penalties vanish, and with them Bob's rows, since
    his SNR fed only his dispersion root. The start is the design moved
    ``START_SHIFT`` of the way toward the straight segment
    (``_trajectory_start``), off the speed rows a solved design leaves
    tight.
    """
    N = cfg.N
    ep = expansion_from(traj, pw, cfg)
    p = ep.p_hat
    scale = (1.0 - cfg.eps_b) / N
    pen_b, pen_e = penalty_coeffs(cfg)
    q_idx = np.arange(2 * N).reshape(N, 2)

    # Objective: Eve's log linearized in her SNR slack, and the exact log of
    # Bob's rate linearized in the squared distance.
    ue_hat = ep.u_hat_e
    constant = float(np.sum(scale * (-np.log2(1.0 + ue_hat) + ue_hat / ((1.0 + ue_hat) * LN2))))
    d2_b = sq_dists(ep.q_hat, cfg.w_b, cfg.H)
    a_n = np.log2(1.0 + cfg.xi0 * p / d2_b)
    b_n = cfg.xi0 * p / (d2_b * (d2_b + cfg.xi0 * p) * LN2)
    constant += float(np.sum(scale * (a_n + b_n * d2_b - b_n * cfg.H * cfg.H)))
    curved = np.repeat(b_n > 0.0, 2)
    quad_i = q_idx.ravel()[curved]
    quad_c = np.tile(cfg.w_b[:2], N)[curved]
    quad_beta = np.repeat(scale * b_n, 2)[curved]

    # Per receiver: the constant part of its dispersion penalty; k, which is
    # xi0*p times the slope in u of its slot term (the penalty's, plus Eve's
    # SNR term); and the row l(q) >= l_lo as
    # -grad.q <= d2_hat - grad.q_hat - l_lo, whose slack plus l_lo is l(q).
    l_lo = cfg.H * cfg.H * (1.0 - L_LOWER_RELAX)
    receivers = [(cfg.w_e, ue_hat, ep.z_hat_e, pen_e, 1.0 / ((1.0 + ue_hat) * LN2))]
    if math.isfinite(cfg.L):
        receivers.insert(0, (cfg.w_b, ep.u_hat_b, ep.z_hat_b, pen_b, 0.0))
    grads, rhs, lin_k = [], [], []
    for w, u_hat, z_hat, pen, snr_slope in receivers:
        _, dv_hat = _disp_lin(u_hat)
        constant -= float(np.sum(scale * pen * _required_z(0.0, u_hat, z_hat)))
        lin_k.append(cfg.xi0 * p * scale * (snr_slope + pen * dv_hat / (2.0 * z_hat)))
        grad = 2.0 * (ep.q_hat - w[:2])
        grads.append(grad)
        rhs.append(sq_dists(ep.q_hat, w, cfg.H) - np.sum(grad * ep.q_hat, axis=1) - l_lo)
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

    The variables are the N powers. Bob's rate keeps its exact log in P and
    Eve's log is linearized in her SNR g_e*P. Each dispersion root is set to
    the bound its linearized row gives, ``_required_z``, which is affine in P
    and never negative, so each slot's objective is alpha*ln(1 + g_b*P) + c*P
    and ``solver.water_fill`` solves the program in closed form.
    """
    N = cfg.N
    ep = expansion_from(traj, pw, cfg)
    scale = (1.0 - cfg.eps_b) / N
    ue_hat = ep.u_hat_e
    g_b = cfg.xi0 / sq_dists(traj.points, cfg.w_b, cfg.H)
    g_e = cfg.xi0 / sq_dists(traj.points, cfg.w_e, cfg.H)
    pen_b, pen_e = penalty_coeffs(cfg)
    # per slot: alpha*ln(1 + g_b*P) - scale*(loss0 + slope*P); the penalties
    # are 0 at L=inf
    slope = g_e / ((1.0 + ue_hat) * LN2)
    loss0 = np.log2(1.0 + ue_hat) - ue_hat / ((1.0 + ue_hat) * LN2)
    for pen, g, u_hat, z_hat in ((pen_b, g_b, ep.u_hat_b, ep.z_hat_b),
                                 (pen_e, g_e, ue_hat, ep.z_hat_e)):
        _, dv_hat = _disp_lin(u_hat)
        slope = slope + pen * dv_hat * g / (2.0 * z_hat)
        loss0 = loss0 + pen * _required_z(0.0, u_hat, z_hat)

    p_ix = np.arange(N)
    return StructuredConvexProgram(
        n=N, lb=np.zeros(N), ub=np.full(N, cfg.P_max), c=-scale * slope,
        constant=-float(np.sum(scale * loss0)),
        log_i=p_ix, log_a=g_b, log_alpha=np.full(N, scale / LN2),
        # the average power budget: one row over every slot
        lin_i=p_ix[None, :], lin_a=np.ones((1, N)), lin_b=np.array([N * cfg.P_bar]),
        lin_k=np.zeros(1), lin_o=np.ones(1),
        # strictly feasible start for the barrier solver: uniform half-average power
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
