"""Standalone evaluators of the surrogate objectives and of program
constraint margins, and a trajectory-program builder that makes every
array afresh, used by the tests as references for what the subproblem
builders and the solver compute."""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from uavsec.model import (
    LN2,
    PowerProfile,
    ScenarioConfig,
    Trajectory,
    line_segment_trajectory,
    sq_dists,
)
from uavsec.surrogate import (
    L_LOWER_RELAX,
    ExpansionPoint,
    StructuredConvexProgram,
    _trajectory_start,
    expansion_from,
)


@dataclass(frozen=True, eq=False)
class SurrogatePoint:
    """Free variables at which a surrogate objective is evaluated.

    ``q`` is used by the trajectory surrogate, ``p`` by the power surrogate;
    the dispersion roots may be omitted in the long-packet limit.
    """

    u_e: np.ndarray
    z_b: Optional[np.ndarray] = None
    z_e: Optional[np.ndarray] = None
    q: Optional[np.ndarray] = None
    p: Optional[np.ndarray] = None


def _z_or_zero(z, n):
    return np.zeros(n) if z is None else np.asarray(z, dtype=float)


def surrogate_value_q(
    ep: ExpansionPoint, point: SurrogatePoint, pw: PowerProfile, cfg: ScenarioConfig
) -> float:
    """Trajectory-surrogate objective at an arbitrary point."""
    if point.q is None:
        raise ValueError("trajectory surrogate needs point.q")
    pen_b, pen_e = cfg.pen
    p = np.asarray(pw.p, dtype=float)
    scale = (1.0 - cfg.eps_b) / cfg.N
    d2_hat = sq_dists(ep.q_hat, cfg.w_b, cfg.H)
    d2 = sq_dists(np.asarray(point.q, dtype=float), cfg.w_b, cfg.H)
    a_n = np.log2(1.0 + cfg.xi0 * p / d2_hat)
    b_n = cfg.xi0 * p / (d2_hat * (d2_hat + cfg.xi0 * p) * LN2)
    ue_hat = ep.u_hat_e
    u_e = np.asarray(point.u_e, dtype=float)
    terms = (
        a_n - b_n * (d2 - d2_hat)
        - np.log2(1.0 + ue_hat) - (u_e - ue_hat) / ((1.0 + ue_hat) * LN2)
        - pen_b * _z_or_zero(point.z_b, cfg.N)
        - pen_e * _z_or_zero(point.z_e, cfg.N)
    )
    return float(np.sum(terms) * scale)


def surrogate_value_p(
    traj: Trajectory, ep: ExpansionPoint, point: SurrogatePoint, cfg: ScenarioConfig
) -> float:
    """Power-surrogate objective at an arbitrary point."""
    if point.p is None:
        raise ValueError("power surrogate needs point.p")
    pen_b, pen_e = cfg.pen
    scale = (1.0 - cfg.eps_b) / cfg.N
    d2_b = sq_dists(traj.points, cfg.w_b, cfg.H)
    p = np.asarray(point.p, dtype=float)
    ue_hat = ep.u_hat_e
    u_e = np.asarray(point.u_e, dtype=float)
    terms = (
        np.log2(1.0 + cfg.xi0 * p / d2_b)
        - np.log2(1.0 + ue_hat) - (u_e - ue_hat) / ((1.0 + ue_hat) * LN2)
        - pen_b * _z_or_zero(point.z_b, cfg.N)
        - pen_e * _z_or_zero(point.z_e, cfg.N)
    )
    return float(np.sum(terms) * scale)


def constraint_margins(prog: StructuredConvexProgram, x: np.ndarray) -> np.ndarray:
    """Signed margins of every constraint at the positions x (>= 0 means
    satisfied).

    Speed rows report the linear-scale margin h - |x[n + 1] - x[n]|; the
    endpoints, which come last, report -|x[n] - start[n]| per coordinate.
    """
    x = np.asarray(x, dtype=float)
    return np.concatenate([
        prog.lin_slack(x).ravel(),
        prog.speed_h - np.linalg.norm(x[1:] - x[:-1], axis=1),
        -np.abs(x[[0, -1]] - prog.start[[0, -1]]).ravel(),
    ])


def max_violation(prog: StructuredConvexProgram, x: np.ndarray) -> float:
    m = constraint_margins(prog, x)
    return float(max(0.0, -np.min(m))) if m.size else 0.0


def trajectory_program_reference(traj: Trajectory, pw: PowerProfile,
                                 cfg: ScenarioConfig) -> StructuredConvexProgram:
    """The trajectory subproblem at the design (traj, pw), every array made
    afresh here, slot by slot, rather than kept on the scenario."""
    N = cfg.N
    ep = expansion_from(traj, pw, cfg)
    scale = (1.0 - cfg.eps_b) / N
    xp = cfg.xi0 * ep.p_hat
    b_n = xp / (ep.d2_b * (ep.d2_b + xp) * LN2)
    a_n = np.log2(1.0 + ep.u_hat_b)
    constant = float(np.sum(scale * (a_n + b_n * ep.d2_b - b_n * cfg.H * cfg.H)))
    constant -= float(np.sum(scale * ep.loss0))
    l_lo = cfg.H * cfg.H * (1.0 - L_LOWER_RELAX)
    receivers = [(cfg.w_b, ep.d2_b, ep.k_b), (cfg.w_e, ep.d2_e, ep.k_e)]
    if not math.isfinite(cfg.L):
        del receivers[0]
    grads = [2.0 * (ep.q_hat - w[:2]) for w, _, _ in receivers]
    rhs = [d2 - np.sum(g * ep.q_hat, axis=1) - l_lo for (_, d2, _), g in zip(receivers, grads)]
    prog = StructuredConvexProgram(
        constant=constant, quad_c=np.tile(cfg.w_b[:2], (N, 1)),
        quad_beta=np.column_stack([scale * b_n, scale * b_n]),
        lin_a=-np.array(grads), lin_b=np.array(rhs),
        lin_k=np.array([xp * scale * k for _, _, k in receivers]),
        lin_o=np.full((len(receivers), N), l_lo),
        speed_h=np.full(N - 1, cfg.V_max * cfg.delta_t), start=ep.q_hat,
        layout={"q": np.arange(N)}, n=2 * N,
    )
    prog.start = _trajectory_start(prog, line_segment_trajectory(cfg).points)
    return prog
