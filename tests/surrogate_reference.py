"""Standalone evaluators of the surrogate objectives and of program
constraint margins, used by the property tests as references for what the
subproblem builders and the solver compute."""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from uavsec.model import LN2, PowerProfile, ScenarioConfig, Trajectory, sq_dists
from uavsec.surrogate import ExpansionPoint, StructuredConvexProgram, penalty_coeffs


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
    pen_b, pen_e = penalty_coeffs(cfg)
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
    pen_b, pen_e = penalty_coeffs(cfg)
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
    """Signed margins of every constraint at x (>= 0 means satisfied).

    Speed rows report the linear-scale margin h - |x[j] - x[i]|; fixed
    coordinates, which come last, report -|x[i] - v|.
    """
    x = np.asarray(x, dtype=float)
    lo = np.isfinite(prog.lb)
    hi = np.isfinite(prog.ub)
    return np.concatenate([
        x[lo] - prog.lb[lo],
        prog.ub[hi] - x[hi],
        prog.lin_b - prog.lin_A @ x,
        prog.speed_h - np.linalg.norm(x[prog.speed_j] - x[prog.speed_i], axis=1),
        x[prog.hyper_i] * x[prog.hyper_j] - prog.hyper_k,
        -np.abs(x[prog.fixed_idx] - prog.fixed_val),
    ])


def max_violation(prog: StructuredConvexProgram, x: np.ndarray) -> float:
    m = constraint_margins(prog, x)
    return float(max(0.0, -np.min(m))) if m.size else 0.0
