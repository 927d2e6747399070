"""First-order convex surrogates of the secrecy objective.

Given the current design (trajectory and power), this module builds the two
convex subproblems of the alternating scheme: the trajectory subproblem, a
``StructuredConvexProgram`` over the N positions, held slot by slot, with
power fixed, which ``solver.solve`` solves; and the power subproblem, a
``PowerProgram`` over the N powers with the trajectory fixed, which
``solver.water_fill`` solves in closed form. It also gives the
slack-reformulated objective both are tangent to. ``expansion_from`` is
the one place a design is linearized: from ``model.link``'s values at the
design it returns the tight slacks and each slot's loss bound, affine in
the two SNRs, keeping ``model.Link``'s rows: Bob's, then Eve's. Each
builder takes only that linearization and substitutes every slack by the
value at which it binds at the subproblem's optimum, so neither program
carries a slack variable.

Both subproblem objectives under-estimate the slack-reformulated objective
everywhere and agree with it (value and gradient) at the expansion point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import (
    LN2,
    PowerProfile,
    ScenarioConfig,
    Trajectory,
    line_segment_trajectory,
    link,
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


# ---------------------------------------------------------------------------
# Program containers
# ---------------------------------------------------------------------------

@dataclass(eq=False, kw_only=True)
class StructuredConvexProgram:
    """The trajectory program: a concave maximization over N positions q_n.

    objective(q) = constant
                   - sum_n,a quad_beta[n, a] * (q[n, a] - quad_c[n, a])^2
                   - sum_r,n lin_k[r, n] / (lin_slack(q)[r, n] + lin_o[r, n])
    subject to     lin_a[r, n] . q[n] <= lin_b[r, n]          (distance rows)
                   |q[n + 1] - q[n]| <= speed_h[n]            (speed rows)
                   q[0] = start[0], q[N - 1] = start[N - 1]   (endpoints)

    Every array is slot-major: quad_c, quad_beta and start are (N, 2), and
    the R rows of each slot are lin_a (R, N, 2) and lin_b, lin_k, lin_o
    (R, N), R = 2 at finite L (Bob, then Eve) and 1 at L = inf; speed_h is
    (N - 1,). quad_beta >= 0, one weight per coordinate; each row carries a
    reciprocal term of its slack with lin_k >= 0 and lin_o > 0, so the term
    is finite and concave wherever the row holds; speed_h > 0.

    ``start`` is a strictly feasible point whose first and last rows are the
    fixed endpoints. ``n`` = 2N counts the coordinates, and ``layout`` maps
    the block name "q" to the slots.
    """

    constant: float
    quad_c: np.ndarray
    quad_beta: np.ndarray
    lin_a: np.ndarray
    lin_b: np.ndarray
    lin_k: np.ndarray
    lin_o: np.ndarray
    speed_h: np.ndarray
    start: np.ndarray
    layout: dict
    n: int

    def lin_slack(self, x: np.ndarray) -> np.ndarray:
        """lin_b - lin_a . x per slot: each row's slack at the positions x (N, 2)."""
        return self.lin_b - np.add.reduce(self.lin_a * x, axis=2)

    def objective_value(self, x: np.ndarray, lin_slack=None) -> float:
        """The objective at the positions x (N, 2); -inf where a reciprocal
        term is undefined. ``lin_slack``, if given, is ``self.lin_slack(x)``."""
        x = np.asarray(x, dtype=float)
        diff = x - self.quad_c
        f = self.constant - float((self.quad_beta * (diff * diff)).sum())
        den = (self.lin_slack(x) if lin_slack is None else lin_slack) + self.lin_o
        if den.min(initial=math.inf) <= 0.0:
            return -math.inf
        return f - float((self.lin_k / den).sum())


class PowerProgram(NamedTuple):
    """The power program: maximize

        constant + c.x + sum_k alpha[k] * ln(1 + a[k] * x[k])

    over 0 <= x <= ub and the average power budget sum_k x[k] <= budget,
    with c < 0, a > 0 and alpha > 0. ``solver.water_fill`` solves it."""

    n: int
    constant: float
    c: np.ndarray
    a: np.ndarray
    alpha: np.ndarray
    ub: np.ndarray
    budget: float
    layout: dict

    def objective_value(self, x: np.ndarray) -> float:
        """The objective at x; -inf where a log term is undefined."""
        x = np.asarray(x, dtype=float)
        arg = 1.0 + self.a * x
        if arg.min() <= 0.0:
            return -math.inf
        return self.constant + float(self.c @ x) + float((self.alpha * np.log(arg)).sum())


# ---------------------------------------------------------------------------
# Expansion points
# ---------------------------------------------------------------------------

class ExpansionPoint(NamedTuple):
    """A design linearized by ``expansion_from``: its tight slacks, squared
    distances, each slot's loss bound loss0 + k[0]*u[0] + k[1]*u[1], and
    rates. Each (2, N) array holds Bob's row, then Eve's, as in ``model.Link``."""

    q_hat: np.ndarray    # (N, 2)
    p_hat: np.ndarray    # (N,)
    d2: np.ndarray       # (2, N) squared distances
    u: np.ndarray        # (2, N) SNRs
    z: np.ndarray        # (2, N) dispersion roots, floored at Z_MIN
    loss0: np.ndarray    # (N,)
    k: np.ndarray        # (2, N) the loss bound's slopes in the SNRs
    rates: np.ndarray    # model.slot_rates_pre_clamp of the design


def expansion_from(traj: Trajectory, pw: PowerProfile, cfg: ScenarioConfig) -> ExpansionPoint:
    """Linearize the slack-reformulated objective at the design (traj, pw).

    The slacks are tight: d2 is each receiver's squared distance, u = xi0*p/d2
    the exact SNR and z the exact dispersion root floored at ``Z_MIN``, all
    from ``model.link``, in its rows: Bob's, then Eve's. Each slot's loss,
    log2(1 + u[1]) + pen_b*z[0] + pen_e*z[1], is bounded above by
    loss0 + k[0]*u[0] + k[1]*u[1]: Eve's log, which is concave, by its
    tangent at her SNR, and each root z >= sqrt(V(u)) by ``_required_z(u)``,
    the least z its linearized row allows. The bound is affine in the two
    SNRs and tight at the design on every slot whose root is not floored;
    at L = inf both penalties vanish and k[0] is 0. Both subproblem builders
    read it from here.

    Raises ValueError if the design and the scenario disagree on N, or if
    a power is negative.
    """
    if len(traj) != cfg.N or len(pw) != cfg.N:
        raise ValueError("trajectory, power profile, and scenario disagree on N")
    d2, u, v, root, logs, rates = link(traj.points, pw.p, cfg)
    z = np.maximum(root, Z_MIN)
    dv = _disp_slope(u)
    eve_slope = 1.0 / ((1.0 + u[1]) * LN2)
    pen = np.array(cfg.pen)[:, None]
    pen_z = pen * _required_z(0.0, u, z, v, dv)
    loss0 = logs[1] - u[1] * eve_slope + pen_z[0] + pen_z[1]
    k = pen * dv / (2.0 * z)
    k[1] += eve_slope
    return ExpansionPoint(traj.points, pw.p, d2, u, z, loss0, k, rates)


def _disp_slope(u_hat: np.ndarray) -> np.ndarray:
    """Slope of the dispersion 1-(1+u)^-2 at u_hat."""
    return 2.0 * (1.0 + u_hat) ** (-3.0)


def _required_z(u, u_hat: np.ndarray, z_hat: np.ndarray, v_hat: np.ndarray,
                dv_hat: np.ndarray) -> np.ndarray:
    """Smallest z satisfying the linearized dispersion row at u, where the
    dispersion has value v_hat and slope dv_hat at u_hat: affine in u, and
    >= 0 at u = 0 because the dispersion is concave and 0 at 0."""
    return (v_hat + dv_hat * (u - u_hat) + z_hat * z_hat) / (2.0 * z_hat)


# ---------------------------------------------------------------------------
# Trajectory subproblem
# ---------------------------------------------------------------------------

def build_trajectory_subproblem(ep: ExpansionPoint, cfg: ScenarioConfig) -> StructuredConvexProgram:
    """Convex trajectory subproblem at the linearized design ``ep``, power fixed.

    The variables are the N positions. Bob's log rate is linearized in his
    squared distance, which stays exact (one quad term per coordinate).
    Each receiver's squared distance is under-estimated by its
    linearization l(q) = d2_hat + grad.(q - q_hat), and each slot's loss by
    the bound of ``expansion_from`` at u = xi0*p / l(q), so each receiver's
    slot term is -k / l(q) with k = xi0*p*scale*ep.k[r] >= 0. It is carried on
    the distance row l(q) >= l_lo. Silent slots keep their quad terms with
    weight 0 and their rows with k = 0, so every field that no design
    changes is the scenario's own (``_parts``). At L = inf, ep.k[0] is 0 and
    Bob's rows are left out. The start is the design moved ``START_SHIFT``
    of the way toward the straight segment (``_trajectory_start``), off the
    speed rows a solved design leaves tight.
    """
    N = cfg.N
    fields, segment = _parts(cfg)
    scale = (1.0 - cfg.eps_b) / N

    # Objective: the exact log of Bob's rate linearized in the squared
    # distance, less the constant of each slot's loss bound.
    xp = cfg.xi0 * ep.p_hat
    d2_b = ep.d2[0]
    b_n = xp / (d2_b * (d2_b + xp) * LN2)
    a_n = np.log2(1.0 + ep.u[0])
    constant = float(np.add.reduce(scale * (a_n + b_n * d2_b - b_n * cfg.H * cfg.H)))
    constant -= float(np.add.reduce(scale * ep.loss0))

    # Per receiver w, the row l(q) >= l_lo as -grad.q <= d2_hat - grad.q_hat - l_lo,
    # whose slack plus l_lo is l(q); lin_a is -grad. The receivers are Bob
    # and Eve, or Eve alone at L = inf.
    rows = slice(0 if math.isfinite(cfg.L) else 1, 2)
    lin_a = -2.0 * (ep.q_hat - cfg.receivers[rows])
    lin_b = ep.d2[rows] + np.add.reduce(lin_a * ep.q_hat, axis=2) - fields["lin_o"]
    lin_k = xp * scale * ep.k[rows]
    prog = StructuredConvexProgram(
        constant=constant, quad_beta=(scale * b_n)[:, None].repeat(2, axis=1), lin_a=lin_a,
        lin_b=lin_b, lin_k=lin_k, start=ep.q_hat, layout={"q": np.arange(N)}, n=2 * N,
        **fields,
    )
    prog.start = _trajectory_start(prog, segment)
    return prog


def _parts(cfg: ScenarioConfig) -> tuple:
    """What no design changes, read-only and kept on the scenario from its first call
    on: the trajectory program's fields quad_c, lin_o and speed_h, and the
    straight segment."""
    if "_parts" in vars(cfg):
        return vars(cfg)["_parts"]
    N, rows = cfg.N, 2 if math.isfinite(cfg.L) else 1
    fields = dict(quad_c=np.tile(cfg.w_b[:2], (N, 1)),
                  lin_o=np.full((rows, N), cfg.H * cfg.H * (1.0 - L_LOWER_RELAX)),
                  speed_h=np.full(N - 1, cfg.V_max * cfg.delta_t))
    parts = (fields, line_segment_trajectory(cfg).points)
    for a in (parts[1], *fields.values()):
        a.flags.writeable = False
    object.__setattr__(cfg, "_parts", parts)
    return parts


def _trajectory_start(prog: StructuredConvexProgram, segment: np.ndarray) -> np.ndarray:
    """The design ``prog.start`` moved ``START_SHIFT`` of the way toward
    the segment, the shift halved until the point is strictly inside every
    distance row and speed row, or the design itself if the shift reaches
    0. The design is strictly inside, and so is the segment unless it is
    forced, so every speed row of the moved point is too; only a distance
    row can need a smaller shift."""
    q = prog.start
    toward = segment - q
    theta = START_SHIFT
    while theta > 0.0:
        x = q + theta * toward
        y = x[1:] - x[:-1]
        speed_slack = prog.speed_h * prog.speed_h - (y * y).sum(axis=1)
        if min(prog.lin_slack(x).min(initial=math.inf), speed_slack.min(initial=math.inf)) > 0.0:
            return x
        theta *= 0.5
    return q


# ---------------------------------------------------------------------------
# Power subproblem
# ---------------------------------------------------------------------------

def build_power_subproblem(ep: ExpansionPoint, cfg: ScenarioConfig) -> PowerProgram:
    """Convex power subproblem at the linearized design ``ep``, trajectory fixed.

    The variables are the N powers. Bob's rate keeps its exact log in P, and
    each slot's loss is the bound of ``expansion_from`` at the SNRs g*P,
    affine in P. Each slot's objective is then alpha*ln(1 + g_b*P) + c*P,
    and ``solver.water_fill`` solves the program in closed form.
    """
    N = cfg.N
    scale = (1.0 - cfg.eps_b) / N
    g = cfg.xi0 / ep.d2
    return PowerProgram(
        n=N, constant=-float(np.add.reduce(scale * ep.loss0)),
        c=-scale * (g[0] * ep.k[0] + g[1] * ep.k[1]), a=g[0], alpha=np.full(N, scale / LN2),
        ub=np.full(N, cfg.P_max), budget=N * cfg.P_bar, layout={"p": np.arange(N)},
    )


# ---------------------------------------------------------------------------
# Slack-reformulated objective
# ---------------------------------------------------------------------------

def slack_rate_objective(q_points, p, u_e, z_b, z_e, cfg: ScenarioConfig) -> float:
    """Slack-reformulated objective the surrogates are tangent to.

    (1/N) sum (1-eps_b) [log2(1 + xi0 P / |q-w_b|^2) - log2(1+u_e)
                         - pen_b z_b - pen_e z_e]
    """
    pen_b, pen_e = cfg.pen
    logs = link(np.asarray(q_points, dtype=float), np.asarray(p, dtype=float), cfg).logs
    terms = (
        logs[0]
        - np.log2(1.0 + np.asarray(u_e, dtype=float))
        - pen_b * np.asarray(z_b, dtype=float)
        - pen_e * np.asarray(z_e, dtype=float)
    )
    return float(np.sum(terms) * (1.0 - cfg.eps_b) / cfg.N)
