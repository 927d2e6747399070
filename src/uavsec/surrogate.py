"""First-order convex surrogates of the secrecy objective.

Given an expansion point (the current iterate), this module builds the two
convex subproblems of the alternating scheme as ``StructuredConvexProgram``
instances: the trajectory subproblem (positions plus slack variables, power
fixed) and the power subproblem (powers plus slack variables, trajectory
fixed), and the slack-reformulated objective they are tangent to.

Both subproblem objectives under-estimate the slack-reformulated objective
everywhere and agree with it (value and gradient) at the expansion point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import sparse

from .model import (
    LN2,
    PowerProfile,
    ScenarioConfig,
    Trajectory,
    dispersion,
    q_inv,
    sq_dists,
)

# Floor on dispersion-root expansion values. The linearized dispersion
# constraint degenerates at z_hat = 0 (its left side could not dominate a
# positive right side), so expansion points keep z_hat >= Z_MIN.
Z_MIN = 1e-6
# Relative inflation used to turn a boundary-feasible warm start into a
# strictly feasible one.
START_INFLATION = 1e-6
# The squared-distance slack is lower-bounded by altitude^2 relaxed by this
# relative margin, so a slot hovering exactly above a receiver still leaves
# the bound a non-empty strict interior.
L_LOWER_RELAX = 1e-6
# Empty index and coefficient arrays for the term and row families a
# subproblem does not use.
_NO_INDEX = np.zeros(0, dtype=int)
_NO_PAIRS = np.zeros((0, 2), dtype=int)
_NO_VALUE = np.zeros(0)


# ---------------------------------------------------------------------------
# Canonical convex program container
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class StructuredConvexProgram:
    """Concave maximization over linear, box, speed, and hyperbolic rows.

    objective(x) = constant + c.x
                   + sum_k log_alpha[k] * ln(1 + log_a[k] * x[log_i[k]])
                   - sum_k quad_beta[k] * (x[quad_i[k]] - quad_c[k])^2
    subject to     lin_A x <= lin_b
                   |x[speed_j[k]] - x[speed_i[k]]| <= speed_h[k]   (speed rows)
                   x[i]*x[j] >= k, x[i] >= 0, x[j] >= 0  (hyperbolic rows)
                   lb <= x <= ub                          (boxes, +-inf allowed)
                   x[i] = v                               (fixed coordinates)

    Every term and row family is a set of index and coefficient arrays. Log
    and quad terms have one entry per coordinate, with log_alpha and
    quad_beta >= 0. A speed row bounds the distance between two points whose
    coordinates are the index pairs ``speed_i[k]`` and ``speed_j[k]`` (arrays
    of shape (m, 2)), with ``speed_h > 0``.

    ``start`` is a strictly feasible point. ``reference`` is a (possibly
    boundary-)feasible point whose objective value the solved iterate must
    never fall below; the driver uses it to keep the surrogate sequence
    monotone. ``layout`` maps variable-block names to index arrays.
    """

    n: int
    lb: np.ndarray
    ub: np.ndarray
    c: np.ndarray
    constant: float
    log_i: np.ndarray
    log_a: np.ndarray
    log_alpha: np.ndarray
    quad_i: np.ndarray
    quad_c: np.ndarray
    quad_beta: np.ndarray
    lin_A: sparse.csr_matrix
    lin_b: np.ndarray
    speed_i: np.ndarray
    speed_j: np.ndarray
    speed_h: np.ndarray
    hyper_i: np.ndarray
    hyper_j: np.ndarray
    hyper_k: np.ndarray
    fixed_idx: np.ndarray
    fixed_val: np.ndarray
    start: np.ndarray
    layout: dict
    reference: Optional[np.ndarray] = None

    def objective_value(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        arg = 1.0 + self.log_a * x[self.log_i]
        if np.any(arg <= 0.0):
            return -math.inf
        diff = x[self.quad_i] - self.quad_c
        return (
            self.constant + float(self.c @ x)
            + float(np.sum(self.log_alpha * np.log(arg)))
            - float(np.sum(self.quad_beta * (diff * diff)))
        )


# ---------------------------------------------------------------------------
# Expansion points
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ExpansionPoint:
    """Iterate around which the surrogates are linearized."""

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
    """Expansion point with tight slacks at the given iterate.

    u is the exact SNR and z the exact dispersion root floored at ``Z_MIN``.
    """
    u_b = cfg.xi0 * pw.p / sq_dists(traj.points, cfg.w_b, cfg.H)
    u_e = cfg.xi0 * pw.p / sq_dists(traj.points, cfg.w_e, cfg.H)
    return ExpansionPoint(
        q_hat=traj.points, p_hat=pw.p, u_hat_b=u_b, u_hat_e=u_e,
        z_hat_b=np.maximum(np.sqrt(dispersion(u_b)), Z_MIN),
        z_hat_e=np.maximum(np.sqrt(dispersion(u_e)), Z_MIN),
    )


def next_expansion(prog: StructuredConvexProgram, x: np.ndarray, ep: ExpansionPoint) -> ExpansionPoint:
    """Expansion point at a solved iterate x of a subproblem built at ep.

    Blocks the program does not carry keep their value from ep; dispersion
    roots are floored at ``Z_MIN``.
    """
    lay = prog.layout

    def block(name, old):
        return x[lay[name]] if name in lay else old

    return ExpansionPoint(
        q_hat=x[lay["q"]].reshape(-1, 2) if "q" in lay else ep.q_hat,
        p_hat=block("p", ep.p_hat),
        u_hat_b=block("u_b", ep.u_hat_b),
        u_hat_e=block("u_e", ep.u_hat_e),
        z_hat_b=np.maximum(block("z_b", ep.z_hat_b), Z_MIN),
        z_hat_e=np.maximum(block("z_e", ep.z_hat_e), Z_MIN),
    )


def penalty_coeffs(cfg: ScenarioConfig):
    """Coefficients Qinv(eps)/(sqrt(L) ln2) on the dispersion roots.

    Both vanish in the long-packet limit L = inf.
    """
    if math.isinf(cfg.L):
        return 0.0, 0.0
    root = math.sqrt(cfg.L) * LN2
    return q_inv(cfg.eps_b) / root, q_inv(cfg.eps_e) / root


def _disp_lin(u_hat: np.ndarray):
    """Value and slope of the dispersion 1-(1+u)^-2 at u_hat."""
    v = 1.0 - (1.0 + u_hat) ** (-2.0)
    dv = 2.0 * (1.0 + u_hat) ** (-3.0)
    return v, dv


def _required_z(u: np.ndarray, u_hat: np.ndarray, z_hat: np.ndarray) -> np.ndarray:
    """Smallest z satisfying the linearized dispersion row at u."""
    v, dv = _disp_lin(u_hat)
    return (v + dv * (u - u_hat) + z_hat * z_hat) / (2.0 * z_hat)


# ---------------------------------------------------------------------------
# Parts shared by both subproblems
# ---------------------------------------------------------------------------

def _layout(cfg: ScenarioConfig, head: str, head_size: int, families):
    """Variable blocks: ``head``, then one block of N per slack family and
    receiver. ScenarioConfig keeps both epsilons in (0, 0.5), so both
    dispersion penalties are positive exactly when L is finite; in the
    long-packet limit the z blocks and Bob's blocks (his u feeds only his z)
    are omitted.
    """
    finite = math.isfinite(cfg.L)
    tags = ("b", "e") if finite else ("e",)
    blocks = [(head, head_size)] + [
        (f"{fam}_{tag}", cfg.N) for fam in families for tag in tags if fam != "z" or finite
    ]
    layout = {}
    pos = 0
    for name, size in blocks:
        layout[name] = np.arange(pos, pos + size)
        pos += size
    return layout, pos


def _shared_part(ep: ExpansionPoint, cfg: ScenarioConfig, layout: dict, nvar: int, u0: dict):
    """Objective, bounds, rows, start and reference entries both subproblems
    share: Eve's log linearized in u_e, the dispersion penalties with their
    linearized rows, the slack lower bounds, and the u and z entries of the
    start (from each receiver's start SNR slack ``u0[tag]``) and reference.

    Returns (lb, c, constant, rows, start, reference); ``rows`` is a list of
    row families for ``_linear_rows``.
    """
    scale = (1.0 - cfg.eps_b) / cfg.N
    pens = dict(zip("be", penalty_coeffs(cfg)))
    ue_hat = ep.u_hat_e
    constant = float(np.sum(scale * (-np.log2(1.0 + ue_hat) + ue_hat / ((1.0 + ue_hat) * LN2))))
    lb = np.full(nvar, -np.inf)
    c = np.zeros(nvar)
    start = np.zeros(nvar)
    reference = np.zeros(nvar)
    c[layout["u_e"]] = -scale / ((1.0 + ue_hat) * LN2)
    rows = []
    for tag, u_hat, z_hat in (("b", ep.u_hat_b, ep.z_hat_b), ("e", ep.u_hat_e, ep.z_hat_e)):
        if f"u_{tag}" not in layout:
            continue
        u_ix = layout[f"u_{tag}"]
        lb[u_ix] = 0.0
        start[u_ix] = u0[tag]
        reference[u_ix] = u_hat
        if f"z_{tag}" not in layout:
            continue
        z_ix = layout[f"z_{tag}"]
        lb[z_ix] = 0.0
        c[z_ix] = -scale * pens[tag]
        reference[z_ix] = z_hat
        start[z_ix] = np.maximum.reduce([
            z_hat * (1.0 + START_INFLATION),
            _required_z(u0[tag], u_hat, z_hat) * (1.0 + START_INFLATION) + 1e-15,
            np.full(cfg.N, 1e-12),
        ])
        # Linearized dispersion row 2*z_hat*z - z_hat^2 >= v + dv*(u - u_hat)
        # as dv*u - 2*z_hat*z <= dv*u_hat - v - z_hat^2
        v_hat, dv_hat = _disp_lin(u_hat)
        rows.append((
            np.column_stack([u_ix, z_ix]),
            np.column_stack([dv_hat, -2.0 * z_hat]),
            dv_hat * u_hat - v_hat - z_hat * z_hat,
        ))
    return lb, c, constant, rows, start, reference


def _linear_rows(nvar: int, families):
    """CSR matrix and right-hand side of stacked row families.

    A family is (cols, vals, rhs): ``cols`` and ``vals`` of shape
    (rows, nonzeros per row), ``rhs`` of shape (rows,).
    """
    row_ids = []
    first = 0
    for cols, _, rhs in families:
        row_ids.append(np.repeat(np.arange(first, first + rhs.size), cols.shape[1]))
        first += rhs.size
    A = sparse.csr_matrix(
        (
            np.concatenate([vals.ravel() for _, vals, _ in families]),
            (np.concatenate(row_ids), np.concatenate([cols.ravel() for cols, _, _ in families])),
        ),
        shape=(first, nvar),
    )
    return A, np.concatenate([rhs for _, _, rhs in families])


# ---------------------------------------------------------------------------
# Trajectory subproblem
# ---------------------------------------------------------------------------

def build_trajectory_subproblem(
    ep: ExpansionPoint, pw: PowerProfile, cfg: ScenarioConfig
) -> StructuredConvexProgram:
    """Convex trajectory subproblem at the expansion point, power fixed.

    Variables are the 2-D positions plus, per receiver, the SNR slack u, the
    dispersion root z, and the squared-distance slack l. In the long-packet
    limit the dispersion penalties vanish, so the z blocks (and for Bob, whose
    u feeds only its z, the u and l blocks too) are omitted.
    """
    N = cfg.N
    p = np.asarray(pw.p, dtype=float)
    if p.shape != (N,) or ep.q_hat.shape[0] != N:
        raise ValueError("expansion point, power profile, and scenario disagree on N")
    scale = (1.0 - cfg.eps_b) / N
    layout, nvar = _layout(cfg, "q", 2 * N, ("u", "z", "l"))
    q_idx = layout["q"].reshape(N, 2)
    receivers = [(tag, w, sq_dists(ep.q_hat, w, cfg.H), u_hat)
                 for tag, w, u_hat in (("b", cfg.w_b, ep.u_hat_b), ("e", cfg.w_e, ep.u_hat_e))
                 if f"l_{tag}" in layout]

    # Strictly feasible start slacks: l just below its linearized bound, u
    # just above the SNR it then allows.
    l_lo = cfg.H * cfg.H * (1.0 - L_LOWER_RELAX)
    l0, u0 = {}, {}
    for tag, _, d2_hat, u_hat in receivers:
        l0[tag] = np.maximum((1.0 - START_INFLATION) * d2_hat, 0.5 * (l_lo + d2_hat))
        u0[tag] = np.maximum.reduce([
            u_hat * (1.0 + START_INFLATION),
            np.where(p > 0.0, cfg.xi0 * p / l0[tag] * (1.0 + START_INFLATION), 0.0),
            np.full(N, 1e-12),
        ])
    lb, c, constant, rows, start, reference = _shared_part(ep, cfg, layout, nvar, u0)
    start[layout["q"]] = ep.q_hat.ravel()
    reference[layout["q"]] = ep.q_hat.ravel()

    # Objective: exact log of Bob's rate linearized in the squared distance.
    d2_b = sq_dists(ep.q_hat, cfg.w_b, cfg.H)
    a_n = np.log2(1.0 + cfg.xi0 * p / d2_b)
    b_n = cfg.xi0 * p / (d2_b * (d2_b + cfg.xi0 * p) * LN2)
    constant += float(np.sum(scale * (a_n + b_n * d2_b - b_n * cfg.H * cfg.H)))
    curved = np.repeat(b_n > 0.0, 2)
    quad_i = layout["q"][curved]
    quad_c = np.tile(cfg.w_b[:2], N)[curved]
    quad_beta = np.repeat(scale * b_n, 2)[curved]

    hyper_i, hyper_j, hyper_k = [], [], []
    for tag, w, d2_hat, _ in receivers:
        l_ix = layout[f"l_{tag}"]
        lb[l_ix] = l_lo
        start[l_ix] = l0[tag]
        reference[l_ix] = d2_hat
        # Squared distance under-estimator bounds l from above:
        # l - grad.q <= d2_hat - grad.q_hat
        grad = 2.0 * (ep.q_hat - w[:2])
        rows.append((
            np.column_stack([q_idx, l_ix]),
            np.column_stack([-grad, np.ones(N)]),
            d2_hat - grad[:, 0] * ep.q_hat[:, 0] - grad[:, 1] * ep.q_hat[:, 1],
        ))
        on = p > 0.0
        hyper_i.append(layout[f"u_{tag}"][on])
        hyper_j.append(l_ix[on])
        hyper_k.append(cfg.xi0 * p[on])
    lin_A, lin_b = _linear_rows(nvar, rows)

    return StructuredConvexProgram(
        n=nvar, lb=lb, ub=np.full(nvar, np.inf), c=c, constant=constant,
        log_i=_NO_INDEX, log_a=_NO_VALUE, log_alpha=_NO_VALUE,
        quad_i=quad_i, quad_c=quad_c, quad_beta=quad_beta,
        lin_A=lin_A, lin_b=lin_b,
        speed_i=q_idx[:-1], speed_j=q_idx[1:],
        speed_h=np.full(N - 1, cfg.V_max * cfg.delta_t),
        hyper_i=np.concatenate(hyper_i), hyper_j=np.concatenate(hyper_j),
        hyper_k=np.concatenate(hyper_k),
        fixed_idx=np.concatenate([q_idx[0], q_idx[N - 1]]),
        fixed_val=np.concatenate([cfg.q_I[:2], cfg.q_F[:2]]),
        start=start, layout=layout, reference=reference,
    )


# ---------------------------------------------------------------------------
# Power subproblem
# ---------------------------------------------------------------------------

def build_power_subproblem(
    traj: Trajectory, ep: ExpansionPoint, cfg: ScenarioConfig
) -> StructuredConvexProgram:
    """Convex power subproblem on a fixed trajectory.

    Bob's rate keeps its exact concave log in P; Eve's log and the dispersion
    penalties are linearized exactly as in the trajectory subproblem.
    """
    N = cfg.N
    if len(traj) != N or ep.p_hat.shape[0] != N:
        raise ValueError("trajectory, expansion point, and scenario disagree on N")
    scale = (1.0 - cfg.eps_b) / N
    layout, nvar = _layout(cfg, "p", N, ("u", "z"))
    p_ix = layout["p"]
    d2 = {"b": sq_dists(traj.points, cfg.w_b, cfg.H), "e": sq_dists(traj.points, cfg.w_e, cfg.H)}

    # Strictly feasible start: uniform half-average power, slacks tightened
    # to that power and then inflated.
    p0 = np.full(N, cfg.P_bar / 2.0)
    u0 = {tag: np.maximum(cfg.xi0 * p0 / d2[tag] * (1.0 + START_INFLATION), 1e-12)
          for tag in d2}
    lb, c, constant, rows, start, reference = _shared_part(ep, cfg, layout, nvar, u0)
    ub = np.full(nvar, np.inf)
    lb[p_ix] = 0.0
    ub[p_ix] = cfg.P_max
    start[p_ix] = p0
    reference[p_ix] = ep.p_hat

    # SNR slack rows xi0/d2 * P - u <= 0, then the average power budget
    # sum P <= N * P_bar.
    snr_rows = [
        (np.column_stack([p_ix, layout[f"u_{tag}"]]),
         np.column_stack([cfg.xi0 / d2[tag], -np.ones(N)]),
         np.zeros(N))
        for tag in ("b", "e") if f"u_{tag}" in layout
    ]
    budget = (p_ix[None, :], np.ones((1, N)), np.array([N * cfg.P_bar]))
    lin_A, lin_b = _linear_rows(nvar, snr_rows + [budget] + rows)

    return StructuredConvexProgram(
        n=nvar, lb=lb, ub=ub, c=c, constant=constant,
        log_i=p_ix, log_a=cfg.xi0 / d2["b"], log_alpha=np.full(N, scale / LN2),
        quad_i=_NO_INDEX, quad_c=_NO_VALUE, quad_beta=_NO_VALUE,
        lin_A=lin_A, lin_b=lin_b,
        speed_i=_NO_PAIRS, speed_j=_NO_PAIRS, speed_h=_NO_VALUE,
        hyper_i=_NO_INDEX, hyper_j=_NO_INDEX, hyper_k=_NO_VALUE,
        fixed_idx=_NO_INDEX, fixed_val=_NO_VALUE,
        start=start, layout=layout, reference=reference,
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
