"""Self-contained interior-point solver for StructuredConvexProgram.

A primal log-barrier method: damped Newton with backtracking line search
maximizes t*objective + sum(log slack) for a geometrically increasing
barrier weight t, starting from the strictly feasible point bundled with
the program. Speed rows use the barrier -log(h^2 - |x_j - x_i|^2) and
hyperbolic rows -log(x_i x_j - k); both count with degree 2 toward the
total barrier degree m, linear rows and finite box bounds with degree 1.
The outer loop stops once the certified gap m/t falls below ``_GAP_TOL``.

Fixed coordinates are held exactly by restricting Newton steps to the free
coordinates. Everything is deterministic: identical inputs produce
identical iterate sequences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .surrogate import StructuredConvexProgram

_MAX_BACKTRACKS = 60
_REG_ESCALATIONS = 9
_MU = 10.0                  # barrier weight multiplier per stage
_GAP_TOL = 1e-8             # stop once the certified gap m/t falls below this
_NEWTON_TOL = 1e-10         # half squared Newton decrement
_MAX_NEWTON_PER_STAGE = 60
_ARMIJO = 0.25              # sufficient-increase fraction
_BACKTRACK = 0.5            # step shrink factor


@dataclass(eq=False)
class Solution:
    x: np.ndarray
    objective: float
    gap_bound: float         # certified distance to the optimum (m/t)
    newton_steps: int
    stages: int
    status: str              # "optimal" | "max-iter" | "numerical-failure"


class _Work:
    """Precomputed constraint structure for one program."""

    def __init__(self, prog: StructuredConvexProgram):
        self.prog = prog
        self.n = prog.n
        self.lo_idx = np.nonzero(np.isfinite(prog.lb))[0]
        self.lo_val = prog.lb[self.lo_idx]
        self.hi_idx = np.nonzero(np.isfinite(prog.ub))[0]
        self.hi_val = prog.ub[self.hi_idx]
        self.A = prog.lin_A.tocsr()
        self.AT = self.A.T.tocsr()
        # coordinates (x[i], x[j]) of every speed row, and the constant
        # Hessian -2 A^T A of h^2 - |x[j] - x[i]|^2, with A = [-I I]
        self.sp_idx = np.concatenate([prog.speed_i, prog.speed_j], axis=1)
        self.sp_h2 = prog.speed_h * prog.speed_h
        eye = np.eye(2)
        self.sp_hess = -2.0 * np.block([[eye, -eye], [-eye, eye]])
        self.free = np.ones(self.n, dtype=bool)
        self.free[prog.fixed_idx] = False
        self.nu = (
            self.lo_idx.size + self.hi_idx.size + prog.lin_b.size
            + 2 * prog.speed_h.size + 2 * prog.hyper_k.size
        )

    def objective(self, x: np.ndarray) -> float:
        return self.prog.objective_value(x)

    def _slacks(self, x: np.ndarray):
        """Speed-row differences x[j] - x[i] and the slack of every barrier
        family: lower boxes, upper boxes, linear, speed, hyperbolic rows."""
        prog = self.prog
        y = x[prog.speed_j] - x[prog.speed_i]
        return y, (
            x[self.lo_idx] - self.lo_val,
            self.hi_val - x[self.hi_idx],
            prog.lin_b - self.A @ x,
            self.sp_h2 - np.sum(y * y, axis=1),
            x[prog.hyper_i] * x[prog.hyper_j] - prog.hyper_k,
        )

    def _phi(self, x: np.ndarray, t: float, fref: float, slacks) -> Optional[float]:
        s = np.concatenate(slacks)
        if np.any(s <= 0.0):
            return None
        f = self.objective(x)
        if not math.isfinite(f):
            return None
        return t * (f - fref) + float(np.sum(np.log(s)))

    def phi(self, x: np.ndarray, t: float, fref: float) -> Optional[float]:
        """Shifted barrier objective t*(F - fref) + log slacks, or None if x
        is not strictly feasible."""
        return self._phi(x, t, fref, self._slacks(x)[1])

    def assemble(self, x: np.ndarray, t: float, fref: float):
        """Value, gradient, and Hessian of the shifted barrier objective."""
        prog = self.prog
        y, slacks = self._slacks(x)
        s_lo, s_hi, s_lin, s_sp, s_hy = slacks
        phi = self._phi(x, t, fref, slacks)
        g = t * prog.c
        H = np.zeros((self.n, self.n))

        a = prog.log_a
        arg = 1.0 + a * x[prog.log_i]
        ta = t * prog.log_alpha
        np.add.at(g, prog.log_i, ta * a / arg)
        np.add.at(H, (prog.log_i, prog.log_i), -(ta * (a * a) / (arg * arg)))
        tb = 2.0 * t * prog.quad_beta
        np.add.at(g, prog.quad_i, -(tb * (x[prog.quad_i] - prog.quad_c)))
        np.add.at(H, (prog.quad_i, prog.quad_i), -tb)

        g[self.lo_idx] += 1.0 / s_lo
        H[self.lo_idx, self.lo_idx] -= 1.0 / (s_lo * s_lo)
        g[self.hi_idx] -= 1.0 / s_hi
        H[self.hi_idx, self.hi_idx] -= 1.0 / (s_hi * s_hi)
        g -= self.AT @ (1.0 / s_lin)
        lin = (self.AT @ self.A.multiply((1.0 / (s_lin * s_lin))[:, None])).tocoo()
        np.add.at(H, (lin.row, lin.col), -lin.data)

        # log(h^2 - |y|^2): gradient G/psi and Hessian hess/psi - G G^T/psi^2
        # over the row's four coordinates (x[i], x[j])
        G = 2.0 * np.concatenate([y, -y], axis=1)
        psi = s_sp[:, None]
        np.add.at(g, self.sp_idx, G / psi)
        block = self.sp_hess / psi[:, :, None] - G[:, :, None] * G[:, None, :] / (psi * psi)[:, :, None]
        np.add.at(H, (self.sp_idx[:, :, None], self.sp_idx[:, None, :]), block)

        xi = x[prog.hyper_i]
        xj = x[prog.hyper_j]
        np.add.at(g, prog.hyper_i, xj / s_hy)
        np.add.at(g, prog.hyper_j, xi / s_hy)
        psi2 = s_hy * s_hy
        np.add.at(H, (prog.hyper_i, prog.hyper_i), -(xj * xj) / psi2)
        np.add.at(H, (prog.hyper_j, prog.hyper_j), -(xi * xi) / psi2)
        off = -prog.hyper_k / psi2
        np.add.at(H, (prog.hyper_i, prog.hyper_j), off)
        np.add.at(H, (prog.hyper_j, prog.hyper_i), off)
        return phi, g, H


def _newton_direction(H: np.ndarray, g: np.ndarray, free: np.ndarray) -> Optional[np.ndarray]:
    """Solve (-H) d = g on the free coordinates, regularizing on failure."""
    A = -H[np.ix_(free, free)]
    rhs = g[free]
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(rhs))):
        return None
    base = 1e-12 * (1.0 + float(np.max(np.abs(np.diag(A)))) if A.size else 1.0)
    reg = 0.0
    for _ in range(_REG_ESCALATIONS):
        M = A if reg == 0.0 else A + reg * np.eye(A.shape[0])
        try:
            fac = cho_factor(M, lower=True, check_finite=False)
            step = cho_solve(fac, rhs, check_finite=False)
        except (LinAlgError, ValueError):
            step = None
        if step is not None and np.all(np.isfinite(step)):
            d = np.zeros(free.shape[0])
            d[free] = step
            return d
        reg = base if reg == 0.0 else reg * 100.0
    return None


def solve(prog: StructuredConvexProgram) -> Solution:
    """Maximize the program's concave objective over its constraint set.

    The first barrier weight is chosen so that the first centering's
    certified gap matches the objective scale at the start. Raises
    ValueError if the bundled start is not strictly feasible. Returns
    status "numerical-failure" with the last iterate if the Newton system
    cannot be solved even after diagonal regularization.
    """
    work = _Work(prog)
    x = np.asarray(prog.start, dtype=float).copy()
    x[prog.fixed_idx] = prog.fixed_val
    if work.phi(x, 1.0, 0.0) is None:
        raise ValueError("program start point is not strictly feasible")

    nu = work.nu
    f0 = work.objective(x)
    t = min(max(max(nu, 1.0) / max(abs(f0), 1e-2), 1e-2), 1e8)
    t_final = max(nu, 1.0) / _GAP_TOL

    total_steps = 0
    stages = 0
    status = "optimal"
    while True:
        x, steps, flag = _center(work, x, t)
        stages += 1
        total_steps += steps
        if flag == "numerical-failure":
            status = flag
            break
        if nu / t <= _GAP_TOL:
            if flag == "max-iter":
                status = "max-iter"
            break
        t = min(t * _MU, t_final)

    return Solution(
        x=x,
        objective=work.objective(x),
        gap_bound=nu / t,
        newton_steps=total_steps,
        stages=stages,
        status=status,
    )


def _center(work: _Work, x: np.ndarray, t: float):
    """Damped Newton until the decrement criterion holds at barrier weight t."""
    fref = work.objective(x)
    # Below this squared-decrement level, computed phi differences drown in
    # rounding noise of t*F, so the sufficient-increase test is skipped and
    # (feasible) full Newton steps are trusted.
    noise = 64.0 * t * (abs(fref) + 1.0) * np.finfo(float).eps
    steps = 0
    for _ in range(_MAX_NEWTON_PER_STAGE):
        phi0, g, H = work.assemble(x, t, fref)
        d = _newton_direction(H, g, work.free)
        if d is None:
            return x, steps, "numerical-failure"
        gd = float(g[work.free] @ d[work.free])
        if gd <= 2.0 * _NEWTON_TOL:
            return x, steps, "ok"
        use_armijo = gd > noise
        s = 1.0
        accepted = False
        for _ in range(_MAX_BACKTRACKS):
            xn = x + s * d
            phin = work.phi(xn, t, fref)
            if phin is not None and (
                not use_armijo or phin >= phi0 + _ARMIJO * s * gd
            ):
                x = xn
                accepted = True
                break
            s *= _BACKTRACK
        steps += 1
        if not accepted:
            # No strictly feasible improving step at this precision.
            return x, steps, "ok"
    return x, steps, "max-iter"
