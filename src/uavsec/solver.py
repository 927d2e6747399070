"""Self-contained interior-point solver for StructuredConvexProgram.

``solve`` maximizes a concave objective F over rows c_i(x) >= 0 (finite
boxes, linear rows, speed rows h^2 - |x_j - x_i|^2 and hyperbolic rows
x_i x_j - k) in two phases, from the strictly feasible start bundled with
the program. The first is a primal-dual method with Mehrotra's
predictor-corrector (Mehrotra, SIAM J. Optim. 1992; Nocedal & Wright,
Numerical Optimization, ch. 19) on the exact rows, so every iterate stays
strictly feasible; ``_primal_dual`` describes its iteration, step rule and
safeguard. The second certifies the result: the log barrier
t*F + sum(log c_i) at t_final = nu/``_GAP_TOL`` is centred by damped Newton
with backtracking until the half squared decrement is at most
``_NEWTON_TOL``, so the returned point is within nu/t_final of the optimum
(Boyd & Vandenberghe §11.2). Speed and hyperbolic rows count with degree 2
toward the total barrier degree nu, linear rows and finite box bounds with
degree 1. A linear row's reciprocal objective term -k/(s + o) is a function
of the row's slack s, so it adds to the weight of the row's own block
a a^T and needs no entries of its own.

Fixed coordinates are held exactly by restricting steps to the free
coordinates. Newton systems are banded. A ``_Pattern`` holds the
half-bandwidth and the place of every Jacobian and Hessian entry, the
Hessian's in lower band storage, column-major as LAPACK keeps it; it is
built once per program structure and reused while the structure repeats,
as it does over a run's alternations. Each step scatters the entry values
there with one ``np.bincount`` and factors with LAPACK's banded Cholesky
(``dpbtrf``/``dpbtrs``), loaded from scipy's extension module by file
location: importing ``scipy.linalg`` would cost more start-up than a
default run takes to plan. ``_Work`` touches only the term and row
families the program has. Each point is evaluated once per solve: ``_Work``
keeps every evaluation by the point's bytes, and the evaluation travels
with the point from one step to the next and into the returned objective.
In the trajectory program's slot-major variable order the bandwidth does
not grow with the slot count, so a step costs O(n); the power program's
budget row spans every coordinate, so its band is full.
Everything is deterministic: identical inputs produce identical iterate
sequences.

``water_fill`` solves the power subproblem instead: in closed form given
the budget's multiplier, which a bracketed Newton search on the dual finds.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from importlib import machinery, util
from typing import NamedTuple, Optional

import numpy as np

from .surrogate import StructuredConvexProgram


def _load_flapack(directory: str):
    """``dpbtrf`` and ``dpbtrs`` of scipy.linalg's LAPACK extension module in
    ``directory``, loaded without the scipy and scipy.linalg package init."""
    for suffix in machinery.EXTENSION_SUFFIXES:
        path = os.path.join(directory, "_flapack" + suffix)
        if os.path.isfile(path):
            spec = util.spec_from_file_location("scipy.linalg._flapack", path)
            module = util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module.dpbtrf, module.dpbtrs
    raise ImportError(f"scipy.linalg._flapack not found in {directory}")


_PBTRF, _PBTRS = _load_flapack(
    os.path.join(util.find_spec("scipy").submodule_search_locations[0], "linalg"))

_MAX_BACKTRACKS = 60
_REG_ESCALATIONS = 9
_GAP_TOL = 1e-8             # certified gap nu/t of the returned point
_NEWTON_TOL = 1e-10         # half squared Newton decrement that ends the centring
_MAX_NEWTON = 60            # Newton steps of the certifying centring
_MAX_PD = 60                # primal-dual iterations
_KEEP = 0.005               # share of each slack and dual that a primal-dual step keeps
_ARMIJO = 0.25              # sufficient-increase fraction
_BACKTRACK = 0.5            # step shrink factor
_EPS = float(np.finfo(float).eps)
# the constant curvature 2 A^T A of a speed row's |x[j] - x[i]|^2, with
# A = [-I I] over its coordinates (x[i], x[j])
_SPEED_CURV = np.array([[2.0, 0.0, -2.0, 0.0], [0.0, 2.0, 0.0, -2.0],
                        [-2.0, 0.0, 2.0, 0.0], [0.0, -2.0, 0.0, 2.0]])


@dataclass(eq=False)
class Solution:
    x: np.ndarray
    objective: float
    gap_bound: float         # certified distance to the optimum (nu/t of the centring)
    newton_steps: int        # primal-dual iterations and centring Newton steps
    stages: int              # barrier centrings: 1, or 0 if the primal-dual phase failed
    status: str              # "optimal" | "max-iter" | "stalled" | "numerical-failure"
    t0: float                # central-path weight 1/mu of the starting duals


class _Point(NamedTuple):
    """What ``_Work.evaluate`` finds at a strictly feasible point: the
    objective, the sum of log slacks, the speed-row differences (None
    without speed rows) and every row's slack, in the pattern's row order."""

    f: float
    logs: float
    y: Optional[np.ndarray]
    s: np.ndarray

    def phi(self, t: float, fref: float) -> float:
        """The shifted barrier objective t*(F - fref) + sum of log slacks."""
        return t * (self.f - fref) + self.logs


def _block_entries(idx: np.ndarray):
    """Row and column of every entry of the k x k block over each row of
    the (m, k) index array idx, block by block in row-major order."""
    m, k = idx.shape
    return (np.broadcast_to(idx[:, :, None], (m, k, k)).ravel(),
            np.broadcast_to(idx[:, None, :], (m, k, k)).ravel())


def _structure(prog: StructuredConvexProgram) -> tuple:
    """The index arrays that fix a program's ``_Pattern``, as a key."""
    arrays = (np.isfinite(prog.lb), np.isfinite(prog.ub), prog.log_i, prog.quad_i,
              prog.lin_i, prog.speed_i, prog.speed_j, prog.hyper_i, prog.hyper_j,
              prog.fixed_idx)
    return tuple((a.dtype.str, a.shape, a.tobytes()) for a in arrays)


class _Pattern:
    """Where each row's Jacobian entries and each Hessian entry of one
    program structure go: the rows, the free coordinates, and the gradient
    and band positions that ``_Work.assemble`` scatters values to.

    The rows are the finite lower and upper boxes, the linear, the speed and
    the hyperbolic rows, in this order. ``of`` keeps the last pattern it
    built and hands it out again while the structure repeats, as it does
    from one alternation of a run to the next."""

    _last = None

    @classmethod
    def of(cls, prog: StructuredConvexProgram) -> "_Pattern":
        key = _structure(prog)
        if cls._last is None or cls._last.key != key:
            cls._last = cls(prog, key)
        return cls._last

    def __init__(self, prog: StructuredConvexProgram, key: tuple):
        self.key = key
        n = self.n = prog.n
        self.lo_idx = np.nonzero(np.isfinite(prog.lb))[0]
        self.hi_idx = np.nonzero(np.isfinite(prog.ub))[0]
        # The term and row families the program has; ``evaluate`` and
        # ``assemble`` skip the others.
        self.has_log = prog.log_i.size > 0
        self.has_quad = prog.quad_i.size > 0
        self.has_lo = self.lo_idx.size > 0
        self.has_hi = self.hi_idx.size > 0
        self.has_lin = prog.lin_b.size > 0
        self.has_speed = prog.speed_h.size > 0
        self.has_hyper = prog.hyper_k.size > 0
        # coordinates (x[i], x[j]) of every speed row
        self.sp_idx = np.concatenate([prog.speed_i, prog.speed_j], axis=1)
        free = np.ones(n, dtype=bool)
        free[prog.fixed_idx] = False
        self.free = np.nonzero(free)[0]
        sizes = (self.lo_idx.size, self.hi_idx.size, prog.lin_b.size,
                 prog.speed_h.size, prog.hyper_k.size)
        self.m = sum(sizes)
        self.nu = self.m + prog.speed_h.size + prog.hyper_k.size
        first = np.cumsum((0,) + sizes)
        # rows [0, boxes) are the boxes, [boxes, sp0) the linear rows,
        # [sp0, hy0) the speed rows and [hy0, m) the hyperbolic rows
        self.boxes, self.sp0, self.hy0 = (int(k) for k in first[2:5])
        # Jacobian pattern: the coordinate and the row of every entry of the
        # rows' Jacobian J, in the order of ``assemble``'s Jacobian values
        lin_i = prog.lin_i
        self.jac_idx = np.concatenate([
            self.lo_idx, self.hi_idx, lin_i.ravel(), self.sp_idx.ravel(),
            prog.hyper_i, prog.hyper_j,
        ])
        row = np.arange(self.m)
        self.jac_row = np.concatenate([
            row[: first[2]], np.repeat(row[first[2]: first[3]], lin_i.shape[1]),
            np.repeat(row[first[3]: first[4]], 4), row[first[4]:], row[first[4]:],
        ])
        gf_idx = np.concatenate([prog.log_i, prog.quad_i, lin_i.ravel()])

        # Hessian pattern: one (row, col) entry per value ``assemble`` puts
        # in ``curvature``, in the same order. A linear row of arity k
        # touches the k x k block a a^T of its coordinates, times the row's
        # weight; a speed row the 4 x 4 block of its two points.
        (lin_r, lin_c), (sp_r, sp_c) = _block_entries(lin_i), _block_entries(self.sp_idx)
        rows = np.concatenate([
            prog.log_i, prog.quad_i, self.lo_idx, self.hi_idx, lin_r, sp_r,
            prog.hyper_i, prog.hyper_j, prog.hyper_i, prog.hyper_j,
        ])
        cols = np.concatenate([
            prog.log_i, prog.quad_i, self.lo_idx, self.hi_idx, lin_c, sp_c,
            prog.hyper_i, prog.hyper_j, prog.hyper_j, prog.hyper_i,
        ])
        # Lower band storage of the free block, column-major as LAPACK
        # keeps it: entry (r, c), r >= c, sits at band[r - c, c]. Entries
        # above the diagonal or on a fixed coordinate go to one extra bin
        # that is dropped.
        pos = np.full(n, -1)
        pos[self.free] = np.arange(self.free.size)
        r, c = pos[rows], pos[cols]
        keep = (r >= c) & (c >= 0)
        self.kd = int(np.max(r[keep] - c[keep], initial=0))
        band_size = (self.kd + 1) * self.free.size
        scatter = np.where(keep, c * (self.kd + 1) + (r - c), band_size)
        # One bincount sums every value ``assemble`` finds: the objective's
        # gradient into bins [0, n), J^T w into [n, 2n) and the band after
        # them.
        self.sum_idx = np.concatenate([gf_idx, self.jac_idx + n, scatter + 2 * n])
        self.band_end = 2 * n + band_size


class _Work:
    """One program's pattern and coefficients, and the points evaluated in
    one solve of it."""

    def __init__(self, prog: StructuredConvexProgram):
        self.prog = prog
        pat = self.pattern = _Pattern.of(prog)
        self.lo_val = prog.lb[pat.lo_idx]
        self.hi_val = prog.ub[pat.hi_idx]
        self.sp_h2 = prog.speed_h * prog.speed_h
        self.lin_aa = prog.lin_a[:, :, None] * prog.lin_a[:, None, :]
        # the Jacobian values of the box and linear rows, which are constant
        self.jac_const = np.concatenate([
            np.ones(pat.lo_idx.size), -np.ones(pat.hi_idx.size), -prog.lin_a.ravel()])
        self.points = {}    # x.tobytes() -> evaluate(x)

    def evaluate(self, x: np.ndarray) -> Optional[_Point]:
        """Objective, log-slack sum, speed-row differences and row slacks
        (boxes, linear, speed and hyperbolic rows) at x, or None if x is not
        strictly feasible. The objective reuses the linear rows' slacks."""
        prog, pat = self.prog, self.pattern
        slacks = []
        if pat.has_lo:
            slacks.append(x[pat.lo_idx] - self.lo_val)
        if pat.has_hi:
            slacks.append(self.hi_val - x[pat.hi_idx])
        lin = y = None
        if pat.has_lin:
            lin = prog.lin_slack(x)
            slacks.append(lin)
        if pat.has_speed:
            y = x[prog.speed_j] - x[prog.speed_i]
            slacks.append(self.sp_h2 - (y * y).sum(axis=1))
        if pat.has_hyper:
            slacks.append(x[prog.hyper_i] * x[prog.hyper_j] - prog.hyper_k)
        s = np.concatenate(slacks) if slacks else np.zeros(0)
        if s.min(initial=math.inf) <= 0.0:
            return None
        f = prog.objective_value(x, lin)
        if not math.isfinite(f):
            return None
        return _Point(f, float(np.log(s).sum()), y, s)

    def recall(self, x: np.ndarray) -> Optional[_Point]:
        """``evaluate(x)``, evaluated once per point and solve."""
        key = x.tobytes()
        if key not in self.points:
            self.points[key] = self.evaluate(x)
        return self.points[key]

    def assemble(self, x: np.ndarray, point: _Point, t: float, w: np.ndarray):
        """At the evaluated point x, with objective weight t and one weight
        w_i per row c_i >= 0: the objective's gradient, J^T w, the matrix

            t (-Hess F) + sum_i w_i (-Hess c_i) + sum_i (w_i / c_i) grad c_i grad c_i^T

        on the free coordinates in lower band storage, as an F-contiguous
        (kd + 1, free count) view, and the values of J's entries in the
        pattern's order. With w = 1/c these are the gradient of the log
        barrier and the negated Hessian of t*F + barrier; with w the rows'
        duals at t = 1, the primal-dual system's reduced matrix."""
        prog, pat = self.prog, self.pattern
        wc = w / point.s
        # each family's values, in the order of sum_idx's three parts
        gf, jac, curvature = [], [self.jac_const], []
        if pat.has_log:
            a = prog.log_a
            arg = 1.0 + a * x[prog.log_i]
            gf.append(prog.log_alpha * a / arg)
            curvature.append(t * prog.log_alpha * (a * a) / (arg * arg))
        if pat.has_quad:
            b2 = 2.0 * prog.quad_beta
            gf.append(-(b2 * (x[prog.quad_i] - prog.quad_c)))
            curvature.append(t * b2)
        if pat.has_lo or pat.has_hi:
            curvature.append(wc[: pat.boxes])
        if pat.has_lin:
            # -k/(s + o) for each linear row's slack s: its gradient along
            # the row, and its negated curvature weight
            r_lin = point.s[pat.boxes: pat.sp0] + prog.lin_o
            k_r2 = prog.lin_k / (r_lin * r_lin)
            w_lin = wc[pat.boxes: pat.sp0] + 2.0 * t * k_r2 / r_lin
            gf.append((prog.lin_a * -k_r2[:, None]).ravel())
            curvature.append((self.lin_aa * w_lin[:, None, None]).ravel())
        if pat.has_speed:
            # h^2 - |y|^2: gradient G and negated Hessian _SPEED_CURV over
            # the row's four coordinates (x[i], x[j])
            y = point.y
            G = 2.0 * np.concatenate([y, -y], axis=1)
            sp = slice(pat.sp0, pat.hy0)
            jac.append(G.ravel())
            curvature.append((_SPEED_CURV * w[sp, None, None]
                              + G[:, :, None] * (G * wc[sp, None])[:, None, :]).ravel())
        if pat.has_hyper:
            # x_i x_j - k: gradient (x_j, x_i); the weighted block is
            # (w/c) [[x_j^2, k], [k, x_i^2]]
            xi = x[prog.hyper_i]
            xj = x[prog.hyper_j]
            wc_hy = wc[pat.hy0:]
            off = wc_hy * prog.hyper_k
            jac += [xj, xi]
            curvature += [wc_hy * (xj * xj), wc_hy * (xi * xi), off, off]

        jac = np.concatenate(jac)
        parts = gf + [jac * w[pat.jac_row]] + curvature
        n = pat.n
        # (bincount of no values at all comes back as integers)
        total = np.bincount(pat.sum_idx, np.concatenate(parts),
                            minlength=pat.band_end + 1).astype(float, copy=False)
        return (prog.c + total[:n], total[n: 2 * n],
                total[2 * n: pat.band_end].reshape(pat.free.size, pat.kd + 1).T, jac)

    def jac_dot(self, jac: np.ndarray, d: np.ndarray) -> np.ndarray:
        """J d: each row's directional derivative along d (all n coordinates)."""
        pat = self.pattern
        return np.bincount(pat.jac_row, jac * d[pat.jac_idx], minlength=pat.m)

    def jac_t_dot(self, jac: np.ndarray, v: np.ndarray) -> np.ndarray:
        """J^T v, on the free coordinates."""
        pat = self.pattern
        return np.bincount(pat.jac_idx, jac * v[pat.jac_row], minlength=pat.n)[pat.free]

    def max_step(self, point: _Point, d: np.ndarray, dc: np.ndarray) -> float:
        """The largest step a <= 1 along d that keeps every row's slack (at
        least one) at least ``_KEEP`` of its value: c_i(x + a d) >= _KEEP c_i(x), exactly.
        dc is J d. Along d each slack is c + a dc + a^2 q, with q = 0 for
        the box and linear rows, -|d_j - d_i|^2 for a speed row and
        d_i d_j for a hyperbolic row; the step is the least positive root
        of c (1 - _KEEP) + a dc + a^2 q."""
        prog, pat = self.prog, self.pattern
        q = np.zeros(pat.m)
        if pat.has_speed:
            e = d[prog.speed_j] - d[prog.speed_i]
            q[pat.sp0: pat.hy0] = -np.einsum("ij,ij->i", e, e)
        if pat.has_hyper:
            q[pat.hy0:] = d[prog.hyper_i] * d[prog.hyper_j]
        room = (1.0 - _KEEP) * point.s
        disc = dc * dc - 4.0 * q * room
        # the root is 2 room / (-dc + sqrt(disc)), the form that cancels
        # nothing; a row without a positive root (disc < 0, or a
        # denominator <= 0) limits nothing
        den = np.where(disc >= 0.0, np.sqrt(np.abs(disc)) - dc, 0.0)
        return 1.0 / max(1.0, float((den / (2.0 * room)).max()))


def _cholesky(band: np.ndarray) -> Optional[np.ndarray]:
    """Lower band Cholesky factor of B, regularizing B on failure; None if B
    is not finite or no regularization lets it factor.

    B is given in lower band storage: ``band[k, j]`` holds B[j + k, j].
    ``band`` is left unchanged; the factorization works on a copy, which
    costs least when ``band`` is F-contiguous.
    """
    if not np.isfinite(band).all():
        return None
    if band.shape[1] == 0:
        return band
    B, reg = band, 0.0
    for _ in range(_REG_ESCALATIONS):
        chol, info = _PBTRF(B, lower=1, overwrite_ab=0)
        if info == 0:
            return chol
        reg = 1e-12 * (1.0 + float(np.max(np.abs(band[0])))) if reg == 0.0 else reg * 100.0
        B = np.array(band, order="F")
        B[0] += reg
    return None


def _back_solve(chol: np.ndarray, rhs: np.ndarray) -> Optional[np.ndarray]:
    """Solve B d = rhs, rhs (n,) or (n, 2), with B's factor from
    ``_cholesky``; None if the solution is not finite."""
    if rhs.shape[0] == 0:
        return np.zeros_like(rhs)
    sol, info = _PBTRS(chol, rhs, lower=1)
    return sol if info == 0 and np.isfinite(sol).all() else None


def _newton_direction(band: np.ndarray, rhs: np.ndarray) -> Optional[np.ndarray]:
    """Solve B d = rhs, B in lower band storage, regularizing B if it does
    not factor (``_cholesky``); None if that fails or d is not finite."""
    chol = _cholesky(band)
    return None if chol is None else _back_solve(chol, rhs)


def solve(prog: StructuredConvexProgram) -> Solution:
    """Maximize the program's concave objective over its constraint set.

    ``_primal_dual`` runs from the bundled start, with the duals at the
    central-path weight t0 = nu/max(|F(start)|, 1e-2), and ``_center``
    centres its last point on the log barrier at t_final = nu/``_GAP_TOL``,
    which certifies ``gap_bound`` = nu/t_final. ``newton_steps`` counts the
    primal-dual iterations and the centring's Newton steps; ``stages`` is 1,
    the certifying centring, or 0 if the primal-dual phase failed. Raises
    ValueError if the bundled start is not strictly feasible. Returns status
    "numerical-failure" with the last iterate if a Newton system cannot be
    solved even after diagonal regularization, and "max-iter" or "stalled"
    if the centring ran out of Newton steps or found no strictly feasible
    improving step before its decrement test held.
    """
    work = _Work(prog)
    x = np.asarray(prog.start, dtype=float).copy()
    x[prog.fixed_idx] = prog.fixed_val
    point = work.recall(x)
    if point is None:
        raise ValueError("program start point is not strictly feasible")

    nu = work.pattern.nu
    t_final = max(nu, 1.0) / _GAP_TOL
    t0 = max(nu, 1.0) / max(abs(point.f), 1e-2)
    x, point, steps, status = _primal_dual(work, x, point, t0, t_final)
    stages = 0
    if status != "numerical-failure":
        x, point, centring, status = _center(work, x, point, t_final)
        steps += centring
        stages = 1
    return Solution(
        x=x,
        objective=point.f,
        gap_bound=nu / t_final,
        newton_steps=steps,
        stages=stages,
        status="optimal" if status == "ok" else status,
        t0=t0,
    )


def _fraction_to_zero(v: np.ndarray, dv: np.ndarray, keep: float) -> float:
    """The largest a <= 1 with v + a dv >= keep v, for v > 0 (not empty)."""
    return 1.0 / max(1.0, -float((dv / v).min()) / (1.0 - keep))


def _primal_dual(work: _Work, x: np.ndarray, point: _Point, t0: float, t_final: float):
    """Mehrotra's predictor-corrector from the strictly feasible x, evaluated
    as ``point``, with each row's dual starting at 1/(t0 c_i), until a full
    step has been taken toward the central point at weight t_final. Returns
    the last point, its evaluation, the iterations taken and the status:
    "ok", "stalled" if no trial point is strictly feasible, or
    "numerical-failure".

    The duals lam are eliminated: ``assemble`` with the duals as row
    weights gives the reduced matrix M, factored once per iteration, and one
    solve M [dx_a, w] = [grad F, J^T (1/c)] gives the affine step dx_a and,
    with mu the mean of lam_i c_i floored at 1/t_final, the step
    dx_a + mu w toward the central point at weight 1/mu. The safeguard: if that step's squared decrement
    (grad F + mu J^T (1/c)) . (dx_a + mu w) / mu exceeds nu, the iterate is
    far from the central path and the iteration is this centring step.
    Otherwise it is Mehrotra's step: the affine step's largest feasible
    length (by the linearized slacks) predicts mu_aff, the target is
    (mu_aff/mu)^3 mu, floored at 1/t_final, and the corrector subtracts
    M^-1 J^T (dc_a dl_a / c), one more solve with the same factor. Each
    dual moves by dl = v - lam - (lam/c) dc, with dc = J dx and
    v = target/c, less dc_a dl_a/c in Mehrotra's step.

    Primal and dual take one step length: the largest a <= 1 that keeps
    every row's exact slack and every dual at least ``_KEEP`` of its value
    (``_Work.max_step``), halved while the trial point rounds onto the
    boundary. The duals need not be dual feasible: the certificate comes
    from the barrier centring that follows.
    """
    pat = work.pattern
    if pat.m == 0:
        return x, point, 0, "ok"
    mu_final = 1.0 / t_final
    lam = 1.0 / (t0 * point.s)
    steps = 0
    d = np.zeros(pat.n)
    for _ in range(_MAX_PD):
        c = point.s
        mu = float(lam @ c) / pat.m
        gf, _, band, jac = work.assemble(x, point, 1.0, lam)
        chol = _cholesky(band)
        r = gf[pat.free]
        u = work.jac_t_dot(jac, 1.0 / c)
        sol = None if chol is None else _back_solve(chol, np.array((r, u)).T)
        if sol is None:
            return x, point, steps, "numerical-failure"
        dx_a, w = sol.T
        lc = lam / c
        target = max(mu, mu_final)
        if float((r + target * u) @ (dx_a + target * w)) <= target * pat.nu:
            # Mehrotra's predictor and corrector
            d[pat.free] = dx_a
            dc = work.jac_dot(jac, d)
            dl = -lam - lc * dc
            mu_aff = float((c + _fraction_to_zero(c, dc, 0.0) * dc)
                           @ (lam + _fraction_to_zero(lam, dl, 0.0) * dl)) / pat.m
            target = max(mu * (mu_aff / mu) ** 3, mu_final)
            second = dc * dl / c
            dx_2 = _back_solve(chol, work.jac_t_dot(jac, second))
            if dx_2 is None:
                return x, point, steps, "numerical-failure"
            d[pat.free] = dx_a + target * w - dx_2
            v = target / c - second
        else:
            d[pat.free] = dx_a + target * w
            v = target / c
        dc = work.jac_dot(jac, d)
        dl = v - lam - lc * dc
        a = min(work.max_step(point, d, dc), _fraction_to_zero(lam, dl, _KEEP))
        found = _search(work, x, point, a * d, lambda trial, s: True)
        steps += 1
        if found is None:
            return x, point, steps, "stalled"
        x, point, s = found
        lam = lam + s * a * dl
        if target == mu_final and s * a == 1.0:
            break
    return x, point, steps, "ok"


def water_fill(prog: StructuredConvexProgram) -> np.ndarray:
    """Water-filling maximizer of a power program (Boyd & Vandenberghe 5.5.3).

    The program is sum_k alpha_k ln(1 + a_k x_k) + c.x, c < 0, over the box
    [0, ub] and its one linear row, the budget sum_k x_k <= b, with one log
    term per coordinate in order. For the budget's multiplier lam,
    x_k = clip(alpha_k/(lam - c_k) - 1/a_k, 0, ub_k). lam is 0 if that fits
    the budget; otherwise the bracket between 0 and max(alpha*a + c), where
    x = 0, is shrunk until it stops shrinking, and the point at the
    bracket's feasible end is returned.

    Each probe of the bracket is a Newton step on the dual, toward the
    root of S(lam) = b, with S(lam) = sum_k x_k and S' = the sum of
    -alpha_k/(lam - c_k)^2 over the coordinates strictly inside their box.
    A step from a probe whose powers exceed the budget is doubled if the
    probe before did too, so that the bracket closes from both ends; a step
    that leaves the bracket is replaced by the bracket's midpoint. Each
    computed x_k, and so the computed S, is non-increasing in lam, so the
    bracket ends at the same lam as plain bisection: the smallest float
    whose powers fit the budget.
    """
    alpha, a, c, ub = prog.log_alpha, prog.log_a, prog.c, prog.ub
    budget = prog.lin_b[0]
    inv_a = 1.0 / a

    def point(lam):
        q = alpha / (lam - c)
        return q, np.clip(q - inv_a, 0.0, ub)

    lo, hi = 0.0, float(np.max(alpha * a + c))
    lam = lo
    q, x = point(lam)
    total = x.sum()
    if total <= budget:
        return x
    short = False           # whether the probe before lam exceeded the budget too
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        probe = mid
        slope = float(np.dot(q * q, ((x > 0.0) & (x < ub)) / alpha))
        if slope > 0.0:
            step = float(total - budget) / slope
            newton = lam + (2.0 * step if short and total > budget else step)
            if lo < newton < hi:
                probe = newton
        short = total > budget
        lam = probe
        q, x = point(lam)
        total = x.sum()
        if total <= budget:
            hi = lam
        else:
            lo = lam
    return point(hi)[1]


def _search(work: _Work, x: np.ndarray, point: _Point, d: np.ndarray, accept):
    """Backtracking from x, evaluated as ``point``, along d: the first of
    x + s d, s = 1, 1/2, 1/4, ... (at most ``_MAX_BACKTRACKS``) that is
    strictly feasible and passes ``accept(trial, s)``, as (point,
    evaluation, s), or None. A trial that rounds to a point evaluated
    before in this solve reuses that evaluation."""
    s = 1.0
    for _ in range(_MAX_BACKTRACKS):
        xn = x + s * d
        trial = work.recall(xn)
        if trial is not None and accept(trial, s):
            return xn, trial, s
        s *= _BACKTRACK
    return None


def _center(work: _Work, x: np.ndarray, point: _Point, t: float):
    """Damped Newton on the barrier objective at weight t from x, evaluated
    as ``point``, until the half squared decrement is at most
    ``_NEWTON_TOL``. Returns the last point, its evaluation, the Newton
    steps taken and the status. An accepted trial point carries its
    evaluation to the next step's ``assemble``."""
    fref = point.f
    # Below this squared-decrement level, computed phi differences drown in
    # rounding noise of t*F, so the sufficient-increase test is skipped and
    # (feasible) full Newton steps are trusted.
    noise = 64.0 * t * (abs(fref) + 1.0) * _EPS
    steps = 0
    gd_full = math.inf      # the decrement before the last step, if that was a full one
    free = work.pattern.free
    for _ in range(_MAX_NEWTON):
        phi0 = point.phi(t, fref)
        gf, gb, band, _ = work.assemble(x, point, t, 1.0 / point.s)
        g = (t * gf + gb)[free]
        step = _newton_direction(band, g)
        if step is None:
            return x, point, steps, "numerical-failure"
        gd = float(g @ step)
        # below the noise level, a full step that did not shrink gd shows its rounding floor
        if gd <= 2.0 * _NEWTON_TOL or gd_full <= gd <= noise:
            return x, point, steps, "ok"
        use_armijo = gd > noise
        d = np.zeros(work.pattern.n)
        d[free] = step
        found = _search(work, x, point, d, lambda trial, s: (
            not use_armijo or trial.phi(t, fref) >= phi0 + _ARMIJO * s * gd))
        steps += 1
        if found is None:
            # No strictly feasible improving step at this precision.
            return x, point, steps, "stalled"
        x, point, s = found
        gd_full = gd if s == 1.0 else math.inf
    return x, point, steps, "max-iter"
