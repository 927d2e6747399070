"""Self-contained interior-point solver for StructuredConvexProgram.

A primal log-barrier method: damped Newton with backtracking line search
maximizes t*objective + sum(log slack) for a barrier weight t that grows
by ``_MU`` per stage, starting from the strictly feasible point bundled
with the program. The first weight is Boyd & Vandenberghe's least-squares
choice (§11.3.1), floored by the objective's scale at the start. Each later
stage starts from a predictor step: the central path is analytic in 1/t
(Fiacco & McCormick, SUMT, 1968), and its tangent at a centred point costs
one more column of the last Newton step's factorization. Speed
rows use the barrier -log(h^2 - |x_j - x_i|^2) and hyperbolic rows
-log(x_i x_j - k); both count with degree 2 toward the total barrier
degree m, linear rows and finite box bounds with degree 1. A linear row's
reciprocal objective term -k/(s + o) is a function of the row's barrier
slack s, so it adds to the weight of the row's own Hessian block a a^T
and needs no entries of its own. The outer loop stops once the certified
gap m/t falls below ``_GAP_TOL``. Only that last stage's centre backs the
certificate, so it alone is centred to ``_NEWTON_TOL``; the stages before
it end at the looser ``_STAGE_TOL`` (long-step path following, Boyd &
Vandenberghe §11.3.3).

Fixed coordinates are held exactly by restricting Newton steps to the free
coordinates. Newton systems are banded: ``_Work`` finds the half-bandwidth
and the place of every Hessian entry in lower band storage, column-major
as LAPACK keeps it, once per program, and each step scatters the entry
values there and factors with LAPACK's banded Cholesky
(``dpbtrf``/``dpbtrs``), loaded from scipy's extension module by file
location: importing ``scipy.linalg`` would cost more start-up than a
default run takes to plan. Every row family is a fixed-arity block of
coordinates, so its gradient and Hessian entries are scattered by
``np.bincount`` over index arrays fixed per program. ``_Work`` also notes
once which term and row families the program has, and its evaluation and
assembly touch only those. Each point is evaluated once per solve:
``_Work`` keeps every evaluation by the point's bytes, and the evaluation
travels with the point from one Newton step to the next, from the
predictor into the next stage, and into the returned objective. In the
trajectory program's slot-major variable order the bandwidth does not grow
with the slot count, so a step costs O(n); the power program's budget row
spans every coordinate, so its band is full.
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
_MU = 10.0                  # barrier weight multiplier per stage
_GAP_TOL = 1e-8             # stop once the certified gap m/t falls below this
_NEWTON_TOL = 1e-10         # half squared Newton decrement that ends the last stage
_STAGE_TOL = 1e-3           # ... and every stage before it
_MAX_NEWTON_PER_STAGE = 60
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
    gap_bound: float         # certified distance to the optimum (m/t)
    newton_steps: int
    stages: int
    status: str              # "optimal" | "max-iter" | "stalled" | "numerical-failure"
    t0: float                # first barrier weight


class _Point(NamedTuple):
    """What ``_Work.evaluate`` finds at a strictly feasible point: the
    objective, the sum of log slacks, the speed-row differences (None
    without speed rows) and the slacks of each barrier family the program
    has, by family name."""

    f: float
    logs: float
    y: Optional[np.ndarray]
    slacks: dict

    def phi(self, t: float, fref: float) -> float:
        """The shifted barrier objective t*(F - fref) + sum of log slacks."""
        return t * (self.f - fref) + self.logs


def _block_entries(idx: np.ndarray):
    """Row and column of every entry of the k x k block over each row of
    the (m, k) index array idx, block by block in row-major order."""
    m, k = idx.shape
    return (np.broadcast_to(idx[:, :, None], (m, k, k)).ravel(),
            np.broadcast_to(idx[:, None, :], (m, k, k)).ravel())


class _Work:
    """Precomputed constraint structure, gradient pattern and Hessian band
    layout for one program, and the points evaluated in one solve of it."""

    def __init__(self, prog: StructuredConvexProgram):
        self.prog = prog
        self.n = prog.n
        self.lo_idx = np.nonzero(np.isfinite(prog.lb))[0]
        self.lo_val = prog.lb[self.lo_idx]
        self.hi_idx = np.nonzero(np.isfinite(prog.ub))[0]
        self.hi_val = prog.ub[self.hi_idx]
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
        self.sp_h2 = prog.speed_h * prog.speed_h
        free = np.ones(self.n, dtype=bool)
        free[prog.fixed_idx] = False
        self.free = np.nonzero(free)[0]
        self.nu = (
            self.lo_idx.size + self.hi_idx.size + prog.lin_b.size
            + 2 * prog.speed_h.size + 2 * prog.hyper_k.size
        )
        # Gradient pattern: the coordinate of every value ``assemble`` adds
        # to the objective's gradient and to the barrier's, in the same order.
        lin_i = prog.lin_i
        gf_idx = np.concatenate([prog.log_i, prog.quad_i, lin_i.ravel()])
        gb_idx = np.concatenate([
            self.lo_idx, self.hi_idx, lin_i.ravel(), self.sp_idx.ravel(),
            prog.hyper_i, prog.hyper_j,
        ])

        # Hessian pattern: one (row, col) entry per value ``assemble`` puts
        # in ``curvature``, in the same order. A linear row of arity k
        # touches the k x k block a a^T of its coordinates, times the row's
        # weight; a speed row the 4 x 4 block of its two points.
        self.lin_aa = prog.lin_a[:, :, None] * prog.lin_a[:, None, :]
        self.neg_lin_a = -prog.lin_a
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
        pos = np.full(self.n, -1)
        pos[self.free] = np.arange(self.free.size)
        r, c = pos[rows], pos[cols]
        keep = (r >= c) & (c >= 0)
        self.kd = int(np.max(r[keep] - c[keep], initial=0))
        band_size = (self.kd + 1) * self.free.size
        scatter = np.where(keep, c * (self.kd + 1) + (r - c), band_size)
        # One bincount sums every value ``assemble`` finds: the objective's
        # gradient into bins [0, n), the barrier's into [n, 2n) and the band
        # after them.
        self.sum_idx = np.concatenate([gf_idx, gb_idx + self.n, scatter + 2 * self.n])
        self.band_end = 2 * self.n + band_size
        self.points = {}    # x.tobytes() -> evaluate(x)

    def evaluate(self, x: np.ndarray) -> Optional[_Point]:
        """Objective, log-slack sum, speed-row differences and barrier
        slacks ("lo" and "hi" boxes, "lin", "speed" and "hyper" rows) at x,
        or None if x is not strictly feasible. The objective reuses the
        linear rows' slacks."""
        prog = self.prog
        slacks = {}
        if self.has_lo:
            slacks["lo"] = x[self.lo_idx] - self.lo_val
        if self.has_hi:
            slacks["hi"] = self.hi_val - x[self.hi_idx]
        if self.has_lin:
            slacks["lin"] = prog.lin_slack(x)
        y = None
        if self.has_speed:
            y = x[prog.speed_j] - x[prog.speed_i]
            slacks["speed"] = self.sp_h2 - (y * y).sum(axis=1)
        if self.has_hyper:
            slacks["hyper"] = x[prog.hyper_i] * x[prog.hyper_j] - prog.hyper_k
        s = np.concatenate(list(slacks.values())) if slacks else np.zeros(0)
        if s.min(initial=math.inf) <= 0.0:
            return None
        f = prog.objective_value(x, slacks.get("lin"))
        if not math.isfinite(f):
            return None
        return _Point(f, float(np.log(s).sum()), y, slacks)

    def recall(self, x: np.ndarray) -> Optional[_Point]:
        """``evaluate(x)``, evaluated once per point and solve."""
        key = x.tobytes()
        if key not in self.points:
            self.points[key] = self.evaluate(x)
        return self.points[key]

    def assemble(self, x: np.ndarray, point: _Point, t: float):
        """Gradients of the objective and of the log barrier at the
        evaluated point x, and the negated Hessian of t*objective + barrier
        on the free coordinates in lower band storage, as an F-contiguous
        (kd + 1, free count) view."""
        prog = self.prog
        slacks = point.slacks
        # each family's values, in the order of sum_idx's three parts
        gf, gb, curvature = [], [], []
        if self.has_log:
            a = prog.log_a
            arg = 1.0 + a * x[prog.log_i]
            gf.append(prog.log_alpha * a / arg)
            curvature.append(t * prog.log_alpha * (a * a) / (arg * arg))
        if self.has_quad:
            b2 = 2.0 * prog.quad_beta
            gf.append(-(b2 * (x[prog.quad_i] - prog.quad_c)))
            curvature.append(t * b2)
        if self.has_lo:
            s_lo = slacks["lo"]
            gb.append(1.0 / s_lo)
            curvature.append(1.0 / (s_lo * s_lo))
        if self.has_hi:
            s_hi = slacks["hi"]
            gb.append(-1.0 / s_hi)
            curvature.append(1.0 / (s_hi * s_hi))
        if self.has_lin:
            # -k/(s + o) and log(s) for each linear row's slack s: their
            # gradients along the row, and the negated curvature weight of
            # t*(-k/(s + o)) + log(s)
            s_lin = slacks["lin"]
            r_lin = s_lin + prog.lin_o
            k_r2 = prog.lin_k / (r_lin * r_lin)
            w_lin = 1.0 / (s_lin * s_lin) + 2.0 * t * k_r2 / r_lin
            gf.append((self.neg_lin_a * k_r2[:, None]).ravel())
            gb.append((self.neg_lin_a / s_lin[:, None]).ravel())
            curvature.append((self.lin_aa * w_lin[:, None, None]).ravel())
        if self.has_speed:
            # log(h^2 - |y|^2): gradient G/psi and negated Hessian
            # curv/psi + (G/psi)(G/psi)^T over the row's four coordinates (x[i], x[j])
            y = point.y
            psi = slacks["speed"][:, None]
            Gp = 2.0 * np.concatenate([y, -y], axis=1) / psi
            gb.append(Gp.ravel())
            curvature.append((_SPEED_CURV / psi[:, :, None]
                              + Gp[:, :, None] * Gp[:, None, :]).ravel())
        if self.has_hyper:
            s_hy = slacks["hyper"]
            xi = x[prog.hyper_i]
            xj = x[prog.hyper_j]
            psi2 = s_hy * s_hy
            off = prog.hyper_k / psi2
            gb += [xj / s_hy, xi / s_hy]
            curvature += [(xj * xj) / psi2, (xi * xi) / psi2, off, off]

        parts = gf + gb + curvature
        n = self.n
        total = (np.bincount(self.sum_idx, np.concatenate(parts), minlength=self.band_end + 1)
                 if parts else np.zeros(self.band_end + 1))
        return (prog.c + total[:n], total[n: 2 * n],
                total[2 * n: self.band_end].reshape(self.free.size, self.kd + 1).T)


def _newton_direction(band: np.ndarray, rhs: np.ndarray) -> Optional[np.ndarray]:
    """Solve B d = rhs, rhs (n,) or (n, 2), regularizing B on failure.

    B is given in lower band storage: ``band[k, j]`` holds B[j + k, j].
    ``band`` is left unchanged; the factorization works on a copy, which
    costs least when ``band`` is F-contiguous.
    """
    if not (np.isfinite(band).all() and np.isfinite(rhs).all()):
        return None
    if rhs.shape[0] == 0:
        return np.zeros_like(rhs)
    B, reg = band, 0.0
    for _ in range(_REG_ESCALATIONS):
        chol, info = _PBTRF(B, lower=1, overwrite_ab=0)
        if info == 0:
            sol, info = _PBTRS(chol, rhs, lower=1)
            if info == 0 and np.isfinite(sol).all():
                return sol
        reg = 1e-12 * (1.0 + float(np.max(np.abs(band[0])))) if reg == 0.0 else reg * 100.0
        B = np.array(band, order="F")
        B[0] += reg
    return None


def solve(prog: StructuredConvexProgram) -> Solution:
    """Maximize the program's concave objective over its constraint set.

    The first barrier weight comes from ``_first_weight``; every stage
    but the last hands ``_center`` the next weight, so that a centring
    that ends "ok" passes on ``_predict``'s point. Raises
    ValueError if the bundled start is not strictly feasible. Returns
    status "numerical-failure" with the last iterate if the Newton system
    cannot be solved even after diagonal regularization, and "max-iter" or
    "stalled" if the last centering ran out of Newton steps or found no
    strictly feasible improving step before its decrement test held.
    """
    work = _Work(prog)
    x = np.asarray(prog.start, dtype=float).copy()
    x[prog.fixed_idx] = prog.fixed_val
    point = work.recall(x)
    if point is None:
        raise ValueError("program start point is not strictly feasible")

    nu = work.nu
    t = t0 = _first_weight(work, x, point)
    t_final = max(nu, 1.0) / _GAP_TOL

    total_steps = 0
    stages = 0
    status = "optimal"
    while True:
        final = nu / t <= _GAP_TOL
        t_next = None if final else min(t * _MU, t_final)
        x, point, steps, flag = _center(work, x, point, t, t_next)
        stages += 1
        total_steps += steps
        if flag == "numerical-failure":
            status = flag
            break
        if final:
            if flag != "ok":
                status = flag
            break
        t = t_next

    return Solution(
        x=x,
        objective=point.f,
        gap_bound=nu / t,
        newton_steps=total_steps,
        stages=stages,
        status=status,
        t0=t0,
    )


def _first_weight(work: _Work, x: np.ndarray, point: _Point) -> float:
    """First barrier weight at the start x (B&V 11.3.1).

    The least-squares weight minimizes ||t grad F + grad barrier|| in the
    norm of the barrier Hessian's inverse, which puts x as close to the
    central path as one weight can; it costs one banded solve and is 0 if
    that solve fails. It is floored by nu / max(|F(x)|, 1e-2), which
    matches the first centering's certified gap to the objective scale,
    and clamped to [1e-2, 1e8].
    """
    gf, gb, band = work.assemble(x, point, 0.0)
    gf, gb = gf[work.free], gb[work.free]
    d = _newton_direction(band, gf)
    t_ls = 0.0
    if d is not None and (curv := float(gf @ d)) > 0.0:
        t_ls = -float(gb @ d) / curv
    floor = max(work.nu, 1.0) / max(abs(point.f), 1e-2)
    return min(max(t_ls, floor, 1e-2), 1e8)


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


def _center(work: _Work, x: np.ndarray, point: _Point, t: float,
            t_next: Optional[float] = None):
    """Damped Newton from x, evaluated as ``point``, until the half squared
    decrement at barrier weight t is at most ``_NEWTON_TOL``, or, given the
    next stage's weight t_next, at most ``_STAGE_TOL``: only the last
    stage's centre backs the certified gap, so the stages before it are
    centred loosely. Returns the last point, its evaluation, the Newton
    steps taken and the status.

    An accepted trial point carries its evaluation to the next step's
    ``assemble``. Each step also solves for the path tangent B^-1 grad F;
    given t_next, a centring that ends "ok" returns ``_predict``'s point
    instead of the centred one."""
    fref = point.f
    tol = _NEWTON_TOL if t_next is None else _STAGE_TOL
    # Below this squared-decrement level, computed phi differences drown in
    # rounding noise of t*F, so the sufficient-increase test is skipped and
    # (feasible) full Newton steps are trusted.
    noise = 64.0 * t * (abs(fref) + 1.0) * _EPS
    steps = 0
    gd_full = math.inf      # the decrement before the last step, if that was a full one
    for _ in range(_MAX_NEWTON_PER_STAGE):
        phi0 = point.phi(t, fref)
        gf, gb, band = work.assemble(x, point, t)
        g = (t * gf + gb)[work.free]
        # the path tangent rides as a second column of the same factorization
        sol = _newton_direction(band, np.array((g, gf[work.free])).T)
        if sol is None:
            return x, point, steps, "numerical-failure"
        step, tangent = sol.T
        gd = float(g @ step)
        # below the noise level, a full step that did not shrink gd shows its rounding floor
        if gd <= 2.0 * tol or gd_full <= gd <= noise:
            if t_next is not None:
                x, point = _predict(work, x, point, tangent, t, t_next)
            return x, point, steps, "ok"
        use_armijo = gd > noise
        d = np.zeros(work.n)
        d[work.free] = step
        found = _search(work, x, point, d, lambda trial, s: (
            not use_armijo or trial.phi(t, fref) >= phi0 + _ARMIJO * s * gd))
        steps += 1
        if found is None:
            # No strictly feasible improving step at this precision.
            return x, point, steps, "stalled"
        x, point, s = found
        gd_full = gd if s == 1.0 else math.inf
    return x, point, steps, "max-iter"


def _predict(work: _Work, x: np.ndarray, point: _Point, tangent: np.ndarray,
             t: float, t_next: float):
    """Predictor from the point x centred at weight t toward weight t_next.

    With ``tangent`` = B^-1 grad F on the free coordinates (B the negated
    barrier Hessian at x), the central path's first-order move from 1/t to
    1/t_next is t (1 - t/t_next) tangent. It is halved until the moved point
    is strictly feasible and has a higher phi at t_next than x, both shifted
    by F(x). Returns the moved point and its evaluation, or x and ``point``
    if no trial passes.
    """
    dx = np.zeros(work.n)
    dx[work.free] = t * (1.0 - t / t_next) * tangent
    phi0 = point.phi(t_next, point.f)
    found = _search(work, x, point, dx, lambda trial, s: trial.phi(t_next, point.f) > phi0)
    return (x, point) if found is None else found[:2]
