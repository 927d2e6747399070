"""Self-contained interior-point solver for the trajectory program.

``solve`` maximizes the concave objective F of a
``StructuredConvexProgram`` over its rows c_i(x) >= 0 (linear rows and
speed rows h^2 - |x_j - x_i|^2) in two phases, from the strictly feasible
start bundled with the program. The first is a primal-dual method with
Mehrotra's predictor-corrector (Mehrotra, SIAM J. Optim. 1992; Nocedal &
Wright, Numerical Optimization, ch. 19) on the exact rows, so every
iterate stays strictly feasible; ``_primal_dual`` describes its iteration,
step rule and safeguard. The second certifies the result: the log barrier
t*F + sum(log c_i) at t_final = nu/``_GAP_TOL`` is centred by damped Newton
with backtracking until the half squared decrement is at most
``_NEWTON_TOL``, so the returned point is within nu/t_final of the optimum
(Boyd & Vandenberghe §11.2). Speed rows count with degree 2 toward the
total barrier degree nu, linear rows with degree 1. A linear row's
reciprocal objective term -k/(s + o) is a function of the row's slack s,
so it adds to the weight of the row's own block a a^T and needs no
entries of its own.

Fixed coordinates are held exactly by restricting steps to the free
coordinates. Newton systems are banded. A ``_Pattern`` holds the
half-bandwidth and the place of every Jacobian and Hessian entry, the
Hessian's in lower band storage, column-major as LAPACK keeps it; it is
built once per program structure and reused while the structure repeats,
as it does over a run's alternations. Each step scatters the entry values
there with one ``np.bincount`` and factors with LAPACK's banded Cholesky
(``dpbtrf``/``dpbtrs``), loaded from scipy's extension module by file
location: importing ``scipy.linalg`` would cost more start-up than a
default run takes to plan. ``_Work`` fills one value buffer in place. A
point's evaluation travels with it from one step to the next; primal-dual
trial points are checked for feasibility only. In the trajectory program's
slot-major variable order the bandwidth does not grow with the slot count,
so a step costs O(n). Everything is deterministic: identical inputs produce
identical iterate sequences.

``water_fill`` solves the power program, a ``PowerProgram``: in closed form
given the budget's multiplier, which a bracketed Newton search on the dual
finds.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from importlib import machinery, util
from typing import NamedTuple, Optional

import numpy as np

from .surrogate import PowerProgram, StructuredConvexProgram


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
    status: str              # "optimal" | "max-iter" | "stalled" | "numerical-failure"

    @property
    def stages(self) -> int:
        """Barrier centrings that ran to an end: 1, or 0 after a numerical failure."""
        return int(self.status != "numerical-failure")


class _Point(NamedTuple):
    """What ``_Work.evaluate`` finds at a strictly feasible point: the
    objective, the speed-row differences and every row's slack, in the
    pattern's row order."""

    f: float
    y: np.ndarray
    s: np.ndarray

    def phi(self, t: float, fref: float) -> float:
        """The shifted barrier objective t*(F - fref) + sum of log slacks."""
        return t * (self.f - fref) + float(np.log(self.s).sum())


def _block_entries(idx: np.ndarray):
    """Row and column of every entry of the k x k block over each row of
    the (m, k) index array idx, block by block in row-major order."""
    m, k = idx.shape
    return (np.broadcast_to(idx[:, :, None], (m, k, k)).ravel(),
            np.broadcast_to(idx[:, None, :], (m, k, k)).ravel())


class _Pattern:
    """Where each row's Jacobian entries and each Hessian entry of one
    program structure go: the rows, the free coordinates, and the gradient
    and band positions that ``_Work.assemble`` scatters values to.

    The rows are the linear rows, then the speed rows. ``of`` keeps the last
    pattern it built and hands it out again while the structure repeats, as
    it does from one alternation of a run to the next."""

    _last = None

    @classmethod
    def of(cls, prog: StructuredConvexProgram) -> "_Pattern":
        """prog's pattern; read-only arrays that are the last program's own are not compared."""
        struct = (prog.quad_i, prog.lin_i, prog.speed_i, prog.speed_j, prog.fixed_idx)
        pat = cls._last
        if not (pat and all(a is b and not a.flags.writeable for a, b in zip(struct, pat.struct))):
            key = tuple((a.dtype.str, a.shape, a.tobytes()) for a in struct)
            if not pat or pat.key != key:
                pat = cls._last = cls(prog, key)
            pat.struct = struct
        return pat

    def __init__(self, prog: StructuredConvexProgram, key: tuple):
        self.key = key
        n = self.n = prog.n
        # coordinates (x[i], x[j]) of every speed row
        self.sp_idx = np.concatenate([prog.speed_i, prog.speed_j], axis=1)
        free = np.ones(n, dtype=bool)
        free[prog.fixed_idx] = False
        self.free = np.nonzero(free)[0]
        lin_i = prog.lin_i
        (m_lin, k), m_sp = lin_i.shape, prog.speed_h.size
        # rows [0, sp0) are the linear rows and [sp0, m) the speed rows
        self.sp0, self.m = m_lin, m_lin + m_sp
        self.nu = self.m + m_sp
        # Jacobian pattern: the coordinate and the row of every entry of the
        # rows' Jacobian J, in the order of ``assemble``'s Jacobian values
        self.jac_idx = np.concatenate([lin_i.ravel(), self.sp_idx.ravel()])
        row = np.arange(self.m)
        self.jac_row = np.concatenate([np.repeat(row[:m_lin], k), np.repeat(row[m_lin:], 4)])
        gf_idx = np.concatenate([prog.quad_i, lin_i.ravel()])

        # Hessian pattern: one (row, col) entry per value ``assemble`` puts
        # in its curvature views, in the same order. A linear row of arity k
        # touches the k x k block a a^T of its coordinates, times the row's
        # weight; a speed row the 4 x 4 block of its two points.
        (lin_r, lin_c), (sp_r, sp_c) = _block_entries(lin_i), _block_entries(self.sp_idx)
        rows = np.concatenate([prog.quad_i, lin_r, sp_r])
        cols = np.concatenate([prog.quad_i, lin_c, sp_c])
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
        # gradient into bins [0, n) and the band after them.
        self.sum_idx = np.concatenate([gf_idx, scatter + n])
        self.band_end = n + band_size
        # ``_Work``'s views of its value buffer, (start, stop, shape): each family's
        # values in sum_idx's order, then J's in jac_idx's order
        n_quad = prog.quad_i.size
        shapes = [(n_quad,), (m_lin, k), (n_quad,), (m_lin, k, k), (m_sp, 4, 4),
                  (m_lin * k,), (m_sp, 4)]
        stops = np.cumsum([math.prod(shape) for shape in shapes]).tolist()
        self.views = [(stop - math.prod(shape), stop, shape) for stop, shape in zip(stops, shapes)]


class _Work:
    """One program's pattern and coefficients, and the value buffer that
    ``assemble`` fills in place, one view per term or row family."""

    def __init__(self, prog: StructuredConvexProgram):
        self.prog = prog
        pat = self.pattern = _Pattern.of(prog)
        self.sp_h2 = prog.speed_h * prog.speed_h
        self.lin_aa = prog.lin_a[:, :, None] * prog.lin_a[:, None, :]
        self.neg_lin_a, self.neg_b2, self.quad_t = -prog.lin_a, -2.0 * prog.quad_beta, None
        self.q = np.zeros(pat.m)   # ``max_step``'s a^2 terms: 0 but on speed rows
        buf = np.empty(pat.views[-1][1])
        self.values, self.jac = buf[: pat.sum_idx.size], buf[pat.sum_idx.size:]
        self.sp_outer = np.empty((prog.speed_h.size, 4, 4))   # scratch
        (self.quad_g, self.lin_g, self.quad_h, self.lin_h, self.sp_h, lin_jac, self.sp_jac) = (
            buf[start: stop].reshape(shape) for start, stop, shape in pat.views)
        lin_jac[:] = self.neg_lin_a.ravel()

    def evaluate(self, x: np.ndarray, objective: bool = True) -> Optional[_Point]:
        """Objective, speed-row differences and row slacks (linear, then
        speed rows) at x, or None if x is not strictly feasible. The
        objective reuses the linear rows' slacks; without ``objective`` f is
        None."""
        prog, pat = self.prog, self.pattern
        s = np.empty(pat.m)
        s[: pat.sp0] = lin = prog.lin_slack(x)
        y = x[prog.speed_j] - x[prog.speed_i]
        np.subtract(self.sp_h2, np.add.reduce(y * y, axis=1), out=s[pat.sp0:])
        if np.minimum.reduce(s, initial=math.inf) <= 0.0:
            return None
        if not objective:
            return _Point(None, y, s)
        f = prog.objective_value(x, lin)
        return _Point(f, y, s) if math.isfinite(f) else None

    def assemble(self, x: np.ndarray, point: _Point, t: float, w: np.ndarray):
        """At the evaluated point x, with objective weight t and one weight
        w_i per row c_i >= 0: the objective's gradient, the matrix

            t (-Hess F) + sum_i w_i (-Hess c_i) + sum_i (w_i / c_i) grad c_i grad c_i^T

        on the free coordinates in lower band storage, as an F-contiguous
        (kd + 1, free count) view, the values of J's entries in the
        pattern's order, and w/c. With w = 1/c the matrix is the negated
        Hessian of t*F + log barrier; with w the rows' duals at t = 1, the
        primal-dual system's reduced matrix. J's values are a view of the
        buffer, which the next call overwrites."""
        prog, pat = self.prog, self.pattern
        wc = w / point.s
        # -(2 beta (x - c)), and its constant curvature 2 beta t
        np.multiply(self.neg_b2, np.subtract(x[prog.quad_i], prog.quad_c, out=self.quad_g),
                    out=self.quad_g)
        if t != self.quad_t:
            np.multiply(t, -self.neg_b2, out=self.quad_h)
            self.quad_t = t
        # -k/(s + o) for each linear row's slack s: its gradient along the
        # row, and its negated curvature weight
        r_lin = point.s[: pat.sp0] + prog.lin_o
        k_r2 = prog.lin_k / (r_lin * r_lin)
        np.multiply(self.neg_lin_a, k_r2[:, None], out=self.lin_g)
        w_lin = wc[: pat.sp0] + 2.0 * t * k_r2 / r_lin
        np.multiply(self.lin_aa, w_lin[:, None, None], out=self.lin_h)
        # h^2 - |y|^2: gradient G and negated Hessian _SPEED_CURV over the
        # row's four coordinates (x[i], x[j])
        G = self.sp_jac
        np.multiply(2.0, point.y, out=G[:, :2])
        np.negative(G[:, :2], out=G[:, 2:])
        sp = slice(pat.sp0, None)
        np.multiply(_SPEED_CURV, w[sp, None, None], out=self.sp_h)
        np.multiply(G[:, :, None], (G * wc[sp, None])[:, None, :], out=self.sp_outer)
        self.sp_h += self.sp_outer

        n = pat.n
        # (bincount of no values at all comes back as integers)
        total = np.bincount(pat.sum_idx, self.values,
                            minlength=pat.band_end + 1).astype(float, copy=False)
        return (total[:n], total[n: pat.band_end].reshape(pat.free.size, pat.kd + 1).T,
                self.jac, wc)

    def jac_dot(self, jac: np.ndarray, d: np.ndarray) -> np.ndarray:
        """J d: each row's directional derivative along d (all n coordinates)."""
        pat = self.pattern
        return np.bincount(pat.jac_row, jac * d[pat.jac_idx], minlength=pat.m)

    def jac_t_dot(self, jac: np.ndarray, v: np.ndarray) -> np.ndarray:
        """J^T v, on the free coordinates."""
        pat = self.pattern
        return np.bincount(pat.jac_idx, jac * v[pat.jac_row], minlength=pat.n)[pat.free]

    def max_step(self, point: _Point, d: np.ndarray, dc: np.ndarray,
                 lam: np.ndarray, dl: np.ndarray) -> float:
        """The largest step a <= 1 along (d, dl) that keeps every row's slack
        (at least one) and every dual lam at least ``_KEEP`` of its value:
        c_i(x + a d) >= _KEEP c_i(x), exactly, and lam + a dl >= _KEEP lam.
        dc is J d. Along d each slack is c + a dc + a^2 q, with q = 0 for a
        linear row and -|d_j - d_i|^2 <= 0 for a speed row; the slacks'
        bound is the least positive root of c (1 - _KEEP) + a dc + a^2 q."""
        prog, pat, q = self.prog, self.pattern, self.q
        e = d[prog.speed_j] - d[prog.speed_i]
        np.negative(np.einsum("ij,ij->i", e, e), out=q[pat.sp0:])
        # twice the room (1 - _KEEP) c, exactly: 4 q room = q (2 room2), 2 room = room2
        room2 = (2.0 * (1.0 - _KEEP)) * point.s
        # q <= 0, so disc >= 0, and the root is 2 room / (-dc + sqrt(disc)),
        # the form that cancels nothing; a row whose denominator is 0 (dc >= 0
        # on a linear row) limits nothing
        disc = dc * dc - q * (room2 + room2)
        den = np.sqrt(disc) - dc
        return 1.0 / max(1.0, float(np.maximum.reduce(den / room2)),
                         -float(np.minimum.reduce(dl / lam)) / (1.0 - _KEEP))


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


def solve(prog: StructuredConvexProgram) -> Solution:
    """Maximize the trajectory program's concave objective over its rows.

    ``_primal_dual`` runs from the bundled start, with the duals at the
    central-path weight t0 = nu/max(|F(start)|, 1e-2), and ``_center``
    centres its last point on the log barrier at t_final = nu/``_GAP_TOL``,
    which certifies ``gap_bound`` = nu/t_final. ``newton_steps`` counts the
    primal-dual iterations and the centring's Newton steps. Raises
    ValueError if the bundled start is not strictly feasible. Returns status
    "numerical-failure" with the last iterate if a Newton system cannot be
    solved even after diagonal regularization, and "max-iter" or "stalled"
    if the centring ran out of Newton steps or found no strictly feasible
    improving step before its decrement test held.
    """
    work = _Work(prog)
    x = np.asarray(prog.start, dtype=float).copy()
    x[prog.fixed_idx] = prog.fixed_val
    point = work.evaluate(x)
    if point is None:
        raise ValueError("program start point is not strictly feasible")

    nu = work.pattern.nu
    t_final = max(nu, 1.0) / _GAP_TOL
    t0 = max(nu, 1.0) / max(abs(point.f), 1e-2)
    x, point, steps, status = _primal_dual(work, x, point, t0, t_final)
    if point.f is None:     # the primal-dual loop checks its trial points for feasibility only
        point = point._replace(f=prog.objective_value(x))
    if status != "numerical-failure":
        x, point, centring, status = _center(work, x, point, t_final)
        steps += centring
    return Solution(x=x, objective=point.f, gap_bound=nu / t_final, newton_steps=steps,
                    status="optimal" if status == "ok" else status)


def _fraction_to_zero(v: np.ndarray, dv: np.ndarray, keep: float) -> float:
    """The largest a <= 1 with v + a dv >= keep v, for v > 0 (not empty)."""
    return 1.0 / max(1.0, -float(np.minimum.reduce(dv / v)) / (1.0 - keep))


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
        gf, band, jac, lc = work.assemble(x, point, 1.0, lam)
        chol = _cholesky(band)
        r = gf[pat.free]
        u = work.jac_t_dot(jac, 1.0 / c)
        sol = None if chol is None else _back_solve(chol, np.array((r, u)).T)
        if sol is None:
            return x, point, steps, "numerical-failure"
        dx_a, w = sol.T
        target = max(mu, mu_final)
        step = dx_a + target * w
        if float((r + target * u) @ step) <= target * pat.nu:
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
            d[pat.free] = step
            v = target / c
        dc = work.jac_dot(jac, d)
        dl = v - lam - lc * dc
        a = work.max_step(point, d, dc, lam, dl)
        found = _search(work, x, a * d)
        steps += 1
        if found is None:
            return x, point, steps, "stalled"
        x, point, s = found
        lam = lam + s * a * dl
        if target == mu_final and s * a == 1.0:
            break
    return x, point, steps, "ok"


def water_fill(prog: PowerProgram) -> np.ndarray:
    """Water-filling maximizer of a power program (Boyd & Vandenberghe 5.5.3).

    The program is sum_k alpha_k ln(1 + a_k x_k) + c.x, c < 0, over the box
    [0, ub] and the budget sum_k x_k <= b. For the budget's multiplier lam,
    x_k = clip(alpha_k/(lam - c_k) - 1/a_k, 0, ub_k). lam is 0 if that fits
    the budget; otherwise the bracket between 0 and max(alpha*a + c), where
    x = 0, is shrunk until it stops shrinking, and the point at the
    bracket's feasible end is returned.

    Each probe of the bracket is a Newton step on the dual, toward the
    root of S(lam) = b, with S(lam) = sum_k x_k and S' = the sum of
    -alpha_k/(lam - c_k)^2 over the coordinates strictly inside their box.
    A step from a probe whose powers exceed the budget is doubled if the
    probe before did too, so that the bracket closes from both ends. A step
    that leaves the bracket is replaced by a probe inside the end it points
    past, by its overshoot (at least a float spacing, doubling while steps
    keep leaving), or by the midpoint if that is nearer. Each computed x_k,
    and so the computed S, is non-increasing in lam, so the bracket ends at
    the same lam as plain bisection, whatever the probes: the smallest float
    whose powers fit the budget.
    """
    alpha, a, c, ub, budget = prog.alpha, prog.a, prog.c, prog.ub, prog.budget
    inv_a = 1.0 / a

    def point(lam):
        q = alpha / (lam - c)
        return q, np.minimum(np.maximum(q - inv_a, 0.0), ub)   # np.clip, minus its dispatch

    lo, hi = 0.0, float(np.max(alpha * a + c))
    lam = lo
    q, x = point(lam)
    total = np.add.reduce(x)
    if total <= budget:
        return x
    short = False           # whether the probe before lam exceeded the budget too
    reach = 0.0             # the last replacement probe's distance from its end
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        probe = mid
        slope = float(np.dot(q * q, ((x > 0.0) & (x < ub)) / alpha))
        if slope > 0.0:
            step = float(total - budget) / slope
            newton = lam + (2.0 * step if short and total > budget else step)
            if lo < newton < hi:
                probe, reach = newton, 0.0
            else:
                end = hi if newton >= hi else lo
                reach = max(2.0 * reach, abs(newton - end), float(np.spacing(end)))
                if reach < 0.5 * (hi - lo):
                    probe = end - reach if end == hi else end + reach
        short = total > budget
        lam = probe
        q, x = point(lam)
        total = np.add.reduce(x)
        if total <= budget:
            hi = lam
        else:
            lo = lam
    return point(hi)[1]


def _search(work: _Work, x: np.ndarray, d: np.ndarray, accept=None):
    """Backtracking from x along d: the first of x + s d, s = 1, 1/2,
    1/4, ... (at most ``_MAX_BACKTRACKS``) that is strictly feasible and
    passes ``accept(trial, s)``, as (point, evaluation, s), or None;
    without ``accept``, the first strictly feasible one, maybe without f."""
    s = 1.0
    for _ in range(_MAX_BACKTRACKS):
        xn = x + d if s == 1.0 else x + s * d
        trial = work.evaluate(xn, accept is not None)
        if trial is not None and (accept is None or accept(trial, s)):
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
        w = 1.0 / point.s
        gf, band, jac, _ = work.assemble(x, point, t, w)
        g = t * gf[free] + work.jac_t_dot(jac, w)
        chol = _cholesky(band)
        step = None if chol is None else _back_solve(chol, g)
        if step is None:
            return x, point, steps, "numerical-failure"
        gd = float(g @ step)
        # below the noise level, a full step that did not shrink gd shows its rounding floor
        if gd <= 2.0 * _NEWTON_TOL or gd_full <= gd <= noise:
            return x, point, steps, "ok"
        use_armijo = gd > noise
        phi0 = point.phi(t, fref) if use_armijo else None
        d = np.zeros(work.pattern.n)
        d[free] = step
        found = _search(work, x, d, lambda trial, s: (
            not use_armijo or trial.phi(t, fref) >= phi0 + _ARMIJO * s * gd))
        steps += 1
        if found is None:
            # No strictly feasible improving step at this precision.
            return x, point, steps, "stalled"
        x, point, s = found
        gd_full = gd if s == 1.0 else math.inf
    return x, point, steps, "max-iter"
