"""Self-contained interior-point solver for the trajectory program.

``solve`` maximizes the concave objective F of a
``StructuredConvexProgram`` over its rows c_i(x) >= 0 (distance rows,
linear in one slot's position, and speed rows h^2 - |x[n + 1] - x[n]|^2)
in two phases, from the strictly feasible start bundled with the program.
The first is a primal-dual method with Mehrotra's predictor-corrector
(Mehrotra, SIAM J. Optim. 1992; Nocedal & Wright, Numerical Optimization,
ch. 19) on the exact rows, so every iterate stays strictly feasible;
``_primal_dual`` describes its iteration, step rule and safeguard. The
second certifies the result: the log barrier t*F + sum(log c_i) at
t_final = nu/``_GAP_TOL`` is centred by damped Newton with backtracking
until the half squared decrement is at most ``_NEWTON_TOL``, so the
returned point is within nu/t_final of the optimum (Boyd & Vandenberghe
§11.2). Speed rows count with degree 2 toward the total barrier degree nu,
distance rows with degree 1. A distance row's reciprocal objective term
-k/(s + o) is a function of the row's slack s, so it adds to the weight of
the row's own block a a^T and needs no entries of its own.

The two end slots are held exactly: steps move only the free slots between
them. In slot order a Newton system over their coordinates is banded with
half-bandwidth 3 whatever the slot count, so a step costs O(N). ``_Work``
fills the band and the gradient directly, each entry as a sum over term
families added in one fixed order, and takes J d and J^T v slot by slot.
It factors with LAPACK's banded Cholesky (``dpbtrf``/``dpbtrs``) of the
OpenBLAS that numpy itself links, called through ``ctypes`` into buffers
that ``_Banded`` makes once per solve, so a process maps one OpenBLAS and
imports no scipy. A point's evaluation travels with it from one step to
the next; primal-dual trial points are checked for feasibility only.
Everything is deterministic: identical inputs produce identical iterate
sequences.

``water_fill`` solves the power program, a ``PowerProgram``: in closed form
given the budget's multiplier, which a bracketed Newton search on the dual
finds.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
from numpy._core import _multiarray_umath

from .surrogate import PowerProgram, StructuredConvexProgram


def _load_lapack(path: str):
    """``dpbtrf`` and ``dpbtrs`` with 64-bit integers, of the library at path
    or of one it links: numpy's ``_multiarray_umath`` links numpy's OpenBLAS."""
    lib = ctypes.CDLL(path)
    for name in ("scipy_dpbtrf_64_", "scipy_dpbtrs_64_"):
        if not hasattr(lib, name):
            raise ImportError(f"LAPACK's {name} is not in {path} or a library it links")
        getattr(lib, name).restype = None
    return lib.scipy_dpbtrf_64_, lib.scipy_dpbtrs_64_


_PBTRF, _PBTRS = _load_lapack(_multiarray_umath.__file__)
# uplo = "L", by reference, and the hidden length Fortran passes with a character argument
_LOWER, _LOWER_LEN = ctypes.byref(ctypes.c_char(b"L")), ctypes.c_size_t(1)

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
# The curvature 2 A^T A of a speed row's |x[n + 1] - x[n]|^2, A = [-I I],
# is 2 [[I, -I], [-I, I]]: this is the quarter 2 I, by entry (2, 2, 1).
_SPEED_CURV = np.array([[[2.0], [0.0]], [[0.0], [2.0]]])
# The band's half-width: in slot order a speed row couples a slot's two
# coordinates to the next slot's.
_KD = 3
# A speed row's block of a Newton matrix over (x[n], x[n + 1]) is
# [[U, -U], [-U, U]]. Where a free slot's band entries (2, _KD + 1) are
# among the entries U00, U01, U10, U11, -U00, -U01, -U10, -U11 and 0 (8):
# in the row to the slot or, for the last free slot, the row from it (U's
# lower half), and in the row from any other free slot (the block's left
# half).
_SPEED_BAND = np.array([[[0, 2, 8, 8], [3, 8, 8, 8]],
                        [[0, 2, 4, 6], [3, 5, 7, 8]]])


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
    objective, the speed-row differences and every row's slack, the
    distance rows first."""

    f: float
    y: np.ndarray
    s: np.ndarray

    def phi(self, t: float, fref: float) -> float:
        """The shifted barrier objective t*(F - fref) + sum of log slacks."""
        return t * (self.f - fref) + float(np.log(self.s).sum())


class _Work:
    """One program's coefficients and the buffers that ``assemble``,
    ``jac_dot`` and ``jac_t_dot`` fill in place.

    The rows are the distance rows, receiver by receiver and slot by slot,
    then the speed rows n = 0 .. N - 2, from slot n to slot n + 1. A Newton
    system is over the free slots' coordinates, slot by slot. Each of its
    entries sums the terms of the quad term, each receiver's row, the speed
    row to the slot and the one from it; a layer per family holds them over
    every slot, and one ``np.add.reduce`` from 0 adds the layers in that
    fixed order."""

    def __init__(self, prog: StructuredConvexProgram):
        self.prog = prog
        R, N = prog.lin_b.shape
        rn = self.rn = R * N      # rows [0, rn) are the distance rows, [rn, m) the speed rows
        self.m = rn + N - 1
        self.nu = self.m + N - 1  # a speed row counts with degree 2
        self.lin_o, self.lin_k = prog.lin_o.ravel(), prog.lin_k.ravel()
        self.neg_b2, self.quad_t = -2.0 * prog.quad_beta, None
        self.q = np.zeros(self.m)   # ``max_step``'s a^2 terms: 0 but on speed rows
        self.d = np.zeros((N, 2))   # ``direction``'s buffer; its ends stay 0
        self.d_free = self.d.reshape(2 * N)[2:-2]
        # J by slot: each slot's gradient in each receiver's row, in the
        # speed row from the slot and in the one to it, 0 where there is
        # none; ``assemble`` writes the speed rows'
        jac = self.jac = np.zeros((R + 2, N, 2))
        np.negative(prog.lin_a, out=jac[:R])
        self.jac_lin, self.jac_from, self.jac_to = jac[:R].reshape(rn, 2), jac[R, :-1], jac[-1, 1:]
        # the terms jac * d of J d: row i's first two are entries 2i and
        # 2i + 1, speed row n's last two the slot n + 1 entries of its row
        self.jd = np.empty((R + 2, N, 2))
        self.jd_pairs = self.jd.reshape(-1)[: 2 * self.m].reshape(self.m, 2).T
        # layers (slot, coordinate) of the objective's gradient, the quad
        # term, each receiver's row and 0s, and of J^T v, each receiver's
        # row, then the speed rows to and from the slot
        sums = np.zeros((2, R + 2, N, 2))
        self.quad_g, self.lin_g = sums[0, 0], sums[0, 1: R + 1].reshape(rn, 2)
        self.jt_lin = sums[1, :R].reshape(rn, 2)
        self.jt_to, self.jt_from = sums[1, R, 1:], sums[1, R + 1, :-1]
        self.sums_free = sums[:, :, 1:-1].reshape(2, R + 2, 2 * N - 4)
        # The band, column-major as LAPACK keeps it, and its view
        # band[k, 2s + a] -> (s, a, k): free slot s, coordinate a, entry k
        # rows below the diagonal. Its layers: the quad term, each
        # receiver's row's block a a^T, and the speed rows to and from the
        # slot, gathered by ``sp_index``.
        self.banded = _Banded(2 * N - 4, _KD)
        self.band = np.zeros((_KD + 1, 2 * N - 4), order="F")
        self.band_view = self.band.T.reshape(N - 2, 2, _KD + 1)
        layers = np.zeros((R + 3, N, 2, _KD + 1))
        self.quad_h = layers[0, :, :, 0]
        self.lin_h = layers[1: R + 1].reshape(rn, 2 * _KD + 2)
        self.sp_layers, self.band_layers = layers[R + 1:, 1:-1], layers[:, 1:-1]
        self.lin_aa = np.zeros((rn, 2 * _KD + 2))
        np.multiply(self.jac_lin, self.jac_lin[:, :1], out=self.lin_aa[:, :2])
        np.multiply(self.jac_lin[:, 1], self.jac_lin[:, 1], out=self.lin_aa[:, _KD + 1])
        # each speed row's U and -U, entry by entry, then a row of 0s; the
        # row to free slot s is row s, the row from it s + 1
        self.sp_blocks = np.zeros(9 * (N - 1))
        self.sp_u = self.sp_blocks[: 4 * (N - 1)].reshape(2, 2, N - 1)
        self.sp_neg_u = self.sp_blocks[4 * (N - 1): 8 * (N - 1)].reshape(2, 2, N - 1)
        self.sp_index = (N - 1) * _SPEED_BAND[:, None] + np.arange(N - 2)[:, None, None]
        self.sp_index[1] += 1
        self.sp_index[1, -1:] = self.sp_index[0, -1:] + 1

    def evaluate(self, x: np.ndarray, objective: bool = True) -> Optional[_Point]:
        """Objective and ``prog.slacks`` at x, or None if x is not strictly
        feasible. The objective reuses the slacks; without ``objective`` f
        is None."""
        y, s = self.prog.slacks(x)
        if np.minimum.reduce(s, initial=math.inf) <= 0.0:
            return None
        if not objective:
            return _Point(None, y, s)
        f = self.prog.objective_value(x, s)
        return _Point(f, y, s) if math.isfinite(f) else None

    def assemble(self, x: np.ndarray, point: _Point, t: float, w: np.ndarray):
        """At the evaluated point x, with objective weight t and one weight
        w_i per row c_i >= 0: the objective's gradient and J^T (1/c), as the
        rows of one (2, 2(N - 2)) array, the matrix

            t (-Hess F) + sum_i w_i (-Hess c_i) + sum_i (w_i / c_i) grad c_i grad c_i^T

        in lower band storage, as an F-contiguous (kd + 1, 2(N - 2)) array,
        all on the free coordinates, and w/c. With w = 1/c the matrix is the
        negated Hessian of t*F + log barrier, whose gradient is t grad F +
        J^T (1/c); with w the rows' duals at t = 1, the primal-dual system's
        reduced matrix. The band is the work's buffer, which the next call
        overwrites; ``jac_dot`` and ``jac_t_dot`` take J at x from here on."""
        prog, rn = self.prog, self.rn
        wc = w / point.s
        # -(2 beta (x - c)), and its constant curvature 2 beta t
        np.multiply(self.neg_b2, np.subtract(x, prog.quad_c, out=self.quad_g), out=self.quad_g)
        if t != self.quad_t:
            np.multiply(t, -self.neg_b2, out=self.quad_h)
            self.quad_t = t
        # -k/(s + o) for each distance row's slack s: its gradient along the
        # row, and its negated curvature weight
        r_lin = point.s[:rn] + self.lin_o
        k_r2 = self.lin_k / (r_lin * r_lin)
        np.multiply(self.jac_lin, k_r2[:, None], out=self.lin_g)
        w_lin = wc[:rn] + 2.0 * t * k_r2 / r_lin
        np.multiply(self.lin_aa, w_lin[:, None], out=self.lin_h)
        # h^2 - |y|^2: gradient g = 2y at x[n] and -g at x[n + 1], and
        # U = 2 w I + g g^T w/c
        np.multiply(2.0, point.y, out=self.jac_from)
        np.negative(self.jac_from, out=self.jac_to)
        g, sp = self.jac_from.T, slice(rn, None)
        np.multiply(_SPEED_CURV, w[sp], out=self.sp_u)
        self.sp_u += g[:, None] * (g * wc[sp])
        np.negative(self.sp_u, out=self.sp_neg_u)
        self.sp_layers[...] = self.sp_blocks[self.sp_index]
        np.add.reduce(self.band_layers, axis=0, out=self.band_view, initial=0.0)
        self._jt_layers(1.0 / point.s)
        return np.add.reduce(self.sums_free, axis=1, initial=0.0), self.band, wc

    def jac_dot(self, d: np.ndarray) -> np.ndarray:
        """J d: each row's derivative along the move d (N, 2), its terms
        added in the order of the row's coordinates."""
        jd = self.jd
        np.multiply(self.jac, d, out=jd)
        dc = np.add(*self.jd_pairs)
        speed = dc[self.rn:]
        speed += jd[-1, 1:, 0]
        speed += jd[-1, 1:, 1]
        return dc

    def jac_t_dot(self, v: np.ndarray) -> np.ndarray:
        """J^T v, on the free coordinates."""
        self._jt_layers(v)
        return np.add.reduce(self.sums_free[1], axis=0, initial=0.0)

    def _jt_layers(self, v: np.ndarray):
        """Fill the layers of J^T v."""
        rn = self.rn
        np.multiply(self.jac_lin, v[:rn, None], out=self.jt_lin)
        np.multiply(self.jac_from, v[rn:, None], out=self.jt_from)
        np.negative(self.jt_from, out=self.jt_to)     # jac_to is -jac_from

    def direction(self, step: np.ndarray) -> np.ndarray:
        """The step on the free coordinates as a move (N, 2) of every slot,
        0 at the endpoints: a view of one buffer, which the next call overwrites."""
        self.d_free[...] = step
        return self.d

    def max_step(self, point: _Point, d: np.ndarray, dc: np.ndarray,
                 lam: np.ndarray, dl: np.ndarray) -> float:
        """The largest step a <= 1 along (d, dl) that keeps every row's slack
        (at least one) and every dual lam at least ``_KEEP`` of its value:
        c_i(x + a d) >= _KEEP c_i(x), exactly, and lam + a dl >= _KEEP lam.
        dc is J d. Along d each slack is c + a dc + a^2 q, with q = 0 for a
        distance row and -|d[n + 1] - d[n]|^2 <= 0 for a speed row; the
        slacks' bound is the least positive root of c (1 - _KEEP) + a dc + a^2 q."""
        q = self.q
        e = d[1:] - d[:-1]
        np.negative(e[:, 0] * e[:, 0] + e[:, 1] * e[:, 1], out=q[self.rn:])
        # twice the room (1 - _KEEP) c, exactly: 4 q room = q (2 room2), 2 room = room2
        room2 = (2.0 * (1.0 - _KEEP)) * point.s
        # q <= 0, so disc >= 0, and the root is 2 room / (-dc + sqrt(disc)),
        # the form that cancels nothing; a row whose denominator is 0 (dc >= 0
        # on a distance row) limits nothing
        disc = dc * dc - q * (room2 + room2)
        den = np.sqrt(disc) - dc
        return 1.0 / max(1.0, float(np.maximum.reduce(den / room2)),
                         -float(np.minimum.reduce(dl / lam)) / (1.0 - _KEEP))


class _Banded:
    """LAPACK's banded Cholesky of an n x n matrix of half-bandwidth kd: the
    column-major factor, a two-column right-hand side, and every argument
    of ``_PBTRF`` and ``_PBTRS``, made once so that no call allocates."""

    def __init__(self, n: int, kd: int):
        self.factor, self.rhs = np.zeros((kd + 1, n), order="F"), np.zeros((n, 2), order="F")
        self.info, self.nrhs = ctypes.c_int64(), ctypes.c_int64()
        n_, kd_, ld_ab = map(ctypes.byref, map(ctypes.c_int64, (n, kd, kd + 1)))
        info, nrhs = ctypes.byref(self.info), ctypes.byref(self.nrhs)
        ab, b = (ctypes.c_void_p(a.ctypes.data) for a in (self.factor, self.rhs))
        self.pbtrf_args = (_LOWER, n_, kd_, ab, ld_ab, info, _LOWER_LEN)
        self.pbtrs_args = (_LOWER, n_, kd_, nrhs, ab, ld_ab, b, n_, info, _LOWER_LEN)


def _cholesky(chol: _Banded, band: np.ndarray) -> Optional[_Banded]:
    """chol holding the lower band Cholesky factor of B, regularizing B on
    failure; None if B is not finite or no regularization lets it factor.

    B is given in lower band storage, shaped as chol's factor:
    ``band[k, j]`` holds B[j + k, j]. ``band`` is left unchanged.
    """
    if not np.isfinite(band).all():
        return None
    if band.shape[1] == 0:
        return chol
    factor, reg = chol.factor, 0.0
    for _ in range(_REG_ESCALATIONS):
        factor[...] = band
        if reg:
            factor[0] += reg
        _PBTRF(*chol.pbtrf_args)
        if chol.info.value == 0:
            return chol
        reg = 1e-12 * (1.0 + float(np.max(np.abs(band[0])))) if reg == 0.0 else reg * 100.0
    return None


def _back_solve(chol: _Banded, rhs: np.ndarray) -> Optional[np.ndarray]:
    """Solve B d = rhs, rhs (n,) or (n, 2), with B factored in chol by ``_cholesky``;
    None if d is not finite. d is a view of chol.rhs, which the next solve overwrites."""
    if rhs.shape[0] == 0:
        return np.zeros_like(rhs)
    sol = chol.rhs if rhs.ndim == 2 else chol.rhs[:, 0]
    sol[...] = rhs
    chol.nrhs.value = rhs.ndim      # the columns of rhs: (n,) has one, (n, 2) two
    _PBTRS(*chol.pbtrs_args)
    return sol if chol.info.value == 0 and np.isfinite(sol).all() else None


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
    x = np.array(prog.start, dtype=float)
    point = work.evaluate(x)
    if point is None:
        raise ValueError("program start point is not strictly feasible")

    nu = work.nu
    t_final = max(nu, 1.0) / _GAP_TOL
    t0 = max(nu, 1.0) / max(abs(point.f), 1e-2)
    x, point, steps, status = _primal_dual(work, x, point, t0, t_final)
    if point.f is None:     # the primal-dual loop checks its trial points for feasibility only
        point = point._replace(f=prog.objective_value(x, point.s))
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
    m, nu = work.m, work.nu
    mu_final = 1.0 / t_final
    lam = 1.0 / (t0 * point.s)
    steps = 0
    for _ in range(_MAX_PD):
        c = point.s
        mu = float(lam @ c) / m
        ru, band, lc = work.assemble(x, point, 1.0, lam)
        r, u = ru
        chol = _cholesky(work.banded, band)
        sol = None if chol is None else _back_solve(chol, ru.T)
        if sol is None:
            return x, point, steps, "numerical-failure"
        dx_a, w = sol.T
        target = max(mu, mu_final)
        step = dx_a + target * w
        if float((r + target * u) @ step) <= target * nu:
            # Mehrotra's predictor and corrector
            dc = work.jac_dot(work.direction(dx_a))
            dl = -lam - lc * dc
            mu_aff = float((c + _fraction_to_zero(c, dc, 0.0) * dc)
                           @ (lam + _fraction_to_zero(lam, dl, 0.0) * dl)) / m
            target = max(mu * (mu_aff / mu) ** 3, mu_final)
            second = dc * dl / c
            toward = dx_a + target * w      # before the next solve overwrites dx_a and w
            dx_2 = _back_solve(chol, work.jac_t_dot(second))
            if dx_2 is None:
                return x, point, steps, "numerical-failure"
            d = work.direction(toward - dx_2)
            v = target / c - second
        else:
            d = work.direction(step)
            v = target / c
        dc = work.jac_dot(d)
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
    # rounding noise of t*F, which scales with F's terms, not F, when they
    # cancel; so the sufficient-increase test is skipped and (feasible) full
    # Newton steps are trusted.
    prog, diff = work.prog, x - work.prog.quad_c
    scale = (abs(prog.constant) + float((prog.quad_beta * (diff * diff)).sum())
             + float((work.lin_k / (point.s[: work.rn] + work.lin_o)).sum()))
    noise = 64.0 * t * (scale + 1.0) * _EPS
    steps = 0
    gd_full = math.inf      # the decrement before the last step, if that was a full one
    for _ in range(_MAX_NEWTON):
        w = 1.0 / point.s
        gu, band, _ = work.assemble(x, point, t, w)
        g = t * gu[0] + gu[1]
        chol = _cholesky(work.banded, band)
        step = None if chol is None else _back_solve(chol, g)
        if step is None:
            return x, point, steps, "numerical-failure"
        gd = float(g @ step)
        # below the noise level, a full step that did not shrink gd shows its rounding floor
        if gd <= 2.0 * _NEWTON_TOL or gd_full <= gd <= noise:
            return x, point, steps, "ok"
        use_armijo = gd > noise
        phi0 = point.phi(t, fref) if use_armijo else None
        found = _search(work, x, work.direction(step), lambda trial, s: (
            not use_armijo or trial.phi(t, fref) >= phi0 + _ARMIJO * s * gd))
        steps += 1
        if found is None:
            # No strictly feasible improving step at this precision.
            return x, point, steps, "stalled"
        x, point, s = found
        gd_full = gd if s == 1.0 else math.inf
    return x, point, steps, "max-iter"
