"""Scenario types and closed-form link quantities for the secrecy planner.

Conventions used throughout the package:
  - powers in watts, distances in meters, time in seconds;
  - SNRs and the reference SNR ``xi0`` are linear ratios (not dB);
  - rates are in bits per channel use (BPCU);
  - ground nodes live at altitude 0, the UAV at fixed altitude ``H``, so a
    3-D distance is always ``sqrt(|xy offset|^2 + H^2)``.

Everything in this module is a pure function of its inputs and safe for
concurrent use.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import NamedTuple

import numpy as np

LN2 = math.log(2.0)

# Numerical slack on the per-step speed check (meters).
SPEED_SLACK = 1e-9
# Numerical slack on the average-power check (watts).
AVG_POWER_SLACK = 1e-12


# ---------------------------------------------------------------------------
# Unit conversions
# ---------------------------------------------------------------------------

def dbm_to_watt(x_dbm: float) -> float:
    """Convert a power from dBm to watts: 10^((x - 30) / 10)."""
    return 10.0 ** ((x_dbm - 30.0) / 10.0)


def watt_to_dbm(p_watt: float) -> float:
    """Convert a power from watts to dBm. Zero maps to -inf."""
    if p_watt < 0.0:
        raise ValueError(f"negative power {p_watt} W has no dBm value")
    if p_watt == 0.0:
        return -math.inf
    return 10.0 * math.log10(p_watt) + 30.0


def db_to_linear(x_db: float) -> float:
    """Convert a ratio from dB to linear scale: 10^(x / 10)."""
    return 10.0 ** (x_db / 10.0)


def linear_to_db(x: float) -> float:
    """Convert a linear ratio to dB."""
    if x <= 0.0:
        raise ValueError(f"non-positive ratio {x} has no dB value")
    return 10.0 * math.log10(x)


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

def _as_vec3(name: str, v) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector, got shape {arr.shape}")
    return arr


@dataclass(frozen=True, eq=False, kw_only=True)
class ScenarioConfig:
    """All physical and algorithmic parameters of one scenario; every
    parameter defaults to the paper's two-receiver baseline.

    ``P_bar`` defaults to half of ``P_max`` and the UAV endpoints to mirrored
    points at altitude ``H``, resolved from the given values, so overriding
    ``P_max`` or ``H`` carries into them. ``N`` is derived from ``T`` and
    ``delta_t`` and validated to be exact. Positions, lengths, times, powers
    and ``xi0`` must be finite; ``L`` may be ``math.inf`` to describe the
    long-packet limit used by the fixed-design benchmark.
    """

    w_b: np.ndarray = (0.0, 0.0, 0.0)      # Bob position (m), altitude 0
    w_e: np.ndarray = (400.0, 0.0, 0.0)    # Eve position (m), altitude 0
    q_I: np.ndarray = None   # initial UAV position (m), altitude H; (200, 100, H)
    q_F: np.ndarray = None   # final UAV position (m), altitude H; (200, -100, H)
    H: float = 100.0         # flight altitude (m)
    T: float = 60.0          # flight period (s)
    delta_t: float = 1.0     # slot duration (s)
    V_max: float = 10.0      # maximum speed (m/s)
    P_max: float = 0.1       # instantaneous power cap (W)
    P_bar: float = None      # average power cap (W); P_max / 2
    xi0: float = 1e6         # reference SNR at 1 m (linear)
    L: float = 400.0         # blocklength (channel uses)
    eps_b: float = 1e-5      # decoding error probability at Bob
    eps_e: float = 1e-2      # information leakage at Eve
    tau: float = 1e-6        # convergence threshold (fractional increase)
    max_iter: int = 100      # iteration cap for the alternating loop
    N: int = field(init=False)
    pen: tuple = field(init=False, repr=False)   # Qinv(eps)/(sqrt(L) ln2), Bob's and Eve's
    receivers: np.ndarray = field(init=False, repr=False)   # (2, 1, 2): Bob's xy, Eve's xy
    segment: np.ndarray = field(init=False, repr=False)     # (N, 2): the straight segment

    def __post_init__(self):
        if self.P_bar is None:
            object.__setattr__(self, "P_bar", self.P_max / 2.0)
        if self.q_I is None:
            object.__setattr__(self, "q_I", (200.0, 100.0, self.H))
        if self.q_F is None:
            object.__setattr__(self, "q_F", (200.0, -100.0, self.H))
        for name in ("w_b", "w_e", "q_I", "q_F"):
            object.__setattr__(self, name, _as_vec3(name, getattr(self, name)))
        for name in ("H", "T", "delta_t", "V_max", "P_max", "xi0", "w_b", "w_e", "q_I", "q_F"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.delta_t <= 0.0:
            raise ValueError(f"delta_t must be positive, got {self.delta_t}")
        if self.T <= 0.0:
            raise ValueError(f"T must be positive, got {self.T}")
        n = int(round(self.T / self.delta_t))
        if n < 1:
            raise ValueError(f"T/delta_t yields no slots: T={self.T}, delta_t={self.delta_t}")
        if abs(self.T - n * self.delta_t) > 1e-9 * max(1.0, abs(self.T)):
            raise ValueError(
                f"T must equal N*delta_t exactly: T={self.T}, delta_t={self.delta_t}"
            )
        object.__setattr__(self, "N", n)
        if self.H <= 0.0:
            raise ValueError(f"H must be positive, got {self.H}")
        if self.V_max <= 0.0:
            raise ValueError(f"V_max must be positive, got {self.V_max}")
        if not (0.0 < self.P_bar <= self.P_max):
            raise ValueError(
                f"need 0 < P_bar <= P_max, got P_bar={self.P_bar}, P_max={self.P_max}"
            )
        if not (0.0 < self.eps_b < 0.5):
            raise ValueError(f"eps_b must lie in (0, 0.5), got {self.eps_b}")
        if not (0.0 < self.eps_e < 0.5):
            raise ValueError(f"eps_e must lie in (0, 0.5), got {self.eps_e}")
        if not self.L >= 1.0:
            raise ValueError(f"blocklength L must be >= 1, got {self.L}")
        if self.xi0 <= 0.0:
            raise ValueError(f"xi0 must be positive, got {self.xi0}")
        if not self.tau > 0.0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if (isinstance(self.max_iter, bool) or not isinstance(self.max_iter, numbers.Integral)
                or self.max_iter < 1):
            raise ValueError(f"max_iter must be an integer >= 1, got {self.max_iter}")
        for name, w in (("w_b", self.w_b), ("w_e", self.w_e)):
            if abs(w[2]) > 1e-9:
                raise ValueError(f"{name} must have altitude 0, got {w[2]}")
        for name, q in (("q_I", self.q_I), ("q_F", self.q_F)):
            if abs(q[2] - self.H) > 1e-9:
                raise ValueError(f"{name} must have altitude H={self.H}, got {q[2]}")
        reach = self.V_max * self.delta_t * (n - 1)
        dist = float(np.linalg.norm(self.q_I - self.q_F))
        if dist > reach + SPEED_SLACK:
            raise ValueError(
                f"endpoints unreachable: |q_I - q_F| = {dist:.3f} m exceeds "
                f"V_max*delta_t*(N-1) = {reach:.3f} m"
            )
        # at L = inf, root is inf and both coefficients are 0.0
        root = math.sqrt(self.L) * LN2
        object.__setattr__(self, "pen", (q_inv(self.eps_b) / root, q_inv(self.eps_e) / root))
        frac = np.linspace(0.0, 1.0, n)[:, None]
        segment = self.q_I[:2][None, :] * (1.0 - frac) + self.q_F[:2][None, :] * frac
        receivers = np.array((self.w_b[:2], self.w_e[:2]))[:, None, :]
        for name, a in (("receivers", receivers), ("segment", segment)):
            a.flags.writeable = False
            object.__setattr__(self, name, a)


# The standard scenario, under the name the CLI and the tools use.
baseline_scenario = ScenarioConfig


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Horizontal UAV positions per slot; altitude comes from the scenario."""

    points: np.ndarray  # (N, 2) meters

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 1:
            raise ValueError(f"trajectory points must have shape (N, 2), got {pts.shape}")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]

    def speeds(self, delta_t: float) -> np.ndarray:
        """Per-slot speeds |q[n+1] - q[n]| / delta_t; the last slot gets 0."""
        steps = np.linalg.norm(np.diff(self.points, axis=0), axis=1)
        return np.concatenate([steps / delta_t, [0.0]])


def line_segment_trajectory(cfg: ScenarioConfig) -> Trajectory:
    """Constant-speed straight segment from q_I to q_F over N slots: a
    writable copy of ``cfg.segment``."""
    return Trajectory(points=cfg.segment.copy())


@dataclass(frozen=True, eq=False)
class PowerProfile:
    """Per-slot transmit powers in watts."""

    p: np.ndarray  # (N,)

    def __post_init__(self):
        arr = np.asarray(self.p, dtype=float)
        if arr.ndim != 1 or arr.shape[0] < 1:
            raise ValueError(f"power profile must be a 1-D sequence, got shape {arr.shape}")
        object.__setattr__(self, "p", arr)

    def __len__(self) -> int:
        return self.p.shape[0]


class IterationRecord(NamedTuple):
    index: int
    surrogate: float       # optimal value of the last solved subproblem (BPCU)
    aesr: float            # clamped average effective secrecy rate (BPCU)
    frac_increase: float   # fractional increase of the surrogate objective


@dataclass(frozen=True, eq=False)
class RunResult:
    """Outcome of one scheme run."""

    trajectory: Trajectory
    power: PowerProfile
    aesr: float
    iterations: tuple
    scheme: str
    failed: bool = False
    nonoptimal: int = 0    # trajectory solves that ended with a status other than optimal
    newton_steps: int = 0  # Newton steps of all trajectory solves


# ---------------------------------------------------------------------------
# Closed-form quantities
# ---------------------------------------------------------------------------

def q_inv(p: float) -> float:
    """Inverse of the Gaussian tail function Q(x) = 0.5*erfc(x/sqrt(2))."""
    if not (0.0 < p < 1.0):
        raise ValueError(f"q_inv requires 0 < p < 1, got {p}")
    return -NormalDist().inv_cdf(p)


def snr(P: float, q, w, xi0: float) -> float:
    """Received SNR xi0 * P / |q - w|^2 for transmit power P at position q."""
    if P < 0.0:
        raise ValueError(f"power must be non-negative, got {P}")
    q = np.asarray(q, dtype=float)
    w = np.asarray(w, dtype=float)
    d2 = float(np.sum((q - w) ** 2))
    if d2 <= 0.0:
        raise ValueError("transmitter and receiver positions coincide")
    return xi0 * P / d2


def dispersion(gamma):
    """Channel dispersion 1 - (1 + gamma)^-2; maps [0, inf) into [0, 1)."""
    g = np.asarray(gamma, dtype=float)
    if (g < 0.0).any():
        raise ValueError("SNR must be non-negative")
    out = 1.0 - (1.0 + g) ** (-2.0)
    return float(out) if out.ndim == 0 else out


def secrecy_rate_lb(gamma_b, gamma_e, cfg: ScenarioConfig, clamp: bool = True):
    """Short-packet secrecy-rate lower bound in BPCU.

    log2(1+g_b) - log2(1+g_e) - sqrt(V_b/L)*Qinv(eps_b)/ln2
                              - sqrt(V_e/L)*Qinv(eps_e)/ln2,
    clamped at zero unless ``clamp`` is False. Accepts scalars or arrays.
    """
    gb = np.asarray(gamma_b, dtype=float)
    ge = np.asarray(gamma_e, dtype=float)
    if np.any(gb < 0.0) or np.any(ge < 0.0):
        raise ValueError("SNRs must be non-negative")
    rate = _rate_terms(np.stack(np.broadcast_arrays(gb, ge)), cfg)[3]
    if clamp:
        rate = np.maximum(rate, 0.0)
    if np.isscalar(gamma_b) and np.isscalar(gamma_e):
        return float(rate)
    return rate


def sq_dists(points: np.ndarray, w: np.ndarray, H: float) -> np.ndarray:
    """Squared 3-D distances from UAV slots (x, y, H) to a ground node w, or
    to each of a stack of nodes whose last axis is the position."""
    pts = np.asarray(points, dtype=float)
    offs = pts - np.asarray(w, dtype=float)[..., :2]
    return offs[..., 0] * offs[..., 0] + offs[..., 1] * offs[..., 1] + H * H


class Link(NamedTuple):
    """A design's link quantities, Bob's in row 0 and Eve's in row 1 of each
    (2, N) array."""

    d2: np.ndarray      # squared distances
    u: np.ndarray       # SNRs
    v: np.ndarray       # channel dispersions
    root: np.ndarray    # their square roots
    logs: np.ndarray    # log2(1 + u)
    rates: np.ndarray   # (N,) secrecy-rate lower bounds before the clamp at zero


def link(points: np.ndarray, p: np.ndarray, cfg: ScenarioConfig) -> Link:
    """The link model at the positions ``points`` (N, 2) and powers ``p``:
    SNR u = xi0*p/d2 at each receiver, dispersion V = 1 - (1+u)^-2 and each
    slot's rate log2(1+u_b) - log2(1+u_e) - pen_b*sqrt(V_b) - pen_e*sqrt(V_e)."""
    d2 = sq_dists(points, cfg.receivers, cfg.H)
    u = cfg.xi0 * p / d2
    return Link(d2, u, *_rate_terms(u, cfg))


def _rate_terms(u: np.ndarray, cfg: ScenarioConfig) -> tuple:
    """``Link``'s v, root, logs and rates for the SNRs u, Bob's in u[0] and Eve's in u[1]."""
    v = dispersion(u)
    root = np.sqrt(v)
    logs = np.log2(1.0 + u)
    pen_b, pen_e = cfg.pen
    return v, root, logs, logs[0] - logs[1] - root[0] * pen_b - root[1] * pen_e


def slot_rates_pre_clamp(traj: Trajectory, pw: PowerProfile, cfg: ScenarioConfig) -> np.ndarray:
    """Per-slot secrecy-rate lower bounds before the clamp at zero."""
    if len(traj) != len(pw):
        raise ValueError(f"trajectory has {len(traj)} slots but power has {len(pw)}")
    return link(traj.points, pw.p, cfg).rates


def aesr(traj: Trajectory, pw: PowerProfile, cfg: ScenarioConfig, rates=None) -> float:
    """Average effective secrecy rate: mean clamped slot rate times (1 - eps_b);
    ``rates``, if given, is ``slot_rates_pre_clamp(traj, pw, cfg)``."""
    rates = slot_rates_pre_clamp(traj, pw, cfg) if rates is None else rates
    return float(np.mean(np.maximum(rates, 0.0)) * (1.0 - cfg.eps_b))


def validate(traj: Trajectory, pw: PowerProfile, cfg: ScenarioConfig) -> list:
    """Check mobility and power constraints; return a list of violation strings.

    An empty list means every constraint holds (within the documented
    numerical slack). Each entry names the constraint and the slot involved.
    """
    out: list = []
    if len(traj) != cfg.N:
        out.append(f"length: trajectory has {len(traj)} slots, scenario expects {cfg.N}")
    if len(pw) != cfg.N:
        out.append(f"length: power profile has {len(pw)} slots, scenario expects {cfg.N}")
    if out:
        return out

    for slot, name in ((1, "q_I"), (cfg.N, "q_F")):
        point, end = traj.points[slot - 1], getattr(cfg, name)[:2]
        if not np.allclose(point, end, atol=1e-9, rtol=0.0):
            out.append(f"endpoint: slot {slot} position {point.tolist()} differs from {name} "
                       f"{end.tolist()}")
    for n in np.nonzero(~np.isfinite(traj.points).all(axis=1))[0]:
        out.append(f"non-finite: slot {n + 1} position {traj.points[n].tolist()}")
    for n in np.nonzero(~np.isfinite(pw.p))[0]:
        out.append(f"non-finite: slot {n + 1} power {pw.p[n]} W")
    limit = cfg.V_max * cfg.delta_t
    steps = np.linalg.norm(np.diff(traj.points, axis=0), axis=1)
    for n in np.nonzero(steps > limit + SPEED_SLACK)[0]:
        out.append(
            f"max speed: step from slot {n + 1} to {n + 2} is {steps[n]:.6f} m, "
            f"limit {limit:.6f} m"
        )
    for n in np.nonzero(pw.p < 0.0)[0]:
        out.append(f"power bounds: slot {n + 1} power {pw.p[n]:.6g} W is negative")
    for n in np.nonzero(pw.p > cfg.P_max)[0]:
        out.append(
            f"power bounds: slot {n + 1} power {pw.p[n]:.6g} W exceeds P_max {cfg.P_max:.6g} W"
        )
    mean_p = float(np.mean(pw.p))
    if mean_p > cfg.P_bar + AVG_POWER_SLACK:
        out.append(
            f"average power: mean {mean_p:.9g} W exceeds P_bar {cfg.P_bar:.9g} W"
        )
    return out
