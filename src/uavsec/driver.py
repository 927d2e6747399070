"""Alternating trajectory/power optimization and the benchmark schemes.

``run_scheme`` is the one runner. JTPO alternates the two convex
subproblems until the fractional increase of the surrogate objective drops
below the scenario threshold. POFT keeps the straight-segment trajectory
and runs only the closed-form power step. FTP-Inf re-scores a long-packet
design, optimized by the full alternation with the dispersion penalties
removed, under the true short-packet objective. The design is the one it
is given, an earlier run at another blocklength, or one it computes.

The design (trajectory and power) is the only state carried from one step
to the next. Each design is linearized once (``expansion_from``), and
each subproblem is built from the current design's linearization, which
also gives the record's AESR and the final silencing of slots. The
interior-point solver runs the trajectory step from the program's start,
the current positions moved slightly toward the straight segment, and the
better of its iterate and the current positions is kept. The power step
is water-filled to its exact optimum, and each iteration logs its value,
the true clamped AESR, and the fractional increase. Each surrogate touches
the slack objective at the current design and under-estimates it
elsewhere, so the logged surrogate sequence is non-decreasing even at the
solver's accuracy floor, except by the ``Z_MIN`` floor on the dispersion
roots of silent slots.

When the endpoints are a whole flight apart at V_max, or within
``FORCED_SLACK`` of it, the straight segment is the only trajectory, or
leaves the trajectory step too thin an interior to converge in; with fewer
than three slots every position is an endpoint. JTPO and FTP-Inf run only
the power step there, as POFT does.

A trajectory solve that ends ``numerical-failure`` stops the run; one that
ends ``max-iter`` or ``stalled`` is used like an optimal one. All three are
counted in ``RunResult.nonoptimal``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import model
from .model import (
    IterationRecord,
    PowerProfile,
    RunResult,
    ScenarioConfig,
    Trajectory,
    line_segment_trajectory,
)
from .solver import Solution, solve, water_fill
from .surrogate import (
    build_power_subproblem,
    build_trajectory_subproblem,
    expansion_from,
    slack_rate_objective,
)


# Relative speed slack at or below which the straight segment counts as
# forced. Closer to the reach, the trajectory program's interior is so thin
# that its solves can end ``max-iter``: sweeping the gap between the
# endpoints' distance and the reach at T=21, the last such solve was at a
# relative slack of 4.3e-7. Every trajectory this rules out stays within
# (N - 1)/2 * h * sqrt(FORCED_SLACK) of the segment (7 cm at T=21).
FORCED_SLACK = 5e-7


class SchemeId(enum.Enum):
    JTPO = "jtpo"         # joint trajectory and power optimization
    POFT = "poft"         # power optimization on the fixed segment
    FTP_INF = "ftp-inf"   # long-packet design, short-packet evaluation


@dataclass(frozen=True, eq=False)
class SweepEntry:
    scheme: SchemeId
    parameter: str
    value: float
    aesr: float
    error: Optional[str] = None


def _segment_is_forced(cfg: ScenarioConfig) -> bool:
    """Whether the straight segment leaves the trajectory step no usable
    room: its speed slack h^2 - step^2, the same on every row, is at most
    ``FORCED_SLACK`` * h^2, or N < 3 and every position is an endpoint."""
    if cfg.N < 3:
        return True
    h = cfg.V_max * cfg.delta_t
    step = float(np.linalg.norm(cfg.q_F[:2] - cfg.q_I[:2])) / (cfg.N - 1)
    return h * h - step * step <= FORCED_SLACK * h * h


def _take_better(prog, sol: Solution, design: np.ndarray) -> np.ndarray:
    """Keep the trajectory solver's iterate unless the design it was
    linearized at (the current positions) scores higher."""
    if prog.objective_value(design) > sol.objective:
        return design.copy()
    return sol.x


def _alternating_run(cfg: ScenarioConfig, scheme: SchemeId) -> RunResult:
    """Core alternating loop; cfg drives the subproblems and scores the final
    design. POFT, and every scheme on a forced segment, skips the trajectory
    step."""
    n = cfg.N
    traj = line_segment_trajectory(cfg)
    pw = PowerProfile(p=np.full(n, cfg.P_bar))
    ep = expansion_from(traj, pw, cfg)

    j_prev = slack_rate_objective(traj.points, pw.p, ep.u[1], ep.z[0], ep.z[1], cfg)
    records = [IterationRecord(0, j_prev, model.aesr(traj, pw, cfg, ep.rates), math.inf)]
    failed = False
    nonoptimal = 0
    newton_steps = 0
    optimize_trajectory = scheme is not SchemeId.POFT and not _segment_is_forced(cfg)

    for r in range(1, cfg.max_iter + 1):
        if optimize_trajectory:
            prog_q = build_trajectory_subproblem(ep, cfg)
            sol = solve(prog_q)
            nonoptimal += sol.status != "optimal"
            newton_steps += sol.newton_steps
            if sol.status == "numerical-failure":
                failed = True
                break
            traj = Trajectory(points=_take_better(prog_q, sol, traj.points))
            ep = expansion_from(traj, pw, cfg)

        prog_p = build_power_subproblem(ep, cfg)
        pw = PowerProfile(p=water_fill(prog_p))
        ep = expansion_from(traj, pw, cfg)

        j_r = prog_p.objective_value(pw.p)
        frac = (j_r - j_prev) / max(abs(j_prev), 1e-12)
        records.append(IterationRecord(r, j_r, model.aesr(traj, pw, cfg, ep.rates), frac))
        j_prev = j_r
        if frac < cfg.tau:
            break

    # Slots whose pre-clamp rate is negative carry no secrecy; silence them.
    pw = PowerProfile(p=np.where(ep.rates < 0.0, 0.0, pw.p))

    return RunResult(
        trajectory=traj,
        power=pw,
        aesr=model.aesr(traj, pw, cfg),
        iterations=tuple(records),
        scheme=scheme.value,
        failed=failed,
        nonoptimal=nonoptimal,
        newton_steps=newton_steps,
    )


def run_scheme(cfg: ScenarioConfig, scheme: SchemeId,
               long_packet: Optional[RunResult] = None) -> RunResult:
    """Run one scheme on cfg.

    JTPO and POFT run the alternation on cfg itself. FTP-Inf reports the
    AESR of a long-packet design under the scenario's actual blocklength.
    The design is ``long_packet``'s, a run whose scenario differs from cfg
    at most in L, since the design does not depend on L; without one it is
    optimized here, with the dispersion penalties removed. Only ``aesr`` is
    re-scored: the iteration records stay the long-packet run's, so their
    AESRs are the design's at L = inf. ``long_packet`` is ignored by the
    other schemes.
    """
    if scheme is not SchemeId.FTP_INF:
        return _alternating_run(cfg, scheme)
    if long_packet is None:
        long_packet = _alternating_run(replace(cfg, L=math.inf), scheme)
    return replace(long_packet, aesr=model.aesr(long_packet.trajectory, long_packet.power, cfg))


def derive_config(cfg: ScenarioConfig, parameter: str, value: float) -> ScenarioConfig:
    """Scenario variant for one sweep point.

    Flight-period sweeps keep a 1 s slot and let N follow; blocklength sweeps
    replace L directly.
    """
    if parameter == "T":
        return replace(cfg, T=float(value), delta_t=1.0)
    if parameter == "L":
        return replace(cfg, L=float(value))
    raise ValueError(f"unknown sweep parameter {parameter!r} (expected 'T' or 'L')")


def sweep(cfg: ScenarioConfig, parameter: str, values) -> list:
    """Run all three schemes for each parameter value.

    Rows come back grouped by value in input order, schemes in the fixed
    order JTPO, POFT, FTP-Inf. A value that yields an invalid scenario or a
    failing run produces error rows; the sweep continues. Over L, FTP-Inf's
    long-packet design is the same at every value: each FTP-Inf row after
    the first re-scores the previous one's design, so it is computed once
    per call unless a run raises. Each row is still produced by
    ``run_scheme``.
    """
    out = []
    long_packet = None
    for value in values:
        for scheme in (SchemeId.JTPO, SchemeId.POFT, SchemeId.FTP_INF):
            try:
                result = run_scheme(derive_config(cfg, parameter, value), scheme, long_packet)
            except ValueError as exc:
                out.append(SweepEntry(scheme, parameter, float(value), math.nan, str(exc)))
                continue
            if scheme is SchemeId.FTP_INF and parameter == "L":
                long_packet = result
            out.append(SweepEntry(scheme, parameter, float(value), result.aesr,
                                  "solver failure" if result.failed else None))
    return out
