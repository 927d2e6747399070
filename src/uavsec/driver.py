"""Alternating trajectory/power optimization and the benchmark schemes.

``run_jtpo`` alternates the two convex subproblems until the fractional
increase of the surrogate objective drops below the scenario threshold.
``run_poft`` keeps the straight-segment trajectory and iterates only the
power subproblem. ``run_ftp_inf`` runs the full alternation in the
long-packet limit (dispersion penalties removed) and then evaluates the
resulting design under the true short-packet objective.

Each iteration logs the solved subproblem value, the true clamped AESR, and
the fractional increase. After every solve the iterate is compared against
the expansion point embedded in the program and the better of the two is
kept, which makes the logged surrogate sequence non-decreasing by
construction even at the solver's accuracy floor.
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
)
from .solver import solve
from .surrogate import (
    build_power_subproblem,
    build_trajectory_subproblem,
    expansion_from,
    next_expansion,
    slack_rate_objective,
)


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


def line_segment_trajectory(cfg: ScenarioConfig) -> Trajectory:
    """Constant-speed straight segment from q_I to q_F over N slots."""
    if cfg.N == 1:
        return Trajectory(points=cfg.q_I[:2][None, :].copy())
    frac = np.linspace(0.0, 1.0, cfg.N)[:, None]
    pts = cfg.q_I[:2][None, :] * (1.0 - frac) + cfg.q_F[:2][None, :] * frac
    step = float(np.linalg.norm(cfg.q_F[:2] - cfg.q_I[:2])) / (cfg.N - 1)
    if step > cfg.V_max * cfg.delta_t + model.SPEED_SLACK:
        raise ValueError(
            f"endpoints unreachable at V_max: segment step {step:.3f} m exceeds "
            f"{cfg.V_max * cfg.delta_t:.3f} m"
        )
    return Trajectory(points=pts)


def _take_better(prog, x: np.ndarray) -> np.ndarray:
    """Keep the solver iterate unless the embedded reference scores higher."""
    if prog.reference is None:
        return x
    if prog.objective_value(prog.reference) > prog.objective_value(x):
        return prog.reference.copy()
    return x


def _alternating_run(
    cfg_opt: ScenarioConfig,
    cfg_eval: ScenarioConfig,
    scheme: SchemeId,
    optimize_trajectory: bool,
) -> RunResult:
    """Core alternating loop; cfg_opt drives the subproblems, cfg_eval the
    reported AESR of the final design."""
    n = cfg_opt.N
    traj = line_segment_trajectory(cfg_opt)
    pw = PowerProfile(p=np.full(n, cfg_opt.P_bar))
    ep = expansion_from(traj, pw, cfg_opt)

    j_prev = slack_rate_objective(
        traj.points, pw.p, ep.u_hat_e, ep.z_hat_b, ep.z_hat_e, cfg_opt
    )
    records = [IterationRecord(0, j_prev, model.aesr(traj, pw, cfg_opt), math.inf)]
    failed = False

    for r in range(1, cfg_opt.max_iter + 1):
        if optimize_trajectory:
            prog_q = build_trajectory_subproblem(ep, pw, cfg_opt)
            sol = solve(prog_q)
            if sol.status == "numerical-failure":
                failed = True
                break
            ep = next_expansion(prog_q, _take_better(prog_q, sol.x), ep)
            traj = Trajectory(points=ep.q_hat)

        prog_p = build_power_subproblem(traj, ep, cfg_opt)
        sol = solve(prog_p)
        if sol.status == "numerical-failure":
            failed = True
            break
        x = _take_better(prog_p, sol.x)
        ep = next_expansion(prog_p, x, ep)
        pw = PowerProfile(p=ep.p_hat)

        j_r = prog_p.objective_value(x)
        frac = (j_r - j_prev) / max(abs(j_prev), 1e-12)
        records.append(IterationRecord(r, j_r, model.aesr(traj, pw, cfg_opt), frac))
        j_prev = j_r
        if frac < cfg_opt.tau:
            break

    # Slots whose pre-clamp rate is negative carry no secrecy; silence them.
    rates = model.slot_rates_pre_clamp(traj, pw, cfg_opt)
    if np.any(rates < 0.0):
        p_clean = pw.p.copy()
        p_clean[rates < 0.0] = 0.0
        pw = PowerProfile(p=p_clean)

    return RunResult(
        trajectory=traj,
        power=pw,
        aesr=model.aesr(traj, pw, cfg_eval),
        iterations=tuple(records),
        scheme=scheme.value,
        failed=failed,
    )


def run_jtpo(cfg: ScenarioConfig) -> RunResult:
    """Alternate trajectory and power subproblems until tau-convergence."""
    return _alternating_run(cfg, cfg, SchemeId.JTPO, True)


def run_poft(cfg: ScenarioConfig) -> RunResult:
    """Optimize power only, on the fixed straight-segment trajectory."""
    return _alternating_run(cfg, cfg, SchemeId.POFT, False)


def run_ftp_inf(cfg: ScenarioConfig) -> RunResult:
    """Optimize trajectory and power in the long-packet limit, then report
    the design's AESR under the scenario's actual blocklength."""
    cfg_inf = replace(cfg, L=math.inf)
    return _alternating_run(cfg_inf, cfg, SchemeId.FTP_INF, True)


_RUNNERS = {
    SchemeId.JTPO: run_jtpo,
    SchemeId.POFT: run_poft,
    SchemeId.FTP_INF: run_ftp_inf,
}


def run_scheme(cfg: ScenarioConfig, scheme: SchemeId) -> RunResult:
    return _RUNNERS[scheme](cfg)


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
    failing run produces error rows; the sweep continues.
    """
    out = []
    for value in values:
        try:
            cfg_v = derive_config(cfg, parameter, value)
            err = None
        except ValueError as exc:
            cfg_v = None
            err = str(exc)
        for scheme in (SchemeId.JTPO, SchemeId.POFT, SchemeId.FTP_INF):
            if cfg_v is None:
                out.append(SweepEntry(scheme, parameter, float(value), math.nan, err))
                continue
            try:
                result = run_scheme(cfg_v, scheme)
            except ValueError as exc:
                out.append(SweepEntry(scheme, parameter, float(value), math.nan, str(exc)))
                continue
            if result.failed:
                out.append(SweepEntry(
                    scheme, parameter, float(value), result.aesr, "solver failure"
                ))
            else:
                out.append(SweepEntry(scheme, parameter, float(value), result.aesr))
    return out
