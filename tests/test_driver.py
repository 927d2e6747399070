import math
from dataclasses import replace

import numpy as np
import pytest

from uavsec import driver, model, solver
from uavsec.driver import (
    SchemeId,
    derive_config,
    line_segment_trajectory,
    run_ftp_inf,
    run_jtpo,
    run_poft,
    run_scheme,
    sweep,
)
from uavsec.model import PowerProfile, baseline_scenario
from uavsec.solver import Solution, solve
from uavsec.surrogate import build_trajectory_subproblem, expansion_from


def tiny_cfg(**overrides):
    base = dict(T=6.0, q_I=(30.0, 10.0, 100.0), q_F=(30.0, -10.0, 100.0))
    base.update(overrides)
    return baseline_scenario(**base)


# ---------------------------------------------------------------------------
# line_segment_trajectory
# ---------------------------------------------------------------------------

def test_segment_midpoint():
    cfg = baseline_scenario(T=3.0, q_I=(200.0, 100.0, 100.0), q_F=(200.0, -100.0, 100.0),
                            V_max=120.0)
    traj = line_segment_trajectory(cfg)
    np.testing.assert_allclose(traj.points[1], [200.0, 0.0], atol=1e-12)


def test_segment_step_length_on_default_geometry():
    cfg = baseline_scenario(T=201.0)
    traj = line_segment_trajectory(cfg)
    steps = np.linalg.norm(np.diff(traj.points, axis=0), axis=1)
    np.testing.assert_allclose(steps, 1.0, atol=1e-12)
    assert len(traj) == 201


def test_segment_degenerate_endpoints():
    cfg = baseline_scenario(T=4.0, q_I=(50.0, 0.0, 100.0), q_F=(50.0, 0.0, 100.0))
    traj = line_segment_trajectory(cfg)
    assert np.all(traj.points == [50.0, 0.0])


def test_unreachable_endpoints_rejected_before_segment_construction():
    import dataclasses
    cfg = baseline_scenario(T=30.0)
    # the scenario invariant rejects endpoints beyond reach, so the segment
    # constructor needs no check of its own
    with pytest.raises(ValueError):
        dataclasses.replace(cfg, V_max=5.0)
    assert len(line_segment_trajectory(cfg)) == 30


# ---------------------------------------------------------------------------
# Alternating runs on a tiny scenario
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_jtpo():
    return run_jtpo(tiny_cfg())


def test_jtpo_surrogate_monotone_and_converged(tiny_jtpo):
    surr = [r.surrogate for r in tiny_jtpo.iterations]
    assert all(b >= a - 1e-9 for a, b in zip(surr, surr[1:]))
    assert tiny_jtpo.iterations[-1].frac_increase < 1e-6
    assert not tiny_jtpo.failed


def test_jtpo_true_aesr_monotone(tiny_jtpo):
    vals = [r.aesr for r in tiny_jtpo.iterations]
    assert all(b >= a - 1e-7 for a, b in zip(vals, vals[1:]))
    assert tiny_jtpo.aesr == pytest.approx(vals[-1], abs=1e-9)


def test_jtpo_final_iterate_feasible(tiny_jtpo):
    assert model.validate(tiny_jtpo.trajectory, tiny_jtpo.power, tiny_cfg()) == []


def test_every_iterate_feasible_via_iteration_caps():
    cfg = tiny_cfg()
    import dataclasses
    for k in (1, 2, 3):
        res = run_jtpo(dataclasses.replace(cfg, max_iter=k))
        assert model.validate(res.trajectory, res.power, cfg) == [], f"iterate {k}"


def test_single_pass_with_infinite_tau():
    cfg = tiny_cfg(tau=math.inf)
    res = run_jtpo(cfg)
    assert len(res.iterations) == 2  # initial record + one alternation
    initial = res.iterations[0].aesr
    assert res.aesr >= initial - 1e-9


def test_scheme_tags_and_runner_dispatch():
    cfg = tiny_cfg()
    for scheme in SchemeId:
        res = run_scheme(cfg, scheme)
        assert res.scheme == scheme.value


def test_jtpo_beats_poft_and_ftp_inf_on_tiny_scenario(tiny_jtpo):
    cfg = tiny_cfg()
    assert tiny_jtpo.aesr >= run_poft(cfg).aesr - 1e-9
    assert tiny_jtpo.aesr >= run_ftp_inf(cfg).aesr - 1e-6


def test_take_better_falls_back_to_the_design_not_the_start():
    cfg = tiny_cfg()
    points = line_segment_trajectory(cfg).points.copy()
    points[1:-1, 0] += 1.0      # off the segment, so the start is not the design
    traj = model.Trajectory(points=points)
    pw = PowerProfile(p=np.linspace(0.2, 1.8, cfg.N) * cfg.P_bar)
    prog = build_trajectory_subproblem(expansion_from(traj, pw, cfg), cfg)
    design = traj.points.ravel()
    best = solve(prog)
    assert not np.array_equal(prog.start, design)
    # past the design, away from the optimum, the concave objective is lower
    worse_x = design + (design - best.x)
    worse = replace(best, x=worse_x, objective=prog.objective_value(worse_x))
    assert worse.objective < prog.objective_value(design)
    assert np.array_equal(driver._take_better(prog, worse, design), design)
    assert np.array_equal(driver._take_better(prog, best, design), best.x)


# ---------------------------------------------------------------------------
# POFT specifics
# ---------------------------------------------------------------------------

def test_poft_keeps_the_segment():
    cfg = tiny_cfg()
    res = run_poft(cfg)
    np.testing.assert_array_equal(res.trajectory.points, line_segment_trajectory(cfg).points)


def test_poft_equal_power_on_symmetric_slots_without_eavesdropper_pressure():
    # Eve pushed far away; two slots equidistant from Bob get equal power
    cfg = baseline_scenario(
        T=2.0, q_I=(5.0, 0.0, 100.0), q_F=(-5.0, 0.0, 100.0),
        w_e=(1e7, 0.0, 0.0),
    )
    res = run_poft(cfg)
    p = res.power.p
    assert abs(p[0] - p[1]) <= 1e-6 * cfg.P_max

    # brute-force oracle over the true clamped objective on the power simplex
    traj = line_segment_trajectory(cfg)
    best, best_pair = -1.0, None
    grid = np.linspace(0.0, cfg.P_max, 201)
    for p0 in grid:
        for p1 in grid:
            if p0 + p1 > 2.0 * cfg.P_bar + 1e-15:
                continue
            val = model.aesr(traj, PowerProfile(p=np.array([p0, p1])), cfg)
            if val > best:
                best, best_pair = val, (p0, p1)
    assert abs(best_pair[0] - best_pair[1]) <= (grid[1] - grid[0]) + 1e-12
    assert res.aesr >= best - 1e-3


def test_poft_saturates_when_caps_coincide_and_rates_positive():
    # P_max == P_bar near Bob: every slot has positive marginal rate, so the
    # box cap binds everywhere
    cfg = baseline_scenario(
        T=2.0, q_I=(5.0, 0.0, 100.0), q_F=(-5.0, 0.0, 100.0),
        w_e=(1e7, 0.0, 0.0), P_max=0.1, P_bar=0.1,
    )
    res = run_poft(cfg)
    np.testing.assert_allclose(res.power.p, cfg.P_max, atol=1e-6)

    # KKT-style check on an N=2 grid: the best grid point is the corner
    traj = line_segment_trajectory(cfg)
    grid = np.linspace(0.0, cfg.P_max, 101)
    vals = np.array([
        [model.aesr(traj, PowerProfile(p=np.array([a, b])), cfg) for b in grid]
        for a in grid
    ])
    k = np.unravel_index(np.argmax(vals), vals.shape)
    assert k == (100, 100)


def test_poft_stops_promptly_on_a_vanishing_surrogate():
    # at T=24, L=200 POFT drives every slot silent; the surrogate must reach
    # that limit without shrinking toward it by a constant factor per
    # alternation, which the relative stop test would follow for dozens
    res = run_poft(baseline_scenario(T=24.0, L=200.0))
    assert not res.failed
    assert len(res.iterations) - 1 <= 12


# ---------------------------------------------------------------------------
# FTP-Inf specifics
# ---------------------------------------------------------------------------

def test_ftp_inf_approaches_jtpo_for_huge_blocklength():
    cfg = tiny_cfg(L=1e9)
    a_jtpo = run_jtpo(cfg).aesr
    a_ftp = run_ftp_inf(cfg).aesr
    assert abs(a_jtpo - a_ftp) <= 1e-3


def test_ftp_inf_final_design_feasible():
    cfg = tiny_cfg()
    res = run_ftp_inf(cfg)
    assert model.validate(res.trajectory, res.power, cfg) == []
    assert res.scheme == "ftp-inf"


def test_non_optimal_solves_are_counted(monkeypatch):
    statuses, steps = [], []

    def recording_solve(prog):
        sol = solve(prog)
        statuses.append(sol.status)
        steps.append(sol.newton_steps)
        return sol

    monkeypatch.setattr(driver, "solve", recording_solve)
    # the first long-packet trajectory solve of FTP-Inf starts from the
    # straight segment, where Bob and Eve are equally far away, and
    # converges like every later one
    ftp = run_ftp_inf(baseline_scenario(T=24.0))
    assert not ftp.failed
    assert ftp.nonoptimal == sum(s != "optimal" for s in statuses) == 0
    assert ftp.newton_steps == sum(steps) > 0
    # every JTPO solve certifies its gap, also where the Newton decrement of
    # its last barrier stage stalls at its rounding floor
    statuses.clear()
    steps.clear()
    jtpo = run_jtpo(baseline_scenario())
    assert not jtpo.failed
    assert jtpo.nonoptimal == sum(s != "optimal" for s in statuses) == 0
    assert jtpo.newton_steps == sum(steps) > 0
    # with no backtracks allowed every trajectory solve stalls; each is
    # counted, and the run goes on from the current positions
    statuses.clear()
    monkeypatch.setattr(solver, "_MAX_BACKTRACKS", 0)
    stalled = run_jtpo(baseline_scenario(T=24.0))
    assert not stalled.failed and set(statuses) == {"stalled"}
    assert stalled.nonoptimal == len(statuses) >= 1
    np.testing.assert_array_equal(
        stalled.trajectory.points, line_segment_trajectory(baseline_scenario(T=24.0)).points)


def test_numerical_failure_stops_the_run(monkeypatch):
    calls = []

    def failing_solve(prog):
        calls.append(prog)
        return Solution(x=prog.start.copy(), objective=np.nan, gap_bound=np.inf,
                        newton_steps=0, status="numerical-failure")

    monkeypatch.setattr(driver, "solve", failing_solve)
    res = run_jtpo(tiny_cfg())
    # the first trajectory solve fails: no alternation is recorded after
    # the start, and the start design is returned
    assert res.failed and res.nonoptimal == 1 and len(calls) == 1
    assert [r.index for r in res.iterations] == [0]
    np.testing.assert_array_equal(res.trajectory.points,
                                  line_segment_trajectory(tiny_cfg()).points)


def test_two_slots_solve_no_trajectory_program():
    # At N = 2 both positions are endpoints, so JTPO runs the power step
    # alone, as POFT does, although the endpoints are well inside the reach
    # (7 m apart, 10 m a slot).
    cfg = baseline_scenario(T=2.0, q_I=(30.0, 3.5, 100.0), q_F=(30.0, -3.5, 100.0))
    assert cfg.N == 2
    jtpo, poft = run_jtpo(cfg), run_poft(cfg)
    assert jtpo.newton_steps == 0 and jtpo.nonoptimal == 0 and not jtpo.failed
    np.testing.assert_array_equal(jtpo.trajectory.points, poft.trajectory.points)
    np.testing.assert_array_equal(jtpo.power.p, poft.power.p)
    assert jtpo.aesr == poft.aesr and jtpo.iterations == poft.iterations


@pytest.mark.parametrize("overrides", [
    dict(T=21.0),   # default endpoints 200 m apart, 20 steps of V_max*delta_t
    dict(T=2.0, q_I=(30.0, 5.0, 100.0), q_F=(30.0, -5.0, 100.0)),
    # 1e-8 m short of the reach: each speed row's slack is 1e-10 h^2
    dict(T=21.0, q_I=(200.0, 100.0, 100.0), q_F=(200.0, -100.0 + 1e-8, 100.0)),
], ids=["T=21", "N=2", "gap=1e-8"])
def test_forced_segment_runs_the_power_step_alone(overrides):
    # every speed row of the segment is tight, or within FORCED_SLACK of
    # it, so the trajectory program would have no strict interior, or one
    # too thin for its solves to converge in
    cfg = baseline_scenario(**overrides)
    segment = line_segment_trajectory(cfg).points
    for run in (run_jtpo, run_ftp_inf):
        res = run(cfg)
        assert not res.failed and res.nonoptimal == 0
        assert model.validate(res.trajectory, res.power, cfg) == []
        np.testing.assert_array_equal(res.trajectory.points, segment)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def test_derive_config():
    cfg = baseline_scenario()
    assert derive_config(cfg, "T", 42.0).N == 42
    assert derive_config(cfg, "L", 800.0).L == 800.0
    with pytest.raises(ValueError):
        derive_config(cfg, "H", 1.0)


def test_sweep_single_value_yields_one_row_per_scheme():
    entries = sweep(tiny_cfg(), "L", [400.0])
    assert len(entries) == 3
    assert [e.scheme for e in entries] == [SchemeId.JTPO, SchemeId.POFT, SchemeId.FTP_INF]
    assert all(e.error is None for e in entries)


def test_sweep_recovers_from_invalid_values():
    entries = sweep(tiny_cfg(), "L", [0.5, 400.0])
    assert len(entries) == 6
    bad = [e for e in entries if e.value == 0.5]
    assert all(e.error is not None and math.isnan(e.aesr) for e in bad)
    good = [e for e in entries if e.value == 400.0]
    assert all(e.error is None for e in good)


def test_sweep_T_recomputes_slot_count():
    cfg = tiny_cfg()
    entries = sweep(cfg, "T", [4.0, 6.0])
    assert len(entries) == 6
    vals = {(e.scheme, e.value) for e in entries}
    assert (SchemeId.JTPO, 4.0) in vals and (SchemeId.FTP_INF, 6.0) in vals


def _counting_alternating_run(monkeypatch, fail=None):
    """Record the scheme of every ``_alternating_run`` call; FTP-Inf runs
    raise ValueError if ``fail`` is "raise" and come back failed if it is
    "failed"."""
    calls = []
    alternating_run = driver._alternating_run

    def counting(cfg, scheme, optimize_trajectory):
        calls.append(scheme)
        if scheme is SchemeId.FTP_INF and fail == "raise":
            raise ValueError("no long-packet design")
        result = alternating_run(cfg, scheme, optimize_trajectory)
        if scheme is SchemeId.FTP_INF and fail == "failed":
            result = replace(result, failed=True)
        return result

    monkeypatch.setattr(driver, "_alternating_run", counting)
    return calls


def test_L_sweep_designs_ftp_inf_once_and_matches_single_runs(monkeypatch):
    cfg = tiny_cfg()
    values = [200.0, 400.0, 800.0]
    calls = _counting_alternating_run(monkeypatch)
    rows = []
    run = driver.run_scheme

    def logged_run_scheme(cfg, scheme, *args):
        result = run(cfg, scheme, *args)
        rows.append((scheme, result))
        return result

    monkeypatch.setattr(driver, "run_scheme", logged_run_scheme)
    entries = sweep(cfg, "L", values)
    assert calls.count(SchemeId.FTP_INF) == 1
    assert calls.count(SchemeId.JTPO) == calls.count(SchemeId.POFT) == 3
    # a wrapper of run_scheme still sees one call per row
    assert [scheme for scheme, _ in rows] == [e.scheme for e in entries]
    monkeypatch.setattr(driver, "run_scheme", run)
    for entry, (_, logged) in zip(entries, rows):
        alone = run_scheme(derive_config(cfg, "L", entry.value), entry.scheme)
        assert entry.aesr.hex() == alone.aesr.hex() == logged.aesr.hex(), entry
        assert entry.error is None and not alone.failed, entry
        np.testing.assert_array_equal(logged.trajectory.points, alone.trajectory.points)
        np.testing.assert_array_equal(logged.power.p, alone.power.p)
        assert logged.iterations == alone.iterations
    # the reuse is scoped to one sweep: the next one designs again
    calls.clear()
    sweep(cfg, "L", values[:2])
    assert calls.count(SchemeId.FTP_INF) == 1
    # a T-sweep designs once per value
    calls.clear()
    sweep(cfg, "T", [4.0, 6.0])
    assert calls.count(SchemeId.FTP_INF) == 2


@pytest.mark.parametrize("fail,error", [("raise", "no long-packet design"),
                                        ("failed", "solver failure")])
def test_L_sweep_reports_an_ftp_inf_failure_at_every_value(monkeypatch, fail, error):
    _counting_alternating_run(monkeypatch, fail)
    entries = sweep(tiny_cfg(), "L", [200.0, 800.0])
    ftp = [e for e in entries if e.scheme is SchemeId.FTP_INF]
    assert [e.error for e in ftp] == [error, error]
    assert all(e.error is None for e in entries if e.scheme is not SchemeId.FTP_INF)
