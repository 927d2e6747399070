import math
import os
import subprocess
import sys
import zlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from uavsec import driver, solver
from uavsec.driver import SchemeId, line_segment_trajectory, run_scheme
from uavsec.model import PowerProfile, Trajectory, baseline_scenario
from uavsec.solver import _center, _Work, solve, water_fill
from uavsec.surrogate import build_power_subproblem, build_trajectory_subproblem, expansion_from

from solver_instances import (FAMILIES, bisection_water_fill, box_rows, power_program, program,
                              slot_rows)
from surrogate_reference import max_violation


def test_box_quadratic_example():
    # maximize -(x-3)^2 over the free slot's box [0, 2]^2, the box as four
    # rows, y without a quad term: optimum on the box's upper x face
    quad_c, quad_beta = np.full((3, 2), 3.0), np.zeros((3, 2))
    quad_beta[1, 0] = 1.0
    prog = program(np.ones((3, 2)), [10.0, 10.0], **box_rows([0.0, 0.0], [2.0, 2.0], 3),
                   quad_c=quad_c, quad_beta=quad_beta)
    sol = solve(prog)
    assert sol.status == "optimal"
    assert sol.x[1, 0] == pytest.approx(2.0, abs=1e-6)
    assert sol.objective == pytest.approx(-1.0, abs=1e-6)


def test_log_box_example():
    # maximize log(1+100P) - 5P on [0, 0.1], a one-slot power program whose
    # budget does not bind; stationary point 0.19 above box
    prog = power_program(0.0, [-5.0], [100.0], [1.0], [0.1], 1.0)
    x = water_fill(prog)
    assert x[0] == pytest.approx(0.1, abs=1e-6)
    grid = np.linspace(0.0, 0.1, 10001)
    oracle = np.max(np.log(1.0 + 100.0 * grid) - 5.0 * grid)
    assert prog.objective_value(x) == pytest.approx(oracle, abs=1e-5)


@pytest.mark.parametrize("family,make", FAMILIES)
def test_randomized_instances_match_grid_oracle(family, make):
    rng = np.random.default_rng(zlib.crc32(family.encode()))
    for trial in range(40):
        prog, oracle = make(rng)
        sol = solve(prog)
        assert sol.status == "optimal", f"{family}[{trial}]"
        assert abs(sol.objective - oracle) <= 1e-4, (
            f"{family}[{trial}]: solver {sol.objective} vs oracle {oracle}"
        )
        assert max_violation(prog, sol.x) <= 1e-9
        assert sol.gap_bound <= 1e-8 * max(1.0, prog.n * 10)


@pytest.mark.xfail(strict=True, reason="the primal-dual loop jams on a speed row's rounding floor")
def test_speed_lens_with_a_weight_per_coordinate_is_solved():
    # A speed-lens instance, but with a weight per coordinate (0.20 and 1.49
    # on the free point) where the trajectory program has one per point. The
    # first primal-dual step cuts mu from 5.1 to 3.3e-2, and the safeguard's
    # centring steps, each aimed at the current mu, drive the second speed
    # row's slack to 2e-16 far from the optimum along its circle. Every step
    # after that is cut to ~1e-7, the loop runs to its cap, and the centring
    # ends max-iter at -16.42733. The optimum, -16.35139, lies on the same
    # circle, where the first row is not tight.
    prog = program(
        [[-0.9950318595381415, -0.1257460381950155], [-0.5791799883061166, -0.22288218797007497],
         [-0.2828012883826049, -0.29211137215197025]],
        [1.808913094145099, 1.2892170222271557],
        quad_c=np.array([[-1.894865061773388, -2.1036498456692083],
                         [2.9946440205369758, 1.1635288560096617],
                         [0.9233208265354467, 2.3851750579633144]]),
        quad_beta=np.array([[1.0798969052150604, 1.4002746966685664],
                            [0.20052472097952773, 1.492274733082179],
                            [0.5556946368003112, 1.069375686245513]]),
    )
    sol = solve(prog)
    assert sol.status == "optimal"
    assert abs(sol.objective - -16.35139076114895) <= 1e-4


def test_returned_point_feasible_and_gap_certified():
    rng = np.random.default_rng(123)
    _, make = FAMILIES[0]
    prog, _ = make(rng)
    sol = solve(prog)
    assert sol.status == "optimal"
    assert sol.gap_bound <= 1e-6
    assert max_violation(prog, sol.x) <= 1e-9


def test_bitwise_determinism():
    # Identical programs give identical solutions, whatever was solved
    # before: criterion-3 instances made twice, and trajectory programs at
    # finite L, at L = inf and at another slot count, each solved alone
    # first and then twice more, interleaved with the others.
    def assert_same(s1, s2):
        assert s1.x.tobytes() == s2.x.tobytes()
        assert s1.objective == s2.objective
        assert s1.newton_steps == s2.newton_steps

    rng1 = np.random.default_rng(99)
    rng2 = np.random.default_rng(99)
    for _, make in FAMILIES:
        assert_same(solve(make(rng1)[0]), solve(make(rng2)[0]))
    cfg = baseline_scenario(T=24.0, q_I=(30.0, 4.0, 100.0), q_F=(30.0, -4.0, 100.0))
    rng = np.random.default_rng(1)
    trajectory = [build_trajectory_subproblem(expansion_from(*_random_design(c, rng), c), c)
                  for c in (cfg, replace(cfg, L=math.inf), replace(cfg, T=25.0))]
    alone = [solve(prog) for prog in trajectory]
    for prog, first in list(zip(trajectory, alone)) * 2:
        assert_same(solve(prog), first)


def test_non_strict_start_is_contract_error():
    start = np.ones((3, 2))
    start[1, 0] = 0.0   # on the box's boundary
    prog = program(start, [10.0, 10.0], **box_rows([0.0, 0.0], [2.0, 2.0], 3))
    with pytest.raises(ValueError):
        solve(prog)


def test_stalled_centering_is_not_optimal(monkeypatch):
    # with no backtracks allowed no step is ever accepted, so no centering
    # reaches its decrement test
    monkeypatch.setattr(solver, "_MAX_BACKTRACKS", 0)
    prog, _ = FAMILIES[0][1](np.random.default_rng(0))
    sol = solve(prog)
    assert sol.status == "stalled"
    assert np.array_equal(sol.x, prog.start)


def _predictor_programs():
    """The default scenario's first trajectory program and the first 20
    instances of each solver family."""
    cfg = baseline_scenario()
    pw = PowerProfile(p=np.full(cfg.N, cfg.P_bar))
    ep = expansion_from(line_segment_trajectory(cfg), pw, cfg)
    progs = [("default trajectory", build_trajectory_subproblem(ep, cfg))]
    for name, make in FAMILIES:
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        progs += [(f"{name}[{k}]", make(rng)[0]) for k in range(20)]
    return progs


def _criterion_3_instances(name, trials):
    """The criterion-3 instances ``name``[k], k in trials, as (label, program)."""
    make = dict(FAMILIES)[name]
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    progs = [make(rng)[0] for _ in range(max(trials) + 1)]
    return [(f"{name}[{k}]", progs[k]) for k in trials]


def test_solve_evaluates_each_point_once(monkeypatch):
    # Every step starts from the point the step before accepted, with its
    # evaluation, the centring from the last primal-dual iterate, and the
    # returned objective is the last evaluation's (or, for a primal-dual
    # trial point checked for feasibility only, one objective-only call's),
    # so no point is evaluated twice. The three criterion-3 instances once
    # evaluated a point twice under the barrier path.
    evaluate = _Work.evaluate
    seen = []

    def recording_evaluate(work, x, *args):
        seen.append(x.tobytes())
        return evaluate(work, x, *args)

    monkeypatch.setattr(_Work, "evaluate", recording_evaluate)
    progs = (_predictor_programs()[:1] + _family_programs() + [_every_family_program()]
             + _criterion_3_instances("box-linear", [6])
             + _criterion_3_instances("norm-row", [8]))
    for label, prog in progs:
        seen.clear()
        sol = solve(prog)
        assert sol.status == "optimal", label
        assert len(seen) == len(set(seen)), f"{label}: {len(seen) - len(set(seen))} repeats"
        assert sol.objective == prog.objective_value(sol.x), label


def test_primal_dual_iterates_keep_every_slack_and_dual_positive(monkeypatch):
    # every primal-dual iteration assembles its reduced matrix at weight 1
    # with the iterate's duals as row weights
    iterates = []
    assemble = _Work.assemble

    def recording_assemble(work, x, point, t, w):
        if t == 1.0:
            iterates.append((point.s.copy(), w.copy()))
        return assemble(work, x, point, t, w)

    monkeypatch.setattr(_Work, "assemble", recording_assemble)
    for label, prog in _predictor_programs() + _family_programs():
        iterates.clear()
        sol = solve(prog)
        assert sol.status == "optimal", label
        assert 0 < len(iterates) <= sol.newton_steps, label
        for k, (slacks, duals) in enumerate(iterates):
            assert slacks.min() > 0.0 and duals.min() > 0.0, f"{label} iteration {k}"


def test_max_step_keeps_every_slack_and_dual_and_binds_one(monkeypatch):
    # At the primal-dual iterates of trajectory programs, along random
    # directions (d, dl) of many lengths: every row keeps at least _KEEP of
    # its slack c(x) at x + a d, evaluated afresh, and every dual at least
    # _KEEP of its value; unless a = 1, some row or dual sits at its bound,
    # up to rounding of the terms of c + a dc + a^2 q.
    iterates = []
    assemble = _Work.assemble

    def recording_assemble(work, x, point, t, w):
        if t == 1.0:
            iterates.append((work.prog, x.copy(), point, w.copy()))
        return assemble(work, x, point, t, w)

    monkeypatch.setattr(_Work, "assemble", recording_assemble)
    for _, prog in _predictor_programs()[:1] + _subproblem_programs(24.0):
        assert solve(prog).status == "optimal"
    monkeypatch.undo()
    rng = np.random.default_rng(zlib.crc32(b"max-step"))
    keep = solver._KEEP
    bound = {"row": 0, "dual": 0, "full": 0}
    for prog, x, point, lam in iterates:
        work = _Work(prog)
        work.assemble(x, point, 1.0, lam)
        for _ in range(8):
            d = np.zeros_like(x)
            d[1:-1] = rng.standard_normal(d[1:-1].shape) * 10.0 ** rng.uniform(-3.0, 3.0)
            dl = rng.standard_normal(work.m) * lam * 10.0 ** rng.uniform(-1.0, 2.0)
            dc = work.jac_dot(d)
            a = work.max_step(point, d, dc, lam, dl)
            assert 0.0 < a <= 1.0
            xn = x + a * d
            y = xn[1:] - xn[:-1]
            s = np.concatenate([prog.lin_slack(xn).ravel(),
                                prog.speed_h ** 2 - np.add.reduce(y * y, axis=1)])
            e = d[1:] - d[:-1]
            q = np.concatenate([np.zeros(work.rn), -np.add.reduce(e * e, axis=1)])
            # rounding: of each row's terms at x + a d, and of c + a dc + a^2 q
            scale = np.concatenate([
                (np.abs(prog.lin_b) + np.add.reduce(np.abs(prog.lin_a * xn), axis=2)).ravel(),
                prog.speed_h ** 2 + np.add.reduce(y * y, axis=1)])
            scale = np.maximum(scale, np.abs(point.s) + np.abs(a * dc) + np.abs(a * a * q))
            assert np.all(s - keep * point.s >= -1e-12 * scale)
            lam_n = lam + a * dl
            assert np.all(lam_n - keep * lam >= -1e-12 * lam)
            if a == 1.0:
                bound["full"] += 1
                continue
            rows = point.s * (1.0 - keep) + a * dc + a * a * q
            on_row = np.any(np.abs(rows) <= 1e-9 * scale)
            on_dual = np.any(np.abs(lam_n - keep * lam) <= 1e-9 * lam)
            assert on_row or on_dual
            bound["row" if on_row else "dual"] += 1
    assert bound["row"] >= 20 and bound["dual"] >= 20 and bound["full"] > 0, bound


def test_certifying_centring_ends_tightly_at_the_final_weight(monkeypatch):
    # One barrier centring per solve, at t_final = nu/_GAP_TOL, whose last
    # Newton system's g.B^-1 g (twice the half squared decrement that
    # ``_center`` tests) is at most 2 _NEWTON_TOL or at the centring's noise
    # level; the certified gap is nu/t_final.
    exits, decrements = [], []
    center, back_solve = solver._center, solver._back_solve

    def recording_back_solve(chol, rhs):
        sol = back_solve(chol, rhs)
        if sol is not None and rhs.ndim == 1:
            decrements.append(float(rhs @ sol))
        return sol

    def recording_center(work, x, point, t):
        decrements.clear()
        out = center(work, x, point, t)
        noise = 64.0 * t * (abs(point.f) + 1.0) * solver._EPS
        exits.append((t, decrements[-1], noise, out[3]))
        return out

    monkeypatch.setattr(solver, "_back_solve", recording_back_solve)
    monkeypatch.setattr(solver, "_center", recording_center)
    for label, prog in _predictor_programs() + _family_programs():
        exits.clear()
        sol = solve(prog)
        nu = _Work(prog).nu
        t_final = max(nu, 1.0) / solver._GAP_TOL
        assert sol.status == "optimal" and sol.stages == 1, label
        assert len(exits) == 1, label
        t, gd, noise, status = exits[0]
        assert t == t_final and status == "ok", label
        assert gd <= 2.0 * solver._NEWTON_TOL or gd <= noise, f"{label}: {gd:.3g}"
        assert sol.gap_bound == nu / t_final, label


def _staged_barrier(prog):
    """Reference optimum of prog: ``_center`` run stage by stage from the
    bundled start, the weight growing tenfold from nu/max(|F|, 1e-2) to
    nu/_GAP_TOL, each stage centred to ``_NEWTON_TOL``. Returns the last
    stage's objective and status."""
    work = _Work(prog)
    x = prog.start.copy()
    point = work.evaluate(x)
    nu = work.nu
    t, t_final = nu / max(abs(point.f), 1e-2), nu / solver._GAP_TOL
    while True:
        t = min(t, t_final)
        x, point, _, status = _center(work, x, point, t)
        if t == t_final or status != "ok":
            return point.f, status
        t *= 10.0


def test_objective_is_within_the_gap_of_a_staged_barrier_reference():
    for label, prog in _predictor_programs() + _family_programs():
        sol = solve(prog)
        reference, status = _staged_barrier(prog)
        assert sol.status == "optimal" and status == "ok", label
        assert abs(sol.objective - reference) <= sol.gap_bound, (
            f"{label}: {sol.objective!r} vs {reference!r}")


def test_unbounded_direction_reports_max_iter():
    # maximize -1/(s + 1) for the slack s of x <= 0 on the free slot: the
    # objective rises toward 0 as x falls, as far as speed rows 1e30 long
    # allow, so the barrier's centre (near x = -(t h^2)^(1/3)) is out of
    # Newton's reach and it cannot certify
    prog = program(np.array([[-1.0, 0.0]] * 3), [1e30, 1e30], **slot_rows([[1.0, 0.0]], [0.0], 3),
                   lin_k=np.array([[0.0, 1.0, 0.0]]))
    sol = solve(prog)
    assert sol.status in ("max-iter", "numerical-failure")


def test_fixed_coordinates_are_held_exactly():
    # maximize -|q - (5, 5)|^2 on every slot with x + 2 y <= 3: the ends stay
    # where the start puts them, the free slot goes to the row's point
    # nearest (5, 5), (2.6, 0.2)
    start = np.array([[1.0, 0.5], [0.5, 0.5], [-1.0, 0.25]])
    prog = program(start, [10.0, 10.0], **slot_rows([[1.0, 2.0]], [3.0], 3),
                   quad_c=np.full((3, 2), 5.0), quad_beta=np.ones((3, 2)))
    sol = solve(prog)
    assert sol.status == "optimal"
    assert sol.x[[0, -1]].tobytes() == start[[0, -1]].tobytes()
    np.testing.assert_allclose(sol.x[1], [2.6, 0.2], atol=1e-6)


def _newton_direction(band, rhs, banded=None):
    """Solve B d = rhs as the solver's Newton steps do: ``_cholesky`` into
    ``banded`` (by default fresh buffers shaped as band), then
    ``_back_solve``; None if either fails."""
    chol = solver._cholesky(banded or solver._Banded(band.shape[1], band.shape[0] - 1), band)
    return None if chol is None else solver._back_solve(chol, rhs)


def test_newton_direction_regularizes_singular_system(monkeypatch):
    # singular Hessian diag(2, 0, 1) as a band: the second pivot is zero, so
    # the first factorization fails and the retry factors B + reg I with the
    # first escalation reg; the caller's band stays as it was
    band = np.array([[2.0, 0.0, 1.0], [0.0, 0.0, 0.0]], order="F")
    kept = band.copy()
    infos = []
    pbtrf, banded = solver._PBTRF, solver._Banded(3, 1)

    def recording_pbtrf(*args):
        pbtrf(*args)
        infos.append(banded.info.value)

    monkeypatch.setattr(solver, "_PBTRF", recording_pbtrf)
    g = np.array([1.0, 2.0, 3.0])
    d = _newton_direction(band, g, banded)
    assert infos == [2, 0]
    np.testing.assert_array_equal(band, kept)
    reg = 1e-12 * (1.0 + 2.0)
    np.testing.assert_allclose(d, g / (band[0] + reg), rtol=1e-12)


def test_every_coordinate_fixed_needs_no_factorization(capfd):
    # two slots, both ends: no free coordinate
    assert _newton_direction(np.zeros((1, 0)), np.zeros(0)).shape == (0,)
    start = np.array([[1.0, 0.5], [1.5, 0.5]])
    prog = program(start, [1.0], **box_rows(np.zeros(2), np.full(2, 2.0), 2),
                   quad_c=np.full((2, 2), 3.0), quad_beta=np.ones((2, 2)))
    sol = solve(prog)
    assert sol.status == "optimal"
    np.testing.assert_array_equal(sol.x, start)
    assert capfd.readouterr().err == ""


def test_newton_direction_rejects_non_finite_system():
    band = np.array([[np.nan, 1.0], [0.0, 0.0]])
    g = np.array([1.0, 1.0])
    assert _newton_direction(band, g) is None
    # a finite band with a NaN right-hand side: the solution is not finite
    band = np.array([[2.0, 2.0], [-1.0, 0.0]])
    assert _newton_direction(band, np.array([1.0, np.nan])) is None
    assert _newton_direction(band, np.array([[1.0, 1.0], [np.nan, 0.0]])) is None


def _dense(band):
    """The symmetric matrix whose lower band storage is ``band``."""
    m = band.shape[1]
    M = np.zeros((m, m))
    for k in range(band.shape[0]):
        j = np.arange(m - k)
        M[j + k, j] = band[k, : m - k]
        M[j, j + k] = band[k, : m - k]
    return M


def _subproblem_programs(T):
    """Trajectory programs at T (s), at finite L and at L=inf, linearized at
    a perturbed straight segment."""
    progs = []
    for L in (400.0, math.inf):
        cfg = baseline_scenario(T=T, L=L, q_I=(30.0, 4.0, 100.0), q_F=(30.0, -4.0, 100.0))
        rng = np.random.default_rng(0)
        frac = np.linspace(0.0, 1.0, cfg.N)[:, None]
        pts = cfg.q_I[:2] * (1.0 - frac) + cfg.q_F[:2] * frac + rng.uniform(-3.0, 3.0, (cfg.N, 2))
        pts[0], pts[-1] = cfg.q_I[:2], cfg.q_F[:2]
        traj = Trajectory(points=pts)
        pw = PowerProfile(p=np.full(cfg.N, cfg.P_bar))
        ep = expansion_from(traj, pw, cfg)
        progs.append((f"trajectory T={T:g} L={L}", build_trajectory_subproblem(ep, cfg)))
    return progs


def _family_programs():
    return [(name, make(np.random.default_rng(zlib.crc32(name.encode())))[0])
            for name, make in FAMILIES]


def _every_family_program():
    """One program with every term and row family of the trajectory program
    at once: quad terms, two rows per slot with reciprocal terms, speed rows
    and fixed ends, over four slots."""
    return ("every-family", program(
        [[0.2, 0.5], [0.8, 0.3], [1.1, 0.9], [1.6, 0.4]], [2.0, 1.5, 2.5], constant=0.7,
        quad_c=np.array([[0.5, 1.0], [-0.5, 0.3], [0.9, -0.2], [1.2, 0.6]]),
        quad_beta=np.array([[0.4, 0.2], [0.3, 0.5], [0.1, 0.6], [0.7, 0.0]]),
        lin_a=np.array([[[1.0, 0.5], [0.5, -1.0], [-0.3, 0.8], [0.2, 0.2]],
                        [[0.5, -1.0], [1.0, 0.5], [0.6, 0.4], [-1.0, 0.1]]]),
        lin_b=np.array([[3.0, 1.5, 2.0, 1.0], [1.0, 1.5, 2.0, 0.0]]),
        lin_k=np.array([[0.8, 0.3, 0.5, 0.2], [0.3, 0.6, 0.4, 0.1]]),
        lin_o=np.array([[0.5, 0.2, 0.4, 0.3], [0.2, 0.3, 0.6, 0.5]]),
    ))


def test_every_family_program_has_every_family():
    prog = _every_family_program()[1]
    assert len(prog.start) > 3 and np.all(prog.quad_beta[1:-1] > 0.0)
    assert prog.lin_b.shape[0] == 2 and np.all(prog.lin_k[:, 1:-1] > 0.0)
    assert _Work(prog).evaluate(prog.start) is not None


@pytest.mark.parametrize("label,prog", [
    pytest.param(label, prog, id=label.replace(" T=4", ""))
    for label, prog in (_subproblem_programs(4.0) + _family_programs() + [_every_family_program()])
])
def test_assemble_matches_central_differences_of_phi(label, prog):
    work = _Work(prog)
    x = prog.start.copy()
    # the centre at t=1 keeps every slack well away from zero; evaluating at
    # t=3 there leaves a gradient that is not near zero
    x, point, _, flag = _center(work, x, work.evaluate(x), 1.0)
    assert flag == "ok"
    t = 3.0
    gu, band, _ = work.assemble(x, point, t, 1.0 / point.s)
    g = t * gu[0] + gu[1]
    H = -_dense(band)

    def phi(y):
        return work.evaluate(y.reshape(x.shape)).phi(t, point.f)

    flat = x.ravel()
    free = range(2, flat.size - 2)      # the ends' coordinates are fixed
    h = 1e-4 * np.maximum(1.0, np.abs(flat))
    steps = np.diag(h)
    g_fd = np.array([(phi(flat + steps[i]) - phi(flat - steps[i])) / (2.0 * h[i]) for i in free])
    H_fd = np.array([[
        (phi(flat + steps[i] + steps[j]) - phi(flat + steps[i] - steps[j])
         - phi(flat - steps[i] + steps[j]) + phi(flat - steps[i] - steps[j])) / (4.0 * h[i] * h[j])
        for j in free] for i in free])
    # errors in the units of each coordinate's own curvature
    scale = np.sqrt(np.abs(np.diag(H)))
    assert np.all(scale > 0.0), label
    assert np.max(np.abs(g - g_fd) / np.maximum(np.abs(g), scale)) <= 1e-5, label
    assert np.max(np.abs(H - H_fd) / np.outer(scale, scale)) <= 1e-3, label


def _step_cases():
    """(label, band, rhs) Newton systems: each subproblem program and solver
    family at its t=1 centre, evaluated at t=3."""
    cases = []
    for label, prog in (_subproblem_programs(4.0) + _subproblem_programs(24.0)
                        + _family_programs() + [_every_family_program()]):
        work = _Work(prog)
        x, point, _, _ = _center(work, prog.start.copy(), work.evaluate(prog.start), 1.0)
        gu, band, _ = work.assemble(x, point, 3.0, 1.0 / point.s)
        g = 3.0 * gu[0] + gu[1]
        cases.append(pytest.param(band, g, id=label))
        if label.startswith("trajectory"):
            # the Newton step and the path tangent B^-1 grad F from one
            # factorization, two columns as each primal-dual iteration solves
            cases.append(pytest.param(band, np.array((g, gu[0])).T,
                                      id=f"{label} with tangent"))
    # a tridiagonal block next to a coordinate without curvature: the first
    # Cholesky fails and the retry adds the first escalation to the diagonal
    band = np.array([[2.0, 2.0, 0.0], [-1.0, 0.0, 0.0]])
    cases.append(pytest.param(band, np.array([1.0, 2.0, 3.0]), id="regularized"))
    return cases


@pytest.mark.parametrize("band,rhs", _step_cases())
def test_banded_newton_step_matches_dense_solve(band, rhs):
    M = _dense(band)
    try:
        np.linalg.cholesky(M)
        reg = 0.0
    except np.linalg.LinAlgError:
        # the first escalation: 1e-12 relative to the largest diagonal entry
        reg = 1e-12 * (1.0 + np.max(np.abs(np.diag(M))))
    d = _newton_direction(band, rhs)
    oracle = np.linalg.solve(M + reg * np.eye(M.shape[0]), rhs)
    np.testing.assert_allclose(d, oracle, rtol=1e-9, atol=1e-14 * np.linalg.norm(oracle))


def _random_spd_band(rng, m, kd):
    """Lower band storage, F-contiguous, of a random well-conditioned SPD
    matrix of order m and half-bandwidth kd."""
    band = np.zeros((kd + 1, m), order="F")
    band[1:] = rng.uniform(-1.0, 1.0, (kd, m))
    for k in range(1, kd + 1):
        band[k, m - k:] = 0.0
    band[0] = 2.0 * (kd + 1) + rng.uniform(0.0, 1.0, m)
    return band


@pytest.mark.parametrize("kd", [3, 29])
def test_newton_direction_solves_band_systems_and_keeps_the_band(kd):
    # kd = 3 is the trajectory programs' band; kd = m - 1 a full band
    rng = np.random.default_rng(kd)
    m = 30
    for order in ("F", "C"):
        band = np.array(_random_spd_band(rng, m, kd), order=order)
        kept = band.copy()
        M = _dense(band)
        for rhs in (rng.normal(size=m), rng.normal(size=(m, 2))):
            d = _newton_direction(band, rhs)
            oracle = np.linalg.solve(M, rhs)
            assert np.max(np.abs(d - oracle)) <= 1e-12 * np.max(np.abs(oracle))
            np.testing.assert_array_equal(band, kept)


_SAME_ROUTINES = """
import sys
import numpy as np
from uavsec import solver
assert [m for m in sys.modules if m.split(".")[0] == "scipy"] == []
from scipy.linalg import cholesky_banded, get_lapack_funcs
pbtrf, pbtrs = get_lapack_funcs(("pbtrf", "pbtrs"), dtype=np.float64)
rng = np.random.default_rng(7)
for n, kd in ((40, 3), (12, 11)):  # the trajectory band; a full band
    band = rng.uniform(-1.0, 1.0, (kd + 1, n))
    band[0] = 1.0 + 2.0 * kd
    theirs, info = pbtrf(np.array(band, order="F"), lower=1)
    assert info == 0
    chol = solver._cholesky(solver._Banded(n, kd), band)
    assert np.array_equal(chol.factor, theirs)
    assert np.array_equal(cholesky_banded(band, lower=True), theirs)
    for rhs in (rng.standard_normal(n), rng.standard_normal((n, 2))):
        assert np.array_equal(solver._back_solve(chol, rhs), pbtrs(theirs, rhs, lower=1)[0])
print("ok")
"""


def test_loaded_lapack_routines_are_scipys_and_coexist_with_scipy_linalg():
    # numpy's scipy-openblas64 routines, called through the solver's own
    # _cholesky and _back_solve, give scipy.linalg's factor and solutions
    # bit for bit; solver first, scipy.linalg after it, in one fresh process
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", _SAME_ROUTINES], env=env, capture_output=True,
                         text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"


def test_missing_lapack_extension_is_a_named_import_error():
    # a library that neither holds nor links LAPACK: the error names the
    # routine it lacks and the library
    import _ctypes
    with pytest.raises(ImportError, match="scipy_dpbtrf_64_") as err:
        solver._load_lapack(_ctypes.__file__)
    assert _ctypes.__file__ in str(err.value)


@pytest.mark.parametrize("L", [400.0, math.inf])
def test_band_width_does_not_grow_with_slot_count(L):
    # At T = 200 every entry of the Newton matrix, taken from central
    # differences of the barrier gradient, lies in the band of half-width 3
    # that a speed row's two neighbouring slots span: a band missing a
    # coupling, or a coupling farther out, fails the comparison.
    cfg = baseline_scenario(T=200.0, L=L)
    pw = PowerProfile(p=np.full(cfg.N, cfg.P_bar))
    prog = build_trajectory_subproblem(expansion_from(line_segment_trajectory(cfg), pw, cfg), cfg)
    work = _Work(prog)
    x, point, _, flag = _center(work, prog.start.copy(), work.evaluate(prog.start), 1.0)
    assert flag == "ok"
    t = 3.0
    band = work.assemble(x, point, t, 1.0 / point.s)[1].copy()
    assert band.shape == (4, 2 * cfg.N - 4)

    def grad(y):
        p = work.evaluate(y)
        gu = work.assemble(y, p, t, 1.0 / p.s)[0]
        return t * gu[0] + gu[1]

    free = x[1:-1].ravel()
    h = 1e-4 * np.maximum(1.0, np.abs(free))
    H_fd = np.empty((free.size, free.size))
    for i in range(free.size):
        y = x.copy()
        y[1:-1].flat[i] = free[i] + h[i]
        g_plus = grad(y)
        y[1:-1].flat[i] = free[i] - h[i]
        H_fd[:, i] = (grad(y) - g_plus) / (2.0 * h[i])
    H = _dense(band)
    scale = np.sqrt(np.diag(H))
    # in the units of each coordinate's own curvature, as in the phi test
    assert np.max(np.abs(H - H_fd) / np.outer(scale, scale)) <= 1e-3


# ---------------------------------------------------------------------------
# Closed-form power step
# ---------------------------------------------------------------------------

def _random_design(cfg, rng):
    """Perturbed straight segment and feasible powers, about a fifth of the
    slots silent."""
    n = cfg.N
    frac = np.linspace(0.0, 1.0, n)[:, None]
    pts = cfg.q_I[:2] * (1.0 - frac) + cfg.q_F[:2] * frac + rng.uniform(-3.0, 3.0, (n, 2))
    pts[0], pts[-1] = cfg.q_I[:2], cfg.q_F[:2]
    p = rng.uniform(0.0, cfg.P_max, n)
    p *= min(1.0, cfg.P_bar / p.mean())
    p[rng.random(n) < 0.2] = 0.0
    return Trajectory(points=pts), PowerProfile(p=p)


@pytest.mark.parametrize("L", [200.0, 400.0, 800.0, math.inf])
def test_water_fill_matches_barrier_solve(L):
    # The water-filled powers are the power program's optimum, the point a
    # barrier solve converges to: feasible, and KKT up to rounding.
    rng = np.random.default_rng(zlib.crc32(f"water-fill L={L}".encode()))
    for trial in range(25):
        cfg = baseline_scenario(T=float(rng.integers(2, 40)), L=L,
                                q_I=(30.0, 4.0, 100.0), q_F=(30.0, -4.0, 100.0))
        traj, pw = _random_design(cfg, rng)
        prog = build_power_subproblem(expansion_from(traj, pw, cfg), cfg)
        x = water_fill(prog)
        _assert_kkt(prog, x)
        # the driver keeps the water-filled powers without comparing them to
        # the current ones
        assert prog.objective_value(x) >= prog.objective_value(pw.p) - 1e-12, trial


def _assert_kkt(prog, x):
    """x lies in the box [0, ub] and within the budget, and some multiplier
    lam >= 0 of the budget, zero unless the budget is tight, satisfies every
    coordinate's KKT condition on its box, up to rounding relative to the
    linear coefficients."""
    assert np.all(x >= 0.0) and np.all(x <= prog.ub) and np.add.reduce(x) <= prog.budget
    gain = prog.alpha * prog.a / (1.0 + prog.a * x) + prog.c
    tight = np.sum(x) >= prog.budget * (1.0 - 1e-12)
    lam_lo = max([0.0] + list(gain[x < prog.ub]))
    lam_hi = min(list(gain[x > 0.0]) + [math.inf if tight else 0.0])
    assert lam_lo <= lam_hi + 1e-9 * np.max(np.abs(prog.c))


def test_water_fill_kkt_on_one_slot():
    # hovering above Bob, one slot: the average cap binds below P_max
    cfg = baseline_scenario(T=1.0, q_I=(0.0, 0.0, 100.0), q_F=(0.0, 0.0, 100.0))
    pw = PowerProfile(p=np.array([cfg.P_bar]))
    prog = build_power_subproblem(expansion_from(Trajectory(points=np.zeros((1, 2))), pw, cfg),
                                  cfg)
    x = water_fill(prog)
    assert x[0] == pytest.approx(cfg.P_bar, rel=1e-12) and x[0] <= cfg.P_bar
    _assert_kkt(prog, x)


def test_water_fill_kkt_when_caps_coincide():
    # with P_bar = P_max the box implies the budget, so lam = 0 and every
    # slot takes its own clipped stationary point
    cfg = baseline_scenario(T=24.0, P_bar=0.1, P_max=0.1)
    pw = PowerProfile(p=np.full(cfg.N, cfg.P_bar))
    prog = build_power_subproblem(expansion_from(line_segment_trajectory(cfg), pw, cfg), cfg)
    x = water_fill(prog)
    own = np.clip(prog.alpha / -prog.c - 1.0 / prog.a, 0.0, prog.ub)
    assert np.array_equal(x, own)
    assert 0.0 < np.sum(x) < prog.budget
    _assert_kkt(prog, x)


def test_water_fill_kkt_when_the_budget_binds():
    cfg = baseline_scenario(T=24.0, q_I=(30.0, 4.0, 100.0), q_F=(30.0, -4.0, 100.0))
    pw = PowerProfile(p=np.full(cfg.N, cfg.P_bar))
    prog = build_power_subproblem(expansion_from(line_segment_trajectory(cfg), pw, cfg), cfg)
    x = water_fill(prog)
    assert np.sum(x) == pytest.approx(prog.budget, rel=1e-12)
    assert np.any((x > 0.0) & (x < prog.ub))
    _assert_kkt(prog, x)


def _grid_power_programs():
    """Every power program that the acceptance grid's runs (T in 42..60 s,
    L in 200..800, every scheme) water-fill."""
    progs = []

    def recording(prog):
        progs.append(prog)
        return water_fill(prog)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(driver, "water_fill", recording)
        for T in (42.0, 48.0, 54.0, 60.0):
            for L in (200.0, 400.0, 800.0):
                for scheme in SchemeId:
                    run_scheme(baseline_scenario(T=T, L=L), scheme)
    return progs


def _water_fill_edge_programs():
    """(label, program): a slack budget, every slot at P_max, one slot, and
    a budget of 1e-6 * N * P_bar."""
    cfg = baseline_scenario(T=24.0, P_bar=0.1, P_max=0.1)
    slack = build_power_subproblem(expansion_from(
        line_segment_trajectory(cfg), PowerProfile(p=np.full(cfg.N, cfg.P_bar)), cfg), cfg)
    # each slot's own optimum, 1/3 - 1/30, lies above the cap of 0.1
    n = 5
    capped = power_program(0.0, np.full(n, -3.0), np.full(n, 30.0), np.ones(n), np.full(n, 0.1),
                           0.5)
    cfg1 = baseline_scenario(T=1.0, q_I=(0.0, 0.0, 100.0), q_F=(0.0, 0.0, 100.0))
    one = build_power_subproblem(expansion_from(Trajectory(points=np.zeros((1, 2))),
                                                PowerProfile(p=np.array([cfg1.P_bar])), cfg1), cfg1)
    cfg = baseline_scenario(T=24.0, q_I=(30.0, 4.0, 100.0), q_F=(30.0, -4.0, 100.0))
    tight = build_power_subproblem(expansion_from(
        line_segment_trajectory(cfg), PowerProfile(p=np.full(cfg.N, cfg.P_bar)), cfg), cfg)
    return [
        ("slack budget", slack),
        ("every slot at P_max", capped),
        ("every slot at P_max, budget just below", capped._replace(budget=0.4999)),
        ("one slot", one),
        ("budget 1e-6 N P_bar", tight._replace(budget=tight.budget * 1e-6)),
    ]


def test_water_fill_matches_bisection_bit_for_bit():
    progs = [("grid", prog) for prog in _grid_power_programs()] + _water_fill_edge_programs()
    assert len(progs) > 400
    for label, prog in progs:
        assert np.array_equal(water_fill(prog), bisection_water_fill(prog)), label
    slack, capped = progs[-5][1], progs[-4][1]
    assert np.sum(water_fill(slack)) < slack.budget
    np.testing.assert_array_equal(water_fill(capped), capped.ub)
    tiny = progs[-1][1]
    assert 0.0 < np.sum(water_fill(tiny)) <= tiny.budget
