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
from uavsec.solver import _center, _newton_direction, _Work, solve, water_fill
from uavsec.surrogate import build_power_subproblem, build_trajectory_subproblem

from solver_instances import FAMILIES, bisection_water_fill, dense_rows, program
from surrogate_reference import max_violation


def test_box_quadratic_example():
    # maximize -(x-3)^2 on [0, 2]: optimum at the upper box corner
    prog = program(
        1, lb=np.array([0.0]), ub=np.array([2.0]),
        quad_i=np.array([0]), quad_c=np.array([3.0]), quad_beta=np.array([1.0]),
        start=np.array([1.0]),
    )
    sol = solve(prog)
    assert sol.status == "optimal"
    assert sol.x[0] == pytest.approx(2.0, abs=1e-6)
    assert sol.objective == pytest.approx(-1.0, abs=1e-6)


def test_hyperbolic_corner_example():
    # maximize -u subject to u*l >= 4, 0 <= l <= 2: u = l = 2
    prog = program(
        2, lb=np.array([0.0, 0.0]), ub=np.array([np.inf, 2.0]),
        c=np.array([-1.0, 0.0]),
        hyper_i=np.array([0]), hyper_j=np.array([1]), hyper_k=np.array([4.0]),
        start=np.array([5.0, 1.0]),
    )
    sol = solve(prog)
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.x, [2.0, 2.0], atol=1e-5)


def test_log_box_example():
    # maximize log(1+100P) - 5P on [0, 0.1]; stationary point 0.19 above box
    prog = program(
        1, lb=np.array([0.0]), ub=np.array([0.1]), c=np.array([-5.0]),
        log_i=np.array([0]), log_a=np.array([100.0]), log_alpha=np.array([1.0]),
        start=np.array([0.05]),
    )
    sol = solve(prog)
    assert sol.status == "optimal"
    assert sol.x[0] == pytest.approx(0.1, abs=1e-6)
    grid = np.linspace(0.0, 0.1, 10001)
    oracle = np.max(np.log(1.0 + 100.0 * grid) - 5.0 * grid)
    assert sol.objective == pytest.approx(oracle, abs=1e-5)


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


def test_returned_point_feasible_and_gap_certified():
    rng = np.random.default_rng(123)
    _, make = FAMILIES[0]
    prog, _ = make(rng)
    sol = solve(prog)
    assert sol.status == "optimal"
    assert sol.gap_bound <= 1e-6
    assert max_violation(prog, sol.x) <= 1e-9


def test_bitwise_determinism():
    rng1 = np.random.default_rng(99)
    rng2 = np.random.default_rng(99)
    for _, make in FAMILIES:
        p1, _ = make(rng1)
        p2, _ = make(rng2)
        s1 = solve(p1)
        s2 = solve(p2)
        assert np.array_equal(s1.x, s2.x)
        assert s1.objective == s2.objective
        assert s1.newton_steps == s2.newton_steps


def test_non_strict_start_is_contract_error():
    prog = program(
        1, lb=np.array([0.0]), ub=np.array([2.0]), c=np.array([1.0]),
        start=np.array([0.0]),  # on the boundary
    )
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
    progs = [("default trajectory",
              build_trajectory_subproblem(line_segment_trajectory(cfg), pw, cfg))]
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
    # Every step starts from the point the step before accepted, the
    # centring from the last primal-dual iterate; a trial that rounds to any
    # point evaluated before in the solve reuses its evaluation; and the
    # returned objective is the last evaluation's. The three criterion-3
    # instances once evaluated a point twice under the barrier path.
    evaluate = _Work.evaluate
    seen = []

    def recording_evaluate(work, x):
        seen.append(x.tobytes())
        return evaluate(work, x)

    monkeypatch.setattr(_Work, "evaluate", recording_evaluate)
    progs = (_predictor_programs()[:1] + _family_programs() + [_every_family_program()]
             + _criterion_3_instances("box-linear", [6])
             + _criterion_3_instances("log-objective", [33])
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


def test_certifying_centring_ends_tightly_at_the_final_weight(monkeypatch):
    # One barrier centring per solve, at t_final = nu/_GAP_TOL, whose last
    # Newton system's g.B^-1 g (twice the half squared decrement that
    # ``_center`` tests) is at most 2 _NEWTON_TOL or at the centring's noise
    # level; the certified gap is nu/t_final.
    exits, decrements = [], []
    center, direction = solver._center, solver._newton_direction

    def recording_direction(band, rhs):
        sol = direction(band, rhs)
        if sol is not None:
            decrements.append(float(rhs @ sol))
        return sol

    def recording_center(work, x, point, t):
        decrements.clear()
        out = center(work, x, point, t)
        noise = 64.0 * t * (abs(point.f) + 1.0) * solver._EPS
        exits.append((t, decrements[-1], noise, out[3]))
        return out

    monkeypatch.setattr(solver, "_newton_direction", recording_direction)
    monkeypatch.setattr(solver, "_center", recording_center)
    for label, prog in _predictor_programs() + _family_programs():
        exits.clear()
        sol = solve(prog)
        nu = _Work(prog).pattern.nu
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
    x[prog.fixed_idx] = prog.fixed_val
    point = work.evaluate(x)
    nu = work.pattern.nu
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
    # maximize x with no constraints at all: no barrier, Newton cannot certify
    prog = program(1, c=np.array([1.0]), start=np.array([0.0]))
    sol = solve(prog)
    assert sol.status in ("max-iter", "numerical-failure")


def test_fixed_coordinates_are_held_exactly():
    prog = program(
        2, lb=np.array([-np.inf, 0.0]), c=np.array([1.0, 1.0]),
        **dense_rows([[1.0, 2.0]], [3.0]),
        fixed_idx=np.array([0]), fixed_val=np.array([1.0]),
        start=np.array([1.0, 0.5]),
    )
    sol = solve(prog)
    assert sol.status == "optimal"
    assert sol.x[0] == 1.0
    assert sol.x[1] == pytest.approx(1.0, abs=1e-6)


def test_newton_direction_regularizes_singular_system(monkeypatch):
    # singular Hessian diag(2, 0, 1) as a band: the second pivot is zero, so
    # the first factorization fails and the retry factors B + reg I with the
    # first escalation reg; the caller's band stays as it was
    band = np.array([[2.0, 0.0, 1.0], [0.0, 0.0, 0.0]], order="F")
    kept = band.copy()
    infos = []
    pbtrf = solver._PBTRF

    def recording_pbtrf(ab, **kw):
        out = pbtrf(ab, **kw)
        infos.append(out[1])
        return out

    monkeypatch.setattr(solver, "_PBTRF", recording_pbtrf)
    g = np.array([1.0, 2.0, 3.0])
    d = _newton_direction(band, g)
    assert infos == [2, 0]
    np.testing.assert_array_equal(band, kept)
    reg = 1e-12 * (1.0 + 2.0)
    np.testing.assert_allclose(d, g / (band[0] + reg), rtol=1e-12)


def test_every_coordinate_fixed_needs_no_factorization(capfd):
    assert _newton_direction(np.zeros((1, 0)), np.zeros(0)).shape == (0,)
    prog = program(
        2, lb=np.zeros(2), ub=np.full(2, 2.0), c=np.array([1.0, 1.0]),
        fixed_idx=np.array([0, 1]), fixed_val=np.array([1.0, 0.5]),
        start=np.array([1.0, 0.5]),
    )
    sol = solve(prog)
    assert sol.status == "optimal"
    np.testing.assert_array_equal(sol.x, [1.0, 0.5])
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
    """Trajectory and power programs at T (s), at finite L and at L=inf,
    linearized at a perturbed straight segment."""
    progs = []
    for L in (400.0, math.inf):
        cfg = baseline_scenario(T=T, L=L, q_I=(30.0, 4.0, 100.0), q_F=(30.0, -4.0, 100.0))
        rng = np.random.default_rng(0)
        frac = np.linspace(0.0, 1.0, cfg.N)[:, None]
        pts = cfg.q_I[:2] * (1.0 - frac) + cfg.q_F[:2] * frac + rng.uniform(-3.0, 3.0, (cfg.N, 2))
        pts[0], pts[-1] = cfg.q_I[:2], cfg.q_F[:2]
        traj = Trajectory(points=pts)
        pw = PowerProfile(p=np.full(cfg.N, cfg.P_bar))
        progs.append((f"trajectory T={T:g} L={L}", build_trajectory_subproblem(traj, pw, cfg)))
        progs.append((f"power T={T:g} L={L}", build_power_subproblem(traj, pw, cfg)))
    return progs


def _family_programs():
    return [(name, make(np.random.default_rng(zlib.crc32(name.encode())))[0])
            for name, make in FAMILIES]


def _reciprocal_row_program():
    """A box and one linear row whose reciprocal term -k/(s + o) dominates
    the row's curvature, which in the trajectory programs is far below the
    speed rows'."""
    return ("reciprocal-row", program(
        2, lb=np.zeros(2), ub=np.full(2, 2.0), c=np.array([1.0, 0.5]),
        **dense_rows([[1.0, 2.0]], [3.0]),
        lin_k=np.array([5.0]), lin_o=np.array([0.5]), start=np.array([0.5, 0.5]),
    ))


def _repeated_index_row_program():
    """One linear row of arity 3 that names coordinate 0 twice and gives
    coordinate 1 a zero coefficient: the row is 2.5 x0 <= 3, so the scatter
    must sum the repeated entries."""
    return ("repeated-index-row", program(
        2, lb=np.zeros(2), ub=np.full(2, 2.0), c=np.array([1.0, 0.5]),
        lin_i=np.array([[0, 1, 0]]), lin_a=np.array([[1.0, 0.0, 1.5]]), lin_b=np.array([3.0]),
        lin_k=np.array([2.0]), lin_o=np.array([0.5]), start=np.array([0.5, 0.5]),
    ))


def _every_family_program():
    """One program with every term and row family at once: log and quad
    terms, linear rows with reciprocal terms, a speed row, a hyperbolic row,
    finite lower and upper boxes and a fixed coordinate. The speed row runs
    from the point (x0, x1), x0 fixed, to (x2, x3); the hyperbolic row is
    x4 * x5 >= 1."""
    return ("every-family", program(
        6, lb=np.array([-np.inf, -np.inf, -1.0, -np.inf, 0.0, 0.0]),
        ub=np.array([np.inf, 2.0, np.inf, np.inf, 5.0, 4.0]),
        c=np.array([0.0, 0.3, -0.2, 0.1, -0.5, 0.4]),
        log_i=np.array([4]), log_a=np.array([3.0]), log_alpha=np.array([1.5]),
        quad_i=np.array([1, 2, 3]), quad_c=np.array([0.5, 1.0, -0.5]),
        quad_beta=np.array([0.4, 0.2, 0.3]),
        lin_i=np.array([[3, 5], [2, 4]]), lin_a=np.array([[1.0, 0.5], [0.5, -1.0]]),
        lin_b=np.array([3.0, 1.0]), lin_k=np.array([0.8, 0.3]), lin_o=np.array([0.5, 0.2]),
        speed_i=np.array([[0, 1]]), speed_j=np.array([[2, 3]]), speed_h=np.array([2.0]),
        hyper_i=np.array([4]), hyper_j=np.array([5]), hyper_k=np.array([1.0]),
        fixed_idx=np.array([0]), fixed_val=np.array([0.2]),
        start=np.array([0.2, 0.5, 0.8, 0.3, 2.0, 1.5]),
    ))


def test_every_family_program_has_every_family():
    work = _Work(_every_family_program()[1])
    pat = work.pattern
    assert all((pat.has_log, pat.has_quad, pat.has_lo, pat.has_hi, pat.has_lin,
                pat.has_speed, pat.has_hyper))
    assert np.any(work.prog.lin_k > 0.0) and work.prog.fixed_idx.size == 1


@pytest.mark.parametrize("label,prog", [
    pytest.param(label, prog, id=label.replace(" T=4", ""))
    for label, prog in (_subproblem_programs(4.0) + _family_programs()
                        + [_reciprocal_row_program(), _repeated_index_row_program(),
                           _every_family_program()])
])
def test_assemble_matches_central_differences_of_phi(label, prog):
    work = _Work(prog)
    x = prog.start.copy()
    x[prog.fixed_idx] = prog.fixed_val
    # the centre at t=1 keeps every slack well away from zero; evaluating at
    # t=3 there leaves a gradient that is not near zero
    x, point, _, flag = _center(work, x, work.evaluate(x), 1.0)
    assert flag == "ok"
    t = 3.0
    gf, gb, band, _ = work.assemble(x, point, t, 1.0 / point.s)
    g = t * gf + gb
    free = work.pattern.free
    H = -_dense(band)

    def phi(y):
        return work.evaluate(y).phi(t, point.f)

    h = 1e-4 * np.maximum(1.0, np.abs(x))
    steps = np.diag(h)
    g_fd = np.array([(phi(x + steps[i]) - phi(x - steps[i])) / (2.0 * h[i]) for i in free])
    H_fd = np.array([[
        (phi(x + steps[i] + steps[j]) - phi(x + steps[i] - steps[j])
         - phi(x - steps[i] + steps[j]) + phi(x - steps[i] - steps[j])) / (4.0 * h[i] * h[j])
        for j in free] for i in free])
    # errors in the units of each coordinate's own curvature
    g = g[free]
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
        x = prog.start.copy()
        x[prog.fixed_idx] = prog.fixed_val
        x, point, _, _ = _center(work, x, work.evaluate(x), 1.0)
        gf, gb, band, _ = work.assemble(x, point, 3.0, 1.0 / point.s)
        free = work.pattern.free
        g = (3.0 * gf + gb)[free]
        cases.append(pytest.param(band, g, id=label))
        if label.startswith("trajectory"):
            # the Newton step and the path tangent B^-1 grad F from one
            # factorization, two columns as each primal-dual iteration solves
            cases.append(pytest.param(band, np.array((g, gf[free])).T,
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
    # kd = 3 is the trajectory programs' band; kd = m - 1 a full band, as
    # the power programs have
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
assert "scipy.linalg" not in sys.modules
from scipy.linalg import cholesky_banded, get_lapack_funcs
pbtrf, pbtrs = get_lapack_funcs(("pbtrf", "pbtrs"), dtype=np.float64)
rng = np.random.default_rng(7)
for n, kd in ((40, 3), (12, 11)):  # the trajectory band; the power program's full band
    band = rng.uniform(-1.0, 1.0, (kd + 1, n))
    band[0] = 1.0 + 2.0 * kd
    rhs = rng.standard_normal((n, 2))
    ours, _ = solver._PBTRF(np.array(band, order="F"), lower=1)
    theirs, _ = pbtrf(np.array(band, order="F"), lower=1)
    assert np.array_equal(ours, theirs)
    assert np.array_equal(solver._PBTRS(ours, rhs, lower=1)[0], pbtrs(theirs, rhs, lower=1)[0])
    assert np.array_equal(cholesky_banded(band, lower=True), theirs)
print("ok")
"""


def test_loaded_lapack_routines_are_scipys_and_coexist_with_scipy_linalg():
    # solver first, scipy.linalg after it, in one fresh process
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", _SAME_ROUTINES], env=env, capture_output=True,
                         text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"


def test_missing_lapack_extension_is_a_named_import_error(tmp_path):
    with pytest.raises(ImportError, match="_flapack") as err:
        solver._load_flapack(str(tmp_path))
    assert str(tmp_path) in str(err.value)


def test_pattern_is_built_once_per_structure():
    # The trajectory programs of one scenario share their structure at any
    # design with no silent slot, so the second gets the first one's
    # pattern; another slot count, L = inf (no rows for Bob) or a silent
    # slot (no quad terms for it) gets a fresh one. Solves through a reused
    # pattern and a fresh one are identical.
    cfg = baseline_scenario(T=24.0, q_I=(30.0, 4.0, 100.0), q_F=(30.0, -4.0, 100.0))
    rng = np.random.default_rng(1)

    def program_at_random_design(cfg, silent=()):
        traj = _random_design(cfg, rng)[0]
        p = np.full(cfg.N, cfg.P_bar)
        p[list(silent)] = 0.0
        return build_trajectory_subproblem(traj, PowerProfile(p=p), cfg)

    first, second = program_at_random_design(cfg), program_at_random_design(cfg)
    assert not np.array_equal(first.lin_a, second.lin_a)
    pattern = _Work(first).pattern
    reused = solve(second)
    assert _Work(second).pattern is pattern
    for prog in (program_at_random_design(replace(cfg, T=25.0)),
                 program_at_random_design(replace(cfg, L=math.inf)),
                 program_at_random_design(cfg, silent=[5])):
        fresh = _Work(prog).pattern
        assert fresh is not pattern and fresh.key != pattern.key
        assert solve(prog).status == "optimal"
    again = solve(second)
    assert _Work(second).pattern is not pattern
    assert np.array_equal(reused.x, again.x) and reused.newton_steps == again.newton_steps


@pytest.mark.parametrize("L", [400.0, math.inf])
def test_band_width_does_not_grow_with_slot_count(L):
    # a speed row couples the four coordinates of two neighbouring slots
    for T in (24.0, 200.0):
        cfg = baseline_scenario(T=T, L=L)
        traj = line_segment_trajectory(cfg)
        pw = PowerProfile(p=np.full(cfg.N, cfg.P_bar))
        assert _Work(build_trajectory_subproblem(traj, pw, cfg)).pattern.kd == 3


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
    rng = np.random.default_rng(zlib.crc32(f"water-fill L={L}".encode()))
    for trial in range(25):
        cfg = baseline_scenario(T=float(rng.integers(2, 40)), L=L,
                                q_I=(30.0, 4.0, 100.0), q_F=(30.0, -4.0, 100.0))
        traj, pw = _random_design(cfg, rng)
        prog = build_power_subproblem(traj, pw, cfg)
        sol = solve(prog)
        assert sol.status == "optimal", trial
        x = water_fill(prog)
        assert max_violation(prog, x) == 0.0, trial
        value = prog.objective_value(x)
        assert sol.objective - 1e-12 <= value <= sol.objective + sol.gap_bound, trial
        # the driver keeps the water-filled powers without comparing them to
        # the current ones
        assert value >= prog.objective_value(pw.p) - 1e-12, trial


def _assert_kkt(prog, x):
    """Some multiplier lam >= 0 of the budget row, zero unless the row is
    tight, satisfies every coordinate's KKT condition on its box, up to
    rounding relative to the linear coefficients."""
    gain = prog.log_alpha * prog.log_a / (1.0 + prog.log_a * x) + prog.c
    tight = np.sum(x) >= prog.lin_b[0] * (1.0 - 1e-12)
    lam_lo = max([0.0] + list(gain[x < prog.ub]))
    lam_hi = min(list(gain[x > 0.0]) + [math.inf if tight else 0.0])
    assert lam_lo <= lam_hi + 1e-9 * np.max(np.abs(prog.c))


def test_water_fill_kkt_on_one_slot():
    # hovering above Bob, one slot: the average cap binds below P_max
    cfg = baseline_scenario(T=1.0, q_I=(0.0, 0.0, 100.0), q_F=(0.0, 0.0, 100.0))
    pw = PowerProfile(p=np.array([cfg.P_bar]))
    prog = build_power_subproblem(Trajectory(points=np.zeros((1, 2))), pw, cfg)
    x = water_fill(prog)
    assert x[0] == pytest.approx(cfg.P_bar, rel=1e-12) and x[0] <= cfg.P_bar
    _assert_kkt(prog, x)


def test_water_fill_kkt_when_caps_coincide():
    # with P_bar = P_max the box implies the budget, so lam = 0 and every
    # slot takes its own clipped stationary point
    cfg = baseline_scenario(T=24.0, P_bar=0.1, P_max=0.1)
    traj = line_segment_trajectory(cfg)
    prog = build_power_subproblem(traj, PowerProfile(p=np.full(cfg.N, cfg.P_bar)), cfg)
    x = water_fill(prog)
    own = np.clip(prog.log_alpha / -prog.c - 1.0 / prog.log_a, 0.0, prog.ub)
    assert np.array_equal(x, own)
    assert 0.0 < np.sum(x) < prog.lin_b[0]
    _assert_kkt(prog, x)


def test_water_fill_kkt_when_the_budget_binds():
    cfg = baseline_scenario(T=24.0, q_I=(30.0, 4.0, 100.0), q_F=(30.0, -4.0, 100.0))
    traj = line_segment_trajectory(cfg)
    prog = build_power_subproblem(traj, PowerProfile(p=np.full(cfg.N, cfg.P_bar)), cfg)
    x = water_fill(prog)
    assert np.sum(x) == pytest.approx(prog.lin_b[0], rel=1e-12)
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
    slack = build_power_subproblem(
        line_segment_trajectory(cfg), PowerProfile(p=np.full(cfg.N, cfg.P_bar)), cfg)
    # each slot's own optimum, 1/3 - 1/30, lies above the cap of 0.1
    n = 5
    capped = program(
        n, lb=np.zeros(n), ub=np.full(n, 0.1), c=np.full(n, -3.0),
        log_i=np.arange(n), log_a=np.full(n, 30.0), log_alpha=np.ones(n),
        **dense_rows(np.ones((1, n)), [0.5]), start=np.full(n, 0.05))
    cfg1 = baseline_scenario(T=1.0, q_I=(0.0, 0.0, 100.0), q_F=(0.0, 0.0, 100.0))
    one = build_power_subproblem(Trajectory(points=np.zeros((1, 2))),
                                 PowerProfile(p=np.array([cfg1.P_bar])), cfg1)
    cfg = baseline_scenario(T=24.0, q_I=(30.0, 4.0, 100.0), q_F=(30.0, -4.0, 100.0))
    tight = build_power_subproblem(
        line_segment_trajectory(cfg), PowerProfile(p=np.full(cfg.N, cfg.P_bar)), cfg)
    return [
        ("slack budget", slack),
        ("every slot at P_max", capped),
        ("every slot at P_max, budget just below", replace(capped, lin_b=np.array([0.4999]))),
        ("one slot", one),
        ("budget 1e-6 N P_bar", replace(tight, lin_b=tight.lin_b * 1e-6)),
    ]


def test_water_fill_matches_bisection_bit_for_bit():
    progs = [("grid", prog) for prog in _grid_power_programs()] + _water_fill_edge_programs()
    assert len(progs) > 400
    for label, prog in progs:
        assert np.array_equal(water_fill(prog), bisection_water_fill(prog)), label
    slack, capped = progs[-5][1], progs[-4][1]
    assert np.sum(water_fill(slack)) < slack.lin_b[0]
    np.testing.assert_array_equal(water_fill(capped), capped.ub)
    tiny = progs[-1][1]
    assert 0.0 < np.sum(water_fill(tiny)) <= tiny.lin_b[0]
