import math
import zlib

import numpy as np
import pytest
from scipy import sparse

from uavsec.model import PowerProfile, Trajectory, baseline_scenario
from uavsec.solver import _center, _newton_direction, _Work, solve
from uavsec.surrogate import build_power_subproblem, build_trajectory_subproblem, expansion_from

from solver_instances import FAMILIES, program
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


def test_unbounded_direction_reports_max_iter():
    # maximize x with no constraints at all: no barrier, Newton cannot certify
    prog = program(1, c=np.array([1.0]), start=np.array([0.0]))
    sol = solve(prog)
    assert sol.status in ("max-iter", "numerical-failure")


def test_fixed_coordinates_are_held_exactly():
    A = sparse.csr_matrix(np.array([[1.0, 2.0]]))
    prog = program(
        2, lb=np.array([-np.inf, 0.0]), c=np.array([1.0, 1.0]),
        lin_A=A, lin_b=np.array([3.0]),
        fixed_idx=np.array([0]), fixed_val=np.array([1.0]),
        start=np.array([1.0, 0.5]),
    )
    sol = solve(prog)
    assert sol.status == "optimal"
    assert sol.x[0] == 1.0
    assert sol.x[1] == pytest.approx(1.0, abs=1e-6)


def test_newton_direction_regularizes_singular_system():
    # singular Hessian: the zero row must be absorbed by escalation
    H = -np.array([[1.0, 0.0], [0.0, 0.0]])
    g = np.array([1.0, 0.0])
    d = _newton_direction(H, g, np.ones(2, dtype=bool))
    assert d is not None and np.all(np.isfinite(d))


def test_newton_direction_rejects_non_finite_system():
    H = np.array([[np.nan, 0.0], [0.0, -1.0]])
    g = np.array([1.0, 1.0])
    assert _newton_direction(H, g, np.ones(2, dtype=bool)) is None


def _t4_programs():
    """Trajectory and power programs at T=4, at finite L and at L=inf."""
    progs = []
    for L in (400.0, math.inf):
        cfg = baseline_scenario(T=4.0, L=L, q_I=(30.0, 4.0, 100.0), q_F=(30.0, -4.0, 100.0))
        rng = np.random.default_rng(0)
        frac = np.linspace(0.0, 1.0, cfg.N)[:, None]
        pts = cfg.q_I[:2] * (1.0 - frac) + cfg.q_F[:2] * frac + rng.uniform(-3.0, 3.0, (cfg.N, 2))
        pts[0], pts[-1] = cfg.q_I[:2], cfg.q_F[:2]
        traj = Trajectory(points=pts)
        pw = PowerProfile(p=np.full(cfg.N, cfg.P_bar))
        ep = expansion_from(traj, pw, cfg)
        progs.append((f"trajectory L={L}", build_trajectory_subproblem(ep, pw, cfg)))
        progs.append((f"power L={L}", build_power_subproblem(traj, ep, cfg)))
    return progs


def _family_programs():
    return [(name, make(np.random.default_rng(zlib.crc32(name.encode())))[0])
            for name, make in FAMILIES]


@pytest.mark.parametrize("label,prog", [
    pytest.param(label, prog, id=label) for label, prog in _t4_programs() + _family_programs()
])
def test_assemble_matches_central_differences_of_phi(label, prog):
    work = _Work(prog)
    x = prog.start.copy()
    x[prog.fixed_idx] = prog.fixed_val
    # the centre at t=1 keeps every slack well away from zero; evaluating at
    # t=3 there leaves a gradient that is not near zero
    x, _, flag = _center(work, x, 1.0)
    assert flag == "ok"
    t = 3.0
    fref = work.objective(x)
    phi0, g, H = work.assemble(x, t, fref)
    assert phi0 == work.phi(x, t, fref)

    def phi(y):
        return work.phi(y, t, fref)

    n = prog.n
    h = 1e-4 * np.maximum(1.0, np.abs(x))
    steps = np.diag(h)
    g_fd = np.array([(phi(x + steps[i]) - phi(x - steps[i])) / (2.0 * h[i]) for i in range(n)])
    H_fd = np.array([[
        (phi(x + steps[i] + steps[j]) - phi(x + steps[i] - steps[j])
         - phi(x - steps[i] + steps[j]) + phi(x - steps[i] - steps[j])) / (4.0 * h[i] * h[j])
        for j in range(n)] for i in range(n)])
    # errors in the units of each coordinate's own curvature
    scale = np.sqrt(np.abs(np.diag(H)))
    assert np.all(scale > 0.0), label
    assert np.max(np.abs(g - g_fd) / np.maximum(np.abs(g), scale)) <= 1e-5, label
    assert np.max(np.abs(H - H_fd) / np.outer(scale, scale)) <= 1e-3, label
