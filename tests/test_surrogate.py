import math

import numpy as np
import pytest

from uavsec.model import (
    PowerProfile,
    Trajectory,
    baseline_scenario,
    sq_dists,
)
from uavsec.solver import solve
from uavsec.surrogate import (
    Z_MIN,
    ExpansionPoint,
    build_power_subproblem,
    build_trajectory_subproblem,
    expansion_from,
    penalty_coeffs,
    slack_rate_objective,
)

from surrogate_reference import (
    SurrogatePoint,
    constraint_margins,
    max_violation,
    surrogate_value_p,
    surrogate_value_q,
)


def small_cfg(n=4, spread=4.0):
    # endpoints 2*spread apart; strictly inside reach for every n >= 2
    return baseline_scenario(
        T=float(n),
        q_I=(30.0, spread, 100.0),
        q_F=(30.0, -spread, 100.0),
    )


def random_expansion(cfg, rng, p_min=0.01):
    """Feasible iterate with tight slacks, positions jittered off the segment."""
    n = cfg.N
    frac = np.linspace(0.0, 1.0, n)[:, None] if n > 1 else np.zeros((1, 1))
    pts = cfg.q_I[:2] * (1.0 - frac) + cfg.q_F[:2] * frac
    pts = pts + rng.uniform(-3.0, 3.0, size=pts.shape)
    pts[0] = cfg.q_I[:2]
    pts[-1] = cfg.q_F[:2]
    p = rng.uniform(p_min, cfg.P_max, size=n)
    p *= min(1.0, cfg.P_bar / p.mean())
    traj = Trajectory(points=pts)
    pw = PowerProfile(p=p)
    return expansion_from(traj, pw, cfg), traj, pw


# ---------------------------------------------------------------------------
# Tight slacks at an expansion point
# ---------------------------------------------------------------------------

def test_init_slacks_hover_above_bob():
    cfg = baseline_scenario(
        T=1.0, q_I=(0.0, 0.0, 100.0), q_F=(0.0, 0.0, 100.0), P_max=0.1, P_bar=0.1,
    )
    traj = Trajectory(points=np.zeros((1, 2)))
    ep = expansion_from(traj, PowerProfile(p=np.array([0.1])), cfg)
    assert ep.u_hat_b[0] == pytest.approx(10.0, rel=1e-12)
    assert ep.z_hat_b[0] == pytest.approx(math.sqrt(120.0 / 121.0), abs=1e-6)
    assert sq_dists(traj.points, cfg.w_b, cfg.H)[0] == pytest.approx(1e4, rel=1e-12)
    assert ep.u_hat_e[0] == pytest.approx(1e5 / 170000.0, rel=1e-12)


def test_init_slacks_zero_power_floor():
    cfg = small_cfg(3)
    traj = Trajectory(points=np.tile(cfg.q_I[:2], (3, 1)))
    ep = expansion_from(traj, PowerProfile(p=np.zeros(3)), cfg)
    assert np.all(ep.u_hat_b == 0.0) and np.all(ep.u_hat_e == 0.0)
    assert np.all(ep.z_hat_b == Z_MIN) and np.all(ep.z_hat_e == Z_MIN)


def test_init_slacks_offset_geometry():
    cfg = baseline_scenario(
        T=1.0, q_I=(200.0, 100.0, 100.0), q_F=(200.0, 100.0, 100.0),
    )
    ep = expansion_from(
        Trajectory(points=np.array([[200.0, 100.0]])), PowerProfile(p=np.array([0.1])), cfg
    )
    assert ep.u_hat_e[0] == pytest.approx(1e5 / 60000.0, rel=1e-12)


def test_expansion_point_rejects_tiny_z():
    cfg = small_cfg(3)
    ep, _, _ = random_expansion(cfg, np.random.default_rng(0))
    with pytest.raises(ValueError):
        ExpansionPoint(
            q_hat=ep.q_hat, p_hat=ep.p_hat, u_hat_b=ep.u_hat_b, u_hat_e=ep.u_hat_e,
            z_hat_b=np.full(cfg.N, Z_MIN / 2.0), z_hat_e=ep.z_hat_e,
        )


# ---------------------------------------------------------------------------
# Tangency and lower-bound properties
# ---------------------------------------------------------------------------

def test_surrogates_tangent_at_expansion_point():
    rng = np.random.default_rng(1)
    cfg = small_cfg(5)
    for _ in range(10):
        ep, traj, pw = random_expansion(cfg, rng)
        ref = slack_rate_objective(ep.q_hat, ep.p_hat, ep.u_hat_e, ep.z_hat_b, ep.z_hat_e, cfg)
        at_ep = SurrogatePoint(
            q=ep.q_hat, p=ep.p_hat, u_e=ep.u_hat_e, z_b=ep.z_hat_b, z_e=ep.z_hat_e,
        )
        assert surrogate_value_q(ep, at_ep, pw, cfg) == pytest.approx(ref, abs=1e-10)
        assert surrogate_value_p(traj, ep, at_ep, cfg) == pytest.approx(ref, abs=1e-10)


def test_program_objectives_match_standalone_evaluators():
    rng = np.random.default_rng(2)
    cfg = small_cfg(4)
    ep, traj, pw = random_expansion(cfg, rng)
    prog_q = build_trajectory_subproblem(ep, pw, cfg)
    prog_p = build_power_subproblem(traj, ep, cfg)
    lay = prog_q.layout
    for _ in range(20):
        x = prog_q.start.copy()
        x[lay["q"]] += rng.uniform(-5.0, 5.0, size=x[lay["q"]].shape)
        x[lay["u_e"]] += rng.uniform(0.0, 1.0, size=cfg.N)
        x[lay["z_b"]] += rng.uniform(0.0, 1.0, size=cfg.N)
        x[lay["z_e"]] += rng.uniform(0.0, 1.0, size=cfg.N)
        pt = SurrogatePoint(
            q=x[lay["q"]].reshape(cfg.N, 2), u_e=x[lay["u_e"]],
            z_b=x[lay["z_b"]], z_e=x[lay["z_e"]],
        )
        assert prog_q.objective_value(x) == pytest.approx(
            surrogate_value_q(ep, pt, pw, cfg), abs=1e-12
        )
    layp = prog_p.layout
    for _ in range(20):
        x = prog_p.start.copy()
        x[layp["p"]] = rng.uniform(0.0, cfg.P_max, size=cfg.N)
        x[layp["u_e"]] += rng.uniform(0.0, 1.0, size=cfg.N)
        x[layp["z_b"]] += rng.uniform(0.0, 1.0, size=cfg.N)
        x[layp["z_e"]] += rng.uniform(0.0, 1.0, size=cfg.N)
        pt = SurrogatePoint(
            p=x[layp["p"]], u_e=x[layp["u_e"]], z_b=x[layp["z_b"]], z_e=x[layp["z_e"]],
        )
        assert prog_p.objective_value(x) == pytest.approx(
            surrogate_value_p(traj, ep, pt, cfg), abs=1e-12
        )


def test_surrogates_lower_bound_reference_objective():
    rng = np.random.default_rng(3)
    cfg = small_cfg(4)
    ep, traj, pw = random_expansion(cfg, rng)
    for _ in range(200):
        q = rng.uniform(-100.0, 400.0, size=(cfg.N, 2))
        p = rng.uniform(0.0, cfg.P_max, size=cfg.N)
        u_e = rng.uniform(0.0, 5.0, size=cfg.N)
        z_b = rng.uniform(0.0, 1.5, size=cfg.N)
        z_e = rng.uniform(0.0, 1.5, size=cfg.N)
        pt = SurrogatePoint(q=q, p=p, u_e=u_e, z_b=z_b, z_e=z_e)
        ref_q = slack_rate_objective(q, pw.p, u_e, z_b, z_e, cfg)
        assert surrogate_value_q(ep, pt, pw, cfg) <= ref_q + 1e-9
        ref_p = slack_rate_objective(traj.points, p, u_e, z_b, z_e, cfg)
        assert surrogate_value_p(traj, ep, pt, cfg) <= ref_p + 1e-9


def test_linear_ue_sensitivity_is_exact():
    rng = np.random.default_rng(4)
    cfg = small_cfg(3)
    ep, traj, pw = random_expansion(cfg, rng)
    base = SurrogatePoint(
        q=ep.q_hat, p=ep.p_hat, u_e=ep.u_hat_e, z_b=ep.z_hat_b, z_e=ep.z_hat_e,
    )
    delta = 0.37
    slot = 1
    bumped_ue = ep.u_hat_e.copy()
    bumped_ue[slot] += delta
    bumped = SurrogatePoint(
        q=ep.q_hat, p=ep.p_hat, u_e=bumped_ue, z_b=ep.z_hat_b, z_e=ep.z_hat_e,
    )
    expected_drop = delta / ((1.0 + ep.u_hat_e[slot]) * math.log(2)) * (1.0 - cfg.eps_b) / cfg.N
    got = surrogate_value_q(ep, base, pw, cfg) - surrogate_value_q(ep, bumped, pw, cfg)
    assert got == pytest.approx(expected_drop, rel=1e-12)
    got_p = surrogate_value_p(traj, ep, base, cfg) - surrogate_value_p(traj, ep, bumped, cfg)
    assert got_p == pytest.approx(expected_drop, rel=1e-12)


def test_squared_distance_linearization_underestimates():
    rng = np.random.default_rng(5)
    cfg = small_cfg(4)
    ep, _, _ = random_expansion(cfg, rng)
    for w in (cfg.w_b, cfg.w_e):
        d2_hat = sq_dists(ep.q_hat, w, cfg.H)
        grad = 2.0 * (ep.q_hat - w[:2])
        for _ in range(100):
            q = rng.uniform(-200.0, 600.0, size=(cfg.N, 2))
            lin = d2_hat + np.sum(grad * (q - ep.q_hat), axis=1)
            assert np.all(lin <= sq_dists(q, w, cfg.H) + 1e-9)


# ---------------------------------------------------------------------------
# Trajectory subproblem structure
# ---------------------------------------------------------------------------

def test_trajectory_subproblem_pins_endpoints_for_two_slots():
    cfg = small_cfg(2, spread=4.0)
    ep, traj, pw = random_expansion(cfg, np.random.default_rng(6))
    prog = build_trajectory_subproblem(ep, pw, cfg)
    sol = solve(prog)
    assert sol.status == "optimal"
    q = sol.x[prog.layout["q"]].reshape(2, 2)
    np.testing.assert_allclose(q[0], cfg.q_I[:2], atol=1e-12)
    np.testing.assert_allclose(q[1], cfg.q_F[:2], atol=1e-12)


def test_trajectory_start_is_strictly_feasible_and_reference_feasible():
    rng = np.random.default_rng(7)
    for n in (2, 3, 6):
        cfg = small_cfg(n)
        ep, traj, pw = random_expansion(cfg, rng)
        prog = build_trajectory_subproblem(ep, pw, cfg)
        assert max_violation(prog, prog.start) == 0.0
        margins = constraint_margins(prog, prog.start)
        # every barrier family strictly interior at the start
        n_fixed = prog.fixed_idx.size
        assert np.all(margins[: margins.size - n_fixed] > 0.0)
        assert max_violation(prog, prog.reference) <= 1e-9


def test_zero_power_slot_exerts_no_positional_force():
    cfg = small_cfg(4)
    rng = np.random.default_rng(8)
    ep, traj, pw0 = random_expansion(cfg, rng)
    p = pw0.p.copy()
    p[2] = 0.0
    ep = expansion_from(traj, PowerProfile(p=p), cfg)
    prog = build_trajectory_subproblem(ep, PowerProfile(p=p), cfg)
    # no curvature coefficient references slot 2's position
    q_slot = set(prog.layout["q"].reshape(cfg.N, 2)[2])
    assert not (set(prog.quad_i) & q_slot)
    # and the objective is flat in that position
    x = prog.start.copy()
    base = prog.objective_value(x)
    x[list(q_slot)] += 3.0
    assert prog.objective_value(x) == pytest.approx(base, abs=1e-12)
    # the zero-power slot contributes no hyperbolic rows either
    u_cols = [prog.layout["u_b"][2], prog.layout["u_e"][2]]
    assert not any(i in u_cols for i in prog.hyper_i)


def test_trajectory_optimum_moves_toward_bob_matches_grid_oracle():
    # three slots, generous speed so only the endpoints are pinned
    cfg = baseline_scenario(
        T=3.0, V_max=120.0,
        q_I=(200.0, 100.0, 100.0), q_F=(200.0, -100.0, 100.0),
    )
    pw = PowerProfile(p=np.full(3, 0.05))
    traj = Trajectory(points=np.array([[200.0, 100.0], [200.0, 0.0], [200.0, -100.0]]))
    ep = expansion_from(traj, pw, cfg)
    prog = build_trajectory_subproblem(ep, pw, cfg)
    sol = solve(prog)
    assert sol.status == "optimal"
    mid = sol.x[prog.layout["q"]].reshape(3, 2)[1]

    # oracle: scan the free midpoint on a grid, setting each slack to the
    # tightest value the linearized rows allow, then refine around the best
    pen_b, pen_e = penalty_coeffs(cfg)
    scale = (1.0 - cfg.eps_b) / cfg.N
    d2b_hat = sq_dists(ep.q_hat, cfg.w_b, cfg.H)
    d2e_hat = sq_dists(ep.q_hat, cfg.w_e, cfg.H)
    a_n = np.log2(1.0 + cfg.xi0 * pw.p / d2b_hat)
    b_n = cfg.xi0 * pw.p / (d2b_hat * (d2b_hat + cfg.xi0 * pw.p) * math.log(2))

    def objective_of_midpoint(qm):
        q = np.array([cfg.q_I[:2], qm, cfg.q_F[:2]])
        step = cfg.V_max * cfg.delta_t
        if (np.linalg.norm(q[1] - q[0]) > step) or (np.linalg.norm(q[2] - q[1]) > step):
            return -np.inf
        total = 0.0
        for n in range(3):
            lin_b = d2b_hat[n] + 2.0 * (ep.q_hat[n] - cfg.w_b[:2]) @ (q[n] - ep.q_hat[n])
            lin_e = d2e_hat[n] + 2.0 * (ep.q_hat[n] - cfg.w_e[:2]) @ (q[n] - ep.q_hat[n])
            lb = cfg.H ** 2 * (1.0 - 1e-6)
            if lin_b < lb or lin_e < lb:
                return -np.inf
            u_b = cfg.xi0 * pw.p[n] / lin_b
            u_e = cfg.xi0 * pw.p[n] / lin_e
            z_b = _tight_z(u_b, ep.u_hat_b[n], ep.z_hat_b[n])
            z_e = _tight_z(u_e, ep.u_hat_e[n], ep.z_hat_e[n])
            d2b = np.sum((q[n] - cfg.w_b[:2]) ** 2) + cfg.H ** 2
            total += (
                a_n[n] - b_n[n] * (d2b - d2b_hat[n])
                - np.log2(1.0 + ep.u_hat_e[n])
                - (u_e - ep.u_hat_e[n]) / ((1.0 + ep.u_hat_e[n]) * math.log(2))
                - pen_b * z_b - pen_e * z_e
            )
        return scale * total

    def _tight_z(u, u_hat, z_hat):
        v = 1.0 - (1.0 + u_hat) ** (-2.0)
        dv = 2.0 * (1.0 + u_hat) ** (-3.0)
        return max((v + dv * (u - u_hat) + z_hat ** 2) / (2.0 * z_hat), 0.0)

    best, best_val = None, -np.inf
    lo, hi = np.array([-150.0, -150.0]), np.array([350.0, 150.0])
    for _ in range(3):
        xs = np.linspace(lo[0], hi[0], 41)
        ys = np.linspace(lo[1], hi[1], 41)
        for xv in xs:
            for yv in ys:
                val = objective_of_midpoint(np.array([xv, yv]))
                if val > best_val:
                    best_val, best = val, np.array([xv, yv])
        span = (hi - lo) / 8.0
        lo, hi = best - span, best + span

    assert sol.objective >= best_val - 1e-4
    assert sol.objective > prog.objective_value(prog.reference) + 1e-3
    assert mid[0] < 200.0  # toward Bob, away from Eve
    assert np.linalg.norm(mid - best) < 2.0


# ---------------------------------------------------------------------------
# Power subproblem structure
# ---------------------------------------------------------------------------

def test_power_subproblem_saturates_average_budget_when_hovering():
    cfg = baseline_scenario(
        T=1.0, q_I=(0.0, 0.0, 100.0), q_F=(0.0, 0.0, 100.0),
    )
    traj = Trajectory(points=np.zeros((1, 2)))
    pw = PowerProfile(p=np.array([cfg.P_bar]))
    ep = expansion_from(traj, pw, cfg)
    prog = build_power_subproblem(traj, ep, cfg)
    sol = solve(prog)
    assert sol.status == "optimal"
    p_star = float(sol.x[prog.layout["p"]][0])
    assert p_star == pytest.approx(cfg.P_bar, abs=1e-6)

    # 1-D oracle over P with slacks tightened against the linearized rows
    pen_b, pen_e = penalty_coeffs(cfg)
    d2b = float(sq_dists(traj.points, cfg.w_b, cfg.H)[0])
    d2e = float(sq_dists(traj.points, cfg.w_e, cfg.H)[0])

    def value(p):
        u_b = cfg.xi0 * p / d2b
        u_e = cfg.xi0 * p / d2e
        def tz(u, uh, zh):
            v = 1.0 - (1.0 + uh) ** -2.0
            dv = 2.0 * (1.0 + uh) ** -3.0
            return max((v + dv * (u - uh) + zh ** 2) / (2.0 * zh), 0.0)
        return (1.0 - cfg.eps_b) * (
            np.log2(1.0 + cfg.xi0 * p / d2b)
            - np.log2(1.0 + ep.u_hat_e[0])
            - (u_e - ep.u_hat_e[0]) / ((1.0 + ep.u_hat_e[0]) * math.log(2))
            - pen_b * tz(u_b, ep.u_hat_b[0], ep.z_hat_b[0])
            - pen_e * tz(u_e, ep.u_hat_e[0], ep.z_hat_e[0])
        )

    grid = np.linspace(0.0, cfg.P_bar, 200001)
    vals = [value(p) for p in grid]
    k = int(np.argmax(vals))
    assert grid[k] == pytest.approx(cfg.P_bar, abs=1e-4)
    assert sol.objective == pytest.approx(vals[k], abs=1e-4)


def test_power_subproblem_prefers_zero_when_bob_is_remote():
    # Bob far away, Eve nearby: every watt hurts
    cfg = baseline_scenario(
        T=2.0, q_I=(395.0, 5.0, 100.0), q_F=(395.0, -5.0, 100.0),
        w_b=(-1e6, 0.0, 0.0), w_e=(400.0, 0.0, 0.0),
    )
    frac = np.linspace(0.0, 1.0, 2)[:, None]
    traj = Trajectory(points=cfg.q_I[:2] * (1 - frac) + cfg.q_F[:2] * frac)
    pw = PowerProfile(p=np.full(2, cfg.P_bar))
    ep = expansion_from(traj, pw, cfg)
    prog = build_power_subproblem(traj, ep, cfg)
    sol = solve(prog)
    assert sol.status == "optimal"
    assert np.all(sol.x[prog.layout["p"]] < 1e-6)


def test_long_packet_limit_drops_dispersion_blocks():
    cfg = baseline_scenario(
        T=3.0, L=math.inf, q_I=(30.0, 4.0, 100.0), q_F=(30.0, -4.0, 100.0),
    )
    ep, traj, pw = random_expansion(cfg, np.random.default_rng(9))
    prog_q = build_trajectory_subproblem(ep, pw, cfg)
    for name in ("z_b", "z_e", "u_b", "l_b"):
        assert name not in prog_q.layout
    assert "u_e" in prog_q.layout and "l_e" in prog_q.layout
    sol = solve(prog_q)
    assert sol.status == "optimal"
    prog_p = build_power_subproblem(traj, ep, cfg)
    assert set(prog_p.layout) == {"p", "u_e"}
    sol = solve(prog_p)
    assert sol.status == "optimal"
