import dataclasses
import math
import zlib
from dataclasses import replace

import numpy as np
import pytest

from uavsec import driver
from uavsec.driver import SchemeId, run_scheme
from uavsec.model import (
    PowerProfile,
    Trajectory,
    baseline_scenario,
    dispersion,
    line_segment_trajectory,
    link,
    sq_dists,
)
from uavsec.solver import solve, water_fill
from uavsec.surrogate import (
    L_LOWER_RELAX,
    START_SHIFT,
    Z_MIN,
    _disp_slope,
    _required_z,
    build_power_subproblem,
    build_trajectory_subproblem,
    expansion_from,
    slack_rate_objective,
)

from surrogate_reference import (
    SurrogatePoint,
    constraint_margins,
    max_violation,
    surrogate_value_p,
    surrogate_value_q,
    trajectory_program_reference,
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


def linearized_sq_dist(ep, w, cfg, q):
    """Linearization l(q) at the expansion point of the squared distance to w."""
    d2_hat = sq_dists(ep.q_hat, w, cfg.H)
    return d2_hat + np.sum(2.0 * (ep.q_hat - w[:2]) * (q - ep.q_hat), axis=1)


def required_z(u, u_hat, z_hat):
    """``_required_z`` at u for the expansion values (u_hat, z_hat)."""
    return _required_z(u, u_hat, z_hat, dispersion(u_hat), _disp_slope(u_hat))


def tight_point(ep, pw, cfg, q):
    """Trajectory-surrogate point at the positions q whose slacks bind: each
    squared-distance slack at l(q), each SNR slack at xi0 p / l(q), each
    dispersion root at the bound of its linearized row."""
    u_b = cfg.xi0 * pw.p / linearized_sq_dist(ep, cfg.w_b, cfg, q)
    u_e = cfg.xi0 * pw.p / linearized_sq_dist(ep, cfg.w_e, cfg, q)
    return SurrogatePoint(
        q=q, u_e=u_e, z_b=required_z(u_b, ep.u[0], ep.z[0]),
        z_e=required_z(u_e, ep.u[1], ep.z[1]),
    )


# ---------------------------------------------------------------------------
# Tight slacks at an expansion point
# ---------------------------------------------------------------------------

def test_init_slacks_hover_above_bob():
    cfg = baseline_scenario(
        T=1.0, q_I=(0.0, 0.0, 100.0), q_F=(0.0, 0.0, 100.0), P_max=0.1, P_bar=0.1,
    )
    traj = Trajectory(points=np.zeros((1, 2)))
    ep = expansion_from(traj, PowerProfile(p=np.array([0.1])), cfg)
    assert ep.u[0, 0] == pytest.approx(10.0, rel=1e-12)
    assert ep.z[0, 0] == pytest.approx(math.sqrt(120.0 / 121.0), abs=1e-6)
    assert sq_dists(traj.points, cfg.w_b, cfg.H)[0] == pytest.approx(1e4, rel=1e-12)
    assert ep.u[1, 0] == pytest.approx(1e5 / 170000.0, rel=1e-12)


def test_init_slacks_zero_power_floor():
    cfg = small_cfg(3)
    traj = Trajectory(points=np.tile(cfg.q_I[:2], (3, 1)))
    ep = expansion_from(traj, PowerProfile(p=np.zeros(3)), cfg)
    assert np.all(ep.u[0] == 0.0) and np.all(ep.u[1] == 0.0)
    assert np.all(ep.z[0] == Z_MIN) and np.all(ep.z[1] == Z_MIN)


def test_init_slacks_offset_geometry():
    cfg = baseline_scenario(
        T=1.0, q_I=(200.0, 100.0, 100.0), q_F=(200.0, 100.0, 100.0),
    )
    ep = expansion_from(
        Trajectory(points=np.array([[200.0, 100.0]])), PowerProfile(p=np.array([0.1])), cfg
    )
    assert ep.u[1, 0] == pytest.approx(1e5 / 60000.0, rel=1e-12)


def test_expansion_loss_bound_is_tight_at_the_design_and_bounds_the_loss():
    # each slot's loss log2(1 + u_e) + pen_b*z_b + pen_e*z_e, at the least
    # roots z = sqrt(V(u)), lies under loss0 + k[0]*u_b + k[1]*u_e
    rng = np.random.default_rng(11)
    floored = 0
    for L in (200.0, 400.0, 800.0, math.inf):
        cfg = replace(small_cfg(6), L=L)
        pen_b, pen_e = cfg.pen
        for _ in range(20):
            _, traj, pw = random_expansion(cfg, rng)
            p = pw.p * 10.0 ** rng.uniform(-12.0, 0.0, size=cfg.N)
            p[rng.random(cfg.N) < 0.2] = 0.0
            ep = expansion_from(traj, PowerProfile(p=p), cfg)
            # model.link's (2, N) rows, Bob's then Eve's, carried bit for bit
            exact = link(traj.points, p, cfg)
            assert np.array_equal(ep.d2, exact.d2) and np.array_equal(ep.u, exact.u)
            assert np.array_equal(ep.z, np.maximum(exact.root, Z_MIN))
            assert ep.k.shape == (2, cfg.N)

            def bound(u_b, u_e):
                return ep.loss0 + ep.k[0] * u_b + ep.k[1] * u_e

            at_design = np.log2(1.0 + ep.u[1]) + pen_b * ep.z[0] + pen_e * ep.z[1]
            tight = (ep.z[0] > Z_MIN) & (ep.z[1] > Z_MIN)
            floored += int(np.sum(~tight))
            np.testing.assert_allclose(bound(ep.u[0], ep.u[1])[tight], at_design[tight],
                                       rtol=1e-12, atol=1e-15)
            for _ in range(20):
                u_b, u_e = 10.0 ** rng.uniform(-8.0, 4.0, size=(2, cfg.N))
                u_b[rng.random(cfg.N) < 0.2] = 0.0
                loss = (np.log2(1.0 + u_e) + pen_b * np.sqrt(dispersion(u_b))
                        + pen_e * np.sqrt(dispersion(u_e)))
                assert np.all(bound(u_b, u_e) >= loss - 1e-12 * (1.0 + np.abs(loss)))
            if L == math.inf:
                assert np.all(ep.k[0] == 0.0)
            else:
                assert np.all(ep.k[0] > 0.0)
    assert floored > 0


@pytest.mark.parametrize("build", [build_trajectory_subproblem, build_power_subproblem])
def test_builders_reject_mismatched_or_negative_design(build):
    # the builders take only a linearization, so a design is checked by expansion_from
    cfg = small_cfg(3)
    _, traj, pw = random_expansion(cfg, np.random.default_rng(0))
    with pytest.raises(ValueError, match="disagree on N"):
        build(expansion_from(traj, PowerProfile(p=np.append(pw.p, 0.0)), cfg), cfg)
    with pytest.raises(ValueError, match="non-negative"):
        build(expansion_from(traj, PowerProfile(p=-pw.p), cfg), cfg)


# ---------------------------------------------------------------------------
# Tangency and lower-bound properties
# ---------------------------------------------------------------------------

def test_surrogates_tangent_at_expansion_point():
    rng = np.random.default_rng(1)
    cfg = small_cfg(5)
    for _ in range(10):
        ep, traj, pw = random_expansion(cfg, rng)
        ref = slack_rate_objective(ep.q_hat, ep.p_hat, ep.u[1], ep.z[0], ep.z[1], cfg)
        at_ep = SurrogatePoint(
            q=ep.q_hat, p=ep.p_hat, u_e=ep.u[1], z_b=ep.z[0], z_e=ep.z[1],
        )
        assert surrogate_value_q(ep, at_ep, pw, cfg) == pytest.approx(ref, abs=1e-10)
        assert surrogate_value_p(traj, ep, at_ep, cfg) == pytest.approx(ref, abs=1e-10)


def test_program_objectives_match_standalone_evaluators():
    rng = np.random.default_rng(2)
    cfg = small_cfg(4)
    ep, traj, pw = random_expansion(cfg, rng)
    prog_q = build_trajectory_subproblem(ep, cfg)
    prog_p = build_power_subproblem(ep, cfg)
    # the trajectory program has no slack either: each one sits where it binds
    for _ in range(20):
        q = ep.q_hat + rng.uniform(-5.0, 5.0, size=ep.q_hat.shape)
        assert prog_q.objective_value(q) == pytest.approx(
            surrogate_value_q(ep, tight_point(ep, pw, cfg, q), pw, cfg), abs=1e-12
        )
    # the power program has no slack: each SNR is xi0 * p / d^2, and each
    # dispersion root sits at the bound its linearized row sets
    u_b = cfg.xi0 / sq_dists(traj.points, cfg.w_b, cfg.H)
    u_e = cfg.xi0 / sq_dists(traj.points, cfg.w_e, cfg.H)
    for _ in range(20):
        p = rng.uniform(0.0, cfg.P_max, size=cfg.N)
        pt = SurrogatePoint(
            p=p, u_e=u_e * p,
            z_b=required_z(u_b * p, ep.u[0], ep.z[0]),
            z_e=required_z(u_e * p, ep.u[1], ep.z[1]),
        )
        assert prog_p.objective_value(p) == pytest.approx(
            surrogate_value_p(traj, ep, pt, cfg), abs=1e-12
        )


def test_required_root_is_non_negative_at_zero_power():
    # The power subproblem replaces each dispersion root z >= 0 by its
    # affine lower bound; that is exact only if the bound is >= 0 at P = 0.
    rng = np.random.default_rng(10)
    floored = 0
    for _ in range(200):
        cfg = small_cfg(int(rng.integers(2, 12)))
        _, traj, pw = random_expansion(cfg, rng)
        # powers over 25 decades, some slots silent
        p = pw.p * 10.0 ** rng.uniform(-25.0, 0.0, size=cfg.N)
        p[rng.random(cfg.N) < 0.2] = 0.0
        ep = expansion_from(traj, PowerProfile(p=p), cfg)
        for u_hat, z_hat in ((ep.u[0], ep.z[0]), (ep.u[1], ep.z[1])):
            assert np.all(required_z(0.0, u_hat, z_hat) >= 0.0)
            floored += int(np.sum(z_hat == Z_MIN))
    assert floored > 0


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
        q=ep.q_hat, p=ep.p_hat, u_e=ep.u[1], z_b=ep.z[0], z_e=ep.z[1],
    )
    delta = 0.37
    slot = 1
    bumped_ue = ep.u[1].copy()
    bumped_ue[slot] += delta
    bumped = SurrogatePoint(
        q=ep.q_hat, p=ep.p_hat, u_e=bumped_ue, z_b=ep.z[0], z_e=ep.z[1],
    )
    expected_drop = delta / ((1.0 + ep.u[1, slot]) * math.log(2)) * (1.0 - cfg.eps_b) / cfg.N
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
    _, traj, pw = random_expansion(cfg, np.random.default_rng(6))
    prog = build_trajectory_subproblem(expansion_from(traj, pw, cfg), cfg)
    sol = solve(prog)
    assert sol.status == "optimal"
    q = sol.x[prog.layout["q"]].reshape(2, 2)
    np.testing.assert_allclose(q[0], cfg.q_I[:2], atol=1e-12)
    np.testing.assert_allclose(q[1], cfg.q_F[:2], atol=1e-12)


def test_trajectory_start_is_strictly_feasible_and_reference_feasible():
    # the start is the design moved at most START_SHIFT (1 %) of the way
    # toward the straight segment, strictly inside every row
    assert START_SHIFT == 0.01
    rng = np.random.default_rng(7)

    def check_start(cfg, traj, pw):
        prog = build_trajectory_subproblem(expansion_from(traj, pw, cfg), cfg)
        design = traj.points
        segment = line_segment_trajectory(cfg).points
        assert max_violation(prog, prog.start) == 0.0
        margins = constraint_margins(prog, prog.start)
        # every barrier family strictly interior at the start; the four
        # endpoint margins come last
        assert np.all(margins[:-4] > 0.0)
        assert (np.linalg.norm(prog.start - design)
                <= START_SHIFT * np.linalg.norm(segment - design) * (1.0 + 1e-12))
        return prog

    for n in (2, 3, 6):
        cfg = small_cfg(n)
        check_start(cfg, *random_expansion(cfg, rng)[1:])

    # A zig-zag design whose every speed row is tight to 2e-9 h^2, as a
    # solved design's are: the start lifts each speed slack h^2 - |step|^2
    # to at least START_SHIFT * h * (h - h_seg).
    for n in (3, 5, 7):
        cfg = small_cfg(n)
        h = cfg.V_max * cfg.delta_t
        dy = 8.0 / (n - 1)
        dx = math.sqrt((h * (1.0 - 1e-9)) ** 2 - dy * dy)
        pts = np.column_stack([30.0 + dx * (np.arange(n) % 2), 4.0 - dy * np.arange(n)])
        traj = Trajectory(points=pts)
        pw = PowerProfile(p=rng.uniform(0.01, cfg.P_bar, size=n))
        prog = check_start(cfg, traj, pw)
        steps = np.diff(prog.start, axis=0)
        slack = h * h - np.sum(steps * steps, axis=1)
        assert np.min(h * h - np.sum(np.diff(pts, axis=0) ** 2, axis=1)) <= 3e-9 * h * h
        assert np.min(slack) >= START_SHIFT * h * (h - dy)

    # A slot 0.1 m from Bob's foot, on the far side from the segment: the
    # full move would cross Bob's distance row l(q) >= l_lo, so the shift
    # is halved until it does not.
    cfg = baseline_scenario(T=11.0, q_I=(40.0, 4.0, 100.0), q_F=(40.0, -4.0, 100.0))
    frac = np.abs(np.linspace(-1.0, 1.0, 11))[:, None]
    pts = np.column_stack([-0.1 + 40.1 * frac[:, 0], 4.0 * np.linspace(1.0, -1.0, 11)])
    pts[[0, -1], 0] = 40.0
    prog = check_start(cfg, Trajectory(points=pts), PowerProfile(p=np.full(11, cfg.P_bar)))
    moved = np.linalg.norm(prog.start - pts)
    assert 0.0 < moved < 0.5 * START_SHIFT * np.linalg.norm(
        line_segment_trajectory(cfg).points - pts)


def test_zero_power_slot_exerts_no_positional_force():
    cfg = small_cfg(4)
    rng = np.random.default_rng(8)
    _, traj, pw0 = random_expansion(cfg, rng)
    p = pw0.p.copy()
    p[2] = 0.0
    prog = build_trajectory_subproblem(expansion_from(traj, PowerProfile(p=p), cfg), cfg)
    # slot 2's position keeps its curvature terms, with weight 0
    assert prog.quad_beta.shape == (cfg.N, 2) and np.all(prog.quad_beta[2] == 0.0)
    # and the objective is flat in that position
    x = prog.start.copy()
    base = prog.objective_value(x)
    x[2] += 3.0
    assert prog.objective_value(x) == pytest.approx(base, abs=1e-12)
    # the zero-power slot's distance rows, one per receiver, carry no
    # reciprocal term
    assert prog.lin_k.shape == (2, cfg.N) and np.all(prog.lin_a[:, 2] != 0.0)
    assert np.all(prog.lin_k[:, 2] == 0.0)


@pytest.mark.parametrize("L", [200.0, 400.0, 800.0, math.inf])
def test_trajectory_program_is_the_slack_program_at_tight_slacks(L):
    # Every slack binds at any optimum of the slack program, so the program
    # over the positions alone must equal it at the binding slacks, and must
    # admit exactly the positions where the linearized squared distance of
    # each receiver it keeps (Bob only at finite L) clears the slack's
    # lower bound.
    cfg = baseline_scenario(T=6.0, L=L, q_I=(30.0, 4.0, 100.0), q_F=(30.0, -4.0, 100.0))
    l_lo = cfg.H * cfg.H * (1.0 - L_LOWER_RELAX)
    receivers = (cfg.w_b, cfg.w_e) if math.isfinite(L) else (cfg.w_e,)
    rng = np.random.default_rng(zlib.crc32(f"tight slacks L={L}".encode()))
    held = {True: 0, False: 0}
    for _ in range(8):
        _, traj, pw = random_expansion(cfg, rng)
        p = pw.p.copy()
        p[rng.random(cfg.N) < 0.3] = 0.0
        pw = PowerProfile(p=p)
        ep = expansion_from(traj, pw, cfg)
        prog = build_trajectory_subproblem(ep, cfg)
        assert prog.n == 2 * cfg.N and set(prog.layout) == {"q"}
        for _ in range(40):
            q = ep.q_hat + rng.uniform(-1.0, 1.0, size=ep.q_hat.shape) * rng.choice([25.0, 250.0])
            x = q
            rows_hold = bool(np.all(prog.lin_slack(x) >= 0.0))
            bounds_hold = all(np.all(linearized_sq_dist(ep, w, cfg, q) >= l_lo) for w in receivers)
            assert rows_hold == bounds_hold
            held[rows_hold] += 1
            if rows_hold:
                assert prog.objective_value(x) == pytest.approx(
                    surrogate_value_q(ep, tight_point(ep, pw, cfg, q), pw, cfg), abs=1e-12
                )
    assert min(held.values()) >= 20


def test_trajectory_optimum_moves_toward_bob_matches_grid_oracle():
    # three slots, generous speed so only the endpoints are pinned
    cfg = baseline_scenario(
        T=3.0, V_max=120.0,
        q_I=(200.0, 100.0, 100.0), q_F=(200.0, -100.0, 100.0),
    )
    pw = PowerProfile(p=np.full(3, 0.05))
    traj = Trajectory(points=np.array([[200.0, 100.0], [200.0, 0.0], [200.0, -100.0]]))
    ep = expansion_from(traj, pw, cfg)
    prog = build_trajectory_subproblem(ep, cfg)
    sol = solve(prog)
    assert sol.status == "optimal"
    mid = sol.x[prog.layout["q"]].reshape(3, 2)[1]

    # oracle: scan the free midpoint on a grid, setting each slack to the
    # tightest value the linearized rows allow, then refine around the best
    pen_b, pen_e = cfg.pen
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
            z_b = _tight_z(u_b, ep.u[0, n], ep.z[0, n])
            z_e = _tight_z(u_e, ep.u[1, n], ep.z[1, n])
            d2b = np.sum((q[n] - cfg.w_b[:2]) ** 2) + cfg.H ** 2
            total += (
                a_n[n] - b_n[n] * (d2b - d2b_hat[n])
                - np.log2(1.0 + ep.u[1, n])
                - (u_e - ep.u[1, n]) / ((1.0 + ep.u[1, n]) * math.log(2))
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
    assert sol.objective > prog.objective_value(prog.start) + 1e-3
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
    prog = build_power_subproblem(ep, cfg)

    # 1-D oracle over P with slacks tightened against the linearized rows
    pen_b, pen_e = cfg.pen
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
            - np.log2(1.0 + ep.u[1, 0])
            - (u_e - ep.u[1, 0]) / ((1.0 + ep.u[1, 0]) * math.log(2))
            - pen_b * tz(u_b, ep.u[0, 0], ep.z[0, 0])
            - pen_e * tz(u_e, ep.u[1, 0], ep.z[1, 0])
        )

    grid = np.linspace(0.0, cfg.P_bar, 200001)
    vals = [value(p) for p in grid]
    k = int(np.argmax(vals))
    assert grid[k] == pytest.approx(cfg.P_bar, abs=1e-4)
    powers = water_fill(prog)
    assert powers[0] == pytest.approx(cfg.P_bar, abs=1e-6)
    assert prog.objective_value(powers) == pytest.approx(vals[k], abs=1e-4)


def test_power_subproblem_prefers_zero_when_bob_is_remote():
    # Bob far away, Eve nearby: every watt hurts
    cfg = baseline_scenario(
        T=2.0, q_I=(395.0, 5.0, 100.0), q_F=(395.0, -5.0, 100.0),
        w_b=(-1e6, 0.0, 0.0), w_e=(400.0, 0.0, 0.0),
    )
    frac = np.linspace(0.0, 1.0, 2)[:, None]
    traj = Trajectory(points=cfg.q_I[:2] * (1 - frac) + cfg.q_F[:2] * frac)
    pw = PowerProfile(p=np.full(2, cfg.P_bar))
    prog = build_power_subproblem(expansion_from(traj, pw, cfg), cfg)
    assert np.all(water_fill(prog) < 1e-6)


def test_long_packet_limit_drops_dispersion_blocks():
    cfg = baseline_scenario(
        T=3.0, L=math.inf, q_I=(30.0, 4.0, 100.0), q_F=(30.0, -4.0, 100.0),
    )
    ep, traj, pw = random_expansion(cfg, np.random.default_rng(9))
    prog_q = build_trajectory_subproblem(ep, cfg)
    # the slacks are substituted out, and only Eve's distance rows remain:
    # Bob's SNR fed only his dispersion root
    assert set(prog_q.layout) == {"q"} and prog_q.n == 2 * cfg.N
    assert prog_q.lin_b.size == cfg.N
    sol = solve(prog_q)
    assert sol.status == "optimal"
    prog_p = build_power_subproblem(ep, cfg)
    assert set(prog_p.layout) == {"p"}
    finite = baseline_scenario(
        T=3.0, L=400.0, q_I=(30.0, 4.0, 100.0), q_F=(30.0, -4.0, 100.0),
    )
    ep = expansion_from(traj, pw, finite)
    assert build_trajectory_subproblem(ep, finite).lin_b.size == 2 * finite.N
    # the dispersion roots are substituted out, so the power program holds
    # the powers alone at every blocklength, and its one constraint beyond
    # the box is the average power budget
    prog_p = build_power_subproblem(ep, finite)
    assert set(prog_p.layout) == {"p"} and prog_p.n == finite.N
    assert prog_p.budget == finite.N * finite.P_bar


@pytest.mark.parametrize("L", [400.0, math.inf])
def test_run_trajectory_programs_equal_fresh_ones_and_share_constant_fields(monkeypatch, L):
    # Every trajectory program of a JTPO run (or of FTP-Inf's long-packet
    # run) equals, field for field, the one a builder that makes every array
    # afresh gives at the same design. The fields that no design changes are
    # made once per run: every program holds the same read-only arrays.
    built = []
    build = driver.build_trajectory_subproblem

    def recording_build(ep, cfg):
        built.append((ep, cfg, build(ep, cfg)))
        return built[-1][2]

    monkeypatch.setattr(driver, "build_trajectory_subproblem", recording_build)
    scheme = SchemeId.JTPO if math.isfinite(L) else SchemeId.FTP_INF
    res = run_scheme(baseline_scenario(L=L), scheme)
    assert len(built) == len(res.iterations) - 1 > 2
    for ep, cfg, prog in built:
        # the reference linearizes the design itself
        ref = trajectory_program_reference(Trajectory(points=ep.q_hat), PowerProfile(p=ep.p_hat),
                                           cfg)
        for f in dataclasses.fields(prog):
            got, want = getattr(prog, f.name), getattr(ref, f.name)
            if f.name == "layout":
                assert got.keys() == want.keys()
                assert all(np.array_equal(got[k], want[k]) for k in got)
            else:
                assert np.array_equal(got, want), f.name
    first = built[0][2]
    for name in ("quad_c", "lin_o", "speed_h"):
        array = getattr(first, name)
        assert not array.flags.writeable, name
        assert all(getattr(prog, name) is array for *_, prog in built), name
