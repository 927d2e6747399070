"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Formula checks run against independent mpmath oracles; optimizer checks run
the full default scenario (and its T/L grid) through the real pipeline.
Scheme runs are cached per (scheme, T, L) so the trend criteria share work;
each cache entry remembers its own compute time and the runtime assertions
charge those times to the criteria that require the runs.
"""

import sys
import time
import zlib
from statistics import NormalDist

import mpmath as mp
import numpy as np
import pytest

from uavsec import driver, model, solver
from uavsec.cli import main as cli_main
from uavsec.driver import SchemeId, run_scheme
from uavsec.model import PowerProfile, Trajectory, baseline_scenario
from uavsec.solver import _Work, solve
from uavsec.surrogate import expansion_from, slack_rate_objective

from solver_instances import FAMILIES
from surrogate_reference import (
    SurrogatePoint,
    max_violation,
    surrogate_value_p,
    surrogate_value_q,
)

T_GRID = (42.0, 48.0, 54.0, 60.0)
L_GRID = (200.0, 400.0, 800.0)


def _report(num, ok, elapsed, detail):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {num} ({elapsed:.1f}s): {detail}")


class RunCache:
    def __init__(self):
        self._runs = {}
        self.elapsed = {}

    def get(self, scheme: SchemeId, T: float, L: float):
        key = (scheme, T, L)
        if key not in self._runs:
            cfg = baseline_scenario(T=T, L=L)
            t0 = time.perf_counter()
            self._runs[key] = run_scheme(cfg, scheme)
            self.elapsed[key] = time.perf_counter() - t0
        return self._runs[key]


@pytest.fixture(scope="module")
def runs():
    return RunCache()


# ---------------------------------------------------------------------------
# Criterion 1: formula oracle suite
# ---------------------------------------------------------------------------

def _q_inv_oracle(p: float):
    """Q^-1(p) as an mpmath number, by Newton's method on Q(x) = p with
    mpmath's complementary error function.

    Two Newton steps start from the standard library's inverse normal CDF;
    that the result is within 2^-50 max(1, |x|) of the root is asserted
    with mpmath, as a bracket across which Q - p changes sign.
    """
    sign = 1
    if p > 0.5:
        p, sign = 1.0 - p, -1
    target = mp.mpf(p)

    def tail(x):
        return mp.erfc(x / mp.sqrt(2)) / 2

    x = mp.mpf(-NormalDist().inv_cdf(p))
    for _ in range(2):
        # Q'(x) = -exp(-x^2/2)/sqrt(2 pi)
        x += (tail(x) - target) * mp.sqrt(2 * mp.pi) * mp.exp(x * x / 2)
    half = mp.mpf(2) ** -50 * max(1, abs(x))
    assert tail(x - half) > target > tail(x + half), f"bracket misses Q^-1({p})"
    return sign * x


def test_criterion_1_formula_oracles():
    t0 = time.perf_counter()
    ok = False
    try:
        mp.mp.dps = 25
        rng = np.random.default_rng(2024)

        # q_inv vs bisection oracle, 1e-9 absolute
        ps = np.concatenate([
            np.logspace(-9, np.log10(0.499), 480),
            1.0 - np.logspace(-9, np.log10(0.499), 480),
            rng.uniform(1e-6, 1.0 - 1e-6, 64),
        ])
        assert ps.size >= 1000
        worst_q = 0.0
        for p in ps:
            err = abs(model.q_inv(float(p)) - float(_q_inv_oracle(float(p))))
            worst_q = max(worst_q, err)
        assert worst_q <= 1e-9, f"q_inv worst error {worst_q:.2e}"

        # dispersion vs mpmath, 1e-6 relative
        gammas = np.concatenate([[0.0], rng.uniform(0.0, 1e4, 1100)])
        worst_d = 0.0
        for g in gammas:
            oracle = float(1 - (1 + mp.mpf(float(g))) ** -2)
            got = model.dispersion(float(g))
            denom = max(abs(oracle), 1e-12)
            worst_d = max(worst_d, abs(got - oracle) / denom)
        assert worst_d <= 1e-6, f"dispersion worst relative error {worst_d:.2e}"

        # secrecy-rate lower bound vs a from-scratch mpmath evaluation,
        # 1e-6 relative with an absolute floor where the clamp makes the
        # value vanish (cancellation leaves ~1e-14 absolute accuracy there)
        ln2 = mp.log(2)

        def rate_oracle(gb, ge, L, eb, ee):
            val = (
                mp.log(1 + gb) / ln2 - mp.log(1 + ge) / ln2
                - mp.sqrt((1 - (1 + mp.mpf(gb)) ** -2) / L) * _q_inv_oracle(eb) / ln2
                - mp.sqrt((1 - (1 + mp.mpf(ge)) ** -2) / L) * _q_inv_oracle(ee) / ln2
            )
            return float(max(val, mp.mpf(0)))

        worst_r = 0.0
        for _ in range(1000):
            gb = float(rng.uniform(0.0, 50.0))
            ge = float(rng.uniform(0.0, 50.0))
            L = float(rng.uniform(50.0, 2000.0))
            eb = float(rng.uniform(1e-7, 0.4))
            ee = float(rng.uniform(1e-7, 0.4))
            cfg = baseline_scenario(L=L, eps_b=eb, eps_e=ee)
            oracle = rate_oracle(gb, ge, L, eb, ee)
            got = model.secrecy_rate_lb(gb, ge, cfg)
            err = abs(got - oracle)
            assert err <= 1e-6 * abs(oracle) + 1e-12, (
                f"rate mismatch at gb={gb} ge={ge} L={L}: {got} vs {oracle}"
            )
            worst_r = max(worst_r, err / max(abs(oracle), 1e-6))

        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"formula suite took {elapsed:.1f}s (budget 5s)"
        ok = True
    finally:
        _report(1, ok, time.perf_counter() - t0,
                "q_inv/dispersion/secrecy-rate match mpmath oracles (>=1000 samples each)")


# ---------------------------------------------------------------------------
# Criterion 2: surrogate tangency, gradients, global lower bound
# ---------------------------------------------------------------------------

def _random_iterate(cfg, rng):
    n = cfg.N
    frac = np.linspace(0.0, 1.0, n)[:, None]
    pts = cfg.q_I[:2] * (1.0 - frac) + cfg.q_F[:2] * frac
    pts += rng.uniform(-2.0, 2.0, size=pts.shape)
    pts[0], pts[-1] = cfg.q_I[:2], cfg.q_F[:2]
    p = rng.uniform(0.005, cfg.P_max, size=n)
    p *= min(1.0, cfg.P_bar / p.mean())
    return Trajectory(points=pts), PowerProfile(p=p)


def _fd_grad(fn, x, h=1e-6):
    g = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy(); xp[i] += h
        xm = x.copy(); xm[i] -= h
        g[i] = (fn(xp) - fn(xm)) / (2.0 * h)
    return g


def test_criterion_2_surrogate_tangency_and_bound():
    t0 = time.perf_counter()
    ok = False
    try:
        cfg = baseline_scenario()
        rng = np.random.default_rng(7)
        n = cfg.N

        def check_grads(a, b):
            denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-5)
            worst = float(np.max(np.abs(a - b) / denom))
            assert worst <= 1e-4, f"gradient mismatch {worst:.2e}"

        bound_checks = 0
        for _ in range(100):
            traj, pw = _random_iterate(cfg, rng)
            ep = expansion_from(traj, pw, cfg)

            # value tangency at the expansion point
            ref = slack_rate_objective(
                ep.q_hat, ep.p_hat, ep.u[1], ep.z[0], ep.z[1], cfg)
            at_ep = SurrogatePoint(q=ep.q_hat, p=ep.p_hat, u_e=ep.u[1],
                                   z_b=ep.z[0], z_e=ep.z[1])
            assert abs(surrogate_value_q(ep, at_ep, pw, cfg) - ref) <= 1e-10
            assert abs(surrogate_value_p(traj, ep, at_ep, cfg) - ref) <= 1e-10

            # gradient tangency via central differences, trajectory variables
            x0 = np.concatenate([ep.q_hat.ravel(), ep.u[1], ep.z[0], ep.z[1]])

            def unpack(x):
                return (x[:2 * n].reshape(n, 2), x[2 * n:3 * n],
                        x[3 * n:4 * n], x[4 * n:5 * n])

            def sur_q(x):
                q, ue, zb, ze = unpack(x)
                return surrogate_value_q(
                    ep, SurrogatePoint(q=q, u_e=ue, z_b=zb, z_e=ze), pw, cfg)

            def eq9_q(x):
                q, ue, zb, ze = unpack(x)
                return slack_rate_objective(q, pw.p, ue, zb, ze, cfg)

            check_grads(_fd_grad(sur_q, x0), _fd_grad(eq9_q, x0))

            # gradient tangency, power variables
            y0 = np.concatenate([ep.p_hat, ep.u[1], ep.z[0], ep.z[1]])

            def unpack_p(y):
                return y[:n], y[n:2 * n], y[2 * n:3 * n], y[3 * n:4 * n]

            def sur_p(y):
                p, ue, zb, ze = unpack_p(y)
                return surrogate_value_p(
                    traj, ep, SurrogatePoint(p=p, u_e=ue, z_b=zb, z_e=ze), cfg)

            def eq9_p(y):
                p, ue, zb, ze = unpack_p(y)
                return slack_rate_objective(traj.points, p, ue, zb, ze, cfg)

            check_grads(_fd_grad(sur_p, y0), _fd_grad(eq9_p, y0))

            # global lower bound at random points (10 per expansion point)
            for _ in range(10):
                q = rng.uniform(-100.0, 500.0, size=(n, 2))
                p = rng.uniform(0.0, cfg.P_max, size=n)
                ue = rng.uniform(0.0, 10.0, size=n)
                zb = rng.uniform(0.0, 1.5, size=n)
                ze = rng.uniform(0.0, 1.5, size=n)
                pt = SurrogatePoint(q=q, p=p, u_e=ue, z_b=zb, z_e=ze)
                assert surrogate_value_q(ep, pt, pw, cfg) <= (
                    slack_rate_objective(q, pw.p, ue, zb, ze, cfg) + 1e-9)
                assert surrogate_value_p(traj, ep, pt, cfg) <= (
                    slack_rate_objective(traj.points, p, ue, zb, ze, cfg) + 1e-9)
                bound_checks += 1

        assert bound_checks >= 1000
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"surrogate suite took {elapsed:.1f}s (budget 30s)"
        ok = True
    finally:
        _report(2, ok, time.perf_counter() - t0,
                "tangency 1e-10, FD gradients 1e-4, lower bound at 1000 points")


# ---------------------------------------------------------------------------
# Criterion 3: solver vs brute-force oracles
# ---------------------------------------------------------------------------

def test_criterion_3_solver_oracle_equivalence():
    t0 = time.perf_counter()
    ok = False
    try:
        count = 0
        for name, make in FAMILIES:
            rng = np.random.default_rng(zlib.crc32(name.encode()))
            for trial in range(200):
                prog, oracle = make(rng)
                sol = solve(prog)
                assert sol.status == "optimal", f"{name}[{trial}]"
                assert abs(sol.objective - oracle) <= 1e-4, (
                    f"{name}[{trial}]: {sol.objective} vs oracle {oracle}")
                assert max_violation(prog, sol.x) <= 1e-9, f"{name}[{trial}]"
                count += 1
        assert count == 200 * len(FAMILIES)
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"solver suite took {elapsed:.1f}s (budget 60s)"
        ok = True
    finally:
        _report(3, ok, time.perf_counter() - t0,
                "800 randomized instances within 1e-4 of grid/enumeration oracles")


# ---------------------------------------------------------------------------
# Criterion 4: alternating-algorithm convergence
# ---------------------------------------------------------------------------

def test_criterion_4_convergence(runs):
    t0 = time.perf_counter()
    ok = False
    try:
        res = runs.get(SchemeId.JTPO, 60.0, 400.0)
        assert not res.failed
        surr = [r.surrogate for r in res.iterations]
        drops = [b - a for a, b in zip(surr, surr[1:])]
        assert all(d >= -1e-9 for d in drops), f"surrogate decreased: {min(drops)}"
        assert res.iterations[-1].frac_increase < 1e-6
        assert len(res.iterations) - 1 <= 100
        spent = runs.elapsed[(SchemeId.JTPO, 60.0, 400.0)]
        assert spent < 120.0, f"run took {spent:.1f}s (budget 120s)"
        ok = True
    finally:
        _report(4, ok, time.perf_counter() - t0,
                "surrogate non-decreasing (1e-9), fractional increase < 1e-6 within 100 iters")


def test_default_jtpo_newton_step_budget(runs):
    # a deterministic count, so a change that makes the trajectory solves
    # take more Newton steps shows here; the default run takes 134
    # (primal-dual iterations and centring steps)
    res = runs.get(SchemeId.JTPO, 60.0, 400.0)
    assert res.newton_steps <= 1.1 * 134, f"{res.newton_steps} Newton steps"


def test_grid_newton_step_budget(runs):
    # deterministic counts over the criterion-7 grid, so a change that makes
    # the planner do more work shows here: JTPO and FTP-Inf take 2563
    # trajectory Newton steps, and the 36 runs 398 alternations
    grid = [runs.get(scheme, T, L) for T in T_GRID for L in L_GRID for scheme in SchemeId]
    steps = sum(r.newton_steps for r in grid if r.scheme != SchemeId.POFT.value)
    alternations = sum(len(r.iterations) - 1 for r in grid)
    assert steps <= 1.1 * 2563, f"{steps} trajectory Newton steps"
    assert alternations <= 1.1 * 398, f"{alternations} alternations"


def test_default_jtpo_evaluation_budget(monkeypatch):
    # a deterministic count of the solver's point evaluations, so a change
    # that evaluates a point again, or more trial points, shows here; the
    # default run evaluates 150
    evaluate = _Work.evaluate
    calls = []

    def counting_evaluate(work, x, *args):
        calls.append(1)
        return evaluate(work, x, *args)

    monkeypatch.setattr(_Work, "evaluate", counting_evaluate)
    run_scheme(baseline_scenario(T=60.0, L=400.0), SchemeId.JTPO)
    assert len(calls) <= 1.1 * 150, f"{len(calls)} evaluations"


def test_default_jtpo_c_calls_per_factorization_budget(monkeypatch):
    # a deterministic count of the fixed work of a solver iteration: the
    # C-function calls (``sys.setprofile`` c_call events; NumPy's ufunc
    # calls and array operators are not among them) that the default JTPO
    # run's trajectory solves make per banded Cholesky factorization,
    # 27.67 (49.49 before each solve filled one value buffer in place)
    pbtrf, solve_ = solver._PBTRF, driver.solve
    factorizations, calls = [], []

    def counting_pbtrf(*args, **kwargs):
        factorizations.append(1)
        return pbtrf(*args, **kwargs)

    def profile(frame, event, arg):
        if event == "c_call":
            calls.append(1)

    def profiled_solve(prog):
        sys.setprofile(profile)
        try:
            return solve_(prog)
        finally:
            sys.setprofile(None)

    monkeypatch.setattr(solver, "_PBTRF", counting_pbtrf)
    monkeypatch.setattr(driver, "solve", profiled_solve)
    run_scheme(baseline_scenario(T=60.0, L=400.0), SchemeId.JTPO)
    assert len(factorizations) == 150
    per = len(calls) / len(factorizations)
    assert per <= 1.1 * 27.67, f"{per:.2f} C calls per factorization"


def test_grid_factorization_budget(monkeypatch):
    # a deterministic count of the banded Cholesky factorizations, the work
    # each solver iteration is built around: JTPO and FTP-Inf over the
    # criterion-7 grid factor 2877 times (POFT solves no trajectory program)
    pbtrf = solver._PBTRF
    calls = []

    def counting_pbtrf(*args, **kwargs):
        calls.append(1)
        return pbtrf(*args, **kwargs)

    monkeypatch.setattr(solver, "_PBTRF", counting_pbtrf)
    for T in T_GRID:
        for L in L_GRID:
            for scheme in (SchemeId.JTPO, SchemeId.FTP_INF):
                run_scheme(baseline_scenario(T=T, L=L), scheme)
    assert len(calls) <= 1.1 * 2877, f"{len(calls)} factorizations"


# ---------------------------------------------------------------------------
# Criterion 5: trajectory trends (hover vs max-speed transit)
# ---------------------------------------------------------------------------

def test_criterion_5_trajectory_trends(runs):
    t0 = time.perf_counter()
    ok = False
    try:
        cfg = baseline_scenario(T=60.0)
        res60 = runs.get(SchemeId.JTPO, 60.0, 400.0)
        speeds = res60.trajectory.speeds(cfg.delta_t)[:-1]
        slow = speeds <= 0.5
        # longest run of consecutive slow slots and its mean position
        best_len, best_span = 0, None
        i = 0
        while i < slow.size:
            if slow[i]:
                j = i
                while j < slow.size and slow[j]:
                    j += 1
                if j - i > best_len:
                    best_len, best_span = j - i, (i, j)
                i = j
            else:
                i += 1
        assert best_len >= 10, f"longest hover run is {best_len} slots"
        hover_pts = res60.trajectory.points[best_span[0]:best_span[1]]
        dist_to_bob = np.linalg.norm(hover_pts.mean(axis=0) - cfg.w_b[:2])
        assert dist_to_bob <= 50.0, f"hover centroid {dist_to_bob:.1f} m from Bob"

        res42 = runs.get(SchemeId.JTPO, 42.0, 400.0)
        speeds42 = res42.trajectory.speeds(1.0)[:-1]
        assert speeds42.min() >= 0.9 * cfg.V_max, (
            f"min transit speed {speeds42.min():.2f} m/s")
        ok = True
    finally:
        _report(5, ok, time.perf_counter() - t0,
                "T=60 hovers >=10 slots near Bob; T=42 stays above 0.9*V_max")


# ---------------------------------------------------------------------------
# Criterion 6: power-profile trends
# ---------------------------------------------------------------------------

def _leading_zero_slots(p: np.ndarray) -> int:
    k = 0
    for v in p:
        if v == 0.0:
            k += 1
        else:
            break
    return k


def test_criterion_6_power_trends(runs):
    t0 = time.perf_counter()
    ok = False
    try:
        cfg = baseline_scenario(T=60.0)
        res = runs.get(SchemeId.JTPO, 60.0, 400.0)
        p = res.power.p
        asym = np.max(np.abs(p - p[::-1]))
        assert asym <= 0.05 * cfg.P_max, f"palindrome deviation {asym:.2e} W"

        res_ftp = runs.get(SchemeId.FTP_INF, 60.0, 400.0)
        lead_jtpo = _leading_zero_slots(p)
        lead_ftp = _leading_zero_slots(res_ftp.power.p)
        assert lead_jtpo >= lead_ftp, (
            f"JTPO leading zeros {lead_jtpo} < FTP-Inf {lead_ftp}")
        ok = True
    finally:
        _report(6, ok, time.perf_counter() - t0,
                "power palindromic within 0.05*P_max; JTPO starts transmitting no earlier")


def test_trajectory_mirror_symmetry(runs):
    # the default scenario is mirror-symmetric in y with swapped endpoints,
    # so the converged path must satisfy x[n] = x[N+1-n], y[n] = -y[N+1-n]
    # (soft tolerance: solver path dependence)
    res = runs.get(SchemeId.JTPO, 60.0, 400.0)
    pts = res.trajectory.points
    assert np.max(np.abs(pts[:, 0] - pts[::-1, 0])) <= 0.5
    assert np.max(np.abs(pts[:, 1] + pts[::-1, 1])) <= 0.5


# ---------------------------------------------------------------------------
# Criterion 7: AESR dominance and monotone trends over the (T, L) grid
# ---------------------------------------------------------------------------

def test_criterion_7_aesr_grid_trends(runs):
    t0 = time.perf_counter()
    ok = False
    steps = {}
    try:
        aesr = {}
        for T in T_GRID:
            for L in L_GRID:
                for scheme in (SchemeId.JTPO, SchemeId.POFT, SchemeId.FTP_INF):
                    res = runs.get(scheme, T, L)
                    assert not res.failed, f"{scheme} T={T} L={L} failed"
                    assert res.nonoptimal == 0, (
                        f"{scheme} T={T} L={L}: {res.nonoptimal} non-optimal solves")
                    aesr[(scheme, T, L)] = res.aesr

        for T in T_GRID:
            for L in L_GRID:
                j = aesr[(SchemeId.JTPO, T, L)]
                assert j >= aesr[(SchemeId.POFT, T, L)] - 1e-6, f"POFT beats JTPO at {T},{L}"
                assert j >= aesr[(SchemeId.FTP_INF, T, L)] - 1e-6, f"FTP beats JTPO at {T},{L}"

        for L in L_GRID:
            vals = [aesr[(SchemeId.JTPO, T, L)] for T in T_GRID]
            assert all(b >= a - 1e-6 for a, b in zip(vals, vals[1:])), (
                f"JTPO not monotone in T at L={L}: {vals}")
        for T in T_GRID:
            vals = [aesr[(SchemeId.JTPO, T, L)] for L in L_GRID]
            assert all(b >= a - 1e-6 for a, b in zip(vals, vals[1:])), (
                f"JTPO not monotone in L at T={T}: {vals}")

        grid_compute = sum(runs.elapsed.values())
        assert grid_compute < 1800.0, f"grid runs took {grid_compute:.0f}s (budget 30min)"
        steps = {scheme.value: sum(runs.get(scheme, T, L).newton_steps
                                   for T in T_GRID for L in L_GRID)
                 for scheme in (SchemeId.JTPO, SchemeId.POFT, SchemeId.FTP_INF)}
        ok = True
    finally:
        _report(7, ok, time.perf_counter() - t0,
                "JTPO dominates both benchmarks, is monotone in T and L and certifies"
                f" every solve on the 4x3 grid; trajectory Newton steps {steps}")


# ---------------------------------------------------------------------------
# Criterion 8: byte-identical reruns
# ---------------------------------------------------------------------------

def test_criterion_8_determinism(tmp_path):
    t0 = time.perf_counter()
    ok = False
    try:
        cfg_path = tmp_path / "scenario.cfg"
        cfg_path.write_text(
            "T = 6\nq_I = 30, 10, 100\nq_F = 30, -10, 100\n", encoding="utf-8")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli_main(["run", "--config", str(cfg_path), "--scheme", "jtpo",
                         "--out", str(out1)]) == 0
        assert cli_main(["run", "--config", str(cfg_path), "--scheme", "jtpo",
                         "--out", str(out2)]) == 0
        for name in ("scenario.txt", "trajectory.csv", "power.csv", "iterations.csv"):
            b1 = (out1 / name).read_bytes()
            b2 = (out2 / name).read_bytes()
            assert b1 == b2, f"{name} differs between identical runs"
        ok = True
    finally:
        _report(8, ok, time.perf_counter() - t0,
                "two runs with identical config produce byte-identical CSVs")
