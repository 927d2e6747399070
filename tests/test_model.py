import dataclasses
import math
import re

import numpy as np
import pytest

from uavsec import model
from uavsec.model import (
    PowerProfile,
    ScenarioConfig,
    Trajectory,
    aesr,
    baseline_scenario,
    db_to_linear,
    dbm_to_watt,
    dispersion,
    linear_to_db,
    q_inv,
    secrecy_rate_lb,
    snr,
    validate,
    watt_to_dbm,
)


def _q(x):
    return 0.5 * math.erfc(x / math.sqrt(2.0))


# ---------------------------------------------------------------------------
# Unit conversions
# ---------------------------------------------------------------------------

def test_dbm_to_watt():
    assert dbm_to_watt(20.0) == pytest.approx(0.1, rel=1e-12)
    assert dbm_to_watt(30.0) == pytest.approx(1.0, rel=1e-12)
    assert dbm_to_watt(17.0) == pytest.approx(0.05011872336272722, rel=1e-12)


def test_db_to_linear():
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(60.0) == pytest.approx(1e6, rel=1e-12)
    assert linear_to_db(db_to_linear(23.4)) == pytest.approx(23.4, rel=1e-12)


def test_watt_to_dbm_edge_cases():
    assert watt_to_dbm(0.1) == pytest.approx(20.0, rel=1e-12)
    assert watt_to_dbm(0.0) == -math.inf
    with pytest.raises(ValueError):
        watt_to_dbm(-1e-3)


# ---------------------------------------------------------------------------
# Inverse Q-function
# ---------------------------------------------------------------------------

def test_q_inv_known_values():
    assert q_inv(0.5) == 0.0
    assert q_inv(1e-5) == pytest.approx(4.264891, abs=1e-6)
    assert q_inv(1e-2) == pytest.approx(2.326348, abs=1e-6)


def test_q_inv_round_trip():
    for p in np.logspace(-6, np.log10(0.499), 80):
        assert _q(q_inv(float(p))) == pytest.approx(p, abs=1e-9, rel=1e-9)


def test_q_inv_symmetry():
    for p in (1e-4, 0.01, 0.3):
        assert q_inv(1.0 - p) == pytest.approx(-q_inv(p), abs=1e-12)


def test_q_inv_domain():
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            q_inv(bad)


# ---------------------------------------------------------------------------
# SNR and dispersion
# ---------------------------------------------------------------------------

def test_snr_hand_values():
    assert snr(0.1, (0, 0, 100), (0, 0, 0), 1e6) == pytest.approx(10.0, rel=1e-12)
    assert snr(0.0, (0, 0, 100), (0, 0, 0), 1e6) == 0.0
    assert snr(0.1, (200, 100, 100), (400, 0, 0), 1e6) == pytest.approx(1e5 / 60000, rel=1e-12)


def test_snr_domain():
    with pytest.raises(ValueError):
        snr(0.1, (1, 2, 3), (1, 2, 3), 1e6)
    with pytest.raises(ValueError):
        snr(-0.1, (0, 0, 100), (0, 0, 0), 1e6)


def test_dispersion_values():
    assert dispersion(0.0) == 0.0
    assert dispersion(1.0) == pytest.approx(0.75, rel=1e-12)
    assert dispersion(10.0) == pytest.approx(0.991736, abs=1e-6)
    with pytest.raises(ValueError):
        dispersion(-0.5)


def test_dispersion_monotone_into_unit_interval():
    g = np.linspace(0.0, 50.0, 400)
    v = dispersion(g)
    assert np.all(np.diff(v) > 0.0)
    assert v[0] == 0.0 and np.all(v < 1.0)


# ---------------------------------------------------------------------------
# Secrecy-rate lower bound
# ---------------------------------------------------------------------------

def test_secrecy_rate_reference_point():
    cfg = baseline_scenario()
    assert secrecy_rate_lb(10.0, 0.588235, cfg) == pytest.approx(2.3553, abs=1e-3)


def test_secrecy_rate_intermediates():
    cfg = baseline_scenario()
    pen_b = math.sqrt(dispersion(10.0) / cfg.L) * q_inv(cfg.eps_b) / math.log(2)
    pen_e = math.sqrt(dispersion(0.588235) / cfg.L) * q_inv(cfg.eps_e) / math.log(2)
    assert math.log2(11.0) == pytest.approx(3.45943, abs=1e-5)
    assert math.log2(1.588235) == pytest.approx(0.66743, abs=1e-5)
    assert pen_b == pytest.approx(0.30637, abs=1e-5)
    assert pen_e == pytest.approx(0.13038, abs=1e-5)


def test_secrecy_rate_symmetric_snrs_clamp_to_zero():
    cfg = baseline_scenario()
    assert secrecy_rate_lb(3.0, 3.0, cfg) == 0.0
    # equal error targets at 0.499 make the subtraction vanish up to tiny
    # penalties; identical SNRs always clamp to zero
    assert secrecy_rate_lb(0.0, 0.0, cfg) == 0.0


def test_secrecy_rate_long_packet_limit():
    cfg = baseline_scenario(L=math.inf)
    assert secrecy_rate_lb(10.0, 0.588235, cfg) == pytest.approx(2.79200, abs=1e-4)


def test_secrecy_rate_monotone_in_blocklength():
    rng = np.random.default_rng(7)
    for _ in range(25):
        gb = float(rng.uniform(0.0, 30.0))
        ge = float(rng.uniform(0.0, 30.0))
        vals = [
            secrecy_rate_lb(gb, ge, baseline_scenario(L=L))
            for L in (100.0, 200.0, 400.0, 800.0, 1600.0, math.inf)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_secrecy_rate_penalties_only_reduce():
    rng = np.random.default_rng(8)
    cfg = baseline_scenario()
    cfg_inf = baseline_scenario(L=math.inf)
    for _ in range(50):
        gb = float(rng.uniform(0.0, 30.0))
        ge = float(rng.uniform(0.0, 30.0))
        finite = secrecy_rate_lb(gb, ge, cfg, clamp=False)
        limit = secrecy_rate_lb(gb, ge, cfg_inf, clamp=False)
        assert limit >= finite - 1e-12


# ---------------------------------------------------------------------------
# AESR
# ---------------------------------------------------------------------------

def _hover_cfg(n=3):
    # hover above Bob at full instantaneous power; endpoints coincide
    return baseline_scenario(
        T=float(n), q_I=(0.0, 0.0, 100.0), q_F=(0.0, 0.0, 100.0),
        P_max=0.1, P_bar=0.1,
    )


def test_aesr_constant_slots():
    cfg = _hover_cfg(3)
    traj = Trajectory(points=np.zeros((3, 2)))
    pw = PowerProfile(p=np.full(3, 0.1))
    # every slot sits at the 2.3553 reference operating point
    assert aesr(traj, pw, cfg) == pytest.approx(2.3553 * (1.0 - 1e-5), abs=2e-3)


def test_aesr_zero_power():
    cfg = _hover_cfg(4)
    traj = Trajectory(points=np.zeros((4, 2)))
    pw = PowerProfile(p=np.zeros(4))
    assert aesr(traj, pw, cfg) == 0.0


def test_aesr_clamped_slot_average():
    cfg = _hover_cfg(2)
    # slot 1 at the reference point above Bob; slot 2 equidistant from both
    # receivers, so its pre-clamp rate is negative and clamps to zero
    traj = Trajectory(points=np.array([[0.0, 0.0], [200.0, 0.0]]))
    pw = PowerProfile(p=np.array([0.1, 0.1]))
    rates = model.slot_rates_pre_clamp(traj, pw, cfg)
    assert rates[1] < 0.0
    assert aesr(traj, pw, cfg) == pytest.approx(1.17764 * (1.0 - 1e-5), abs=1e-3)


def test_aesr_time_reversal_invariant():
    rng = np.random.default_rng(11)
    cfg = baseline_scenario(T=8.0, q_I=(30.0, 10.0, 100.0), q_F=(30.0, -10.0, 100.0))
    pts = rng.uniform(-50.0, 250.0, size=(8, 2))
    p = rng.uniform(0.0, cfg.P_max, size=8)
    fwd = aesr(Trajectory(points=pts), PowerProfile(p=p), cfg)
    rev = aesr(Trajectory(points=pts[::-1].copy()), PowerProfile(p=p[::-1].copy()), cfg)
    assert fwd == pytest.approx(rev, abs=1e-12)


def test_aesr_length_mismatch():
    cfg = _hover_cfg(3)
    with pytest.raises(ValueError):
        aesr(Trajectory(points=np.zeros((3, 2))), PowerProfile(p=np.zeros(2)), cfg)


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def _feasible_pair(cfg):
    frac = np.linspace(0.0, 1.0, cfg.N)[:, None]
    pts = cfg.q_I[:2] * (1.0 - frac) + cfg.q_F[:2] * frac
    return Trajectory(points=pts), PowerProfile(p=np.full(cfg.N, cfg.P_bar))


def test_validate_boundary_speed_is_feasible():
    # a segment flown exactly at V_max passes
    cfg = baseline_scenario(T=3.0, q_I=(0.0, 10.0, 100.0), q_F=(0.0, -10.0, 100.0))
    traj, pw = _feasible_pair(cfg)
    assert np.allclose(traj.speeds(cfg.delta_t)[:-1], cfg.V_max)
    assert validate(traj, pw, cfg) == []


def test_validate_flags_speed_violation():
    cfg = baseline_scenario(T=3.0, q_I=(0.0, 10.0, 100.0), q_F=(0.0, -10.0, 100.0))
    traj, pw = _feasible_pair(cfg)
    pts = traj.points.copy()
    pts[1, 0] += 11.0 * 0.458  # stretch one step to ~1.1x the limit
    bad = Trajectory(points=pts)
    found = [v for v in validate(bad, pw, cfg) if "max speed" in v]
    assert len(found) >= 1 and "slot" in found[0]


def test_validate_flags_average_power():
    cfg = baseline_scenario(T=3.0, q_I=(0.0, 10.0, 100.0), q_F=(0.0, -10.0, 100.0))
    traj, _ = _feasible_pair(cfg)
    pw = PowerProfile(p=np.full(cfg.N, cfg.P_bar * 1.01))
    out = validate(traj, pw, cfg)
    assert len(out) == 1 and "average power" in out[0]


def test_validate_flags_power_box_and_endpoints():
    cfg = baseline_scenario(T=3.0, q_I=(0.0, 10.0, 100.0), q_F=(0.0, -10.0, 100.0))
    traj, _ = _feasible_pair(cfg)
    pw = PowerProfile(p=np.array([-0.01, 0.2, 0.01]))
    msgs = "\n".join(validate(traj, pw, cfg))
    assert "negative" in msgs and "exceeds P_max" in msgs
    shifted = Trajectory(points=traj.points + 1.0)
    msgs = "\n".join(validate(shifted, PowerProfile(p=np.zeros(3)), cfg))
    assert "endpoint" in msgs


def test_validate_names_non_finite_positions_and_powers():
    # NaN fails no comparison with a bound, so each non-finite value is named
    cfg = baseline_scenario(T=24.0)
    traj, pw = _feasible_pair(cfg)
    pts, p = traj.points.copy(), pw.p.copy()
    pts[5, 0] = math.nan
    p[7] = math.nan
    out = validate(Trajectory(points=pts), PowerProfile(p=p), cfg)
    assert len(out) == 2
    assert out[0].startswith("non-finite: slot 6 position [nan, ")
    assert out[1] == "non-finite: slot 8 power nan W"
    p[7] = math.inf
    out = validate(traj, PowerProfile(p=p), cfg)
    assert "non-finite: slot 8 power inf W" in out


def test_validate_length_mismatch():
    cfg = baseline_scenario(T=3.0, q_I=(0.0, 10.0, 100.0), q_F=(0.0, -10.0, 100.0))
    out = validate(Trajectory(points=np.zeros((2, 2))), PowerProfile(p=np.zeros(3)), cfg)
    assert any("length" in v for v in out)


# ---------------------------------------------------------------------------
# ScenarioConfig invariants
# ---------------------------------------------------------------------------

def test_config_declares_the_baseline_as_its_defaults():
    baseline = dict(
        w_b=(0.0, 0.0, 0.0), w_e=(400.0, 0.0, 0.0), q_I=(200.0, 100.0, 100.0),
        q_F=(200.0, -100.0, 100.0), H=100.0, T=60.0, delta_t=1.0, V_max=10.0, P_max=0.1,
        P_bar=0.05, xi0=1e6, L=400.0, eps_b=1e-5, eps_e=1e-2, tau=1e-6, max_iter=100,
    )
    cfg = ScenarioConfig()
    assert [f.name for f in dataclasses.fields(cfg) if f.init] == list(baseline)
    for name, value in baseline.items():
        assert np.array_equal(getattr(cfg, name), value), name
    assert baseline_scenario is ScenarioConfig
    # the dependent defaults resolve from the given values
    assert ScenarioConfig(P_max=0.2).P_bar == 0.1
    low = ScenarioConfig(H=80.0)
    assert low.q_I[2] == low.q_F[2] == 80.0


def test_config_slot_count_consistency():
    cfg = baseline_scenario(T=60.0, delta_t=1.0)
    assert cfg.N == 60
    assert baseline_scenario(T=60.0, delta_t=0.5).N == 120
    with pytest.raises(ValueError):
        baseline_scenario(T=60.0, delta_t=7.0)


def test_config_rejects_bad_epsilons():
    with pytest.raises(ValueError):
        baseline_scenario(eps_b=0.7)
    with pytest.raises(ValueError):
        baseline_scenario(eps_e=0.0)


def test_config_rejects_bad_powers():
    with pytest.raises(ValueError):
        baseline_scenario(P_bar=0.2, P_max=0.1)
    with pytest.raises(ValueError):
        baseline_scenario(P_bar=0.0)


def test_config_rejects_unreachable_endpoints():
    with pytest.raises(ValueError):
        baseline_scenario(T=10.0)  # 200 m apart but only 90 m reachable


@pytest.mark.parametrize("overrides,field", [
    (dict(delta_t=0.0), "delta_t"),
    (dict(T=-1.0), "T"),
    (dict(T=0.4), "T/delta_t"),
    (dict(H=0.0), "H"),
    (dict(V_max=0.0), "V_max"),
    (dict(xi0=0.0), "xi0"),
    (dict(max_iter=0), "max_iter"),
    (dict(w_e=(400.0, 0.0)), "w_e"),
    (dict(tau=math.nan), "tau"),
], ids=["delta_t", "T", "no-slots", "H", "V_max", "xi0", "max_iter", "vec3", "tau-nan"])
def test_config_rejection_names_its_field(overrides, field):
    with pytest.raises(ValueError, match=f"^{re.escape(field)} "):
        baseline_scenario(**overrides)


def test_config_rejects_wrong_altitudes():
    with pytest.raises(ValueError):
        baseline_scenario(q_I=(200.0, 100.0, 50.0))
    with pytest.raises(ValueError):
        ScenarioConfig(
            w_b=(0, 0, 5.0), w_e=(400, 0, 0), q_I=(200, 100, 100), q_F=(200, -100, 100),
            H=100.0, T=60.0, delta_t=1.0, V_max=10.0, P_max=0.1, P_bar=0.05,
            xi0=1e6, L=400.0, eps_b=1e-5, eps_e=1e-2, tau=1e-6,
        )


@pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
@pytest.mark.parametrize("name", [
    "H", "T", "delta_t", "V_max", "P_max", "xi0", "w_b", "w_e", "q_I", "q_F",
])
def test_config_rejects_non_finite_values_by_name(name, value):
    kw = {name: value}
    if name in ("w_b", "w_e"):
        kw = {name: (value, 0.0, 0.0)}
    elif name in ("q_I", "q_F"):
        kw = {name: (200.0, value, 100.0)}
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        baseline_scenario(**kw)


def test_config_accepts_the_long_packet_limit():
    assert math.isinf(baseline_scenario(L=math.inf).L)


def test_config_rejects_negative_blocklength_and_tau():
    with pytest.raises(ValueError):
        baseline_scenario(L=0.5)
    with pytest.raises(ValueError):
        baseline_scenario(tau=0.0)
