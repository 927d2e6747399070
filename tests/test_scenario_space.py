"""Property tests over the scenario space: every scenario ends in a named
configuration error or in a valid, certified design from every scheme, and
with Eve anywhere around the default path every scheme returns a valid
design."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavsec import model
from uavsec.driver import SchemeId, run_scheme
from uavsec.model import baseline_scenario

# Bob sits at the origin and the path's endpoints at x = 200 m, y = +-span/2
EVE = {
    "far": (400.0, 0.0, 0.0),
    "under the path": (200.0, 0.0, 0.0),
    "near Bob": (1.0, 0.0, 0.0),
    "at Bob": (0.0, 0.0, 0.0),
}


@settings(max_examples=25, derandomize=True, deadline=None)
@given(
    T=st.integers(2, 30),
    span=st.sampled_from((10.0, 200.0)),
    eve=st.sampled_from(sorted(EVE)),
    power_ratio=st.sampled_from((0.1, 0.5, 1.0)),
    log_xi0=st.floats(-3.0, 12.0),
    L=st.sampled_from((1.0, 200.0, 800.0, math.inf)),
    tau=st.sampled_from((1e-6, 1e-3, 0.1)),
)
def test_every_scenario_ends_in_a_valid_design_or_a_config_error(
        T, span, eve, power_ratio, log_xi0, L, tau):
    # at V_max = 10 m/s the short span is forced at T = 2; the default span
    # of 200 m is unreachable below T = 21, forced at 21 and nearly so at 22
    try:
        cfg = baseline_scenario(T=float(T), q_I=(200.0, span / 2, 100.0),
                                q_F=(200.0, -span / 2, 100.0), w_e=EVE[eve],
                                P_bar=power_ratio * 0.1, xi0=10.0 ** log_xi0, L=L,
                                tau=tau, max_iter=10)
    except ValueError:
        return
    for scheme in SchemeId:
        res = run_scheme(cfg, scheme)
        assert not res.failed and res.nonoptimal == 0, scheme
        assert model.validate(res.trajectory, res.power, cfg) == [], scheme
        assert math.isfinite(res.aesr), scheme
        surrogate = [r.surrogate for r in res.iterations]
        assert all(b - a >= -1e-9 for a, b in zip(surrogate, surrogate[1:])), scheme


@settings(max_examples=25, derandomize=True, deadline=None)
@given(
    T=st.integers(30, 60),
    L=st.sampled_from((200.0, 400.0, 800.0)),
    eve_x=st.floats(-100.0, 400.0),
    eve_y=st.floats(-150.0, 150.0),
)
def test_every_eve_position_gets_a_valid_design(T, L, eve_x, eve_y):
    # the default geometry with Eve anywhere around the path, uncapped; a
    # non-optimal trajectory solve is still possible here (see the case below)
    cfg = baseline_scenario(T=float(T), L=L, w_e=(eve_x, eve_y, 0.0))
    for scheme in SchemeId:
        res = run_scheme(cfg, scheme)
        assert not res.failed, scheme
        assert model.validate(res.trajectory, res.power, cfg) == [], scheme
        assert math.isfinite(res.aesr), scheme
        surrogate = [r.surrogate for r in res.iterations]
        assert all(b - a >= -1e-9 for a, b in zip(surrogate, surrogate[1:])), scheme


@pytest.mark.xfail(strict=True, reason="FTP-Inf's long-packet run ends one trajectory "
                   "solve short of optimal here")
def test_ftp_inf_solves_are_optimal_with_eve_near_the_path():
    cfg = baseline_scenario(T=43.0, L=200.0, w_e=(157.0, -10.0, 0.0))
    assert run_scheme(cfg, SchemeId.FTP_INF).nonoptimal == 0
