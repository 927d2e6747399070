"""Property test over the scenario space: every scenario ends in a named
configuration error or in a valid, certified design from every scheme."""

import math

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
