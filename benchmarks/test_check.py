"""Tests of the benchmark's independent design checker.

Run with ``python3 -m pytest benchmarks``.
"""

import math

import pytest

import check


def _scenario(**over):
    sc = {
        "T": 1.0, "delta_t": 1.0, "H": 100.0, "V_max": 10.0,
        "P_max": 0.1, "P_bar": 0.05, "xi0": 1e6, "L": 400.0,
        "eps_b": 0.01, "eps_e": 0.01, "tau": 1e-6, "max_iter": 100,
        "w_b": (0.0, 0.0, 0.0), "w_e": (100.0, 100.0, 0.0),
        "q_I": (0.0, 0.0, 100.0), "q_F": (0.0, 0.0, 100.0),
    }
    sc.update(over)
    return sc


def test_hand_worked_slot():
    # UAV straight above Bob: d_b^2 = H^2 = 1e4 and d_e^2 = 1e4 + 2e4 = 3e4.
    # With xi0 * p = 1e6 * 0.03 = 3e4: gamma_b = 3 and gamma_e = 1, so
    # log2(4) - log2(2) = 1, V_b = 1 - 1/16 = 15/16 and V_e = 1 - 1/4 = 3/4.
    # Qinv(0.01) = 2.3263479 and sqrt(1/L) = 1/20 give the penalties
    # sqrt(15/16) / 20 * 2.3263479 / ln 2 = 0.1624818 and
    # sqrt(3/4) / 20 * 2.3263479 / ln 2 = 0.1453283,
    # so rate = 0.6921900 and AESR = 0.99 * rate = 0.6852681.
    sc = _scenario()
    assert check.slot_rate(sc, 0.0, 0.0, 0.03) == pytest.approx(0.6921900, abs=1e-7)
    assert check.aesr(sc, [(0.0, 0.0)], [0.03]) == pytest.approx(0.6852681, abs=1e-7)
    assert check.violations(sc, [(0.0, 0.0)], [0.03]) == []


def test_long_packet_limit_drops_the_penalties():
    sc = _scenario(L=math.inf)
    assert check.slot_rate(sc, 0.0, 0.0, 0.03) == pytest.approx(1.0, abs=1e-12)


def test_negative_slot_rate_is_clamped():
    sc = _scenario(w_b=(100.0, 100.0, 0.0), w_e=(0.0, 0.0, 0.0))
    assert check.slot_rate(sc, 0.0, 0.0, 0.03) < 0.0
    assert check.aesr(sc, [(0.0, 0.0)], [0.03]) == 0.0


def test_speed_limit_violation_is_reported():
    # V_max * delta_t = 10 m per step; the first step below covers 15 m.
    sc = _scenario(T=3.0, q_F=(20.0, 0.0, 100.0))
    powers = [0.05, 0.05, 0.05]
    assert check.violations(sc, [(0.0, 0.0), (10.0, 0.0), (20.0, 0.0)], powers) == []
    found = check.violations(sc, [(0.0, 0.0), (15.0, 0.0), (20.0, 0.0)], powers)
    assert len(found) == 1
    assert found[0].startswith("speed: step 1->2")


def test_endpoints_are_checked():
    sc = _scenario(T=3.0, q_F=(20.0, 0.0, 100.0))
    found = check.violations(sc, [(0.0, 0.0), (10.0, 0.0), (19.0, 0.0)], [0.05] * 3)
    assert found == ["endpoint: end position (19.0, 0.0) is not (20.0, 0.0)"]


def test_power_caps_are_checked():
    sc = _scenario(T=2.0)
    points = [(0.0, 0.0), (0.0, 0.0)]
    assert check.violations(sc, points, [0.1, 0.0]) == []
    assert check.violations(sc, points, [0.1, 0.01])[0].startswith("average power")
    assert check.violations(sc, points, [0.11, -0.01])[0].startswith("power: slot 1")
    assert check.violations(sc, points, [0.05])[0].startswith("length")
