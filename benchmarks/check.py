"""Independent design checker for the benchmark.

Recomputes a design's AESR and checks its mobility and power constraints
from the planner's CSV outputs, without calling anything in ``uavsec``:
the formula is written out again here so that a fault in ``model.aesr`` or
``model.validate`` cannot hide itself.

Per slot n, with the UAV at (x_n, y_n, H) and a ground node w at altitude 0,

    gamma   = xi0 * p_n / (|(x_n, y_n) - w|^2 + H^2)
    V       = 1 - (1 + gamma)^-2                       (channel dispersion)
    rate_n  = log2(1 + gamma_b) - log2(1 + gamma_e)
              - sqrt(V_b / L) * Qinv(eps_b) / ln 2
              - sqrt(V_e / L) * Qinv(eps_e) / ln 2     (penalties vanish if L = inf)
    AESR    = mean_n max(rate_n, 0) * (1 - eps_b)

with Qinv(eps) = NormalDist().inv_cdf(1 - eps).
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from statistics import NormalDist

# Slack on the geometric checks (metres) and on the average-power check (watts).
POSITION_SLACK_M = 1e-9
AVG_POWER_SLACK_W = 1e-12

_VECTOR_KEYS = ("w_b", "w_e", "q_I", "q_F")


def read_scenario(path) -> dict:
    """Parse a resolved ``scenario.txt`` echo: ``key = value`` lines in watts,
    metres, seconds and linear ratios; positions are ``x,y,z`` triples."""
    out = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key in _VECTOR_KEYS:
            out[key] = tuple(float(v) for v in raw.split(","))
        elif key == "max_iter":
            out[key] = int(raw)
        else:
            out[key] = float(raw)
    return out


def _read_columns(path, names):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return [[float(row[name]) for row in rows] for name in names]


def read_design(out_dir):
    """(points, powers) from ``trajectory.csv`` and ``power.csv`` in out_dir."""
    out_dir = Path(out_dir)
    xs, ys = _read_columns(out_dir / "trajectory.csv", ("x_m", "y_m"))
    (ps,) = _read_columns(out_dir / "power.csv", ("p_watt",))
    return list(zip(xs, ys)), ps


def read_iterations(out_dir):
    """Rows of ``iterations.csv`` as (iter, surrogate, aesr, frac_increase)."""
    with open(Path(out_dir) / "iterations.csv", newline="", encoding="utf-8") as fh:
        return [
            (int(r["iter"]), float(r["surrogate_bpcu"]), float(r["aesr_bpcu"]),
             float(r["frac_increase"]))
            for r in csv.DictReader(fh)
        ]


def _snr(sc, x, y, p, w):
    d2 = (x - w[0]) ** 2 + (y - w[1]) ** 2 + sc["H"] ** 2
    return sc["xi0"] * p / d2


def slot_rate(sc: dict, x: float, y: float, p: float) -> float:
    """Secrecy-rate lower bound of one slot, before the clamp at zero."""
    gb = _snr(sc, x, y, p, sc["w_b"])
    ge = _snr(sc, x, y, p, sc["w_e"])
    rate = math.log2(1.0 + gb) - math.log2(1.0 + ge)
    if math.isfinite(sc["L"]):
        qb = NormalDist().inv_cdf(1.0 - sc["eps_b"])
        qe = NormalDist().inv_cdf(1.0 - sc["eps_e"])
        vb = 1.0 - (1.0 + gb) ** -2
        ve = 1.0 - (1.0 + ge) ** -2
        rate -= (math.sqrt(vb / sc["L"]) * qb + math.sqrt(ve / sc["L"]) * qe) / math.log(2.0)
    return rate


def aesr(sc: dict, points, powers) -> float:
    rates = [max(slot_rate(sc, x, y, p), 0.0) for (x, y), p in zip(points, powers)]
    return sum(rates) / len(rates) * (1.0 - sc["eps_b"])


def violations(sc: dict, points, powers) -> list:
    """Constraint violations of a design, one string each; empty if valid."""
    n_slots = round(sc["T"] / sc["delta_t"])
    if len(points) != n_slots or len(powers) != n_slots:
        return [f"length: {len(points)} positions and {len(powers)} powers, "
                f"scenario has {n_slots} slots"]
    out = []
    for label, pos, want in (("start", points[0], sc["q_I"]), ("end", points[-1], sc["q_F"])):
        if math.dist(pos, want[:2]) > POSITION_SLACK_M:
            out.append(f"endpoint: {label} position {pos} is not {want[:2]}")
    limit = sc["V_max"] * sc["delta_t"]
    for n in range(n_slots - 1):
        step = math.dist(points[n], points[n + 1])
        if step > limit + POSITION_SLACK_M:
            out.append(f"speed: step {n + 1}->{n + 2} is {step:.9f} m, limit {limit} m")
    for n, p in enumerate(powers):
        if not 0.0 <= p <= sc["P_max"]:
            out.append(f"power: slot {n + 1} has {p} W outside [0, {sc['P_max']}]")
    mean_p = sum(powers) / n_slots
    if mean_p > sc["P_bar"] + AVG_POWER_SLACK_W:
        out.append(f"average power: {mean_p} W exceeds {sc['P_bar']} W")
    return out
