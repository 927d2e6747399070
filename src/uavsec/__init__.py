"""Joint UAV trajectory and transmit-power planning for secrecy under
short-packet coding: link model, convex surrogates, a self-contained
interior-point solver, the alternating optimizer, and a CSV-emitting CLI."""

from .model import (
    IterationRecord,
    PowerProfile,
    RunResult,
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

__all__ = [
    "IterationRecord",
    "PowerProfile",
    "RunResult",
    "ScenarioConfig",
    "Trajectory",
    "aesr",
    "baseline_scenario",
    "db_to_linear",
    "dbm_to_watt",
    "dispersion",
    "linear_to_db",
    "q_inv",
    "secrecy_rate_lb",
    "snr",
    "validate",
    "watt_to_dbm",
]

__version__ = "0.1.0"
