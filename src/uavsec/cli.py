"""Command-line interface: config ingestion, scheme runs, sweeps, and CSV output.

Config files are flat ``key = value`` text. Powers accept a ``dbm`` suffix
(otherwise watts), the reference SNR accepts a ``db`` suffix (otherwise
linear), positions are comma-separated x,y,z triples in meters. Missing keys
fall back to the baseline scenario defaults. Every run writes a scenario
echo file with the resolved parameters; feeding it back reproduces the
identical configuration.

Verbs:
  run      --config FILE --scheme {jtpo|poft|ftp-inf} --out DIR
  sweep    --config FILE --param {T|L} --values V1,V2,... --out DIR
  validate --config FILE --trajectory CSV --power CSV

Numeric CSV fields are written with full round-trip precision so identical
configs produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import os
import sys
from pathlib import Path

import numpy as np

from . import driver, model
from .model import PowerProfile, ScenarioConfig, Trajectory

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_IO = 2
EXIT_USAGE = 64

ECHO_FILENAME = "scenario.txt"


def _parse_in(suffix: str, convert):
    """The parser of a value in canonical units, or in the unit that a
    case-blind ``suffix`` names, which convert takes to canonical units."""
    def parse(raw: str) -> float:
        text = raw.strip().lower()
        if text.endswith(suffix):
            return convert(float(text[: -len(suffix)].strip()))
        return float(text)
    return parse


_parse_power = _parse_in("dbm", model.dbm_to_watt)     # watts, or dBm
_parse_ratio = _parse_in("db", model.db_to_linear)     # a linear ratio, or dB


def _parse_vec3(raw: str):
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != 3:
        raise ValueError(f"expected three comma-separated values, got {raw!r}")
    return tuple(float(p) for p in parts)


# every config key, in the echo's order, with the parser of its value
_KEYS = {
    "T": float, "delta_t": float, "H": float, "V_max": float,
    "P_max": _parse_power, "P_bar": _parse_power, "xi0": _parse_ratio,
    "L": float, "eps_b": float, "eps_e": float, "tau": float, "max_iter": int,
    "w_b": _parse_vec3, "w_e": _parse_vec3, "q_I": _parse_vec3, "q_F": _parse_vec3,
}


def parse_config(path, max_iter=None) -> ScenarioConfig:
    """Read a flat key-value config file; missing keys use baseline defaults,
    and max_iter, if given, replaces the file's valid ``max_iter``.

    Raises ValueError naming the offending line and key, or the violated
    scenario invariant.
    """
    text = Path(path).read_text(encoding="utf-8")
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _KEYS:
            raise ValueError(f"line {lineno}: unknown configuration key {key!r}")
        if key in values:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = _KEYS[key](raw)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {key}: {exc}") from None
    if max_iter is not None and values.get("max_iter", 1) >= 1:
        values["max_iter"] = max_iter
    return model.baseline_scenario(**values)


def _fmt(x: float) -> str:
    return repr(float(x))


def scenario_echo_text(cfg: ScenarioConfig) -> str:
    """Resolved parameters in the config format (canonical units)."""
    lines = ["# resolved scenario parameters (watts, meters, seconds, linear ratios)"]
    for key, parse in _KEYS.items():
        value = getattr(cfg, key)
        if parse is _parse_vec3:
            value = ",".join(map(_fmt, value))
        elif parse is not int:
            value = _fmt(value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def _csv(header: str, *columns) -> str:
    """The header line, then one line per row of the columns, lists of ints,
    strings or Python floats, each field by ``str`` (a float's is its repr)."""
    rows = map(",".join, zip(*(map(str, column) for column in columns)))
    return "\n".join((header, *rows, ""))


def _write_outputs(out_dir, files: dict) -> int:
    """Write ``files`` (name -> text) into out_dir, made if missing, each
    as UTF-8 through a ``.tmp`` sibling renamed into place (by ``os.write``:
    a file object costs more than the write). On an OSError, remove every
    file written so far and the failing file's ``.tmp``, and report the
    error; returns EXIT_OK or EXIT_IO."""
    out = Path(out_dir)
    written = []
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            tmp = out / (name + ".tmp")
            written.append(tmp)
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
            try:
                data = memoryview(text.encode())
                while data:
                    data = data[os.write(fd, data):]
            finally:
                os.close(fd)
            os.replace(tmp, out / name)
            written[-1] = out / name
    except OSError as exc:
        for path in written:
            with contextlib.suppress(OSError):
                path.unlink(missing_ok=True)
        print(f"error: output write failed, no output kept: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def cmd_run(cfg: ScenarioConfig, scheme_name, out_dir) -> int:
    try:
        result = driver.run_scheme(cfg, driver.SchemeId(scheme_name))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    if result.failed:
        print("error: subproblem solver failed; no output written", file=sys.stderr)
        return EXIT_FAILURE
    p = result.power.p.tolist()
    slots = range(1, len(p) + 1)
    rc = _write_outputs(out_dir, {
        ECHO_FILENAME: scenario_echo_text(cfg),
        "trajectory.csv": _csv("n,x_m,y_m,speed_mps", slots,
                               *result.trajectory.points.T.tolist(),
                               result.trajectory.speeds(cfg.delta_t).tolist()),
        "power.csv": _csv("n,p_watt,p_dbm", slots, p, map(model.watt_to_dbm, p)),
        "iterations.csv": _csv("iter,surrogate_bpcu,aesr_bpcu,frac_increase",
                               *zip(*result.iterations)),
    })
    if rc == EXIT_OK:
        print(f"{result.aesr:.6f}")
    return rc


def cmd_sweep(cfg: ScenarioConfig, parameter, values, out_dir) -> int:
    entries = driver.sweep(cfg, parameter, values)
    rows = [(e.scheme.value, e.parameter, e.value, e.aesr,
             "" if e.error is None else e.error.replace("\n", " ").replace(",", ";"))
            for e in entries]
    rc = _write_outputs(out_dir, {
        ECHO_FILENAME: scenario_echo_text(cfg),
        "sweep.csv": _csv("scheme,param_name,param_value,aesr_bpcu,error", *zip(*rows)),
    })
    if rc != EXIT_OK:
        return rc
    for e in entries:
        status = "ok" if e.error is None else f"error: {e.error}"
        print(f"{e.scheme.value} {e.parameter}={e.value:g} aesr={e.aesr:.6f} {status}")
    return EXIT_OK if any(e.error is None for e in entries) else EXIT_FAILURE


def _read_csv_column(path, column) -> np.ndarray:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or column not in reader.fieldnames:
            raise ValueError(f"{path}: missing required column {column!r}")
        return np.array([float(row[column]) for row in reader])


def _read_design(trajectory_csv, power_csv) -> tuple:
    x = _read_csv_column(trajectory_csv, "x_m")
    y = _read_csv_column(trajectory_csv, "y_m")
    p = _read_csv_column(power_csv, "p_watt")
    return Trajectory(points=np.column_stack([x, y])), PowerProfile(p=p)


def cmd_validate(cfg: ScenarioConfig, traj: Trajectory, pw: PowerProfile) -> int:
    violations = model.validate(traj, pw, cfg)
    for v in violations:
        print(v)
    if violations:
        print(f"{len(violations)} violation(s) found")
        return EXIT_FAILURE
    print("ok: all mobility and power constraints hold")
    return EXIT_OK


def _parse_values(raw: str):
    items = [s for s in (part.strip() for part in raw.split(",")) if s]
    return [float(s) for s in items]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process (``parse_args`` keeps no state)."""
    parser = argparse.ArgumentParser(
        prog="uavsec",
        description="UAV trajectory/power planning for secrecy under short-packet coding",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    run_p = sub.add_parser("run", help="run one scheme and write CSV outputs")
    run_p.add_argument("--config", required=True, help="flat key=value scenario file")
    run_p.add_argument("--scheme", required=True, choices=[s.value for s in driver.SchemeId])
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.add_argument("--max-iter", type=int, default=None)

    sweep_p = sub.add_parser("sweep", help="run all schemes over a parameter grid")
    sweep_p.add_argument("--config", required=True)
    sweep_p.add_argument("--param", required=True, choices=["T", "L"])
    sweep_p.add_argument("--values", required=True, help="comma-separated values")
    sweep_p.add_argument("--out", required=True)
    sweep_p.add_argument("--max-iter", type=int, default=None)

    val_p = sub.add_parser("validate", help="check a trajectory/power CSV pair")
    val_p.add_argument("--config", required=True)
    val_p.add_argument("--trajectory", required=True, help="trajectory.csv path")
    val_p.add_argument("--power", required=True, help="power.csv path")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    max_iter = getattr(args, "max_iter", None)
    if max_iter is not None and max_iter < 1:
        print(f"error: --max-iter must be >= 1, got {max_iter}", file=sys.stderr)
        return EXIT_USAGE
    if args.verb == "sweep":
        try:
            values = _parse_values(args.values)
        except ValueError:
            print(f"error: cannot parse --values {args.values!r}", file=sys.stderr)
            return EXIT_USAGE
        if not values:
            print("error: sweep needs a non-empty --values list", file=sys.stderr)
            return EXIT_USAGE
    # every input is read here, so any unreadable or invalid one exits EXIT_IO
    try:
        cfg = parse_config(args.config, max_iter)
        if args.verb == "validate":
            design = _read_design(args.trajectory, args.power)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    if args.verb == "run":
        return cmd_run(cfg, args.scheme, args.out)
    if args.verb == "sweep":
        return cmd_sweep(cfg, args.param, values, args.out)
    return cmd_validate(cfg, *design)


if __name__ == "__main__":
    raise SystemExit(main())
