#!/usr/bin/env python3
"""Planner benchmark: runs one workload through ``uavsec.cli.main`` and
prints its metrics.

    python3 benchmarks/run.py --workload paper-default --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory. Each run measures set-up time in fresh interpreters, then
runs whole passes of the workload (one pass is a fixed list of ``uavsec``
invocations) until the next pass would end after ``--seconds``, with at
least two passes so that their CSVs can be compared byte for byte. Every
design is checked by ``check.py``, which shares no code with the planner.

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
passes alternate between untraced and traced (``spans.py``) and the
per-layer metrics of the traced passes are printed, together with the
tracing overhead. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; progress and failed
checks go to standard error.
"""

from __future__ import annotations

import os

# One BLAS thread. With one thread per core, OpenBLAS threads spin on each
# other whenever any other process takes a core, and a 14 s pass then took
# up to 174 s on a 2-core machine. This must be set before numpy is first
# imported, here and in the set-up interpreters.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import io
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext, redirect_stdout
from pathlib import Path

import check
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SCHEMES = ("jtpo", "poft", "ftp-inf")
SETUP_REPEATS = 5
MIN_PASSES = 2
AESR_PRINT_TOL = 5e-7 + 1e-12   # `run` prints the AESR with 6 decimals
AESR_CSV_TOL = 1e-10            # sweep.csv holds it with full precision
SURROGATE_DROP_TOL = 1e-9
DOMINANCE_TOL = 1e-6

# Ground-node offsets for seeds other than 0, in metres per axis.
OFFSET_RANGE_M = 0.25

# Each workload: scenario keys written to the config file, the sweep values
# (None for single runs), the schemes run per value, and the alternation cap.
# Why each was chosen is in README.md.
WORKLOADS = {
    "paper-default": {"config": {"T": 60, "L": 400}, "sweep_L": None,
                      "schemes": SCHEMES, "max_iter": 5},
    "long-horizon": {"config": {"T": 200, "L": 400}, "sweep_L": None,
                     "schemes": ("jtpo",), "max_iter": 1},
    "short-sweep": {"config": {"T": 24}, "sweep_L": (200, 800),
                    "schemes": SCHEMES, "max_iter": 6},
}

SETUP_SNIPPET = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import uavsec.cli; uavsec.cli.parse_config(sys.argv[2])"
)


def ground_nodes(seed: int):
    """Bob and Eve positions: the paper's for seed 0, else shifted by a
    deterministic offset of at most OFFSET_RANGE_M per axis."""
    bob, eve = [0.0, 0.0, 0.0], [400.0, 0.0, 0.0]
    if seed != 0:
        rng = random.Random(seed)
        for node in (bob, eve):
            node[0] += rng.uniform(-OFFSET_RANGE_M, OFFSET_RANGE_M)
            node[1] += rng.uniform(-OFFSET_RANGE_M, OFFSET_RANGE_M)
    return bob, eve


def config_text(workload: dict, seed: int) -> str:
    bob, eve = ground_nodes(seed)
    lines = [f"{k} = {v}" for k, v in workload["config"].items()]
    lines.append("w_b = " + ",".join(repr(c) for c in bob))
    lines.append("w_e = " + ",".join(repr(c) for c in eve))
    return "\n".join(lines) + "\n"


def measure_setup(cfg_path: Path) -> float:
    """Median seconds for a fresh interpreter to import uavsec.cli and
    resolve the workload's scenario."""
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(SRC), str(cfg_path)],
                       check=True, stdin=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


class SchemeLog:
    """Times each ``driver.run_scheme`` call and keeps its result (None if
    it raised)."""

    def __init__(self, driver):
        self.driver = driver
        self.records = []   # (scheme, seconds, RunResult or None)

    def __enter__(self):
        self.original = self.driver.run_scheme

        def timed(cfg, scheme, *args, **kwargs):
            t0 = time.perf_counter()
            result = None
            try:
                result = self.original(cfg, scheme, *args, **kwargs)
                return result
            finally:
                self.records.append((scheme.value, time.perf_counter() - t0, result))

        self.driver.run_scheme = timed
        return self

    def __exit__(self, *exc):
        self.driver.run_scheme = self.original
        return False


def invocations(workload: dict, cfg_path: Path, out: Path):
    """(label, argv) for each uavsec invocation of one pass."""
    cap = ["--max-iter", str(workload["max_iter"])]
    if workload["sweep_L"] is None:
        return [(s, ["run", "--config", str(cfg_path), "--scheme", s,
                     "--out", str(out / s)] + cap) for s in workload["schemes"]]
    values = ",".join(str(v) for v in workload["sweep_L"])
    return [("sweep", ["sweep", "--config", str(cfg_path), "--param", "L",
                       "--values", values, "--out", str(out / "sweep")] + cap)]


def run_pass(cli, driver, workload, cfg_path, out, tracer=None):
    """Run one pass; returns (wall seconds, invocation records, scheme log)."""
    records = []
    with SchemeLog(driver) as log:
        t0 = time.perf_counter()
        for label, argv in invocations(workload, cfg_path, out):
            buf = io.StringIO()
            with tracer or nullcontext(), redirect_stdout(buf):
                code = cli.main(argv)
            records.append((label, code, buf.getvalue()))
        wall = time.perf_counter() - t0
    return wall, records, log.records


class Checks:
    """Collects failed output checks."""

    def __init__(self):
        self.failures = []

    def expect(self, ok: bool, message: str):
        if not ok:
            self.failures.append(message)


def check_design(checks, where, sc, points, powers, reported, tol, surrogates, fracs):
    bad = check.violations(sc, points, powers)
    checks.expect(not bad, f"{where}: constraint violations {bad[:3]}")
    recomputed = check.aesr(sc, points, powers)
    checks.expect(abs(recomputed - reported) <= tol,
                  f"{where}: recomputed AESR {recomputed!r} != reported {reported!r}")
    drops = [b - a for a, b in zip(surrogates, surrogates[1:]) if b < a - SURROGATE_DROP_TOL]
    checks.expect(not drops, f"{where}: surrogate falls by {drops[:3]}")
    if len(fracs) < sc["max_iter"]:
        checks.expect(fracs[-1] < sc["tau"],
                      f"{where}: stopped before the cap without frac_increase < tau")


def check_pass(checks, name, workload, out, records, log):
    """Check every design of a pass; returns the reported AESRs by
    (scheme, L) and the number of scheme runs that failed."""
    failed = 0
    aesr = {}   # (scheme, L) -> reported AESR
    if workload["sweep_L"] is None:
        for label, code, stdout in records:
            if code != 0:
                failed += 1
                continue
            sc = check.read_scenario(out / label / "scenario.txt")
            points, powers = check.read_design(out / label)
            rows = check.read_iterations(out / label)
            reported = float(stdout.split()[-1])
            check_design(checks, f"{name}/{label}", sc, points, powers, reported,
                         AESR_PRINT_TOL, [r[1] for r in rows], [r[3] for r in rows[1:]])
            aesr[(label, sc["L"])] = reported
            if name == "long-horizon":
                checks.expect(reported > rows[0][2],
                              f"{name}: AESR {reported} does not exceed the start's {rows[0][2]}")
    else:
        sc = check.read_scenario(out / "sweep" / "scenario.txt")
        with open(out / "sweep" / "sweep.csv", encoding="utf-8") as fh:
            rows = [line.rstrip("\n").split(",") for line in fh][1:]
        expected = [(s, float(v)) for v in workload["sweep_L"] for s in workload["schemes"]]
        checks.expect([(r[0], float(r[2])) for r in rows] == expected,
                      f"{name}: sweep rows {[(r[0], r[2]) for r in rows]}")
        checks.expect(len(log) == len(rows), f"{name}: {len(log)} runs for {len(rows)} rows")
        for r, (logged_scheme, _, result) in zip(rows, log):
            scheme, value, reported, error = r[0], float(r[2]), float(r[3]), r[4]
            checks.expect(logged_scheme == scheme, f"{name}: run order {logged_scheme} != {scheme}")
            if error:
                failed += 1
                continue
            sc_v = dict(sc, L=value)
            its = result.iterations
            check_design(checks, f"{name}/{scheme}/L={value:g}", sc_v,
                         result.trajectory.points.tolist(), result.power.p.tolist(), reported,
                         AESR_CSV_TOL, [r.surrogate for r in its], [r.frac_increase for r in its[1:]])
            aesr[(scheme, value)] = reported
    for (scheme, value), a in aesr.items():
        if scheme == "jtpo":
            continue
        jtpo = aesr.get(("jtpo", value))
        checks.expect(jtpo is None or jtpo >= a - DOMINANCE_TOL,
                      f"{name}: JTPO AESR {jtpo} below {scheme}'s {a} at L={value:g}")
    jtpo_by_l = [a for (s, _), a in sorted(aesr.items(), key=lambda kv: kv[0][1]) if s == "jtpo"]
    checks.expect(all(b >= a for a, b in zip(jtpo_by_l, jtpo_by_l[1:])),
                  f"{name}: JTPO AESR decreases with L: {jtpo_by_l}")
    return aesr, failed


def same_bytes(checks, first: Path, other: Path):
    names = sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
    others = sorted(p.relative_to(other) for p in other.rglob("*") if p.is_file())
    checks.expect(names == others, f"{other}: files differ from the first pass")
    for rel in names:
        if (other / rel).is_file():
            checks.expect((first / rel).read_bytes() == (other / rel).read_bytes(),
                          f"{other / rel}: not byte-identical to the first pass")


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "uavsec" / "cli.py").is_file():
        print(f"error: no planner sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work_dir = OUT / args.workload
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    cfg_path = work_dir / "scenario.cfg"
    cfg_path.write_text(config_text(workload, args.seed), encoding="utf-8")

    setup_s = measure_setup(cfg_path)
    sys.path.insert(0, str(SRC))
    from uavsec import cli, driver
    if Path(cli.__file__).resolve().parent != SRC / "uavsec":
        print(f"error: uavsec imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    checks = Checks()
    tracer_passes, plain_passes = [], []   # (wall, jtpo seconds, layer metrics)
    attempted = failed = 0
    jtpo_aesr = None
    t_start = time.perf_counter()
    longest = 0.0
    while True:
        k = len(tracer_passes) + len(plain_passes)
        traced = args.trace == 1 and k % 2 == 1
        out = work_dir / f"pass-{k + 1}"
        tracer = Tracer() if traced else None
        wall, records, log = run_pass(cli, driver, workload, cfg_path, out, tracer)
        longest = max(longest, wall)
        jtpo_s = sum(sec for scheme, sec, _ in log if scheme == "jtpo")
        attempted += len(workload["schemes"]) * len(workload["sweep_L"] or (None,))
        aesr, n_failed = check_pass(checks, args.workload, workload, out, records, log)
        failed += n_failed
        if jtpo_aesr is None:
            for (scheme, value), a in aesr.items():
                print(f"aesr {scheme} L={value:g}: {a:.6f}", file=sys.stderr)
            jtpo = [a for (scheme, _), a in aesr.items() if scheme == "jtpo"]
            jtpo_aesr = statistics.fmean(jtpo) if jtpo else float("nan")
        if k > 0:
            same_bytes(checks, work_dir / "pass-1", out)
            shutil.rmtree(out)
        (tracer_passes if traced else plain_passes).append(
            (wall, jtpo_s, tracer.metrics() if traced else None))
        print(f"pass {k + 1}{' traced' if traced else ''}: {wall:.3f} s", file=sys.stderr)
        elapsed = time.perf_counter() - t_start
        if k + 1 >= MIN_PASSES and elapsed + longest > args.seconds:
            break

    for message in checks.failures:
        print(f"check failed: {message}", file=sys.stderr)
    if args.trace == 0:
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "wall_s": metric(statistics.median(p[0] for p in plain_passes), "s"),
            "jtpo_s": metric(statistics.median(p[1] for p in plain_passes), "s"),
            "aesr_bpcu": metric(jtpo_aesr, "bpcu"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        metrics = {}
        for name, (_, unit) in tracer_passes[0][2].items():
            value = statistics.median(p[2][name][0] for p in tracer_passes)
            metrics[name] = metric(value, unit)
        overhead = (statistics.median(p[0] for p in tracer_passes)
                    - statistics.median(p[0] for p in plain_passes))
        metrics["trace.overhead_s"] = metric(overhead, "s")
    print(json.dumps({"correct": not checks.failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not checks.failures else 1


if __name__ == "__main__":
    raise SystemExit(main())
