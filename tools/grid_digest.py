#!/usr/bin/env python3
"""One digest of everything the planner outputs on the acceptance grid.

For each source tree the script runs, in process:
  - the acceptance grid, ``driver.run_scheme`` for T in 42, 48, 54, 60,
    L in 200, 400, 800 and every scheme (36 runs), hashing each run's
    trajectory, power, AESR, iteration records, ``failed``, ``nonoptimal``
    and ``newton_steps``;
  - ``uavsec run`` for every scheme on the default scenario, hashing the
    files it writes;
  - ``uavsec sweep --param L --values 100,200,inf`` on the default
    scenario, hashing the files it writes.

It prints one line per tree: the sha256 of the three parts, then the grid's
trajectory Newton steps, banded Cholesky factorizations, alternations and
non-optimal solves, the default JTPO run's solver point evaluations and
Newton steps, and the tree's line count (every ``.py`` file under it).

    python tools/grid_digest.py                     # this checkout's src/
    python tools/grid_digest.py OLD/src NEW/src     # two trees, compared

With two trees it also prints the line count's change, in total and per
file that changed, says whether the outputs match, names the parts that
differ, and exits 1 if any does. The counts patch ``solver._PBTRF`` and
``solver._Work.evaluate``, so both trees must have them.
"""

from __future__ import annotations

import os

# one BLAS thread, as the benchmark harness runs; set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import importlib
import io
import sys
import tempfile
from pathlib import Path

T_GRID = (42.0, 48.0, 54.0, 60.0)
L_GRID = (200.0, 400.0, 800.0)
SWEEP_VALUES = "100,200,inf"


def load(src: Path) -> dict:
    """A fresh copy of the ``uavsec`` modules from the source tree src."""
    sys.path.insert(0, str(src))
    try:
        for name in [n for n in sys.modules if n == "uavsec" or n.startswith("uavsec.")]:
            del sys.modules[name]
        return {name: importlib.import_module(f"uavsec.{name}")
                for name in ("cli", "driver", "model", "solver")}
    finally:
        sys.path.remove(str(src))


@contextlib.contextmanager
def counting(owner, attr: str, calls: list):
    """Append 1 to calls on every call of ``owner.attr`` while inside."""
    original = getattr(owner, attr)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    setattr(owner, attr, counted)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def run_bytes(result) -> bytes:
    """A run's outputs as bytes: design arrays as stored, numbers by repr."""
    fields = (result.scheme, repr(result.aesr), repr(tuple(result.iterations)),
              result.failed, result.nonoptimal, result.newton_steps)
    return (result.trajectory.points.tobytes() + result.power.p.tobytes()
            + repr(fields).encode())


def grid(pkg: dict) -> tuple:
    """(digest, counts) of the 36 acceptance-grid runs."""
    driver, model, solver = pkg["driver"], pkg["model"], pkg["solver"]
    h, factorizations, runs = hashlib.sha256(), [], []
    with counting(solver, "_PBTRF", factorizations):
        for T in T_GRID:
            for L in L_GRID:
                for scheme in driver.SchemeId:
                    runs.append(driver.run_scheme(model.baseline_scenario(T=T, L=L), scheme))
                    h.update(run_bytes(runs[-1]))
    counts = {
        "steps": sum(r.newton_steps for r in runs),
        "factorizations": len(factorizations),
        "alternations": sum(len(r.iterations) - 1 for r in runs),
        "nonoptimal": sum(r.nonoptimal for r in runs),
    }
    return h.hexdigest(), counts


def cli_bytes(cli, argv: list, config: Path, out: Path) -> bytes:
    """``uavsec`` run with argv, ``--config config`` and ``--out out``: argv,
    its exit code, its standard output and the files it wrote, as bytes."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main([*argv, "--config", str(config), "--out", str(out)])
    files = b"".join(path.name.encode() + b"\0" + path.read_bytes()
                     for path in sorted(out.iterdir()))
    return repr((argv, code, stdout.getvalue())).encode() + files


def cli_runs(pkg: dict) -> tuple:
    """(run digest, sweep digest, counts) of the CLI on the default scenario;
    the counts are the JTPO run's point evaluations and Newton steps."""
    cli, driver, solver = pkg["cli"], pkg["driver"], pkg["solver"]
    run_digest, evaluations, results = hashlib.sha256(), [], []
    run_scheme = driver.run_scheme

    def recording_run(*args, **kwargs):
        results.append(run_scheme(*args, **kwargs))
        return results[-1]

    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "default.cfg"
        config.write_text("", encoding="utf-8")
        for scheme in driver.SchemeId:
            argv, out = ["run", "--scheme", scheme.value], Path(tmp) / scheme.value
            if scheme is not driver.SchemeId.JTPO:
                run_digest.update(cli_bytes(cli, argv, config, out))
                continue
            driver.run_scheme = recording_run
            try:
                with counting(solver._Work, "evaluate", evaluations):
                    run_digest.update(cli_bytes(cli, argv, config, out))
            finally:
                driver.run_scheme = run_scheme
        sweep = cli_bytes(cli, ["sweep", "--param", "L", "--values", SWEEP_VALUES], config,
                          Path(tmp) / "sweep")
    counts = {"default_evaluations": len(evaluations), "default_steps": results[0].newton_steps}
    return run_digest.hexdigest(), hashlib.sha256(sweep).hexdigest(), counts


def line_counts(src: Path) -> dict:
    """Lines of every ``.py`` file under the tree src, by path relative to it."""
    return {str(path.relative_to(src)): len(path.read_bytes().splitlines())
            for path in sorted(src.rglob("*.py"))}


def line_delta(old: dict, new: dict) -> str:
    """The change from the line counts old to new: the total, then each file
    whose count changed."""
    files = [f"{name} {old.get(name, 0)} -> {new.get(name, 0)}"
             for name in sorted(old.keys() | new.keys()) if old.get(name) != new.get(name)]
    total = sum(new.values()) - sum(old.values())
    return (f"lines: {sum(old.values())} -> {sum(new.values())} ({total:+d})"
            + "".join(f"\n  {file}" for file in files))


def digest(src: Path) -> tuple:
    """(overall digest, part digests, counts) of the source tree src."""
    pkg = load(src)
    grid_digest, counts = grid(pkg)
    run_digest, sweep_digest, cli_counts = cli_runs(pkg)
    parts = {"grid": grid_digest, "run": run_digest, "sweep": sweep_digest}
    overall = hashlib.sha256("".join(parts.values()).encode()).hexdigest()
    return overall, parts, {**counts, **cli_counts}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src", nargs="*", type=Path,
                    default=[Path(__file__).resolve().parent.parent / "src"],
                    help="one or two source trees holding uavsec "
                         "(default: this checkout's src/)")
    args = ap.parse_args(argv)
    if len(args.src) > 2:
        ap.error("give at most two source trees")
    seen, lines = [], []
    for src in args.src:
        overall, parts, counts = digest(src)
        seen.append(parts)
        lines.append(line_counts(src))
        counts["lines"] = sum(lines[-1].values())
        print(f"{overall}  {src}  " + " ".join(f"{k}={v}" for k, v in counts.items()))
    if len(seen) < 2:
        return 0
    print(line_delta(*lines))
    differ = [name for name in seen[0] if seen[0][name] != seen[1][name]]
    if differ:
        print("differ: " + ", ".join(differ))
        return 1
    print("identical")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
