#!/usr/bin/env python3
"""Cost of one trajectory-solver iteration against the slot count N.

For each N in 24, 60, 200 and 2000, a JTPO run at T = N (one-second slots,
capped at two alternations) records the trajectory program of its second
alternation. For that program the script prints the milliseconds per
banded Cholesky factorization (the median time of a ``solve`` over the
factorizations it makes; there is one per solver iteration) and the
C-function calls per factorization (``sys.setprofile`` c_call events inside
``solve``; NumPy's ufunc calls and operators are not among them).

    python tools/solver_step.py                     # this checkout's src/
    python tools/solver_step.py OLD/src NEW/src     # two trees, interleaved

Each source tree is imported as its own copy of ``uavsec``, and the trees'
solves alternate in one process, so a drift in machine speed hits all of
them alike, and every tree calls the same numpy's LAPACK. With two trees, the last column is the second tree's time per
factorization over the first's.
"""

from __future__ import annotations

# first: it sets one BLAS thread, as the benchmark harness runs, before numpy loads
from grid_digest import load, recording

import argparse
import statistics
import sys
import time
from pathlib import Path

SLOTS = (24, 60, 200, 2000)


def recorded_program(pkg: dict, n: int):
    """The trajectory program of the second alternation of JTPO at T = n."""
    driver, model, built = pkg["driver"], pkg["model"], []
    with recording(driver, "build_trajectory_subproblem", built):
        driver.run_scheme(model.baseline_scenario(T=float(n), max_iter=2), driver.SchemeId.JTPO)
    return built[-1]


def counts(pkg: dict, prog) -> tuple:
    """(factorizations, C calls) of one solve of prog."""
    solver, factorizations, calls = pkg["solver"], [], []

    def profile(frame, event, arg):
        if event == "c_call":
            calls.append(1)

    with recording(solver, "_PBTRF", factorizations):
        sys.setprofile(profile)
        try:
            solver.solve(prog)
        finally:
            sys.setprofile(None)
    return len(factorizations), len(calls)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src", nargs="*", type=Path,
                    default=[Path(__file__).resolve().parent.parent / "src"],
                    help="source trees holding uavsec (default: this checkout's src/)")
    ap.add_argument("--repeats", type=int, default=30, help="timed solves per tree and N")
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    pkgs = [load(src) for src in args.src]

    print(f"{'N':>5}  {'tree':<40} {'ms/factorization':>16} {'C calls/fact.':>13} "
          f"{'fact./solve':>11}" + (f" {'ratio':>6}" if len(pkgs) == 2 else ""))
    for n in SLOTS:
        progs = [recorded_program(pkg, n) for pkg in pkgs]
        seen = [counts(pkg, prog) for pkg, prog in zip(pkgs, progs)]
        times = [[] for _ in pkgs]
        for r in range(args.repeats):
            order = range(len(pkgs)) if r % 2 == 0 else reversed(range(len(pkgs)))
            for k in order:
                t0 = time.perf_counter()
                pkgs[k]["solver"].solve(progs[k])
                times[k].append(time.perf_counter() - t0)
        ms = [1e3 * statistics.median(t) / f for t, (f, _) in zip(times, seen)]
        for k, src in enumerate(args.src):
            f, c = seen[k]
            ratio = f" {ms[k] / ms[0]:6.3f}" if len(pkgs) == 2 and k == 1 else ""
            print(f"{n:>5}  {str(src)[-40:]:<40} {ms[k]:>16.4f} {c / f:>13.2f} {f:>11}{ratio}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
