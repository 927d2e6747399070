#!/usr/bin/env python3
"""Wall time of the benchmark's passes for two source trees, interleaved.

Each tree is imported as its own copy of ``uavsec`` (``grid_digest.load``),
and one process runs the benchmark harness's passes of one workload
(``benchmarks/run.py``'s ``WORKLOADS``, ``config_text`` and ``run_pass``, at
seed 0) through each tree's ``cli.main``, in pairs whose order alternates,
so that a drift in machine speed hits both trees alike. ``run_pass`` times
a pass as the harness does: ``wall_s`` is the wall time of its invocations
and ``jtpo_s`` the time spent in JTPO's ``driver.run_scheme`` calls.

    python tools/pass_ab.py OLD/src NEW/src --workload long-horizon --pairs 200

It prints each tree's median pass time, then, for the wall time and the
JTPO time, the median of NEW's time over OLD's in the same pair, the
quartiles of that ratio, and the pairs in which NEW was faster. One
untimed pass per tree comes first. It exits 1 if an invocation of either
tree fails.
"""

from __future__ import annotations

# first: it sets one BLAS thread, as the benchmark harness runs, before numpy loads
from grid_digest import load

import argparse
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))
from run import WORKLOADS, config_text, run_pass  # noqa: E402


def summary(name: str, old: list, new: list) -> str:
    ratios = [b / a for a, b in zip(old, new)]
    q1, median, q3 = statistics.quantiles(ratios, n=4)
    wins = sum(r < 1.0 for r in ratios)
    return (f"{name:<7} new/old median {median:.3f}  quartiles {q1:.3f}-{q3:.3f}  "
            f"new faster in {wins}/{len(ratios)} pairs")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src", nargs=2, type=Path, help="OLD and NEW source trees holding uavsec")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--pairs", type=int, default=100, help="timed passes per tree")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    pkgs = [load(src) for src in args.src]
    workload = WORKLOADS[args.workload]

    times = [[], []]   # per tree: (wall, jtpo) of each timed pass
    # the harness writes under the checkout, and so does this (a file system
    # elsewhere, /tmp say, can take several times as long to write)
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".pass_ab-") as tmp:
        cfg_path = Path(tmp) / "scenario.cfg"
        cfg_path.write_text(config_text(workload, 0), encoding="utf-8")
        for r in range(-1, args.pairs):
            for k in ((0, 1) if r % 2 == 0 else (1, 0)):
                with tempfile.TemporaryDirectory(dir=tmp) as out:
                    wall, records, log = run_pass(pkgs[k]["cli"], pkgs[k]["driver"], workload,
                                                  cfg_path, Path(out) / "pass")
                codes = [code for _, code, _ in records]
                if any(codes):
                    print(f"error: {args.src[k]} exited {codes}", file=sys.stderr)
                    return 1
                if r >= 0:
                    times[k].append((wall, sum(s for scheme, s, _ in log if scheme == "jtpo")))

    for src, rows in zip(args.src, times):
        print(f"{str(src)[-40:]:<40} wall {1e3 * statistics.median(w for w, _ in rows):.3f} ms"
              f"  jtpo {1e3 * statistics.median(j for _, j in rows):.3f} ms")
    for i, name in enumerate(("wall_s", "jtpo_s")):
        print(summary(name, [t[i] for t in times[0]], [t[i] for t in times[1]]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
