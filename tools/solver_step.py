#!/usr/bin/env python3
"""Cost of one trajectory-solver iteration against the slot count N.

For each N in 24, 60, 200 and 2000, a JTPO run at T = N (one-second slots,
capped at two alternations) records the trajectory program of its second
alternation. For that program the script prints the milliseconds per
banded Cholesky factorization (the median time of a ``solve`` over the
factorizations it makes; there is one per solver iteration) and the
C-function calls per factorization (``sys.setprofile`` c_call events inside
``solve``; NumPy's ufunc calls and operators are not among them). First it
prints, for each tree, the file of the shared library that holds the
``dpbtrf`` its solver calls, so a comparison shows which OpenBLAS each side
ran (Linux and other systems with ``dladdr``).

    python tools/solver_step.py                     # this checkout's src/
    python tools/solver_step.py OLD/src NEW/src     # two trees, interleaved

Each source tree is imported as its own copy of ``uavsec``, and the trees'
solves alternate in one process, so a drift in machine speed hits all of
them alike. With two trees, the last column is the second tree's time per
factorization over the first's.
"""

from __future__ import annotations

import os

# one BLAS thread, as the benchmark harness runs; set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import importlib
import statistics
import sys
import time
from pathlib import Path

SLOTS = (24, 60, 200, 2000)


def load(src: Path) -> dict:
    """A fresh copy of the ``uavsec`` modules from the source tree src."""
    sys.path.insert(0, str(src))
    try:
        for name in [n for n in sys.modules if n == "uavsec" or n.startswith("uavsec.")]:
            del sys.modules[name]
        return {name: importlib.import_module(f"uavsec.{name}")
                for name in ("driver", "model", "solver")}
    finally:
        sys.path.remove(str(src))


class _DlInfo(ctypes.Structure):
    _fields_ = [("dli_fname", ctypes.c_char_p), ("dli_fbase", ctypes.c_void_p),
                ("dli_sname", ctypes.c_char_p), ("dli_saddr", ctypes.c_void_p)]


def _file_of(address: int) -> str:
    """The file of the shared library whose code holds address, or "?"."""
    info = _DlInfo()
    if not ctypes.CDLL(None).dladdr(ctypes.c_void_p(address), ctypes.byref(info)):
        return "?"
    return os.path.realpath(os.fsdecode(info.dli_fname))


def lapack_library(solver) -> str:
    """The file of the shared library holding the ``dpbtrf`` that
    ``solver._PBTRF`` runs. A ctypes routine is that code itself. An f2py
    routine (scipy's ``_flapack``) points at a wrapper in its extension
    module, so LAPACK's symbol is looked up through that module instead."""
    routine = solver._PBTRF
    capsule = getattr(routine, "_cpointer", None)
    if capsule is None:
        return _file_of(ctypes.cast(routine, ctypes.c_void_p).value)
    get_pointer = ctypes.pythonapi.PyCapsule_GetPointer
    get_pointer.restype, get_pointer.argtypes = ctypes.c_void_p, [ctypes.py_object, ctypes.c_char_p]
    module = ctypes.CDLL(_file_of(get_pointer(capsule, None)))
    for name in ("scipy_dpbtrf_64_", "scipy_dpbtrf_", "dpbtrf_"):
        if hasattr(module, name):
            return _file_of(ctypes.cast(getattr(module, name), ctypes.c_void_p).value)
    return "?"


def recorded_program(pkg: dict, n: int):
    """The trajectory program of the second alternation of JTPO at T = n."""
    driver, model = pkg["driver"], pkg["model"]
    build, built = driver.build_trajectory_subproblem, []

    def recording_build(*args):
        built.append(build(*args))
        return built[-1]

    driver.build_trajectory_subproblem = recording_build
    try:
        driver.run_scheme(model.baseline_scenario(T=float(n), max_iter=2), driver.SchemeId.JTPO)
    finally:
        driver.build_trajectory_subproblem = build
    return built[-1]


def counts(pkg: dict, prog) -> tuple:
    """(factorizations, C calls) of one solve of prog."""
    solver = pkg["solver"]
    pbtrf, factorizations, calls = solver._PBTRF, [], []

    def counting_pbtrf(*args, **kwargs):
        factorizations.append(1)
        return pbtrf(*args, **kwargs)

    def profile(frame, event, arg):
        if event == "c_call":
            calls.append(1)

    solver._PBTRF = counting_pbtrf
    sys.setprofile(profile)
    try:
        solver.solve(prog)
    finally:
        sys.setprofile(None)
        solver._PBTRF = pbtrf
    return len(factorizations), len(calls)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src", nargs="*", type=Path,
                    default=[Path(__file__).resolve().parent.parent / "src"],
                    help="source trees holding uavsec (default: this checkout's src/)")
    ap.add_argument("--repeats", type=int, default=30, help="timed solves per tree and N")
    args = ap.parse_args(argv)
    pkgs = [load(src) for src in args.src]
    for src, pkg in zip(args.src, pkgs):
        print(f"LAPACK of {src}: {lapack_library(pkg['solver'])}")

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
