"""Per-layer spans recorded around the planner's public functions.

Nothing inside ``uavsec`` is changed: while a ``Tracer`` is installed, the
functions listed in ``LAYERS`` are replaced, in every ``uavsec`` module that
binds them, by wrappers that time each call. A span nested in a span of the
same layer (``model.aesr`` calling ``slot_rates_pre_clamp``, ``driver.sweep``
calling ``run_scheme``) belongs to the outer one, so a layer's self time is
the time spent in its outermost spans minus the time of the spans of other
layers they contain.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

# layer -> public functions whose calls are that layer's spans
LAYERS = {
    "cli": ("main", "parse_config"),
    "driver": ("run_scheme", "sweep"),
    "surrogate": ("build_trajectory_subproblem", "build_power_subproblem",
                  "expansion_from", "slack_rate_objective"),
    "solver": ("solve",),
    "model": ("aesr", "slot_rates_pre_clamp", "validate"),
}


class Tracer:
    """Collects spans and solver/driver counts while installed (a context manager)."""

    def __init__(self):
        self._stack = []            # open spans: [layer, time of nested other-layer spans]
        self._patches = []
        self.seconds = Counter()    # inclusive seconds per "layer.function"
        self.self_s = Counter()     # self seconds per layer
        self.top_s = Counter()      # seconds in the outermost spans of each layer
        self.top_calls = Counter()  # outermost spans of each layer
        self.solves = defaultdict(list)  # "q"/"p" -> (seconds, newton_steps, stages, status)
        self.sizes = Counter()      # "q"/"p" -> largest program size n
        self.builds = 0
        self.runs = 0
        self.alternations = 0

    def __enter__(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "uavsec" or name.startswith("uavsec.")]
        for layer, names in LAYERS.items():
            home = importlib.import_module(f"uavsec.{layer}")
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(layer, name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patches.append((module, attr, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()
        return False

    def _wrap(self, layer, name, fn):
        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [layer, 0.0]
            self._stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                seconds = perf_counter() - t0
                self._stack.pop()
                self._close(layer, name, seconds, frame[1])
            self._observe(name, args, out, seconds)
            return out
        return span

    def _close(self, layer, name, seconds, nested_other):
        self.seconds[f"{layer}.{name}"] += seconds
        parent = self._stack[-1] if self._stack else None
        if parent is not None and parent[0] == layer:
            parent[1] += nested_other
            return
        self.self_s[layer] += seconds - nested_other
        self.top_s[layer] += seconds
        self.top_calls[layer] += 1
        if parent is not None:
            parent[1] += seconds

    def _observe(self, name, args, out, seconds):
        if name == "solve":
            kind = "q" if "q" in args[0].layout else "p"
            self.solves[kind].append((seconds, out.newton_steps, out.stages, out.status))
        elif name.startswith("build_"):
            kind = "q" if "q" in out.layout else "p"
            self.builds += 1
            self.sizes[kind] = max(self.sizes[kind], out.n)
        elif name == "run_scheme":
            self.runs += 1
            self.alternations += len(out.iterations) - 1

    def metrics(self) -> dict:
        """Per-layer metrics of everything traced so far: name -> (value, unit)."""
        out = {}
        for kind in ("q", "p"):
            rows = self.solves[kind]
            seconds = sum(r[0] for r in rows)
            steps = sum(r[1] for r in rows)
            out[f"solver.step_{kind}_ms"] = (1e3 * seconds / steps if steps else 0.0, "ms")
            out[f"solver.solve_{kind}_s"] = (seconds, "s")
            out[f"solver.solves_{kind}"] = (len(rows), "count")
            out[f"solver.steps_{kind}"] = (steps, "count")
        rows = self.solves["q"] + self.solves["p"]
        out["solver.stages"] = (sum(r[2] for r in rows), "count")
        out["solver.nonoptimal"] = (sum(r[3] != "optimal" for r in rows), "count")
        out["driver.runs"] = (self.runs, "count")
        out["driver.alternations"] = (self.alternations, "count")
        out["driver.self_s"] = (self.self_s["driver"], "s")
        out["surrogate.builds"] = (self.builds, "count")
        out["surrogate.build_s"] = (
            self.seconds["surrogate.build_trajectory_subproblem"]
            + self.seconds["surrogate.build_power_subproblem"], "s")
        out["surrogate.n_q"] = (self.sizes["q"], "count")
        out["surrogate.n_p"] = (self.sizes["p"], "count")
        out["model.calls"] = (self.top_calls["model"], "count")
        out["model.eval_s"] = (self.top_s["model"], "s")
        out["cli.parse_s"] = (self.seconds["cli.parse_config"], "s")
        out["cli.self_s"] = (self.self_s["cli"], "s")
        return out
