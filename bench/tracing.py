"""Spans around the public functions and methods of each poistop module.

The benchmark traces the library from outside: every hook below replaces a
public function or method with a wrapper that records one span per call
(name, start, end, parent span) and, where asked, a count or a tracemalloc
peak.  A function that other modules imported by name is replaced in every
poistop module that holds it, so `from .grid import build_grid` callers are
traced too.  A hook whose target is missing raises HookError: a renamed
entry point fails the traced run instead of reporting zero for its layer.

Spans live in flat arrays while the run lasts (one tracer per timed call,
so workload and run id are stored once per tracer) and are written out by
`Tracer.dump` when the call has ended.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
import tracemalloc
from array import array
from collections import defaultdict

import numpy as np

LAYERS = ("grid", "valueiter", "policy", "sim", "filter", "cli")

# Writers whose time and output size make up cli.artifacts_s and
# cli.artifact_bytes.  Each takes the output path as its second argument.
ARTIFACT_SPANS = ("valueiter.surface_csv", "valueiter.surface_bin",
                  "policy.regions_csv", "policy.boundary_csv",
                  "cli.write_json")


class HookError(RuntimeError):
    pass


def _rows(args, kwargs):
    pts = kwargs.get("points", args[1] if len(args) > 1 else None)
    shape = np.shape(pts)
    return shape[0] if len(shape) == 2 else 1


# (module, attribute path, span name or None for a count-only hook, options)
HOOKS = (
    ("poistop.grid", "build_grid", "grid.build", {}),
    ("poistop.grid", "SimplexGrid.barycentric", "grid.barycentric",
     {"count": ("grid.points_located", _rows)}),
    ("poistop.valueiter", "FiniteHorizonSolver.__init__",
     "valueiter.workspace", {"memory": True}),
    ("poistop.valueiter", "FiniteHorizonSolver.solve",
     "valueiter.solve_loop", {"memory": True}),
    ("poistop.valueiter", "FiniteHorizonSolver.sweep", "valueiter.sweep", {}),
    ("poistop.valueiter", "solve_finite", "valueiter.solve_finite", {}),
    ("poistop.valueiter", "richardson_check", "valueiter.richardson", {}),
    ("poistop.valueiter", "apply_J0", "valueiter.apply_J0", {}),
    ("poistop.valueiter", "apply_J", None,
     {"count": ("valueiter.apply_J_calls", None)}),
    ("poistop.valueiter", "ValueSurface.to_csv", "valueiter.surface_csv", {}),
    ("poistop.valueiter", "ValueSurface.save", "valueiter.surface_bin", {}),
    ("poistop.valueiter", "ValueSurface.load", "valueiter.surface_load", {}),
    ("poistop.policy", "extract_regions", "policy.extract_regions", {}),
    ("poistop.policy", "StoppingRegion.to_csv", "policy.regions_csv", {}),
    ("poistop.policy", "boundary_curve", "policy.boundary_curve", {}),
    ("poistop.policy", "boundary_curve_to_csv", "policy.boundary_csv", {}),
    ("poistop.policy", "recommend", "policy.recommend", {}),
    ("poistop.sim", "simulate_path", "sim.simulate_path", {}),
    ("poistop.sim", "evaluate_policy", "sim.evaluate_policy", {}),
    ("poistop.filter", "FlowPropagator.advance", "filter.advance", {}),
    ("poistop.cli", "main", "cli.main", {}),
    ("poistop.cli", "write_json", "cli.write_json", {}),
)

# per-layer metric -> (statistic, span or counter name).  "self" sums the
# span's self time (duration minus its child spans), "incl" its duration,
# "calls" counts calls, "count" reads a hook counter, "peak" the largest
# tracemalloc peak of the span in MB.
METRICS = {
    "grid.build_s": ("self", "grid.build"),
    "grid.barycentric_s": ("self", "grid.barycentric"),
    "grid.barycentric_calls": ("calls", "grid.barycentric"),
    "grid.points_located": ("count", "grid.points_located"),
    "valueiter.workspace_s": ("self", "valueiter.workspace"),
    "valueiter.workspace_peak_mb": ("peak", "valueiter.workspace"),
    "valueiter.solve_loop_s": ("self", "valueiter.solve_loop"),
    "valueiter.solve_loop_peak_mb": ("peak", "valueiter.solve_loop"),
    "valueiter.sweeps": ("calls", "valueiter.sweep"),
    "valueiter.sweep_s": ("self", "valueiter.sweep"),
    "valueiter.richardson_s": ("incl", "valueiter.richardson"),
    "valueiter.apply_J0_s": ("self", "valueiter.apply_J0"),
    "valueiter.apply_J_calls": ("count", "valueiter.apply_J_calls"),
    "valueiter.surface_csv_s": ("self", "valueiter.surface_csv"),
    "valueiter.surface_bin_s": ("self", "valueiter.surface_bin"),
    "valueiter.surface_load_s": ("self", "valueiter.surface_load"),
    "policy.regions_csv_s": ("self", "policy.regions_csv"),
    "policy.boundary_curve_s": ("self", "policy.boundary_curve"),
    "policy.recommend_s": ("self", "policy.recommend"),
    "sim.simulate_path_s": ("self", "sim.simulate_path"),
    "sim.paths_simulated": ("calls", "sim.simulate_path"),
    "sim.evaluate_policy_s": ("self", "sim.evaluate_policy"),
    "filter.advance_s": ("self", "filter.advance"),
    "filter.advance_calls": ("calls", "filter.advance"),
    "cli.artifact_bytes": ("count", "cli.artifact_bytes"),
}


class Tracer:
    def __init__(self, workload, run_id):
        self.workload = workload
        self.run_id = run_id
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_time = array("d")
        self._stack = []              # [span index, time covered by children]
        self.counts = defaultdict(int)
        self.peaks = defaultdict(float)

    def _nid(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name, count=None, memory=False):
        """fn with a span (when name is given) and a counter around it."""
        nid = None if name is None else self._nid(name)
        artifact = name in ARTIFACT_SPANS
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                key, size = count
                tracer.counts[key] += 1 if size is None else size(args, kwargs)
            if nid is None:
                return fn(*args, **kwargs)
            # memory spans do not nest in the hook table; an inner one
            # would reset the outer one's peak, so only the outer one counts
            track = memory and not tracemalloc.is_tracing()
            if track:
                tracemalloc.start()
                base = tracemalloc.get_traced_memory()[0]
            stack = tracer._stack
            idx = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(stack[-1][0] if stack else -1)
            tracer.end.append(0.0)
            tracer.self_time.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            tracer.start.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dur = t1 - t0
                tracer.end[idx] = t1
                tracer.self_time[idx] = dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if track:
                    peak = (tracemalloc.get_traced_memory()[1] - base) / 2**20
                    tracer.peaks[name] = max(tracer.peaks[name], peak)
                    tracemalloc.stop()
                if artifact:
                    path = kwargs.get("path", args[1] if len(args) > 1
                                      else None)
                    if path is not None and os.path.exists(path):
                        tracer.counts["cli.artifact_bytes"] += \
                            os.path.getsize(path)
        return traced

    def install(self):
        """Wrap every hook target; raise HookError if one is missing."""
        for modname in {h[0] for h in HOOKS}:
            try:
                importlib.import_module(modname)
            except ImportError as exc:
                raise HookError(f"hook module {modname} missing: {exc}")
        mods = [m for name, m in list(sys.modules.items())
                if name.split(".")[0] == "poistop"]
        for modname, attr, name, opts in HOOKS:
            *path, leaf = attr.split(".")
            owner = sys.modules[modname]
            for part in path:
                owner = getattr(owner, part, None)
            raw = None if owner is None else vars(owner).get(leaf)
            if raw is None:
                raise HookError(f"hook target {modname}.{attr} not found: "
                                "the benchmark's hook table is out of date")
            if isinstance(raw, classmethod):
                setattr(owner, leaf,
                        classmethod(self.wrap(raw.__func__, name, **opts)))
            elif path:
                setattr(owner, leaf, self.wrap(raw, name, **opts))
            else:
                # the function itself, wherever a poistop module holds it
                wrapped = self.wrap(raw, name, **opts)
                for m in mods:
                    for key, value in list(vars(m).items()):
                        if value is raw:
                            setattr(m, key, wrapped)

    # -- results ---------------------------------------------------------

    def totals(self):
        """Per span name: [calls, self seconds, inclusive seconds]."""
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for i in range(len(self.start)):
            t = out[self.names[self.name_id[i]]]
            t[0] += 1
            t[1] += self.self_time[i]
            t[2] += self.end[i] - self.start[i]
        return out

    def metrics(self):
        totals = self.totals()
        out = {}
        for metric, (stat, key) in METRICS.items():
            if stat == "count":
                out[metric] = float(self.counts.get(key, 0))
            elif stat == "peak":
                out[metric] = self.peaks.get(key, 0.0)
            else:
                t = totals.get(key, (0, 0.0, 0.0))
                out[metric] = float({"calls": t[0], "self": t[1],
                                     "incl": t[2]}[stat])
        out["cli.artifacts_s"] = sum(totals[k][1] for k in ARTIFACT_SPANS
                                     if k in totals)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                t[1] for k, t in totals.items()
                if k.split(".")[0] == layer)
        return out

    def dump(self, path):
        """Write the spans: one row per span, names in a side table."""
        np.savez_compressed(
            path,
            workload=self.workload, run_id=self.run_id,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
            self_time=np.frombuffer(self.self_time),
            counts=json.dumps(dict(self.counts)),
        )
