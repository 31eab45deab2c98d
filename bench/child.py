"""One timed call of a workload, run in a fresh interpreter by run.py.

Usage: python3 bench/child.py SPEC_JSON

The spec names the operation.  The child imports poistop and loads the
preset (plus, for "query", solves the surface it queries): that is set-up,
and the perf_counter reading at its end goes into the result, so run.py
can count interpreter start-up too.  Then it makes the timed call, unless
the spec says "setup_only", and writes a JSON result to spec["result"]:
wall time, ru_maxrss, the call's outputs and, when traced, the per-layer
metrics of tracing.Tracer.

The host's speed drifts, so the child also times a fixed calibration
kernel that runs no poistop code: nine times right after set-up, every
SAMPLE_PERIOD_S during an untraced call (from a SIGALRM handler in the
calling thread, so no thread or process is started; the handler's own
time is taken out of the call's wall time) and nine times after the call.
run.py scales the times by these readings to a reference host speed.
"""

from __future__ import annotations

import json
import resource
import signal
import sys
import time
from pathlib import Path

import numpy as np

SAMPLE_PERIOD_S = 0.1


def calibration_kernel():
    """About 2 ms of work like poistop's hot paths but no poistop code, so
    a change to poistop cannot move its time: half an interpreted loop,
    half constructing numpy Philox generators and drawing from them.  In
    the host's slow state the loop alone slowed much less than
    evaluate-insurance; the mix comes within about 12 % of every workload
    (bench/README.md)."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(15_000):
        acc += i * i % 7
    for i in range(60):
        g = np.random.Generator(np.random.Philox(key=[i, 7]))
        acc += g.exponential(1.0) + g.random()
    return time.perf_counter() - t0


def calibrate(reps=9):
    return [calibration_kernel() for _ in range(reps)]


class SpeedSampler:
    """Inside its with-block, when active, times calibration_kernel() every
    SAMPLE_PERIOD_S and adds the handler's time to self.spent."""

    def __init__(self, active):
        self.active = active
        self.samples = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        dt = calibration_kernel()
        self.samples.append(dt)
        self.spent += dt

    def __enter__(self):
        if self.active:
            self._old = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S,
                             SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, self._old)


def _environment():
    import platform

    import numpy as np
    import poistop
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "poistop": poistop.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
    }


def _query_setup(spec):
    import poistop as ps

    model, _ = ps.load_preset(spec["example"])
    grid = ps.build_grid(model.n, spec["R"])
    surf = ps.solve_finite(model, grid=grid, L=spec["L"], tol=spec["tol"])
    return ps, model, surf


def _query_batch(ps, model, surf, spec, sampler):
    """Queries one at a time, then one boundary curve."""
    eps = spec["eps"]
    out = {"latency_s": [], "decision": [], "gap": [], "wait": []}
    for s, p in spec["queries"]:
        spent0 = sampler.spent
        t0 = time.perf_counter()
        rec = ps.recommend(model, surf, s, [1.0 - p, p], eps,
                           compute_wait=True)
        out["latency_s"].append(time.perf_counter() - t0
                                - (sampler.spent - spent0))
        out["decision"].append(rec.decision)
        out["gap"].append(float(rec.gap))
        out["wait"].append(None if rec.wait is None else float(rec.wait))
    curve = ps.boundary_curve(surf, eps)
    out["curve_shape"] = list(curve.shape)
    out["N"], out["L"] = surf.grid.n_nodes, surf.L
    return out


def main(spec):
    from poistop import cli
    from poistop.presets import load_preset

    if spec["op"] == "query":
        ps, model, surf = _query_setup(spec)
    else:
        model, _ = load_preset(spec["example"])
    setup_end = time.perf_counter()
    result = {"setup_end": setup_end, "rc": None, "env": _environment(),
              "n": model.n, "marks": model.marks.n_marks,
              "cal_pre_s": calibrate()}
    if not spec.get("setup_only"):
        tracer = None
        if spec.get("trace"):
            from tracing import Tracer
            tracer = Tracer(spec["workload"], spec["run_id"])
            tracer.install()
        with SpeedSampler(active=tracer is None) as sampler:
            t0 = time.perf_counter()
            if spec["op"] == "cli":
                result["rc"] = cli.main(spec["argv"])
            else:
                result["query"] = _query_batch(ps, model, surf, spec,
                                               sampler)
                result["rc"] = 0
            result["wall_s"] = time.perf_counter() - t0 - sampler.spent
        result["cal_in_s"] = sampler.samples
        result["cal_post_s"] = calibrate()
        if tracer is not None:
            result["layers"] = tracer.metrics()
            tracer.dump(spec["spans"])
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
