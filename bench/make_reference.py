"""Write bench/reference.json: the outputs the benchmark checks against.

Usage (from the repository root, about four minutes on two cores):

    PYTHONPATH=src python3 bench/make_reference.py [WORKLOAD ...]

With workload names, only their entries are rewritten.

- solve-*: report.json of `poistop solve --example NAME --R R` at the
  workload's R (value_at_initial, richardson_delta, tol).
- query-regime: a pool of 200 queries, s ~ U(0, T) and pi ~ Dirichlet(1),
  drawn from a fixed seed, each with the decision, gap and wait of
  `recommend(..., eps=1e-3, compute_wait=True)` on the regime surface at
  R=200, L=200.  run.py draws each run's queries from this pool.

Run it only to re-baseline the checks on purpose: the checks compare later
versions of the program with the version that wrote this file.
"""

from __future__ import annotations

import json
import random
import shutil
import sys
from pathlib import Path

import numpy as np
import poistop as ps
from poistop import cli

sys.path.insert(0, str(Path(__file__).resolve().parent))
from run import OUT, WORKLOADS  # noqa: E402

POOL_SEED = 1105_1484
POOL_SIZE = 200
GAP_TOL = 5e-4      # five times the solver tolerance of the query surface


def solve_reference(name):
    wl = WORKLOADS[name]
    out = OUT / "reference" / name
    rc = cli.main(["solve", "--example", wl["example"], "--R", str(wl["R"]),
                   "--out", str(out)])
    if rc != 0:
        raise SystemExit(f"{name}: solve exited {rc}")
    rep = json.loads((out / "report.json").read_text())
    shutil.rmtree(out)
    return {"tol": 1e-4, "richardson_delta": rep["richardson_delta"],
            "value_at_initial": rep["value_at_initial"]}


def query_reference():
    wl = WORKLOADS["query-regime"]
    model, _ = ps.load_preset(wl["example"])
    surf = ps.solve_finite(model, grid=ps.build_grid(model.n, wl["R"]),
                           L=wl["L"], tol=wl["tol"])
    rng = random.Random(POOL_SEED)
    pool = []
    for _ in range(POOL_SIZE):
        s = rng.uniform(0.0, model.horizon)
        p = rng.random()                    # Dirichlet(1) on two states
        rec = ps.recommend(model, surf, s, np.array([1.0 - p, p]),
                           wl["eps"], compute_wait=True)
        pool.append({"s": s, "p": p, "decision": rec.decision,
                     "gap": float(rec.gap), "wait": float(rec.wait)})
    return {"eps": wl["eps"], "gap_tol": GAP_TOL, "dt": surf.dt,
            "pool": pool}


def main(names):
    path = Path(__file__).resolve().parent / "reference.json"
    ref = json.loads(path.read_text()) if path.exists() else {}
    makers = {"solve-insurance": lambda: solve_reference("solve-insurance"),
              "solve-reliability":
                  lambda: solve_reference("solve-reliability"),
              "evaluate-insurance": dict,
              "query-regime": query_reference}
    for name in names or makers:
        ref[name] = makers[name]()
    path.write_text(json.dumps(ref, indent=1) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main(sys.argv[1:])
