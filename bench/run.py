"""poistop benchmark: end-to-end and per-layer numbers for four workloads.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0

NAME is one of solve-insurance, solve-reliability, evaluate-insurance,
query-regime.  Every timed call runs in a fresh child interpreter
(bench/child.py), one at a time: one client in a closed loop.  The run
prints its metrics by name and unit, checks the outputs against
bench/reference.json, writes a full record to .bench_out/results/, and
prints as its last line one JSON object with keys correct, attempted,
failed and metrics.  With --trace 1 the run makes one untraced and one
traced call and reports the per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from math import comb
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
RUN_LIMIT_S = 170.0          # every run ends well inside 180 s
SETUP_SAMPLES = 3
EPS_CHECK_Z = 4.0           # see check_eps_optimality

WORKLOADS = {
    "solve-insurance": {"op": "solve", "example": "insurance", "R": 60},
    "solve-reliability": {"op": "solve", "example": "reliability", "R": 60},
    "evaluate-insurance": {"op": "evaluate", "example": "insurance",
                           "R": 40, "paths": 10000},
    "query-regime": {"op": "query", "example": "regime", "R": 200, "L": 200,
                     "tol": 1e-4, "eps": 1e-3, "queries": 36},
}

# child.calibration_kernel() takes this long at the reference host speed:
# its median over 124 timed calls on a 2-vCPU Intel Xeon VM (Python
# 3.11.7, numpy 2.4.6).  That host's speed drifts by up to 2x within
# minutes, so a set-up time is scaled by CAL_REF_S / (median kernel time
# right after it), and a call's wall time by CAL_REF_S / (median kernel
# time before, during and after the call).
CAL_REF_S = 0.0027

END_TO_END = {"wall_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (set-up or tracing failed)."""


# ---------------------------------------------------------------------------
# children
# ---------------------------------------------------------------------------

def spawn(spec, t_run0):
    """Run one child; return its result dict plus set-up and exit status."""
    spec = dict(spec)
    res_path = Path(spec["result"])
    if res_path.exists():
        res_path.unlink()
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"     # the same dict layouts in every child
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                      if p])
    budget = max(5.0, RUN_LIMIT_S - (time.perf_counter() - t_run0))
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=budget)
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": f"timed out after {budget:.0f} s",
                "elapsed": time.perf_counter() - t0}
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0 or not res_path.exists():
        tail = (proc.stderr or proc.stdout).strip().splitlines()[-5:]
        return {"ok": False, "elapsed": elapsed,
                "error": f"child exit {proc.returncode}: " + " | ".join(tail)}
    out = json.loads(res_path.read_text())
    out["ok"] = True
    out["elapsed"] = elapsed
    out["setup_s"] = out["setup_end"] - t0
    out["cal_setup_s"] = statistics.median(out["cal_pre_s"])
    out["setup_ref_s"] = out["setup_s"] * CAL_REF_S / out["cal_setup_s"]
    if "wall_s" in out:
        out["cal_call_s"] = statistics.median(
            out["cal_pre_s"] + out["cal_in_s"] + out["cal_post_s"])
        out["wall_ref_s"] = out["wall_s"] * CAL_REF_S / out["cal_call_s"]
    return out


# ---------------------------------------------------------------------------
# workload inputs and output checks
# ---------------------------------------------------------------------------

def pick_queries(pool, k, rng):
    """k pool entries, one from each of k equal strata of the pool ordered
    by (reference decision, s): every run gets the same mix of cheap stop
    queries and continue queries of each length."""
    order = sorted(range(len(pool)),
                   key=lambda i: (pool[i]["decision"] == "continue",
                                  pool[i]["s"]))
    picks = [rng.choice(order[j * len(order) // k:
                              (j + 1) * len(order) // k])
             for j in range(k)]
    rng.shuffle(picks)
    return picks


def check_solve(out_dir, ref):
    """Exit code 0, converged, value at the initial belief within
    10 tol + richardson_delta of the reference solve."""
    rep = json.loads((out_dir / "report.json").read_text())
    tol = 10.0 * ref["tol"] + ref["richardson_delta"]
    errs = []
    if rep["converged"] is not True:
        errs.append("report.json: converged is not true")
    diff = abs(rep["value_at_initial"] - ref["value_at_initial"])
    if not diff <= tol:
        errs.append(f"value_at_initial {rep['value_at_initial']!r} differs "
                    f"from reference by {diff:.3g} > {tol:.3g}")
    for name in ("surface.csv", "surface.bin", "regions.csv",
                 "manifest.json"):
        if not (out_dir / name).is_file():
            errs.append(f"{name} missing")
    return errs


def check_evaluate(out_dir, setup_report, paths):
    """One call: n_paths as asked and |mean - V(T, pi0)| <= 3 se + budget,
    the check of test_insurance_epsilon_optimality; budget is the
    surface's uniform error bound plus its Richardson delta.  Returns the
    errors and the call's (mean, se) for check_eps_optimality."""
    ev = json.loads((out_dir / "evaluation.json").read_text())
    V = setup_report["value_at_initial"]
    budget = setup_report["uniform_error_bound"] \
        + setup_report["richardson_delta"]
    mean, se = ev["mean"], ev["se"]
    errs = []
    if ev["n_paths"] != paths:
        errs.append(f"n_paths {ev['n_paths']} != {paths}")
    if not abs(mean - V) <= 3.0 * se + budget:
        errs.append(f"|mean - V| = {abs(mean - V):.4g} > 3 se + budget")
    return errs, (mean, se, ev["eps"])


def check_eps_optimality(estimates, setup_report):
    """The one-sided check of test_insurance_epsilon_optimality,
    mean >= V - eps - z se - 0.01, on the mean of all the run's calls.

    The calls use independent seeds and equal path counts, so the pooled
    se is sqrt(sum se_i^2) / k.  Two sets of 22 runs make some 300
    evaluate calls, so z = 4 (one-sided level 3e-5) rather than the test's
    single-sample 3: per call at z = 3 a correct program fails about one
    such pair of sets in four, while z = 4 on the pool of two calls or
    more still flags a smaller shortfall than z = 3 on one call does."""
    k = len(estimates)
    mean = sum(m for m, _, _ in estimates) / k
    se = sum(s * s for _, s, _ in estimates) ** 0.5 / k
    eps = estimates[0][2]
    V = setup_report["value_at_initial"]
    if mean >= V - eps - EPS_CHECK_Z * se - 0.01:
        return []
    return [f"pooled mean {mean:.6g} of {k} calls below V - eps - "
            f"{EPS_CHECK_Z:g} se - 0.01 (V={V:.6g}, se={se:.3g})"]


def check_queries(q, picks, ref):
    """Per query: decision equal to the reference wherever the reference
    gap is farther than gap_tol from eps; a continue query's wait within
    one knot of the reference wait.  Returns one error list per query."""
    gap_tol, eps = ref["gap_tol"], ref["eps"]
    errs = []
    for k, i in enumerate(picks):
        r = ref["pool"][i]
        e = []
        if abs(r["gap"] - eps) > gap_tol:
            if q["decision"][k] != r["decision"]:
                e.append(f"query {i}: decision {q['decision'][k]} != "
                         f"reference {r['decision']}")
            elif r["decision"] == "continue" and not (
                    abs(q["wait"][k] - r["wait"]) <= ref["dt"] * (1 + 1e-9)):
                e.append(f"query {i}: wait {q['wait'][k]} not within one "
                         f"knot of {r['wait']}")
        errs.append(e)
    return errs


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def tail_percentile(xs):
    """(percentile, value): the highest percentile with at least ten
    samples beyond it."""
    xs = sorted(xs)
    k = len(xs) - 11
    if k < 0:
        raise BenchError(f"{len(xs)} samples: a tail needs at least 11")
    return 100.0 * (k + 1) / len(xs), xs[k]


def git_commit():
    """HEAD's commit, read from .git without starting a git process."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def run_workload(name, seed, seconds, trace):
    wl = WORKLOADS[name]
    ref = json.loads((HERE / "reference.json").read_text())[name]
    t_run0 = time.perf_counter()
    run_id = f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    work = OUT / "work" / run_id
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (OUT / "spans").mkdir(exist_ok=True)
    rng = random.Random(f"{name}:{seed}")
    base = {"workload": name, "example": wl["example"],
            "result": str(work / "result.json")}
    try:
        return _run(name, wl, ref, seed, seconds, trace, run_id, work, rng,
                    base, t_run0)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(name, wl, ref, seed, seconds, trace, run_id, work, rng, base,
         t_run0):
    op = wl["op"]
    one_time_s = one_time_raw_s = 0.0
    setup_report = None
    if op == "evaluate":
        # the surface the timed calls read, solved once per run
        surf_dir = work / "surface"
        c = spawn(dict(base, op="cli", argv=[
            "solve", "--example", wl["example"], "--R", str(wl["R"]),
            "--out", str(surf_dir)]), t_run0)
        if not c["ok"] or c["rc"] != 0:
            raise BenchError("set-up solve failed: "
                             + c.get("error", f"exit code {c['rc']}"))
        one_time_s, one_time_raw_s = c["wall_ref_s"], c["wall_s"]
        setup_report = json.loads((surf_dir / "report.json").read_text())
        manifest = json.loads((surf_dir / "manifest.json").read_text())
    picks = None
    if op == "query":
        picks = pick_queries(ref["pool"], wl["queries"], rng)

    def timed_spec(i, traced):
        spec = dict(base, trace=traced, run_id=f"{run_id}-{i}",
                    spans=str(OUT / "spans" / f"{run_id}-{i}.npz"))
        if op == "solve":
            spec.update(op="cli", argv=[
                "solve", "--example", wl["example"], "--R", str(wl["R"]),
                "--out", str(work / f"out{i}")])
        elif op == "evaluate":
            spec.update(op="cli", argv=[
                "evaluate", "--example", wl["example"],
                "--paths", str(wl["paths"]),
                "--seed", str(rng.randrange(2**31)),
                "--out", str(work / "surface")])
        else:
            spec.update(op="query", R=wl["R"], L=wl["L"], tol=wl["tol"],
                        eps=wl["eps"],
                        queries=[[ref["pool"][j]["s"], ref["pool"][j]["p"]]
                                 for j in picks])
        return spec

    children = []
    estimates = []
    attempted = failed = 0
    problems = []
    t_measure = time.perf_counter()
    plan = [False, True] if trace else None
    i = 0
    while True:
        traced = plan[i] if plan else False
        spec = timed_spec(i, traced)
        c = spawn(spec, t_run0)
        c["traced"] = traced
        c["argv"] = spec.get("argv")
        if traced and not c["ok"]:
            raise BenchError(f"traced call failed: {c['error']}")
        errs = []
        if not c["ok"]:
            errs = [c["error"]]
        elif c["rc"] != 0:
            errs = [f"exit code {c['rc']}"]
        else:
            try:
                if op == "solve":
                    errs = check_solve(work / f"out{i}", ref)
                    c["manifest"] = json.loads(
                        (work / f"out{i}" / "manifest.json").read_text())
                elif op == "evaluate":
                    errs, est = check_evaluate(work / "surface",
                                               setup_report, wl["paths"])
                    estimates.append(est)
            except (OSError, ValueError, KeyError) as exc:
                errs = [f"cannot read the call's outputs: {exc!r}"]
                c["ok"] = False
        if op == "query" and c["ok"] and c["rc"] == 0:
            per_query = check_queries(c["query"], picks, ref)
            shape = c["query"]["curve_shape"]
            curve_errs = [] if shape == [c["query"]["L"] + 1, 3] \
                else [f"boundary curve shape {shape}"]
            attempted += len(per_query) + 1
            failed += sum(1 for e in per_query if e) + bool(curve_errs)
            errs = [x for e in per_query for x in e] + curve_errs
        else:
            attempted += 1
            failed += bool(errs)
        problems += errs
        c["errors"] = errs
        children.append(c)
        shutil.rmtree(work / f"out{i}", ignore_errors=True)
        i += 1
        if plan:
            if i == len(plan):
                break
            continue
        elapsed = time.perf_counter() - t_measure
        if op == "query" or elapsed + c["elapsed"] > seconds \
                or time.perf_counter() - t_run0 + c["elapsed"] > RUN_LIMIT_S:
            break

    if estimates:
        errs = check_eps_optimality(estimates, setup_report)
        attempted += 1
        failed += bool(errs)
        problems += errs
    ok = [c for c in children if c["ok"] and c["rc"] == 0]
    if not ok:
        raise BenchError("no timed call succeeded: " + "; ".join(problems))
    setups = list(ok)
    while len(setups) < SETUP_SAMPLES:
        spec = dict(base, op="query" if op == "query" else "cli",
                    setup_only=True, R=wl["R"], L=wl.get("L"),
                    tol=wl.get("tol"))
        c = spawn(spec, t_run0)
        if not c["ok"]:
            raise BenchError(f"set-up failed: {c['error']}")
        setups.append(c)

    # metrics -------------------------------------------------------------
    untraced = [c for c in ok if not c["traced"]]
    if not untraced:
        raise BenchError("the untraced call failed: " + "; ".join(problems))
    first = ok[0]
    if op == "query":
        N, L = first["query"]["N"], first["query"]["L"]
    else:
        m = first.get("manifest") or manifest
        N = comb(m["grid_R"] + first["n"] - 1, first["n"] - 1)
        L = m["knots"] - 1
    wall = statistics.median(c["wall_s"] for c in untraced)
    metrics = {
        "wall_ref_s": statistics.median(c["wall_ref_s"] for c in untraced),
        "setup_s": statistics.median(c["setup_ref_s"] for c in setups)
        + one_time_s,
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in untraced),
    }
    extra = {
        "wall_s": (wall, "s"),
        "setup_raw_s": (statistics.median(c["setup_s"] for c in setups)
                        + one_time_raw_s, "s"),
        "cal_s": (statistics.median(c["cal_call_s"] for c in untraced),
                  "s"),
        "failed_frac": (failed / attempted, "1"),
    }
    lat = None
    if op == "evaluate":
        extra["paths_per_s"] = (wl["paths"] / wall, "1/s")
    if op == "query":
        lat = [x for c in untraced for x in c["query"]["latency_s"]]
        extra["query_p50_ms"] = (1e3 * statistics.median(lat), "ms")
        pct, val = tail_percentile(lat)
        extra["query_tail_ms"] = (1e3 * val, "ms")
        extra["query_tail_percentile"] = (pct, "%")
        extra["queries"] = (len(lat), "count")

    layers = None
    if trace:
        tr = next(c for c in ok if c["traced"])
        layers = dict(tr["layers"])
        layers["trace_overhead_s"] = tr["wall_s"] - wall
        layers["trace.wall_s"] = tr["wall_s"]
        attributed = sum(v for k, v in tr["layers"].items()
                         if k.endswith(".self_s"))
        layers["trace.unattributed_s"] = tr["wall_s"] - attributed
        if abs(layers["trace.unattributed_s"]) > 0.02 * tr["wall_s"] + 0.05:
            raise BenchError(
                f"layer self times sum to {attributed:.3f} s but the traced "
                f"call took {tr['wall_s']:.3f} s: spans are inconsistent")

    record = {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": bool(trace), "run_id": run_id,
        "environment": {
            "git_commit": git_commit(),
            "nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)),
            "blas_threads_env": {k: os.environ.get(k) for k in (
                "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS")},
            **first["env"],
            "preset": {"example": wl["example"], "n": first["n"], "R":
                       wl["R"], "N": N, "L": L, "marks": first["marks"]},
            "child_argv": [c["argv"] for c in children],
            "query_pool_indices": picks,
        },
        "attempted": attempted, "failed": failed, "problems": problems,
        "metrics": metrics,
        "extra": {k: v[0] for k, v in extra.items()},
        "per_layer": layers,
        "setup_samples_s": [c["setup_s"] for c in setups],
        "setup_samples_ref_s": [c["setup_ref_s"] for c in setups],
        "one_time_setup_s": one_time_raw_s,
        "one_time_setup_ref_s": one_time_s,
        "query_latency_s": lat,
        "children": [{k: c.get(k) for k in ("traced", "ok", "rc", "wall_s",
                                            "wall_ref_s", "setup_s",
                                            "cal_setup_s", "cal_call_s",
                                            "peak_rss_mb", "elapsed",
                                            "errors")}
                     for c in children],
    }
    return record, extra


def layer_unit(name):
    for suffix, unit in (("_s", "s"), ("_mb", "MB"), ("_bytes", "B")):
        if name.endswith(suffix):
            return unit
    return "count"


def report(record, extra, trace):
    """Human-readable lines, then the JSON result line."""
    name = record["workload"]
    env = record["environment"]
    p = env["preset"]
    print(f"# {name}  seed={record['seed']}  trace={int(trace)}  "
          f"N={p['N']} L={p['L']} marks={p['marks']}  "
          f"nproc={env['nproc']}  commit={env['git_commit']}")
    rows = {k: (v, END_TO_END[k]) for k, v in record["metrics"].items()}
    rows.update({k: (record["extra"][k], u) for k, (_, u) in extra.items()})
    if trace:
        rows.update({k: (v, layer_unit(k))
                     for k, v in record["per_layer"].items()})
    for k, (v, u) in rows.items():
        print(f"  {k:32s} {v:14.6g} {u}")
    for prob in record["problems"]:
        print(f"  FAILED CHECK: {prob}")
    if trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)}
                   for k, v in record["per_layer"].items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in record["metrics"].items()}
    print(json.dumps({"correct": record["failed"] == 0,
                      "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}),
          flush=True)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "poistop" / "__init__.py").is_file():
        sys.stderr.write(f"error: no poistop sources under {SRC}\n")
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        try:
            record, extra = run_workload(name, args.seed, args.seconds,
                                         args.trace)
        except BenchError as exc:
            sys.stderr.write(f"error: {name}: {exc}\n")
            return 1
        out = OUT / "results"
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{record['run_id']}.json").write_text(
            json.dumps(record, indent=1))
        report(record, extra, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
