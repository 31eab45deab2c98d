"""Command-line entry point.

Grammar:

    poistop <solve|diagnose|simulate|evaluate|examples>
            [--example NAME | --model FILE] [--R int] [--L int]
            [--tol float] [--eps float] [--seed u64] [--paths int]
            [--out DIR] [--override key=value]

Exit codes: 0 success, 1 configuration error (also an output directory or
artifact that cannot be written), 2 numeric failure.  Every run
writes into a single output directory containing manifest.json (resolved
configuration plus library versions) and the CSV/JSON artifacts.
"""

from __future__ import annotations

import argparse
import datetime
import json
import platform
import sys
from math import inf
from pathlib import Path

import numpy as np
import scipy

from . import __version__, policy, sim, valueiter
from .grid import build_grid
from .model import load_model, model_from_dict, model_hash, model_to_dict
from .presets import load_preset, preset_names
from .valueiter import NumericalError, ValueSurface


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# JSON with explicit float formatting (17 significant digits)
# ---------------------------------------------------------------------------

def _json(obj, indent=0):
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{pad}  {_json(str(k))}: {_json(v, indent + 1)}'
            for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        items = ",\n".join(f"{pad}  {_json(v, indent + 1)}" for v in seq)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None:
        return {True: "true", False: "false", None: "null"}[obj]
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if x != x:
            return '"nan"'
        if x in (float("inf"), float("-inf")):
            return f'"{x}"'
        return format(x, ".17g")
    return json.dumps(str(obj), ensure_ascii=False)


def write_json(obj, path):
    Path(path).write_text(_json(obj) + "\n")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def _apply_overrides(d, overrides):
    """The model-file dict d with each key=value override written in (one
    value for rho and horizon or T; one c is given to every state)."""
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--override needs key=value, got {item!r}")
        key, _, raw = item.partition("=")
        field = {"rho": "rho", "horizon": "horizon", "T": "horizon",
                 "c": "c", "lambda": "lambda"}.get(key)
        if field is None:
            raise ConfigError(f"--override: unsupported key {key!r} "
                              "(use rho, horizon, c, lambda)")
        vals = [float(v) for v in raw.split(",")]
        scalar = field in ("rho", "horizon")
        if scalar and len(vals) != 1:
            raise ConfigError(f"override {key}: expected 1 value, got "
                              f"{len(vals)}")
        if field == "c" and len(vals) == 1:
            vals = vals * d["n"]
        d[field] = vals[0] if scalar else vals
    return d


def _resolve(args):
    """Model, preset info and output directory from parsed arguments."""
    info = {"R": 40, "initial": None, "description": ""}
    if args.example and args.model:
        raise ConfigError("give either --example or --model, not both")
    if args.example:
        name = args.example
        try:
            model, info0 = load_preset(name)
        except KeyError as exc:
            raise ConfigError(str(exc)) from None
        info.update(info0)
    elif args.model:
        path = Path(args.model)
        try:
            model = load_model(path)
        except (OSError, ValueError) as exc:  # unreadable, bad JSON, bad model
            raise ConfigError(f"{path}: {exc}") from None
    else:
        raise ConfigError("one of --example or --model is required")
    if args.override:
        try:
            model = model_from_dict(_apply_overrides(model_to_dict(model),
                                                     args.override))
        except ValueError as exc:        # a non-number, or a ModelError
            raise ConfigError(f"--override: {exc}") from None
    if info["initial"] is None:
        info["initial"] = np.full(model.n, 1.0 / model.n)
    return model, info, _out_dir(args)


def _out_dir(args):
    """--out, by default runs/<preset or model-file stem>; None for a
    command without a model source."""
    if args.out:
        return Path(args.out)
    name = args.example or (args.model and Path(args.model).stem)
    return Path("runs") / name if name else None


def _manifest(args, model, extra):
    d = {
        "command": args.command,
        "example": args.example,
        "model_file": args.model,
        "overrides": list(args.override or []),
        "R": args.R,
        "L": args.L,
        "tol": args.tol,
        "eps": args.eps,
        "seed": args.seed,
        "paths": args.paths,
        "model": model_to_dict(model),
        "model_hash": model_hash(model),
        "versions": {
            "poistop": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
        "timestamp": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(),
    }
    d.update(extra)
    return d


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_examples(args):
    for name in preset_names():
        model, info = load_preset(name)
        sys.stdout.write(f"{name:14s} n={model.n}  T={model.horizon:g}  "
                         f"{info['description']}\n")
    return 0


def cmd_solve(args):
    model, info, out = _resolve(args)
    out.mkdir(parents=True, exist_ok=True)
    R = args.R or info["R"]
    with valueiter.solve_to_csv(model, build_grid(model.n, R),
                                out / "surface.csv", args.L,
                                args.tol) as surface:
        region = policy.extract_regions(surface, args.eps)
        surface.save(out / "surface.bin")
        region.to_csv(out / "regions.csv")
        if model.n == 2:
            curve = policy.boundary_curve(surface, region.eps_tol)
            policy.boundary_curve_to_csv(curve, out / "boundary.csv")
    sign = -1.0 if model.sense == "min" else 1.0
    v0 = surface.value_at(model.horizon, info["initial"])
    report = {
        "iterations": surface.meta["iterations"],
        "deltas": surface.meta["deltas"],
        "converged": surface.meta["converged"],
        "certificate_converged": surface.meta["certificate_converged"],
        "uniform_error_bound": surface.meta["uniform_error_bound"],
        "picard_max": surface.meta["picard_max"],
        "march_gap": surface.meta["march_gap"],
        "richardson_delta": surface.meta["richardson_delta"],
        "eps_tol": region.eps_tol,
        "objective_sense": model.sense,
        "value_at_initial": sign * v0,
    }
    write_json(report, out / "report.json")
    write_json(_manifest(args, model, {"grid_R": R,
                                       "knots": surface.L + 1}),
               out / "manifest.json")
    sys.stdout.write(f"solved; certified by {surface.meta['iterations']} "
                     f"iterations; artifacts in {out}\n")
    return 0


def cmd_diagnose(args):
    model, info, out = _resolve(args)
    out.mkdir(parents=True, exist_ok=True)
    report = {"corners": {}}
    for i, rep in policy.corner_diagnostics(model).items():
        label = model.states[i] if model.states else str(i)
        report["corners"][label] = rep
    try:
        report["horizon_error"] = valueiter.horizon_error(model)
    except ValueError as exc:
        report["horizon_error"] = str(exc)
    if model.n_actions == 1:
        r = policy.ila_boundary(model)
        report["ila_coefficients"] = r.tolist()
        wp = info.get("witness_point")
        if wp is not None:
            from .filter import flow_derivative
            report["ila_witness"] = {
                "point": np.asarray(wp).tolist(),
                "ddt_at_zero": float(r @ flow_derivative(model, wp)),
            }
        R = args.R or info["R"]
        surface = valueiter.solve_finite(
            model, grid=build_grid(model.n, R), L=args.L, tol=args.tol)
        region = policy.extract_regions(surface, args.eps)
        stop = region.labels[surface.L] != policy.CONTINUE
        ila_stop = surface.grid.nodes @ r <= 0.0
        report["ila_match_score"] = float(np.mean(stop == ila_stop))
    try:
        report["two_hypothesis"] = policy.two_hypothesis_diagnostics(model)
    except ValueError:
        pass
    write_json(report, out / "diagnostics.json")
    write_json(_manifest(args, model, {}), out / "manifest.json")
    sys.stdout.write(_json(report) + "\n")
    return 0


def cmd_simulate(args):
    model, info, out = _resolve(args)
    out.mkdir(parents=True, exist_ok=True)
    n_paths = 3 if args.paths is None else args.paths
    batch = sim.simulate_paths(model, info["initial"], model.horizon,
                               args.seed, np.arange(n_paths))
    for i in range(n_paths):
        sim.path_to_csv(batch.sample(i), out / f"path{i}_arrivals.csv",
                        out / f"path{i}_hidden.csv")
    write_json(_manifest(args, model, {"n_paths": n_paths}),
               out / "manifest.json")
    sys.stdout.write(f"wrote {n_paths} paths to {out}\n")
    return 0


def cmd_evaluate(args):
    model, info, out = _resolve(args)
    surf_path = out / "surface.bin"
    if not surf_path.exists():
        raise ConfigError(f"no solved surface in {out}: run solve first")
    try:
        surface = ValueSurface.load(surf_path, model)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    eps = args.eps if args.eps is not None else 0.01
    n_paths = 10000 if args.paths is None else args.paths
    report = sim.evaluate_policy(model, surface, eps, info["initial"],
                                 n_paths, args.seed)
    d = report.to_dict()
    if model.sense == "min":
        d["mean"] = -d["mean"]
        d["objective_sense"] = "min"
    write_json(d, out / "evaluation.json")
    write_json(_manifest(args, model, {}), out / "manifest_evaluate.json")
    sys.stdout.write(f"mean={d['mean']:.6g} se={report.se:.3g} "
                     f"({n_paths} paths)\n")
    return 0


# ---------------------------------------------------------------------------

def _checked(kind, ok, label):
    """argparse type: kind(text) for which ok holds, label naming the range."""
    what = {int: "an integer", float: "a number"}[kind]

    def parse(text):
        try:
            x = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected {what}, got {text!r}") from None
        if not ok(x):                     # also NaN, which fails every test
            raise argparse.ArgumentTypeError(f"{x} is outside {label}")
        return x
    return parse


_positive_int = _checked(int, lambda n: n >= 1, "[1, inf)")


def build_parser():
    p = argparse.ArgumentParser(
        prog="poistop",
        description="Finite-horizon decision timing for hidden Markov "
                    "chains observed through modulated compound-Poisson "
                    "arrivals.",
    )
    p.add_argument("command",
                   choices=["solve", "diagnose", "simulate", "evaluate",
                            "examples"])
    p.add_argument("--example", help="preset name (see 'examples')")
    p.add_argument("--model", help="JSON model file")
    p.add_argument("--R", type=_positive_int,
                   help="simplex grid resolution")
    p.add_argument("--L", type=_positive_int, help="time-knot count")
    p.add_argument("--tol", type=_checked(float, lambda x: 0 < x < inf,
                                          "(0, inf)"),
                   default=1e-4, help="value-iteration stopping tolerance")
    p.add_argument("--eps", type=_checked(float, lambda x: 0 <= x < inf,
                                          "[0, inf)"),
                   help="policy slack / region tolerance")
    p.add_argument("--seed", type=_checked(int, lambda n: 0 <= n < 2 ** 64,
                                           "[0, 2**64)"), default=0)
    p.add_argument("--paths", type=_positive_int)
    p.add_argument("--out", help="output directory (default runs/<name>)")
    p.add_argument("--override", action="append", metavar="KEY=VALUE",
                   help="model parameter override (rho, horizon, c, lambda)")
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    handlers = {
        "examples": cmd_examples,
        "solve": cmd_solve,
        "diagnose": cmd_diagnose,
        "simulate": cmd_simulate,
        "evaluate": cmd_evaluate,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except OSError as exc:           # --out or an artifact not writable
        out = None if exc.filename else _out_dir(args)
        where = f"{out}: " if out else ""    # the path the error lacks
        sys.stderr.write(f"error: {where}{exc}\n")
        return 1
    except (NumericalError, FloatingPointError, np.linalg.LinAlgError,
            ValueError, OverflowError, MemoryError) as exc:
        # ValueError: also a ModelError; OverflowError and MemoryError: a
        # size (a knot count, an array) beyond what the solver can hold
        sys.stderr.write(f"numeric failure: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
