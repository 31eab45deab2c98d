"""Problem-instance data model and reward/cost primitives.

A model bundles the hidden-chain generator Q, the state-modulated arrival
rates, the mark law of the observation process, running costs (or per-mark
information costs), terminal reward rows and the horizon.  All downstream
modules (filtering, value iteration, policies, simulation) consume the
validated, immutable ``ModelSpec``.
"""

from __future__ import annotations

import hashlib
import json
import operator
from dataclasses import dataclass, replace

import numpy as np


class ModelError(ValueError):
    """Raised when a model fails validation; carries the violation list."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid model: " + "; ".join(self.violations))


# ---------------------------------------------------------------------------
# mark models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MarkModel:
    """Mark law of the observation process, reduced to node/weight arrays.

    ``support`` holds the mark values (quadrature nodes for the gamma case,
    a single dummy mark for simple Poisson observations).  ``weights[i, r]``
    is the probability weight of mark r under state i -- i.e. f_i(y_r) times
    the reference-measure weight of y_r, the same in every state -- so each
    row sums to one, and a column's cross-state ratios, all that a Bayes
    update reads, are those of the densities f_i(y_r).
    """

    kind: str                      # "none" | "discrete" | "gamma"
    support: np.ndarray            # (R,)
    weights: np.ndarray            # (n, R), rows sum to 1
    gamma_shape: np.ndarray | None = None
    gamma_rate: np.ndarray | None = None

    @property
    def n_marks(self):
        return self.support.size

    def mark_index(self, y):
        """Index of the support point nearest each mark in y.  A discrete
        mark must sit on the support (ValueError otherwise); a gamma mark
        falls in the cell of its nearest quadrature node."""
        y = _finite_marks(y)
        r = np.argmin(np.abs(y[..., None] - self.support), axis=-1)
        off = np.abs(self.support[r] - y) > 1e-9 * (1.0 + np.abs(y))
        if self.kind == "discrete" and off.any():
            raise ValueError(f"mark {float(y[off].flat[0])!r} not in the "
                             "model's support")
        return r

    def density_at(self, y):
        """Per-state density of every observed mark in y, shape
        y.shape + (n,): the exact pdf for gamma marks, else the weight
        column of the mark's support point (mark_index).  Only the ratio
        across states is meaningful.
        """
        y = _finite_marks(y)
        if self.kind == "gamma":
            return gamma_pdf(y[..., None], self.gamma_shape, self.gamma_rate)
        return self.weights.T[self.mark_index(y)]


def _finite_marks(y):
    """y as floats; a ValueError names a NaN or infinite mark in it."""
    y = np.asarray(y, dtype=float)
    if not np.isfinite(y).all():
        raise ValueError(f"mark {y[~np.isfinite(y)][0]} is not a finite "
                         "number")
    return y


def gamma_pdf(y, shape, rate):
    """Gamma(shape, rate) density at y (0 for y < 0), computed on
    scipy.special with the arithmetic of scipy's stats.gamma.pdf, which
    costs about 0.6 s to import.  scipy.special itself is imported here and
    in gamma_marks, so a model without gamma marks never loads it."""
    from scipy import special
    scale = 1.0 / rate
    x = y / scale
    pdf = np.exp(special.xlogy(shape - 1.0, x) - x
                 - special.gammaln(shape)) / scale
    return np.where(x >= 0, pdf, 0.0)


def no_marks(n):
    """Simple Poisson observations: a single dummy mark, f_i identically 1."""
    return MarkModel(
        kind="none",
        support=np.zeros(1),
        weights=np.ones((n, 1)),
    )


def discrete_marks(support, pmf):
    """Finite mark alphabet with per-state pmf rows."""
    support = np.asarray(support, dtype=float)
    pmf = np.asarray(pmf, dtype=float)
    return MarkModel(kind="discrete", support=support, weights=pmf)


GAMMA_Q_HI = 0.9999            # quantile at which gamma_marks cuts its marks
N_QUAD_CAP = 1000              # most quadrature nodes of gamma_marks


def gamma_marks(shape, rate, n_quad=40):
    """Per-state Gamma(shape_i, rate_i) marks via Gauss-Legendre quadrature.

    The quadrature lives on [0, y_max], y_max the GAMMA_Q_HI quantile of
    the widest of the Gamma laws; each state's weight row is renormalized so
    it integrates to one exactly (the discarded tail mass is below
    1 - GAMMA_Q_HI and would otherwise break the normalization invariant).
    At most N_QUAD_CAP nodes: leggauss's memory grows with n_quad squared.
    """
    if not 1 <= n_quad <= N_QUAD_CAP:
        raise ValueError(f"gamma_marks: n_quad must lie in [1, {N_QUAD_CAP}]"
                         f", got {n_quad}")
    from scipy import special
    shape = np.asarray(shape, dtype=float)
    rate = np.asarray(rate, dtype=float)
    # the quantile as scipy's stats.gamma.ppf computes it
    y_max = np.max(special.gammaincinv(shape, GAMMA_Q_HI) * (1.0 / rate))
    x, w = np.polynomial.legendre.leggauss(n_quad)
    nodes = 0.5 * y_max * (x + 1.0)
    wts = 0.5 * y_max * w
    weights = gamma_pdf(nodes, shape[:, None], rate[:, None]) * wts
    weights = weights / weights.sum(axis=1, keepdims=True)
    return MarkModel(
        kind="gamma",
        support=nodes,
        weights=weights,
        gamma_shape=shape,
        gamma_rate=rate,
    )


# ---------------------------------------------------------------------------
# model spec
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelSpec:
    n: int
    Q: np.ndarray                  # (n, n) generator
    lam: np.ndarray                # (n,) arrival rates
    marks: MarkModel
    c: np.ndarray                  # (n,) running cost/reward rates
    rho: float                     # discount rate
    mu: np.ndarray                 # (a, n) terminal reward rows
    horizon: float                 # T
    cost_mode: str = "running"     # "running" | "discrete"
    K: np.ndarray | None = None    # (R,) per-mark cost, cost_mode="discrete"
    states: tuple = ()
    actions: tuple = ()
    sense: str = "max"             # "min" models are stored sign-flipped

    @property
    def lam_bar(self):
        return float(np.max(self.lam))

    @property
    def n_actions(self):
        return self.mu.shape[0]

    def flow_generator(self):
        """Q - diag(lambda), the generator of the killed/no-arrival dynamics."""
        return self.Q - np.diag(self.lam)

    def effective_cost_rates(self):
        """The c_i analogue entering the DP integrand and the error bounds.

        Running mode: c itself.  Discrete mode: lambda_i * (nu_i K), the
        expected information-cost rate while observing.
        """
        if self.cost_mode == "discrete":
            return self.lam * (self.marks.weights @ self.K)
        return self.c

    def norm_C(self):
        return float(np.max(np.abs(self.effective_cost_rates())))

    def norm_H(self):
        # H is a max of linear forms: |H| is at most its largest corner value
        return float(np.max(np.abs(terminal_reward(self, np.eye(self.n))[0])))


def make_model(n, Q, lam, marks=None, c=None, rho=0.0, mu=None, horizon=1.0,
               cost_mode="running", K=None, states=(), actions=(),
               sense="max"):
    """Assemble and validate a ModelSpec from array-likes."""
    Q = np.asarray(Q, dtype=float)
    lam = np.asarray(lam, dtype=float)
    k = n if Q.shape == (n, n) else 0   # size n only once Q agrees
    if marks is None:
        marks = no_marks(k)
    c = np.zeros(k) if c is None else np.asarray(c, dtype=float)
    mu = np.asarray(mu, dtype=float)
    if mu.ndim == 1:
        mu = mu[None, :]
    spec = ModelSpec(
        n=n, Q=Q, lam=lam, marks=marks, c=c, rho=float(rho), mu=mu,
        horizon=float(horizon), cost_mode=cost_mode,
        K=None if K is None else np.asarray(K, dtype=float),
        states=tuple(states), actions=tuple(actions), sense=sense,
    )
    return validate_model(spec)


def model_violations(spec):
    """All violated structural invariants, as human-readable strings."""
    out = []
    n = spec.n
    if n < 1:
        out.append(f"n: state count must be >= 1, got {n}")
        return out
    # NaN and inf fail no comparison below, and would reach the solver
    for name, a in (("Q", spec.Q), ("lambda", spec.lam), ("c", spec.c),
                    ("rho", spec.rho), ("mu", spec.mu), ("K", spec.K),
                    ("horizon", spec.horizon), ("marks", spec.marks.weights),
                    ("marks.support", spec.marks.support)):
        if not np.isfinite(np.asarray(0.0 if a is None else a, float)).all():
            out.append(f"{name}: every value must be finite (no NaN or inf)")
    if out:
        return out
    if spec.Q.shape != (n, n):
        out.append(f"Q: expected shape {(n, n)}, got {spec.Q.shape}")
        return out
    offdiag = spec.Q - np.diag(np.diag(spec.Q))
    if np.any(offdiag < -1e-12):
        i, j = np.unravel_index(np.argmin(offdiag), offdiag.shape)
        out.append(f"Q[{i},{j}]: off-diagonal generator entry must be >= 0, "
                   f"got {spec.Q[i, j]}")
    row_sums = spec.Q.sum(axis=1)
    if np.any(np.abs(row_sums) > 1e-12):
        i = int(np.argmax(np.abs(row_sums)))
        out.append(f"Q row {i}: generator row sum != 0 (got {row_sums[i]})")
    if spec.lam.shape != (n,):
        out.append(f"lambda: expected {n} rates, got shape {spec.lam.shape}")
    else:
        if np.any(spec.lam < 0):
            out.append(f"lambda: all rates must be >= 0, got {spec.lam}")
        if np.max(spec.lam) <= 0:
            out.append("lambda: max lambda_i > 0 required (no observations "
                       "possible otherwise)")
    if spec.c.shape != (n,):
        out.append(f"c: expected {n} rates, got shape {spec.c.shape}")
    if spec.rho < 0:
        out.append(f"rho: discount rate must be >= 0, got {spec.rho}")
    if spec.mu.ndim != 2 or spec.mu.shape[0] < 1 or spec.mu.shape[1] != n:
        out.append(f"mu: expected at least one action row of width {n}, "
                   f"got shape {spec.mu.shape}")
    if spec.horizon < 0:
        out.append(f"horizon: T must be >= 0, got {spec.horizon}")
    if spec.cost_mode not in ("running", "discrete"):
        out.append(f"cost_mode: unknown mode {spec.cost_mode!r}")
    if spec.sense not in ("max", "min"):
        out.append(f"sense: unknown sense {spec.sense!r}")
    if spec.states and len(spec.states) != n:
        out.append(f"states: expected {n} names, got {len(spec.states)}")
    if spec.cost_mode == "discrete":
        if spec.K is None:
            out.append("K: cost_mode='discrete' requires mark costs K")
        elif spec.K.shape != (spec.marks.n_marks,):
            out.append(f"K: expected one value per mark "
                       f"({spec.marks.n_marks}), got shape {spec.K.shape}")
    m = spec.marks
    if m.weights.shape != (n, m.n_marks):
        out.append(f"marks: expected {n} weight rows of {m.n_marks}, one "
                   f"per support point, got shape {m.weights.shape}")
    else:
        if np.any(m.weights < -1e-15):
            out.append("marks: negative probability weight")
        sums = m.weights.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > 1e-8):
            i = int(np.argmax(np.abs(sums - 1.0)))
            out.append(f"marks: state {i} weights sum to {sums[i]}, not 1 "
                       f"(within 1e-8)")
    return out


def validate_model(spec):
    """Return a normalized model or raise ModelError listing every violation.

    Normalization forces generator row sums to exactly zero (by absorbing
    the residual into the diagonal) and freezes all arrays.
    """
    bad = model_violations(spec)
    if bad:
        raise ModelError(bad)
    Q = spec.Q.copy()
    np.fill_diagonal(Q, 0.0)
    Q[Q < 0] = 0.0
    np.fill_diagonal(Q, -Q.sum(axis=1))
    for a in (Q, spec.lam, spec.c, spec.mu):
        a.setflags(write=False)
    return replace(spec, Q=Q)


# ---------------------------------------------------------------------------
# beliefs and reward primitives
# ---------------------------------------------------------------------------

def check_belief(pi, n=None):
    """Validate and return a belief vector (clipped to the simplex)."""
    pi = np.asarray(pi, dtype=float)
    if n is not None and pi.shape != (n,):
        raise ValueError(f"belief: expected {n} components, got {pi.shape}")
    if not np.isfinite(pi).all() or np.any(pi < -1e-9) \
            or abs(pi.sum() - 1.0) > 1e-9:
        raise ValueError(f"belief outside the simplex: {pi}")
    pi = np.clip(pi, 0.0, None)
    return pi / pi.sum()


def check_time(s, horizon, name="s"):
    """Validate and return a time to maturity (clipped to [0, horizon])."""
    if not -1e-12 <= float(s) <= horizon + 1e-12:      # also NaN
        raise ValueError(f"{name}: time to maturity must be a finite number "
                         f"in [0, {horizon:g}], got {s}")
    return min(max(float(s), 0.0), horizon)


def check_eps(eps):
    """Validate and return a stopping tolerance (a finite number >= 0)."""
    if not 0.0 <= float(eps) < np.inf:                 # also NaN
        raise ValueError(f"eps: tolerance must be a finite number >= 0, "
                         f"got {eps}")
    return float(eps)


def check_count(k, name, least=0):
    """Validate and return a count (an integer >= least; a float is refused,
    not truncated)."""
    try:
        count = operator.index(k)
    except TypeError:
        count = None
    if count is None or count < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {k!r}")
    return count


def combine_rows(xt, a):
    """x @ a with its last axis first, from xt = x with its last axis first:
    the terms a[k] xt[k] added in k order, so each entry depends on its own
    row of x alone (a BLAS product rounds a row by the batch size)."""
    out = np.multiply.outer(a[0], xt[0])
    for k in range(1, len(a)):
        out += np.multiply.outer(a[k], xt[k])
    return out


def terminal_reward(model, beliefs):
    """(H, best) at beliefs of shape (..., n): H = max_k sum_i mu[k, i]
    pi_i, summed by combine_rows (so a belief has the same H in any batch),
    and the action attaining it, the smallest index on ties of those
    rounded sums (a tie in exact arithmetic may round either way)."""
    beliefs = np.asarray(beliefs, dtype=float)
    hv = combine_rows(np.moveaxis(beliefs, -1, 0), model.mu.T)
    return hv.max(axis=0), hv.argmax(axis=0)


def net_return_rate(model, i, k):
    """Instantaneous net return of waiting at corner i against action k:

        c_i - rho * mu[k, i] + sum_{j != i} (mu[k, j] - mu[k, i]) * q_{i, j}

    For discrete cost mode, lambda_i * (nu_i K) plays the role of c_i.
    """
    c = model.effective_cost_rates()
    drift = sum(
        (model.mu[k, j] - model.mu[k, i]) * model.Q[i, j]
        for j in range(model.n) if j != i
    )
    return float(c[i] - model.rho * model.mu[k, i] + drift)


# ---------------------------------------------------------------------------
# JSON model files
# ---------------------------------------------------------------------------

def model_to_dict(model):
    d = {
        "n": model.n,
        "Q": model.Q.tolist(),
        "lambda": model.lam.tolist(),
        "c": model.c.tolist(),
        "rho": model.rho,
        "mu": model.mu.tolist(),
        "horizon": model.horizon,
        "cost_mode": model.cost_mode,
        "sense": model.sense,
    }
    m = model.marks
    if m.kind == "none":
        d["marks"] = {"kind": "none"}
    elif m.kind == "discrete":
        d["marks"] = {
            "kind": "discrete",
            "support": m.support.tolist(),
            "pmf": m.weights.tolist(),
        }
    else:
        d["marks"] = {
            "kind": "gamma",
            "shape": m.gamma_shape.tolist(),
            "rate": m.gamma_rate.tolist(),
            "n_quad": int(m.support.size),
        }
    if model.K is not None:
        d["K"] = np.asarray(model.K).tolist()
    if model.states:
        d["states"] = list(model.states)
    if model.actions:
        d["actions"] = list(model.actions)
    return d


def _field(d, key, kind, *default, where=""):
    """d[key] if of JSON type kind ("an integer", "a number", "an object",
    "a list" or "[numbers]": a list of numbers or of equal-length such
    lists, as floats), else default[0] if key is absent, else a ModelError
    that names the field."""
    if key not in d:
        if default:
            return default[0]
        raise ModelError([f"{where}{key}: required field missing"])
    x = d[key]
    if kind == "[numbers]":
        try:
            a = np.asarray(x)
        except ValueError:                # lists of unequal lengths
            a = np.asarray(None)
        if isinstance(x, list) and a.dtype.kind in "iuf":
            return a.astype(float)
    elif isinstance(x, {"an integer": int, "a number": (int, float),
                        "an object": dict, "a list": list}[kind]) \
            and not isinstance(x, bool):
        return x
    raise ModelError([f"{where}{key}: expected {kind}, got "
                      f"{json.dumps(x)[:40]}"])


def _mark_field(md, key, ok, want, *default, kind="[numbers]"):
    """_field of the marks object, a ModelError naming it unless ok."""
    x = _field(md, key, kind, *default, where="marks.")
    if not ok(x):
        raise ModelError([f"marks.{key}: expected {want}, got "
                          f"{json.dumps(md[key])[:40]}"])
    return x


def model_from_dict(d):
    """The validated model of a model file's JSON object; a field that is
    missing or of the wrong type or size is a ModelError naming it."""
    d = _field({"model": d}, "model", "an object")
    n = _field(d, "n", "an integer")
    Q = _field(d, "Q", "[numbers]")
    md = _field(d, "marks", "an object", {"kind": "none"})
    kind = md.get("kind", "none")
    if kind == "none" or Q.shape != (n, n):   # make_model refuses this Q
        marks = None
    elif kind == "discrete":
        marks = discrete_marks(
            _mark_field(md, "support", lambda a: a.ndim == 1, "a flat list"),
            _mark_field(md, "pmf", lambda a: a.ndim == 2 and len(a) == n,
                        f"{n} rows, one per state"))
    elif kind == "gamma":
        marks = gamma_marks(
            *(_mark_field(md, k, lambda a: a.shape == (n,),
                          f"{n} values, one per state")
              for k in ("shape", "rate")),
            n_quad=_mark_field(md, "n_quad", lambda q: 1 <= q <= N_QUAD_CAP,
                               f"an integer in [1, {N_QUAD_CAP}]", 40,
                               kind="an integer"))
    else:
        raise ModelError([f"marks.kind: unknown kind {kind!r}"])
    return make_model(
        n=n,
        Q=Q,
        lam=_field(d, "lambda", "[numbers]"),
        marks=marks,
        c=_field(d, "c", "[numbers]", None),
        rho=_field(d, "rho", "a number", 0.0),
        mu=_field(d, "mu", "[numbers]"),
        horizon=_field(d, "horizon", "a number", 1.0),
        cost_mode=d.get("cost_mode", "running"),
        K=_field(d, "K", "[numbers]", None),
        states=_field(d, "states", "a list", ()),
        actions=_field(d, "actions", "a list", ()),
        sense=d.get("sense", "max"),
    )


def model_hash(model):
    """sha256 hex digest of the model's JSON form with sorted keys."""
    blob = json.dumps(model_to_dict(model), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def load_model(path):
    with open(path) as fh:
        return model_from_dict(json.load(fh))


def save_model(model, path):
    with open(path, "w") as fh:
        json.dump(model_to_dict(model), fh, indent=2)
        fh.write("\n")
