"""Decisions from value surfaces: regions, epsilon-optimal rules, diagnostics.

The stop set at time-to-maturity s is {pi : V(s, pi) = H(pi)}, detected on
the grid as V - H <= eps_tol; stopping selects the best terminal action
(smallest index on ties).  The deterministic first-crossing time follows the
no-arrival flow until it enters the eps-stop set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .filter import flow_path
from .model import (best_action_nodes, check_belief, net_return_rate,
                    terminal_reward, terminal_reward_nodes)
from .valueiter import _format_nodes, apply_J0

CONTINUE = -1
N_BISECT = 60                    # bisections per continuation-interval end


@dataclass
class StoppingRegion:
    surface: object
    eps_tol: float
    labels: np.ndarray           # (L+1, N); -1 = continue, else action index

    def stop_mask(self, k=None):
        lab = self.labels if k is None else self.labels[k]
        return lab != CONTINUE

    def action_nodes(self, k, action):
        """Node indices labeled with the given action at knot k."""
        return np.nonzero(self.labels[k] == action)[0]

    def to_csv(self, path):
        """Rows (s, coordinates, label); coordinates are formatted once."""
        grid = self.surface.grid
        cols = ",".join(f"pi{i + 1}" for i in range(grid.n))
        coords = _format_nodes(grid.nodes)
        with open(path, "w") as fh:
            fh.write(f"s,{cols},label\n")
            for s, row in zip(self.surface.knots.tolist(), self.labels):
                s = f"{s:.17g},"
                fh.write("".join([f"{s}{c},{lab}\n" for c, lab
                                  in zip(coords, row.tolist())]))


def extract_regions(surface, eps_tol=None):
    """Label every (knot, node) as continue or stop-with-best-action."""
    if eps_tol is None:
        eps_tol = 10.0 * surface.meta.get("tol", 1e-4)
    model = surface.model
    H = terminal_reward_nodes(model, surface.grid.nodes)
    best = best_action_nodes(model, surface.grid.nodes)
    stop = surface.values - H[None, :] <= eps_tol
    labels = np.where(stop, best[None, :], CONTINUE).astype(np.int64)
    return StoppingRegion(surface=surface, eps_tol=float(eps_tol),
                          labels=labels)


# ---------------------------------------------------------------------------
# two-state boundary curves
# ---------------------------------------------------------------------------

def continuation_interval(model, grid, values, eps_tol):
    """[lower, upper] of the continuation set in the pi_2 coordinate (n=2).

    ``values`` is a nodal value slice.  The interval endpoints are refined
    by N_BISECT bisections of V - H - eps_tol between the bracketing nodes.
    Returns (nan, nan) when no node continues.
    """
    lo, hi = _continuation_intervals(model, grid, np.atleast_2d(values),
                                     eps_tol)[0]
    return float(lo), float(hi)


def _continuation_intervals(model, grid, V, eps_tol):
    """continuation_interval for every row of V (K, N) -> (K, 2); the
    endpoints of all rows are bisected together, one lookup per step."""
    if model.n != 2:
        raise ValueError("continuation_interval is defined for n = 2 only")
    order = np.argsort(grid.nodes[:, 1])
    p2s = grid.nodes[order, 1]
    H = terminal_reward_nodes(model, grid.nodes)
    cont = (V - H)[:, order] > eps_tol
    out = np.full((len(V), 2), np.nan)
    rows = np.nonzero(cont.any(axis=1))[0]
    first = np.argmax(cont[rows], axis=1)
    last = cont.shape[1] - 1 - np.argmax(cont[rows, ::-1], axis=1)
    out[rows, 0], out[rows, 1] = p2s[first], p2s[last]
    # endpoints with a stopping neighbour: bisect g(a) <= 0 < g(b) or
    # vice versa between the bracketing nodes
    lo, hi = first > 0, last < len(p2s) - 1
    k = np.concatenate([rows[lo], rows[hi]])
    col = np.repeat([0, 1], [lo.sum(), hi.sum()])
    a = p2s[np.concatenate([first[lo] - 1, last[hi] + 1])]
    b = p2s[np.concatenate([first[lo], last[hi]])]

    def g_nonpos(q2):
        pts = np.stack([1.0 - q2, q2], axis=1)
        idx, w = grid.barycentric(pts)
        return (np.sum(V[k[:, None], idx] * w, axis=1)
                - terminal_reward_nodes(model, pts) - eps_tol) <= 0.0

    fa = g_nonpos(a)
    for _ in range(N_BISECT):
        mid = 0.5 * (a + b)
        same = g_nonpos(mid) == fa
        a, b = np.where(same, mid, a), np.where(same, b, mid)
    out[k, col] = 0.5 * (a + b)
    return out


def boundary_curve(surface, eps_tol=None):
    """Per-knot continuation interval in pi_2 for two-state models.

    Returns an (L+1, 3) array of rows (s, lower, upper).
    """
    if eps_tol is None:
        eps_tol = 10.0 * surface.meta.get("tol", 1e-4)
    return np.column_stack([surface.knots, _continuation_intervals(
        surface.model, surface.grid, surface.values, eps_tol)])


def boundary_curve_to_csv(curve, path):
    with open(path, "w") as fh:
        fh.write("s,lower,upper\n")
        for s, lo, hi in curve:
            fh.write(f"{s:.17g},{lo:.17g},{hi:.17g}\n")


# ---------------------------------------------------------------------------
# recommendations and stopping rules
# ---------------------------------------------------------------------------

@dataclass
class Recommendation:
    decision: str                # "continue" | "stop"
    action: int | None
    value: float
    reward: float
    gap: float
    wait: float | None = None    # maximizing deterministic wait (if computed)


def recommend(model, surface, s_remaining, pi, eps, compute_wait=False):
    """Stop iff V(s_remaining, pi) - eps <= H(pi)."""
    pi = check_belief(pi, model.n)
    v = surface.value_at(s_remaining, pi)
    h, best = terminal_reward(model, pi)
    gap = v - h
    if gap <= eps:
        return Recommendation("stop", best, v, h, gap, wait=0.0)
    wait = None
    if compute_wait:
        _, wait = apply_J0(model, surface, s_remaining, pi)
    return Recommendation("continue", None, v, h, gap, wait=wait)


def deterministic_stop_time(model, surface, s, pi, eps):
    """First grid time at which the no-arrival flow enters the eps-stop set;
    s if it never does before the deadline."""
    pi = check_belief(pi, model.n)
    t = surface.knots[surface.knots <= s + 1e-12]
    if not t.size:                    # s < 0: no time left to wait
        return float(s)
    X = flow_path(model, pi, surface.dt, len(t) - 1)[1][:, 0]
    stop = surface.value_at_batch(s - t, X) - eps \
        <= terminal_reward_nodes(model, X)
    return float(t[stop][0]) if stop.any() else float(s)


# ---------------------------------------------------------------------------
# structural diagnostics
# ---------------------------------------------------------------------------

def ila_boundary(model):
    """Infinitesimal look-ahead coefficients r_i = c_i + sum_{j != i}
    (mu_j - mu_i) q_{i,j} for single-action models; the rule stops when
    sum_i r_i Pi_i < 0."""
    if model.n_actions != 1:
        raise ValueError("ila_boundary: defined for single-action models "
                         f"only (model has {model.n_actions} actions)")
    mu = model.mu[0]
    c = model.effective_cost_rates()
    r = np.array([
        c[i] + sum((mu[j] - mu[i]) * model.Q[i, j]
                   for j in range(model.n) if j != i)
        for i in range(model.n)
    ])
    return r


def corner_diagnostics(model):
    """Per-corner structural report.

    For each state i: the optimal action set at the corner, whether every
    such action has a positive net return rate (then the corner belongs to
    the continuation region for every s > 0), and -- for corners attaining
    the best terminal reward -- whether a horizon-free stop neighborhood
    exists (rho > 0 or negative effective cost rate).
    """
    c_eff = model.effective_cost_rates()
    mu_best = float(np.max(model.mu))
    report = {}
    for i in range(model.n):
        vals = model.mu[:, i]
        top = float(np.max(vals))
        astar = [int(k) for k in range(model.n_actions)
                 if vals[k] >= top - 1e-12]
        rates = {k: net_return_rate(model, i, k) for k in astar}
        in_istar = top >= mu_best - 1e-12
        report[i] = {
            "optimal_actions": astar,
            "net_return_rates": rates,
            "continuation_corner": all(r > 0 for r in rates.values()),
            "in_I_star": bool(in_istar),
            "stop_neighborhood": bool(
                in_istar and (model.rho > 0 or c_eff[i] < 0)
            ),
        }
    return report


def two_hypothesis_diagnostics(model):
    """Closed-form facts for the two-state, zero-generator, simple-Poisson
    Bayes-risk model with misclassification penalties mu_12, mu_21:

    - trivial (stop everywhere immediately) iff
        mu21 mu12 (lam2 - lam1) <= mu21 + mu12;
    - the boundary b_1 near maturity sits at the flat level
        (1 + mu21 lam1) / (mu21 lam1 + mu12 lam2);
    - at zero time-to-maturity the boundary is mu21 / (mu21 + mu12).
    """
    bad = []
    if model.n != 2:
        bad.append(f"need n=2, got {model.n}")
    elif np.max(np.abs(model.Q)) > 1e-12:
        bad.append("need an absorbing chain (Q = 0)")
    if model.marks.kind != "none":
        bad.append("need simple Poisson observations (no marks)")
    if model.mu.shape != (2, 2) or np.max(np.abs(np.diag(model.mu))) > 1e-12 \
            or np.any(model.mu - np.diag(np.diag(model.mu)) > 1e-12):
        bad.append("need a sign-flipped penalty matrix "
                   "[[0, -mu12], [-mu21, 0]]")
    if bad:
        raise ValueError("two_hypothesis_diagnostics: " + "; ".join(bad))
    mu12 = -float(model.mu[0, 1])
    mu21 = -float(model.mu[1, 0])
    lam1, lam2 = float(model.lam[0]), float(model.lam[1])
    return {
        "trivial": mu21 * mu12 * (lam2 - lam1) <= mu21 + mu12,
        "flat_level": (1.0 + mu21 * lam1) / (mu21 * lam1 + mu12 * lam2),
        "t0_boundary": mu21 / (mu21 + mu12),
    }
