"""Decisions from value surfaces: regions, epsilon-optimal rules, diagnostics.

Every decision is one rule, stop_rule: stop iff V(s, pi) - H(pi) <= eps,
acting on the best terminal action (smallest index on ties).  Regions apply
it at the lattice nodes, recommendations at one belief, the deterministic
first-crossing time along the no-arrival flow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .filter import flow, flow_path
from .model import (check_nonneg, combine_rows, net_return_rate,
                    terminal_reward)
from .valueiter import _format_nodes, apply_J0

CONTINUE = -1


def stop_rule(model, v, beliefs, eps):
    """The eps-optimal rule at beliefs (..., n) with values v (broadcast
    against the leading shape): (stop, action, H) with stop iff v - H <= eps
    and action the best terminal action (terminal_reward's)."""
    H, best = terminal_reward(model, beliefs)
    return v - H <= eps, best, H


@dataclass
class StoppingRegion:
    surface: object
    eps_tol: float
    labels: np.ndarray           # (L+1, N); -1 = continue, else action index

    def to_csv(self, path):
        """Rows (s, coordinates, label) in knot-then-node order, one where a
        node's label differs from its label at the knot before (every node
        at s = 0): each node's last label carried forward is its label."""
        grid = self.surface.grid
        cols = ",".join(f"pi{i + 1}" for i in range(grid.n))
        coords = _format_nodes(grid.nodes)
        knots = [f"{s:.17g}" for s in self.surface.knots.tolist()]
        k, i = np.nonzero(np.diff(self.labels, axis=0, prepend=CONTINUE - 1))
        with open(path, "w") as fh:
            fh.write(f"s,{cols},label\n")
            fh.writelines(f"{knots[a]},{coords[b]},{lab}\n" for a, b, lab in
                          zip(k.tolist(), i.tolist(),
                              self.labels[k, i].tolist()))


def _region_tolerance(surface, eps_tol=None):
    """eps_tol checked, or by default 10 times the tolerance the surface was
    solved to: the one default of extract_regions and boundary_curve."""
    return check_nonneg(10.0 * surface.meta.get("tol", 1e-4)
                        if eps_tol is None else eps_tol, "eps: tolerance")


def extract_regions(surface, eps_tol=None):
    """Label every (knot, node) as continue or stop-with-best-action."""
    eps_tol = _region_tolerance(surface, eps_tol)
    stop, best, _ = stop_rule(surface.model, surface.values,
                              surface.grid.nodes, eps_tol)
    labels = np.where(stop, best, CONTINUE).astype(np.int64, copy=False)
    return StoppingRegion(surface=surface, eps_tol=eps_tol,
                          labels=labels)


# ---------------------------------------------------------------------------
# two-state boundary curves
# ---------------------------------------------------------------------------

def continuation_interval(model, grid, values, eps_tol):
    """[lower, upper] of the continuation set in the pi_2 coordinate (n=2).

    ``values`` is a nodal value slice.  An endpoint next to a stopping node
    is the exact crossing of V - H = eps_tol on that lattice cell.
    Returns (nan, nan) when no node continues.
    """
    lo, hi = _continuation_intervals(model, grid, np.atleast_2d(values),
                                     eps_tol)[0]
    return float(lo), float(hi)


def _continuation_intervals(model, grid, V, eps_tol):
    """continuation_interval for every row of V (K, N) -> (K, 2).

    On the cell from a stopping node a to a continuing node b, V and each
    g_k = V - h_k - eps_tol are linear in pi_2; as some g_k(a) <= 0 and
    every g_k(b) > 0, the cell stops up to a + (b - a) t with
    t = max {g_k(a) / (g_k(a) - g_k(b)) : g_k(a) <= 0}."""
    if model.n != 2:
        raise ValueError("continuation_interval is defined for n = 2 only")
    eps_tol = check_nonneg(eps_tol, "eps: tolerance")
    order = np.argsort(grid.nodes[:, 1])
    nodes, V = grid.nodes[order], V[:, order]
    p2s = nodes[:, 1]
    cont = ~stop_rule(model, V, nodes, eps_tol)[0]
    out = np.full((len(V), 2), np.nan)
    rows = np.nonzero(cont.any(axis=1))[0]
    first = np.argmax(cont[rows], axis=1)
    last = cont.shape[1] - 1 - np.argmax(cont[rows, ::-1], axis=1)
    out[rows, 0], out[rows, 1] = p2s[first], p2s[last]
    # endpoints with a stopping neighbour a of the continuing node b
    lo, hi = first > 0, last < len(p2s) - 1
    k = np.concatenate([rows[lo], rows[hi]])
    col = np.repeat([0, 1], [lo.sum(), hi.sum()])
    a = np.concatenate([first[lo] - 1, last[hi] + 1])
    b = np.concatenate([first[lo], last[hi]])
    hv = combine_rows(nodes.T, model.mu.T).T      # terminal_reward's sums
    ga = V[k, a][:, None] - hv[a] - eps_tol
    gb = V[k, b][:, None] - hv[b] - eps_tol
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(ga <= 0.0, ga / (ga - gb), 0.0).max(axis=1)
    out[k, col] = p2s[a] + (p2s[b] - p2s[a]) * t
    return out


def boundary_curve(surface, eps_tol=None):
    """Per-knot continuation interval in pi_2 for two-state models.

    Returns an (L+1, 3) array of rows (s, lower, upper).
    """
    return np.column_stack([surface.knots, _continuation_intervals(
        surface.model, surface.grid, surface.values,
        _region_tolerance(surface, eps_tol))])


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
    """stop_rule at one belief: stop iff V(s_remaining, pi) - H(pi) <= eps."""
    s_remaining, pi = surface.check_query(model, s_remaining, pi)
    eps = check_nonneg(eps, "eps: tolerance")
    v = surface.value_at(s_remaining, pi)
    stop, best, h = stop_rule(model, v, pi, eps)
    h = float(h)
    if stop:
        return Recommendation("stop", int(best), v, h, v - h, wait=0.0)
    wait = None
    if compute_wait:
        _, wait = apply_J0(model, surface, s_remaining, pi)
    return Recommendation("continue", None, v, h, v - h, wait=wait)


def deterministic_stop_time(model, surface, s, pi, eps):
    """First grid time at which the no-arrival flow enters the eps-stop set;
    s if it never does before the deadline."""
    s, pi = surface.check_query(model, s, pi)
    eps = check_nonneg(eps, "eps: tolerance")
    return _flow_stop(model, surface, s, pi, eps)[0]


def _flow_stop(model, surface, s, pi, eps):
    """(time, action, mass) of deterministic_stop_time on checked arguments:
    the first knot stop_rule stops, its action and the flow's survival mass
    (no arrival yet) there, else s, the best action at the flow's belief
    there and the mass at the last knot."""
    t = surface.knots[surface.knots <= s + 1e-12]
    _, X, sv = (a[:, 0] for a in flow_path(model, pi, surface.dt,
                                           len(t) - 1, surface.flow_step))
    v = surface.value_at_batch(np.maximum(s - t, 0.0), X)   # see _j_path
    stop, best, _ = stop_rule(model, v, X, eps)
    if stop.any():
        return float(t[stop][0]), int(best[stop][0]), float(sv[stop][0])
    x = flow(model, max(s - t[-1], 0.0), X[-1])     # on to an off-knot s
    return float(s), int(terminal_reward(model, x)[1]), float(sv[-1])


# ---------------------------------------------------------------------------
# structural diagnostics
# ---------------------------------------------------------------------------

def ila_boundary(model):
    """Infinitesimal look-ahead coefficients r_i, the net return rate of
    waiting at corner i (model.net_return_rate) for single-action models;
    the rule stops when sum_i r_i Pi_i < 0."""
    if model.n_actions != 1:
        raise ValueError("ila_boundary: defined for single-action models "
                         f"only (model has {model.n_actions} actions)")
    return np.array([net_return_rate(model, i, 0) for i in range(model.n)])


def corner_diagnostics(model):
    """Per-corner structural report.

    For each state i: the optimal action set at the corner, whether every
    such action has a positive net return rate (then the corner belongs to
    the continuation region for every s > 0), and -- for corners attaining
    the best terminal reward -- whether a horizon-free stop neighborhood
    exists (rho > 0 or negative effective cost rate).
    """
    c_eff = model.effective_cost_rates()
    H = terminal_reward(model, np.eye(model.n))[0]      # at the corners
    report = {}
    for i in range(model.n):
        astar = [int(k) for k in range(model.n_actions)
                 if model.mu[k, i] >= H[i] - 1e-12]
        rates = {k: net_return_rate(model, i, k) for k in astar}
        in_istar = H[i] >= H.max() - 1e-12
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
