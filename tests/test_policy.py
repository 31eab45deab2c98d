"""Stopping regions, recommendations and structural diagnostics."""

import dataclasses

import numpy as np
import pytest

from poistop import (
    boundary_curve,
    build_grid,
    continuation_interval,
    corner_diagnostics,
    deterministic_stop_time,
    extract_regions,
    ila_boundary,
    load_preset,
    make_model,
    recommend,
    solve_finite,
    solve_infinite,
    two_hypothesis_diagnostics,
)
from poistop.model import terminal_reward, terminal_reward_nodes
from poistop.policy import CONTINUE, boundary_curve_to_csv


@pytest.fixture(scope="module")
def regime():
    model, _ = load_preset("regime")
    grid = build_grid(2, 200)
    surf = solve_finite(model, grid=grid, L=400, tol=1e-4)
    return model, surf


# -- regions ----------------------------------------------------------------

def test_regions_everything_stops_at_zero(regime):
    model, surf = regime
    region = extract_regions(surf, 1e-3)
    assert np.all(region.labels[0] != CONTINUE)


def test_regions_labels_are_best_actions(regime):
    model, surf = regime
    region = extract_regions(surf, 1e-3)
    best = np.argmax(surf.grid.nodes @ model.mu.T, axis=1)
    stop = region.labels != CONTINUE
    assert np.all(region.labels[stop] == np.tile(best, (surf.L + 1, 1))[stop])


def test_regions_default_eps_from_meta(regime):
    model, surf = regime
    region = extract_regions(surf)
    assert region.eps_tol == pytest.approx(10.0 * surf.meta["tol"])


def test_regions_action_nodes_partition(regime):
    model, surf = regime
    region = extract_regions(surf, 1e-3)
    k = surf.L
    n0 = region.action_nodes(k, 0)
    n1 = region.action_nodes(k, 1)
    assert len(n0) + len(n1) == region.stop_mask(k).sum()
    # declare-slow nodes sit at low pi_2, declare-fast at high pi_2
    assert surf.grid.nodes[n0, 1].max() < surf.grid.nodes[n1, 1].min()


def test_regions_csv(tmp_path, regime):
    model, surf = regime
    region = extract_regions(surf, 1e-3)
    path = tmp_path / "regions.csv"
    region.to_csv(path)
    with open(path) as fh:
        assert fh.readline().strip() == "s,pi1,pi2,label"
        n_rows = sum(1 for _ in fh)
    assert n_rows == (surf.L + 1) * surf.grid.n_nodes


# -- boundary curves --------------------------------------------------------

def test_continuation_interval_regime(regime):
    model, surf = regime
    lo, hi = continuation_interval(model, surf.grid, surf.values[-1], 1e-3)
    assert 0.2 < lo < 0.3 < 0.5 < hi < 0.75


def test_continuation_interval_empty_when_eps_large(regime):
    model, surf = regime
    lo, hi = continuation_interval(model, surf.grid, surf.values[-1], 10.0)
    assert np.isnan(lo) and np.isnan(hi)


def test_continuation_interval_needs_two_states():
    model, _ = load_preset("insurance")
    grid = build_grid(3, 10)
    with pytest.raises(ValueError):
        continuation_interval(model, grid, np.zeros(grid.n_nodes), 1e-3)


def test_boundary_curve_shape_and_monotone_onset(regime):
    model, surf = regime
    curve = boundary_curve(surf, 1e-3)
    assert curve.shape == (surf.L + 1, 3)
    assert np.isnan(curve[0, 1])  # everything stops at maturity
    # once the continuation set is born it contains the cost peak 0.5
    live = ~np.isnan(curve[:, 1])
    assert np.all(curve[live, 1] < 0.5)
    assert np.all(curve[live, 2] > 0.5)


def test_boundary_curve_csv(tmp_path, regime):
    model, surf = regime
    curve = boundary_curve(surf, 1e-3)
    path = tmp_path / "boundary.csv"
    boundary_curve_to_csv(curve, path)
    data = np.genfromtxt(path, delimiter=",", skip_header=1)
    assert data.shape == (surf.L + 1, 3)


def reference_interval(model, grid, values, eps_tol, n_bisect=60):
    """Slow oracle: one slice, one scalar interpolation per bisection step."""
    p2 = grid.nodes[:, 1]
    order = np.argsort(p2)
    gap = values - terminal_reward_nodes(model, grid.nodes)
    cont = gap[order] > eps_tol
    if not cont.any():
        return float("nan"), float("nan")
    p2s = p2[order]

    def g(q2):
        pi = np.array([1.0 - q2, q2])
        return (grid.interpolate(values, pi)
                - terminal_reward(model, pi)[0] - eps_tol)

    def refine(a, b):
        fa = g(a)
        for _ in range(n_bisect):
            mid = 0.5 * (a + b)
            if (g(mid) <= 0.0) == (fa <= 0.0):
                a = mid
            else:
                b = mid
        return 0.5 * (a + b)

    first = int(np.argmax(cont))
    last = len(cont) - 1 - int(np.argmax(cont[::-1]))
    lower = p2s[first]
    if first > 0:
        lower = refine(p2s[first - 1], p2s[first])
    upper = p2s[last]
    if last < len(cont) - 1:
        upper = refine(p2s[last + 1], p2s[last])
    return float(lower), float(upper)


@pytest.fixture(scope="module")
def regime_small():
    model, _ = load_preset("regime")
    grid = build_grid(2, 50)
    return model, solve_finite(model, grid=grid, L=60, tol=1e-4)


# eps 0.3 leaves some knots without continuation nodes, eps -1 makes every
# node continue (no endpoint to refine), eps 10 makes every node stop
@pytest.mark.parametrize("eps", [1e-3, 1e-4, 0.3, -1.0, 10.0])
def test_boundary_curve_matches_scalar_bisection(regime_small, eps):
    model, surf = regime_small
    curve = boundary_curve(surf, eps)
    ref = np.array([(s, *reference_interval(model, surf.grid, v, eps))
                    for s, v in zip(surf.knots, surf.values)])
    assert curve.shape == ref.shape
    assert np.array_equal(curve, ref, equal_nan=True)


def test_continuation_interval_stationary_slice():
    model, _ = load_preset("regime")
    grid = build_grid(2, 60)
    stat = solve_infinite(model, grid=grid, tol=1e-6)
    assert stat.values.ndim == 1
    lo, hi = continuation_interval(model, grid, stat.values, 1e-6)
    assert (lo, hi) == reference_interval(model, grid, stat.values, 1e-6)
    assert 0.0 < lo < 0.5 < hi < 1.0


# -- recommendations and stop times -----------------------------------------

def test_recommend_zero_horizon_stops(regime):
    model, surf = regime
    rec = recommend(model, surf, 0.0, [0.5, 0.5], 1e-3)
    assert rec.decision == "stop"
    assert rec.action == 0  # tie at pi = (0.5, 0.5) -> smallest index
    assert rec.wait == 0.0


def test_recommend_continue_midpoint(regime):
    model, surf = regime
    rec = recommend(model, surf, 2.0, [0.5, 0.5], 1e-3, compute_wait=True)
    assert rec.decision == "continue"
    assert rec.action is None
    assert rec.gap > 0.2
    assert rec.wait is not None and 0.0 < rec.wait <= 2.0


def test_recommend_inside_stop_region(regime):
    model, surf = regime
    rec = recommend(model, surf, 2.0, [0.95, 0.05], 1e-3)
    assert rec.decision == "stop"
    assert rec.action == 0


def test_stop_time_zero_inside_stop_set(regime):
    model, surf = regime
    assert deterministic_stop_time(model, surf, 2.0, [0.95, 0.05],
                                   1e-3) == 0.0


def test_stop_time_zero_for_huge_eps(regime):
    model, surf = regime
    assert deterministic_stop_time(model, surf, 2.0, [0.5, 0.5], 10.0) == 0.0


def test_stop_time_no_crossing_runs_to_maturity(regime):
    # pi_2 slightly above the flat 0.25 boundary with a short deadline:
    # the no-arrival flow drifts toward the (1, 0) corner but too slowly
    # to cross before maturity
    model, surf = regime
    t = deterministic_stop_time(model, surf, 0.05, [0.70, 0.30], 1e-4)
    assert t == pytest.approx(0.05, abs=1e-12)


def test_stop_time_early_crossing(regime):
    # starting just above the boundary, the same drift crosses immediately
    model, surf = regime
    t = deterministic_stop_time(model, surf, 0.10, [0.74, 0.26], 1e-4)
    assert 0.0 < t <= 0.02


# -- look-ahead boundary ----------------------------------------------------

def test_ila_zero_for_degenerate_model():
    m = make_model(n=2, Q=[[-1.0, 1.0], [2.0, -2.0]], lam=[1.0, 2.0],
                   c=[0.0, 0.0], mu=[[3.0, 3.0]], horizon=1.0)
    assert np.allclose(ila_boundary(m), 0.0)


def test_ila_reliability_coefficients():
    model, _ = load_preset("reliability")
    # c_i + sum_j (mu_j - mu_i) q_ij:
    #   good: 1 + 0*1.5 + 1*2.5 = 3.5; worn: 0 + 1*1.5; failed: -1
    assert np.allclose(ila_boundary(model), [3.5, 1.5, -1.0])


def test_ila_rejects_multiple_actions():
    model, _ = load_preset("insurance")
    with pytest.raises(ValueError):
        ila_boundary(model)


# -- corner diagnostics -----------------------------------------------------

def test_corner_diagnostics_insurance():
    model, _ = load_preset("insurance")
    rep = corner_diagnostics(model)
    # corner B attains the global best terminal reward (6) and rho > 0:
    # stopping is strictly optimal in a neighborhood for any horizon
    assert rep[0]["in_I_star"] and rep[0]["stop_neighborhood"]
    # corner G: unique optimal action launch, net return rate 1.6 > 0
    assert rep[1]["optimal_actions"] == [0]
    assert rep[1]["net_return_rates"][0] == pytest.approx(1.6)
    assert rep[1]["continuation_corner"]
    assert not rep[1]["in_I_star"]


def test_corner_diagnostics_degenerate():
    m = make_model(n=2, Q=[[-1.0, 1.0], [1.0, -1.0]], lam=[1.0, 2.0],
                   c=[0.0, 0.0], rho=0.0, mu=[[1.0, 1.0], [1.0, 1.0]],
                   horizon=1.0)
    rep = corner_diagnostics(m)
    for i in (0, 1):
        assert not rep[i]["continuation_corner"]
        assert not rep[i]["stop_neighborhood"]


def test_corner_diagnostics_discrete_mode_uses_mark_costs():
    model, _ = load_preset("techadopt")
    rep = corner_diagnostics(model)
    # corner High: best action maximal (10); waiting only costs
    assert rep[2]["optimal_actions"] == [2]
    assert rep[2]["net_return_rates"][2] < 0
    assert not rep[2]["continuation_corner"]
    assert rep[2]["in_I_star"] and rep[2]["stop_neighborhood"]


# -- two-hypothesis diagnostics ---------------------------------------------

def test_two_hypothesis_regime_values():
    model, _ = load_preset("regime")
    d = two_hypothesis_diagnostics(model)
    # mu21 mu12 (lam2 - lam1) = 16 > mu21 + mu12 = 4: non-trivial
    assert not d["trivial"]
    assert d["flat_level"] == pytest.approx(0.25)
    assert d["t0_boundary"] == pytest.approx(0.5)


def test_two_hypothesis_trivial_cases():
    base, _ = load_preset("regime")
    unit = dataclasses.replace(
        base, mu=np.array([[0.0, -1.0], [-1.0, 0.0]]),
        lam=np.array([1.0, 2.0]))
    assert two_hypothesis_diagnostics(unit)["trivial"]  # 1*1*1 <= 2
    same = dataclasses.replace(base, lam=np.array([3.0, 3.0]))
    assert two_hypothesis_diagnostics(same)["trivial"]  # rate gap 0


def test_two_hypothesis_shape_checks():
    model, _ = load_preset("insurance")
    with pytest.raises(ValueError):
        two_hypothesis_diagnostics(model)
    moving, _ = load_preset("regime")
    moving = dataclasses.replace(
        moving, Q=np.array([[-1.0, 1.0], [1.0, -1.0]]))
    with pytest.raises(ValueError):
        two_hypothesis_diagnostics(moving)
