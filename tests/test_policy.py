"""Stopping regions, recommendations and structural diagnostics."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm

from poistop import (
    boundary_curve,
    build_grid,
    continuation_interval,
    corner_diagnostics,
    deterministic_stop_time,
    evaluate_policy,
    extract_regions,
    ila_boundary,
    load_preset,
    make_model,
    recommend,
    solve_finite,
    solve_infinite,
    two_hypothesis_diagnostics,
    ValueSurface,
)
from poistop.model import terminal_reward
from poistop.policy import CONTINUE, boundary_curve_to_csv, stop_rule


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
    # regions.csv and boundary.csv share the one default tolerance
    model, surf = regime
    region = extract_regions(surf)
    assert region.eps_tol == pytest.approx(10.0 * surf.meta["tol"])
    assert np.array_equal(boundary_curve(surf),
                          boundary_curve(surf, region.eps_tol),
                          equal_nan=True)


def test_regions_action_nodes_partition(regime):
    model, surf = regime
    region = extract_regions(surf, 1e-3)
    k = surf.L
    n0 = np.nonzero(region.labels[k] == 0)[0]
    n1 = np.nonzero(region.labels[k] == 1)[0]
    assert len(n0) + len(n1) == np.sum(region.labels[k] != CONTINUE)
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


def reference_interval(model, grid, values, eps_tol, n_bisect=64):
    """Slow oracle: one slice, a scalar bisection on the cell between each
    end of the continuation set and its stopping neighbour.  The cell lines
    g_k = V - h_k - eps_tol are evaluated in exact rational arithmetic
    (Fraction on the float node values and coordinates, mu and eps_tol), so
    the result is within 2**-n_bisect of a cell of the exact root of
    V - H = eps_tol.  Returns Fractions (or nan)."""
    p2 = grid.nodes[:, 1]
    order = np.argsort(p2)
    gap = values - terminal_reward(model, grid.nodes)[0]
    cont = gap[order] > eps_tol
    if not cont.any():
        return float("nan"), float("nan")
    mu = [[Fraction(x) for x in row] for row in model.mu]
    eps = Fraction(eps_tol)

    def g(j):
        node = [Fraction(x) for x in grid.nodes[j]]
        v = Fraction(values[j])
        return [v - sum(m * x for m, x in zip(row, node)) - eps
                for row in mu]

    def refine(a, b):
        ga, gb = g(a), g(b)
        lo, hi = Fraction(0), Fraction(1)
        for _ in range(n_bisect):
            t = (lo + hi) / 2
            if min(x + (y - x) * t for x, y in zip(ga, gb)) <= 0:
                lo = t
            else:
                hi = t
        pa, pb = Fraction(p2[a]), Fraction(p2[b])
        return pa + (pb - pa) * (lo + hi) / 2

    first = int(np.argmax(cont))
    last = len(cont) - 1 - int(np.argmax(cont[::-1]))
    lower = Fraction(p2[order[first]])
    if first > 0:
        lower = refine(order[first - 1], order[first])
    upper = Fraction(p2[order[last]])
    if last < len(cont) - 1:
        upper = refine(order[last + 1], order[last])
    return lower, upper


def assert_within_2ulp(got, ref):
    if isinstance(ref, float):            # no continuation node
        assert np.isnan(got) and np.isnan(ref)
        return
    assert abs(Fraction(float(got)) - ref) \
        <= 2 * Fraction(np.spacing(float(ref)))


@pytest.fixture(scope="module")
def regime_small():
    model, _ = load_preset("regime")
    grid = build_grid(2, 50)
    return model, solve_finite(model, grid=grid, L=60, tol=1e-4)


# eps 0.3 leaves some knots without continuation nodes, eps 10 makes every
# node stop
@pytest.mark.parametrize("eps", [0.0, 1e-6, 1e-4, 1e-3, 0.3, 10.0])
def test_boundary_curve_matches_scalar_bisection(regime_small, eps):
    model, surf = regime_small
    curve = boundary_curve(surf, eps)
    assert curve.shape == (surf.L + 1, 3)
    assert np.array_equal(curve[:, 0], surf.knots)
    for row, v in zip(curve, surf.values):
        lo, hi = reference_interval(model, surf.grid, v, eps)
        assert_within_2ulp(row[1], lo)
        assert_within_2ulp(row[2], hi)


def test_boundary_curve_every_node_continues(regime_small):
    # a surface 1 above the solved one continues at every node of every
    # slice, knot 0 included: no endpoint to refine, the whole [0, 1]
    model, surf = regime_small
    raised = ValueSurface(model, surf.grid, surf.knots, surf.values + 1.0)
    curve = boundary_curve(raised, 0.0)
    for row, v in zip(curve, raised.values):
        assert (row[1], row[2]) == (0.0, 1.0)
        assert reference_interval(model, surf.grid, v, 0.0) == (0, 1)


def test_boundary_at_zero_eps_brackets_by_the_cell():
    # at eps = 0 the stopping node's g is 0 up to the rounding of H: each
    # end lies in its bracketing cell, never on the continuing node
    model, _ = load_preset("regime")
    surf = solve_finite(model, grid=build_grid(2, 40), L=400, tol=1e-4)
    curve = boundary_curve(surf, 0.0)
    p2 = np.sort(surf.grid.nodes[:, 1])
    order = np.argsort(surf.grid.nodes[:, 1])
    H = terminal_reward(model, surf.grid.nodes)[0]
    inner = 0
    for (_, lo, hi), v in zip(curve, surf.values):
        cont = np.nonzero((v - H)[order] > 0.0)[0]
        if not cont.size:
            assert np.isnan(lo) and np.isnan(hi)
            continue
        first, last = cont[0], cont[-1]
        if first > 0:
            assert p2[first - 1] <= lo < p2[first]
            inner += 1
        if last < len(p2) - 1:
            assert p2[last] < hi <= p2[last + 1]
            inner += 1
        ref = reference_interval(model, surf.grid, v, 0.0)
        assert_within_2ulp(lo, ref[0])
        assert_within_2ulp(hi, ref[1])
    assert inner > 100


def test_continuation_interval_stationary_slice():
    model, _ = load_preset("regime")
    grid = build_grid(2, 60)
    stat = solve_infinite(model, grid=grid, tol=1e-6)
    assert stat.values.ndim == 1
    lo, hi = continuation_interval(model, grid, stat.values, 1e-6)
    ref = reference_interval(model, grid, stat.values, 1e-6)
    assert_within_2ulp(lo, ref[0])
    assert_within_2ulp(hi, ref[1])
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


@pytest.mark.parametrize("s", [np.nan, np.inf, 1e300, -0.5, 2.5])
def test_recommend_and_stop_time_refuse_a_bad_time_to_maturity(regime, s):
    # NaN was an IndexError, inf an OverflowError, 1e300 a flow path of
    # round(s / dt) steps; s outside [0, T = 2] was clamped
    model, surf = regime
    with pytest.raises(ValueError, match="time to maturity"):
        recommend(model, surf, s, [0.5, 0.5], 1e-3, compute_wait=True)
    with pytest.raises(ValueError, match="time to maturity"):
        deterministic_stop_time(model, surf, s, [0.5, 0.5], 1e-3)


EPS_ENTRY_POINTS = {
    "evaluate_policy": lambda m, surf, eps: evaluate_policy(
        m, surf, eps, [0.5, 0.5], 10, 0),
    "recommend": lambda m, surf, eps: recommend(m, surf, 1.0, [0.5, 0.5],
                                                eps),
    "deterministic_stop_time": lambda m, surf, eps: deterministic_stop_time(
        m, surf, 1.0, [0.5, 0.5], eps),
    "extract_regions": lambda m, surf, eps: extract_regions(surf, eps),
    "boundary_curve": lambda m, surf, eps: boundary_curve(surf, eps),
    "continuation_interval": lambda m, surf, eps: continuation_interval(
        m, surf.grid, surf.values[-1], eps),
}


@pytest.mark.parametrize("eps", [np.nan, np.inf, -1.0])
@pytest.mark.parametrize("entry", sorted(EPS_ENTRY_POINTS))
def test_entry_points_refuse_a_bad_eps(regime_small, entry, eps):
    # a NaN eps sent every Monte Carlo path to the horizon and labelled
    # every cell continue, inf stopped everything at t = 0 and -1 never
    # stopped: each is refused, as the CLI refuses it
    model, surf = regime_small
    with pytest.raises(ValueError, match=f"eps: .*got {eps}"):
        EPS_ENTRY_POINTS[entry](model, surf, eps)


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


def reference_stop_time(model, surface, s, pi, eps):
    """Slow oracle: the knot-by-knot loop, renormalizing the belief after
    every step, with its own exp for a step off the time step."""
    dt = surface.dt if surface.L else s
    times = [t for t in surface.knots if t <= s + 1e-12]
    if not times or abs(times[-1] - s) > 1e-12:
        times.append(float(s))
    P = expm(dt * model.flow_generator()) if dt else None
    x = np.asarray(pi, dtype=float)
    prev_t = 0.0
    for t in times:
        if t > prev_t:
            step = t - prev_t
            if abs(step - dt) < 1e-12:
                m = np.clip(x @ P, 0.0, None)
            else:
                m = np.clip(x @ expm(step * model.flow_generator()), 0.0,
                            None)
            x = m / m.sum()
            prev_t = t
        v = surface.value_at(s - t, x)
        h, _ = terminal_reward(model, x)
        if v - eps <= h:
            return float(t)
    return float(s)


@pytest.fixture(scope="module")
def techadopt():
    model, _ = load_preset("techadopt")
    return model, solve_finite(model, grid=build_grid(3, 10))


@pytest.mark.parametrize("case", ["regime", "techadopt"])
def test_stop_time_matches_reference(case, regime, techadopt):
    model, surf = regime if case == "regime" else techadopt
    rng = np.random.default_rng(11)
    starts = rng.dirichlet(np.ones(model.n), size=6)
    T, dt = model.horizon, surf.dt
    # a knot, an off-knot s, s below one step and the full horizon
    horizons = (0.5 * T, 0.37 * T + dt / 3, 0.4 * dt, T)
    got = []
    for pi in starts:
        for s in horizons:
            for eps in (1e-4, 1e-3, 1e-2):
                t = deterministic_stop_time(model, surf, s, pi, eps)
                assert t == reference_stop_time(model, surf, s, pi, eps)
                got.append(0.0 < t < s)
    assert any(got)          # some starts cross after a positive wait


def test_stop_time_matches_reference_on_one_knot_surface():
    model, _ = load_preset("regime")
    model = dataclasses.replace(model, horizon=0.0)
    surf = solve_finite(model, grid=build_grid(2, 20))
    assert surf.L == 0
    for pi in ([0.5, 0.5], [0.9, 0.1], [0.1, 0.9]):
        t = deterministic_stop_time(model, surf, 0.0, pi, 1e-3)
        assert t == reference_stop_time(model, surf, 0.0, pi, 1e-3)
        # a time to maturity past the horizon is refused, not clamped
        with pytest.raises(ValueError, match="time to maturity"):
            deterministic_stop_time(model, surf, 0.3, pi, 1e-3)


@pytest.fixture(scope="module")
def insurance_small():
    model, _ = load_preset("insurance")
    return model, solve_finite(model, grid=build_grid(3, 8), L=20)


@pytest.mark.parametrize("case", ["regime", "insurance"])
@pytest.mark.parametrize("eps", [1e-4, 1e-2])
def test_one_rule_for_every_decision(case, eps, regime_small,
                                     insurance_small):
    # regions, recommend, the deterministic stop time and stop_rule make
    # the same decision at every (knot, node) not within rounding of eps
    model, surf = regime_small if case == "regime" else insurance_small
    nodes = surf.grid.nodes
    region = extract_regions(surf, eps)
    H = terminal_reward(model, nodes)[0]
    stop, best, h = stop_rule(model, surf.values, nodes, eps)
    assert np.array_equal(h, H)
    checked = [0, 0]                 # continue, stop
    for k, s in enumerate(surf.knots):
        for j, pi in enumerate(nodes):
            if abs(surf.values[k, j] - H[j] - eps) <= 1e-12:
                continue
            stops = bool(stop[k, j])
            checked[stops] += 1
            assert region.labels[k, j] == (best[j] if stops else CONTINUE)
            rec = recommend(model, surf, s, pi, eps)
            assert (rec.decision == "stop") == stops
            assert rec.action == (best[j] if stops else None)
            t = deterministic_stop_time(model, surf, s, pi, eps)
            assert (t == 0.0) == stops
    assert min(checked) > 0.1 * stop.size, checked


def test_stop_time_matches_reference_where_mass_underflows():
    # exp(-800 t) underflows past t = 0.93; the flow settles near
    # x = (0.995, 0.005), and the surface's continuation premium tau * x_2
    # falls below eps only late, so the stop is decided on flowed beliefs
    # whose survival weights are 0
    model = make_model(n=2, Q=[[-1.0, 1.0], [1.0, -1.0]],
                       lam=[800.0, 1000.0], c=[0.5, -0.5],
                       mu=[[1.0, 0.0], [0.0, 1.0]], horizon=1.0)
    grid = build_grid(2, 4)
    knots = np.linspace(0.0, 1.0, 601)
    values = (terminal_reward(model, grid.nodes)[0][None, :]
              + knots[:, None] * grid.nodes[None, :, 1])
    surf = ValueSurface(model=model, grid=grid, knots=knots, values=values,
                        meta={})
    for pi in ([0.5, 0.5], [0.1, 0.9], [0.9, 0.1]):
        for s in (1.0, 1.0 - surf.dt / 2):
            for eps in (1e-4, 2.5e-4):
                t = deterministic_stop_time(model, surf, s, pi, eps)
                assert t == reference_stop_time(model, surf, s, pi, eps)
                assert 0.93 < t < s


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


def test_ila_is_the_net_return_rate_under_discounting():
    # r_i = c_i - rho mu_i + sum_j (mu_j - mu_i) q_ij: at rho = 2 the two
    # working corners gain 2 * 1 (mu = -1 there), the failed one nothing
    model, _ = load_preset("reliability")
    m = dataclasses.replace(model, rho=2.0)
    assert np.allclose(ila_boundary(m), [5.5, 3.5, -1.0])


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
