"""Simulation, Monte Carlo evaluation and the discrete-time oracles."""

import dataclasses
import os
from types import SimpleNamespace

import numpy as np
import pytest

from poistop import (
    ValueSurface,
    build_grid,
    deterministic_stop_time,
    evaluate_policy,
    filter_path,
    load_preset,
    make_model,
    preset_names,
    simulate_path,
    simulate_paths,
    solve_finite,
)
from poistop import sim, valueiter
from poistop.filter import FlowPropagator, bayes_update, flow
from poistop.model import discrete_marks, gamma_marks, terminal_reward
from poistop.policy import _flow_stop
from poistop.sim import (RNG_ALGORITHM, _uniform, path_to_csv,
                         philox_blocks)
from poistop.valueiter import NumericalError
from oracles import oracle_value
from test_valueiter import (assert_bitwise_equal, assert_no_child,
                            deadline, forked)


def single_state(lam=3.0, c=0.0, rho=0.0, mu=1.0, T=1.0, **kw):
    return make_model(n=1, Q=[[0.0]], lam=[lam], c=[c], rho=rho,
                      mu=[[mu]], horizon=T, **kw)


def switching_two_state():
    return make_model(n=2, Q=[[-1.0, 1.0], [1.0, -1.0]], lam=[1.0, 4.0],
                      mu=[[1.0, 0.0]], horizon=1.0)


# -- path simulation --------------------------------------------------------

def test_paths_reproducible():
    m = switching_two_state()
    a = simulate_path(m, [0.5, 0.5], 5.0, seed=42, path_index=3)
    b = simulate_path(m, [0.5, 0.5], 5.0, seed=42, path_index=3)
    assert a == b
    c = simulate_path(m, [0.5, 0.5], 5.0, seed=42, path_index=4)
    assert a != c
    assert RNG_ALGORITHM == "philox4x64"


def test_path_structure():
    m = switching_two_state()
    p = simulate_path(m, [0.5, 0.5], 20.0, seed=1)
    times = [t for t, _ in p.hidden]
    assert times[0] == 0.0
    assert all(t2 > t1 for t1, t2 in zip(times, times[1:]))
    arr = [e.time for e in p.arrivals]
    assert all(t2 > t1 for t1, t2 in zip(arr, arr[1:]))
    assert all(0.0 < t <= 20.0 for t in arr)


def test_absorbing_chain_never_jumps():
    m = make_model(n=2, Q=[[0.0, 0.0], [0.0, 0.0]], lam=[1.0, 2.0],
                   mu=[[1.0, 0.0]], horizon=1.0)
    batch = simulate_paths(m, np.eye(2)[1], 10.0, seed=7,
                           path_indices=range(10))
    for i in range(10):
        assert batch.sample(i).hidden == ((0.0, 1),)


def test_homogeneous_poisson_rate():
    m = single_state(lam=3.0, T=2.0)
    batch = simulate_paths(m, np.eye(1)[0], 2.0, seed=5,
                           path_indices=range(400))
    counts = np.isfinite(batch.arrival_t).sum(axis=1)
    mean = np.mean(counts)
    se = np.std(counts, ddof=1) / np.sqrt(len(counts))
    assert abs(mean - 6.0) <= 3.0 * se


def test_modulated_long_run_rate():
    # symmetric switching chain: stationary law (1/2, 1/2), mean arrival
    # rate (1 + 4) / 2 = 2.5
    m = switching_two_state()
    T = 40.0
    batch = simulate_paths(m, [0.5, 0.5], T, seed=9, path_indices=range(120))
    counts = np.isfinite(batch.arrival_t).sum(axis=1)
    mean = np.mean(counts) / T
    se = np.std(np.asarray(counts) / T, ddof=1) / np.sqrt(len(counts))
    assert abs(mean - 2.5) <= 3.0 * se


def test_marks_follow_state_law():
    m = make_model(
        n=1, Q=[[0.0]], lam=[4.0],
        marks=discrete_marks([1.0, 2.0], [[0.2, 0.8]]),
        mu=[[0.0]], horizon=25.0,
    )
    batch = simulate_paths(m, np.eye(1)[0], 25.0, seed=3,
                           path_indices=range(40))
    marks = batch.arrival_y[np.isfinite(batch.arrival_t[:, :-1])]
    frac = np.mean(np.asarray(marks) == 1.0)
    se = np.sqrt(0.2 * 0.8 / len(marks))
    assert abs(frac - 0.2) <= 3.0 * se


def test_path_csv(tmp_path):
    m = switching_two_state()
    p = simulate_path(m, [0.5, 0.5], 5.0, seed=2)
    path_to_csv(p, tmp_path / "a.csv", tmp_path / "h.csv")
    arr = np.genfromtxt(tmp_path / "a.csv", delimiter=",", skip_header=1)
    assert arr.reshape(-1, 2).shape[0] == len(p.arrivals)


# -- the batched kernel -----------------------------------------------------

@pytest.mark.parametrize("seed, keys", [
    (0, [0, 1, 2]),
    (42, [3, 9999]),
    (2 ** 64 - 1, [2 ** 40, 2 ** 40 + 5, 2 ** 63 + 7, 2 ** 64 - 1]),
])
def test_philox_matches_numpy(seed, keys):
    got = philox_blocks(seed, keys, 0, 6)
    later = philox_blocks(seed, keys, 4, 2)
    for row, k in enumerate(keys):
        gen = np.random.Philox(key=np.array([seed, k], dtype=np.uint64))
        want = gen.random_raw(24).reshape(6, 4).T
        assert np.array_equal(got[:, row], want)
        assert np.array_equal(later[:, row], want[:, 4:])
        # the uniforms are numpy's doubles from the same words
        gen = np.random.Generator(
            np.random.Philox(key=np.array([seed, k], dtype=np.uint64)))
        assert np.array_equal(_uniform(got[:, row].T.ravel()),
                              gen.random(24))


def test_batch_rows_match_single_paths():
    model, info = load_preset("insurance")
    T = model.horizon
    batch = simulate_paths(model, info["initial"], T, 3, range(10_000))
    n_arr = np.isfinite(batch.arrival_t).sum(axis=1)
    n_hid = np.isfinite(batch.hidden_t).sum(axis=1)
    rows = {0, 1, 9_999, int(np.argmax(n_arr)), int(np.argmax(n_hid)),
            int(np.argmin(n_arr))}
    rows |= set(np.random.default_rng(5).integers(0, 10_000, 20).tolist())
    for i in sorted(rows):
        single = simulate_path(model, info["initial"], T, 3, i)
        assert batch.sample(i) == single
        assert single.path_index == i and single.seed == 3
    assert single == simulate_path(model, info["initial"], T, 3, i)


def test_batch_rows_do_not_depend_on_the_batch():
    model, info = load_preset("insurance")
    T = model.horizon
    full = simulate_paths(model, info["initial"], T, 11, range(2_000))
    shuffled = np.random.default_rng(3).permutation(2_000)
    for keys in (shuffled, shuffled[:37], [1_999, 0]):
        part = simulate_paths(model, info["initial"], T, 11, keys)
        assert list(part.path_indices) == list(keys)
        for row, i in enumerate(keys):
            assert part.sample(row) == full.sample(i)


def test_simulate_paths_rejects_bad_keys():
    m = switching_two_state()
    for seed in (-1, 2 ** 64):
        with pytest.raises(ValueError):
            simulate_paths(m, np.eye(2)[0], 1.0, seed, [0])
    with pytest.raises(ValueError):
        simulate_paths(m, np.eye(2)[0], 1.0, 0, [-1])
    with pytest.raises(ValueError):
        simulate_path(m, np.eye(2)[0], 1.0, 0, 2 ** 64)
    # the horizon, which sized the event chunks ("cannot convert float NaN
    # to integer" after a RuntimeWarning)
    for t_end in (np.nan, -1.0):
        with pytest.raises(ValueError, match="t_end: .* got"):
            simulate_paths(m, np.eye(2)[0], t_end, 0, [0])
        with pytest.raises(ValueError, match="t_end: .* got"):
            simulate_path(m, np.eye(2)[0], t_end, 0)
    # a start state is not a belief
    with pytest.raises(ValueError):
        simulate_paths(m, 2, 1.0, 0, [0])


def test_gamma_marks_moments_per_state():
    shape, rate = np.array([3.0, 4.0, 5.0]), np.array([2.0, 2.0, 0.5])
    m = make_model(n=3, Q=np.zeros((3, 3)), lam=[4.0, 4.0, 4.0],
                   marks=gamma_marks(shape, rate), mu=[[0.0, 0.0, 0.0]],
                   horizon=1.0)
    for i in range(3):
        batch = simulate_paths(m, np.eye(3)[i], 100.0, seed=30 + i,
                               path_indices=range(20))
        y = batch.arrival_y[np.isfinite(batch.arrival_t[:, :-1])]
        N = y.size
        mean, var = y.mean(), y.var(ddof=1)
        m4 = np.mean((y - mean) ** 4)
        assert abs(mean - shape[i] / rate[i]) <= 3.0 * np.sqrt(var / N)
        assert abs(var - shape[i] / rate[i] ** 2) \
            <= 3.0 * np.sqrt((m4 - var ** 2) / N)


@pytest.mark.parametrize("Q, pi0", [
    ([[-1.0, 1.0], [1.0, -1.0]], [0.5, 0.5]),
    # unequal exit rates: the uniformized chain takes self-loops
    ([[-2.0, 1.0, 1.0], [0.5, -1.0, 0.5], [1.0, 2.0, -3.0]], [1.0, 0.0, 0.0]),
])
def test_uniformized_chain_mean_jump_count(Q, pi0):
    # E[jumps in [0, T]] = int_0^T pi0 e^{Qt} q dt, q_i = -q_ii: the
    # top-right entry of exp(T [[Q, q], [0, 0]]) integrates it
    from scipy.linalg import expm
    Q = np.asarray(Q)
    n = len(pi0)
    T = 2.0
    m = make_model(n=n, Q=Q, lam=[1.0] * n, mu=[[0.0] * n], horizon=T)
    aug = np.zeros((n + 1, n + 1))
    aug[:n, :n], aug[:n, n] = Q, -np.diag(Q)
    want = float(np.asarray(pi0) @ expm(T * aug)[:n, n])
    batch = simulate_paths(m, pi0, T, seed=21, path_indices=range(4_000))
    jumps = np.isfinite(batch.hidden_t).sum(axis=1) - 1
    se = jumps.std(ddof=1) / np.sqrt(jumps.size)
    assert abs(jumps.mean() - want) <= 3.0 * se


# -- Monte Carlo policy evaluation ------------------------------------------

def flat_surface(model, grid, value, L=20):
    knots = np.linspace(0.0, model.horizon, L + 1)
    vals = np.full((L + 1, grid.n_nodes), float(value))
    vals[0] = terminal_reward(model, grid.nodes)[0]
    return ValueSurface(model=model, grid=grid, knots=knots, values=vals,
                        meta={"tol": 1e-4})


def test_evaluate_immediate_stop_matches_H():
    model, _ = load_preset("regime")
    grid = build_grid(2, 40)
    surf = solve_finite(model, grid=grid, L=50, tol=1e-4)
    H = terminal_reward(model, grid.nodes)[0]
    eps = float(np.max(surf.values[-1] - H)) + 1e-9
    rep = evaluate_policy(model, surf, eps, [0.5, 0.5], 500, seed=4)
    assert rep.stop_time_mean == 0.0
    assert rep.frac_at_horizon == 0.0
    # everyone stops at t=0; the payoff -2*1{fast} averages to
    # H(0.5, 0.5) = -1
    assert rep.se > 0.0
    assert abs(rep.mean - (-1.0)) <= 3.0 * rep.se


def test_evaluate_single_state_discounting_exact():
    # a surface that never signals stop forces tau = T; the reward is then
    # deterministic: int_0^T e^{-rho u} c du + e^{-rho T} mu
    m = single_state(lam=1.0, c=-1.0, rho=0.5, mu=2.0, T=1.0)
    grid = build_grid(1, 1)
    surf = flat_surface(m, grid, 1000.0)
    rep = evaluate_policy(m, surf, 0.0, [1.0], 50, seed=6)
    want = -(1.0 - np.exp(-0.5)) / 0.5 + np.exp(-0.5) * 2.0
    assert rep.mean == pytest.approx(want, abs=1e-12)
    assert rep.se == pytest.approx(0.0, abs=1e-15)
    assert rep.frac_at_horizon == 1.0


def test_evaluate_discrete_costs_wald_identity():
    # forced to the horizon, the collected marks cost sum has expectation
    # lam T E[K(Y)] (Wald), terminal reward 0; also on a one-knot surface
    # (L = 0), whose only knot after 0 is the horizon
    m = make_model(
        n=1, Q=[[0.0]], lam=[4.0],
        marks=discrete_marks([1.0, 2.0], [[0.5, 0.5]]),
        mu=[[0.0]], horizon=2.0, cost_mode="discrete", K=[-3.0, -1.0],
    )
    grid = build_grid(1, 1)
    one_knot = ValueSurface(m, grid, np.array([0.0]),
                            np.full((1, 1), 1000.0), {"tol": 1e-4})
    for surf in (flat_surface(m, grid, 1000.0), one_knot):
        rep = evaluate_policy(m, surf, 0.0, [1.0], 600, seed=8)
        assert rep.frac_at_horizon == 1.0
        want = 4.0 * 2.0 * (-2.0)
        assert abs(rep.mean - want) <= 3.0 * rep.se


def test_evaluate_quantiles_ordered():
    model, _ = load_preset("regime")
    grid = build_grid(2, 60)
    surf = solve_finite(model, grid=grid, L=100, tol=1e-4)
    rep = evaluate_policy(model, surf, 1e-3, [0.5, 0.5], 400, seed=10)
    q = rep.stop_time_quantiles
    assert 0.0 <= q[0.1] <= q[0.5] <= q[0.9] <= 2.0
    assert 0.0 <= rep.frac_at_horizon <= 1.0
    d = rep.to_dict()
    assert d["rng_algorithm"] == "philox4x64"


def test_evaluate_rejects_foreign_surface():
    model, _ = load_preset("regime")
    other, _ = load_preset("insurance")
    grid = build_grid(3, 10)
    surf = solve_finite(other, grid=grid, L=10, tol=1e-2)
    with pytest.raises(ValueError):
        evaluate_policy(model, surf, 0.01, [0.5, 0.5], 10, seed=0)


def test_evaluate_rejects_a_surface_of_other_model_numbers():
    # the same n and mu shape under another rho ran silently
    model, _ = load_preset("insurance")
    surf = solve_finite(model, grid=build_grid(3, 4), L=10, tol=1e-2)
    evaluate_policy(model, surf, 0.01, [0.2, 0.5, 0.3], 10, seed=0)
    other = dataclasses.replace(model, rho=model.rho + 0.5)
    with pytest.raises(ValueError, match="solved for another model"):
        evaluate_policy(other, surf, 0.01, [0.2, 0.5, 0.3], 10, seed=0)


def test_evaluate_rejects_fewer_than_one_path():
    m = single_state(lam=1.0, c=-1.0, rho=0.5, mu=2.0, T=1.0)
    surf = flat_surface(m, build_grid(1, 1), 1000.0)
    for n_paths in (0, -5):
        with pytest.raises(ValueError, match="n_paths"):
            evaluate_policy(m, surf, 0.0, [1.0], n_paths, seed=6)


@pytest.mark.parametrize("n_paths", [10.0, 2.5, "10"])
def test_evaluate_refuses_a_path_count_that_is_not_an_integer(n_paths):
    # 10.0 failed deep in simulate_paths with a message about path_indices
    m = single_state(lam=1.0, c=-1.0, rho=0.5, mu=2.0, T=1.0)
    surf = flat_surface(m, build_grid(1, 1), 1000.0)
    with pytest.raises(ValueError, match=f"n_paths: .* got {n_paths!r}"):
        evaluate_policy(m, surf, 0.0, [1.0], n_paths, seed=6)


def replay_policy(model, surface, eps_values, pi0, batch, block=8):
    """The eps-stop rule of evaluate_policy for each eps of eps_values,
    path by path on the exact filter: checked at t = 0, at every arrival
    and at every knot, forced at T.  A path's check points are read once
    for every eps, a block at a time, with one surface lookup a block.
    Returns for each eps the stop times, the rewards, where each path
    stopped, and the smallest margin |v - eps - H| of a decision."""
    T = model.horizon
    out = {eps: ([], [], [], np.inf) for eps in eps_values}
    for i in range(len(batch.path_indices)):
        path = batch.sample(i)
        traj = filter_path(model, pi0, path.arrivals, T)
        # an arrival on a knot is processed before the knot's check
        points = sorted([(0.0, 0, "start")]
                        + [(e.time, 0, "arrival") for e in path.arrivals]
                        + [(float(t), 1, "knot") for t in surface.knots[1:]])
        ts = np.array([t for t, _, _ in points])
        xs, vs, hs = [], [], []             # beliefs, V and H read so far
        for eps in eps_values:
            taus, rewards, where, margin = out[eps]
            for j, t in enumerate(ts):
                if j == len(xs):
                    new = [traj.evaluate(u) for u in ts[j: j + block]]
                    xs += new
                    vs += surface.value_at_batch(T - ts[j: j + len(new)],
                                                 np.array(new)).tolist()
                    hs += [(model.mu @ x).max() for x in new]
                forced = t >= T - 1e-12
                if not forced:
                    margin = min(margin, abs(vs[j] - eps - hs[j]))
                if forced or vs[j] - eps <= hs[j]:
                    break
            taus.append(float(t))
            rewards.append(replay_reward(model, path, float(t),
                                         np.argmax(model.mu @ xs[j])))
            where.append("horizon" if forced else points[j][2])
            out[eps] = taus, rewards, where, margin
    return {eps: (np.array(taus), np.array(rewards), where, margin)
            for eps, (taus, rewards, where, margin) in out.items()}


def replay_reward(model, path, tau, action):
    """Reward of the PathSample path stopped at tau with action."""
    if model.cost_mode == "running":
        r = 0.0
        ends = [h[0] for h in path.hidden[1:]] + [np.inf]
        for (a, state), b in zip(path.hidden, ends):
            a, b = min(a, tau), min(b, tau)
            r += model.c[state] * (
                (np.exp(-model.rho * a) - np.exp(-model.rho * b))
                / model.rho if model.rho else b - a)
    else:
        r = sum(np.exp(-model.rho * e.time)
                * model.K[model.marks.mark_index(e.mark)]
                for e in path.arrivals if e.time <= tau)
    state = [st for t, st in path.hidden if t <= tau][-1]
    return r + np.exp(-model.rho * tau) * model.mu[action, state]


# where the paths stop: at an arrival and at a knot unless listed here
STOP_KINDS = {("insurance", 0.01): {"arrival", "knot", "horizon"},
              ("insurance", 0.1): {"start"},
              ("targeting", 0.01): {"start"}, ("targeting", 0.1): {"start"},
              ("flat", 0.01): {"horizon"}, ("flat", 0.1): {"horizon"}}


@pytest.mark.parametrize("case, R", [
    ("regime", 40), ("techadopt", 10), ("insurance", 10), ("reliability", 10),
    ("techadopt discounted", 10), ("reliability2", 10), ("targeting", 10),
    ("flat", 10)])
def test_evaluate_follows_the_exact_filter(case, R):
    # evaluate_policy (eigenbasis flow from each anchor, bayes_update on
    # every arrival, stop checks at the start, at arrivals and at knots,
    # forced at T) against filter_path on the same 200 paths: a two-state
    # model, discrete marks and costs (also discounted, whose sums are not
    # integers), gamma marks, hidden transitions with a running cost and no
    # marks, targeting, where every path stops at t = 0, and regime on a
    # surface so high ("flat") that the arrival-free flow reaches T without
    # stopping; between the cases, stops at the start, at an arrival, at a
    # knot and at the horizon all occur
    model, info = load_preset("regime" if case == "flat"
                              else case.split()[0])
    if case.endswith("discounted"):
        model = dataclasses.replace(model, rho=0.5)
    grid = build_grid(model.n, R)
    surface = flat_surface(model, grid, 1000.0) if case == "flat" \
        else solve_finite(model, grid=grid,
                          L=60 if case == "reliability2" else None)
    pi0, seed, P = info["initial"], 5, 200
    batch = simulate_paths(model, pi0, model.horizon, seed, np.arange(P))
    replayed = replay_policy(model, surface, (0.01, 0.1), pi0, batch)
    for eps, (taus, rewards, where, margin) in replayed.items():
        rep = evaluate_policy(model, surface, eps, pi0, P, seed)
        # no decision is within rounding of the threshold
        assert margin > 1e-9
        assert STOP_KINDS.get((case, eps), {"arrival", "knot"}) \
            <= set(where)
        assert rep.stop_time_mean == taus.mean()
        assert rep.frac_at_horizon == np.mean(taus >= model.horizon
                                              * (1.0 - 1e-12))
        assert rep.mean == pytest.approx(rewards.mean(), rel=1e-12,
                                         abs=1e-12)


@pytest.fixture(scope="module")
def stop_surfaces():
    out = {}
    for name, R in (("regime", 30), ("insurance", 8), ("reliability", 30)):
        model, info = load_preset(name)
        out[name] = model, np.asarray(info["initial"]), solve_finite(
            model, grid=build_grid(model.n, R))
    return out


@pytest.mark.parametrize("eps", [0.0, 0.01, 0.1])
@pytest.mark.parametrize("name", ["regime", "insurance", "reliability"])
def test_arrival_free_paths_stop_at_the_deterministic_stop_time(
        monkeypatch, stop_surfaces, name, eps):
    # a path with no arrival at or before its stop follows the no-arrival
    # flow, so it stops at deterministic_stop_time and with the best action
    # of the flow's belief there; at eps = 0 a second walk of that flow
    # stopped these paths a knot away from it
    model, pi0, surface = stop_surfaces[name]
    T, P, seed = model.horizon, 400, 3
    tau0 = deterministic_stop_time(model, surface, T, pi0, eps)
    act0 = terminal_reward(model, flow(model, tau0, pi0))[1]
    seen, rewards = [], sim._rewards

    def recorded(model, paths, tau, act):
        free = paths.arrival_t[:, 0] > tau
        seen.append((tau[free], act[free]))
        return rewards(model, paths, tau, act)

    monkeypatch.setattr(sim, "_rewards", recorded)
    # in this process: the forked half's calls would not be recorded
    monkeypatch.setattr(valueiter, "sys",
                        SimpleNamespace(platform="darwin"))
    evaluate_policy(model, surface, eps, pi0, P, seed)
    tau, act = (np.concatenate(x) for x in zip(*seen))
    assert tau.size > 0
    assert np.all(tau == tau0)
    assert np.all(act == act0)


@pytest.mark.parametrize("name, P", [("insurance", 2_000),
                                     ("targeting", 200)])
def test_paths_are_simulated_only_as_far_as_the_policy_reads_them(
        monkeypatch, name, P):
    # every path is simulated just past the stop tau0 of the arrival-free
    # trajectory, and only those with an arrival at or before tau0 on to T;
    # on targeting every path stops at t = 0 and no call reaches T
    model, info = load_preset(name)
    pi0, T, eps, seed = info["initial"], model.horizon, 0.01, 4
    surface = solve_finite(model, grid=build_grid(model.n, 10))
    tau0 = deterministic_stop_time(model, surface, T, pi0, eps)
    whole = simulate_paths(model, pi0, T, seed, np.arange(P))
    early = int(np.sum(whole.arrival_t[:, 0] <= tau0))
    calls, simulate = [], sim.simulate_paths

    def recorded(model, initial, t_end, seed, path_indices):
        calls.append((t_end, len(path_indices)))
        return simulate(model, initial, t_end, seed, path_indices)

    monkeypatch.setattr(sim, "simulate_paths", recorded)
    # in this process: the forked half's calls would not be recorded
    monkeypatch.setattr(valueiter, "sys",
                        SimpleNamespace(platform="darwin"))
    rep = evaluate_policy(model, surface, eps, pi0, P, seed)
    assert sum(n for t, n in calls if t < T) == P
    assert {t for t, _ in calls if t < T} == {np.nextafter(tau0, np.inf)}
    assert sum(n for t, n in calls if t == T) == early
    if name == "insurance":
        assert 0.0 < tau0 < T and 0 < early < P
    else:
        assert tau0 == 0.0 and early == 0
        assert rep.stop_time_mean == 0.0


@pytest.mark.parametrize("name, mass0, plan", [("reliability", 1.0, 1),
                                                ("insurance", 0.0, 2)])
def test_either_simulation_plan_gives_the_same_report(
        monkeypatch, name, mass0, plan):
    # reliability's arrival-free mass at tau0 is below 1/2, so its paths
    # are simulated to T in one call; insurance's is above, so in two
    # stages.  Forcing the other plan through the mass changes no bit.
    model, info = load_preset(name)
    pi0, T, eps, P, seed = info["initial"], model.horizon, 0.01, 600, 1
    surface = solve_finite(model, grid=build_grid(model.n, 12))
    tau0, act0, mass = _flow_stop(model, surface, T, pi0, eps)
    assert 0.0 < tau0 < T and (mass < 0.5) == (plan == 1)
    calls, simulate, flow_stop = [], sim.simulate_paths, sim._flow_stop

    def recorded(model, initial, t_end, seed, path_indices):
        calls.append(t_end)
        return simulate(model, initial, t_end, seed, path_indices)

    monkeypatch.setattr(sim, "simulate_paths", recorded)
    monkeypatch.setattr(valueiter, "sys",
                        SimpleNamespace(platform="darwin"))
    rep = evaluate_policy(model, surface, eps, pi0, P, seed)
    assert len(calls) == 2 * plan and (calls[0] == T) == (plan == 1)
    monkeypatch.setattr(sim, "_flow_stop", lambda *args: (
        *flow_stop(*args)[:2], mass0))
    other = evaluate_policy(model, surface, eps, pi0, P, seed)
    assert len(calls) == 2 * plan + 2 * (3 - plan)
    assert repr(other) == repr(rep)


# -- the paths split between two processes -----------------------------------

BATCHES = [slice(lo, lo + size) for lo in (0, 17, 1999)
           for size in (1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 33, 100, 1001)]


@pytest.mark.parametrize("name", preset_names())
def test_loop_steps_do_not_depend_on_the_batch(name):
    # every per-row step of evaluate_policy's loop gives a row the same
    # bits in any batch, so the paths can be split between processes
    model, _ = load_preset(name)
    rng = np.random.default_rng(3)
    P, L = 3000, 20
    beliefs = rng.dirichlet(np.ones(model.n), P)
    durations = rng.exponential(0.05, P)
    dens = rng.uniform(0.1, 2.0, (P, model.n))
    s = rng.uniform(0.0, model.horizon, P)
    grid = build_grid(model.n, 12)
    surface = ValueSurface(model, grid, np.linspace(0, model.horizon, L + 1),
                           rng.standard_normal((L + 1, grid.n_nodes)))
    prop = FlowPropagator(model)
    steps = [lambda r: prop.advance(beliefs[r], durations[r]),
             lambda r: bayes_update(model, beliefs[r], dens[r])[0],
             lambda r: terminal_reward(model, beliefs[r])[0],
             lambda r: surface.value_at_batch(s[r], beliefs[r])]
    for step in steps:
        whole = step(slice(None))
        for rows in BATCHES:
            assert_bitwise_equal(step(rows), whole[rows])


@pytest.mark.parametrize("name", preset_names())
def test_terminal_reward_does_not_depend_on_the_batch(name):
    # H and the best action at the lattice nodes, which the workspace, the
    # artifacts, recommend and evaluate_policy all read: the same bits for
    # the whole lattice, for each node alone and for every sub-batch
    model, _ = load_preset(name)
    nodes = build_grid(model.n, 60).nodes
    H, best = terminal_reward(model, nodes)
    alone = [terminal_reward(model, x) for x in nodes]
    assert_bitwise_equal(np.array([h for h, _ in alone]), H)
    assert [int(b) for _, b in alone] == best.tolist()
    for rows in BATCHES:
        h, b = terminal_reward(model, nodes[rows])
        assert_bitwise_equal(h, H[rows])
        assert np.array_equal(b, best[rows])


SPLIT_CASES = preset_names() + ["techadopt discounted"]


@pytest.fixture(scope="module")
def small_surfaces():
    # techadopt at rho = 0.5: discounted discrete costs, whose sums are not
    # integers as at rho = 0
    out = {}
    for case in SPLIT_CASES:
        model, info = load_preset(case.split()[0])
        if case.endswith("discounted"):
            model = dataclasses.replace(model, rho=0.5)
        out[case] = model, np.asarray(info["initial"]), solve_finite(
            model, grid=build_grid(model.n, 6))
    return out


@forked
@pytest.mark.parametrize("case", SPLIT_CASES)
def test_evaluate_split_equals_one_process(monkeypatch, deadline,
                                           small_surfaces, case):
    model, pi0, surface = small_surfaces[case]
    stop0 = _flow_stop(model, surface, model.horizon, pi0, 0.01)
    for seed in (1, 2):
        def run(lo, hi):
            return sim._run_paths(model, surface, 0.01, pi0, seed, *stop0,
                                  lo, hi)

        # at P = 40 and seed 1 the first half pads to 6 arrivals and the
        # whole batch to 10: np.sum(axis=1) would sum those rows otherwise
        for P in (1, 2, 3, 40, 1001):
            rep = evaluate_policy(model, surface, 0.01, pi0, P, seed)
            assert_no_child()
            # the helper's own inline path, as off Linux
            with monkeypatch.context() as inline:
                inline.setattr(valueiter, "sys",
                               SimpleNamespace(platform="darwin"))
                ref = evaluate_policy(model, surface, 0.01, pi0, P, seed)
            # repr gives every float exactly, -0.0 apart from 0.0
            assert repr(rep) == repr(ref)
            # the two halves are the rows of one batch
            halves = zip(run(0, P // 2), run(P // 2, P))
            for whole, parts in zip(run(0, P), halves):
                assert_bitwise_equal(np.concatenate(parts), whole)


def child_raises():
    raise ValueError("simulation failed in the child")


@forked
@pytest.mark.parametrize("fail, error, message", [
    (child_raises, ValueError, "simulation failed in the child"),
    (lambda: os._exit(3), NumericalError, "exit status 3 and sent no result")])
def test_failed_evaluation_child_reaches_the_caller(monkeypatch, deadline,
                                                    fail, error, message):
    # simulate_paths fails only in the forked child: its exception is
    # raised here; a child that leaves without a result is named by its
    # exit status
    model, info = load_preset("regime")
    surface = flat_surface(model, build_grid(2, 10), 1000.0)
    parent, simulate = os.getpid(), sim.simulate_paths

    def simulate_here_only(*args):
        if os.getpid() != parent:
            fail()
        return simulate(*args)

    monkeypatch.setattr(sim, "simulate_paths", simulate_here_only)
    with pytest.raises(error, match=message):
        evaluate_policy(model, surface, 0.01, info["initial"], 100, 1)
    assert_no_child()


# -- appendix-style Laplace bound -------------------------------------------

def test_arrival_time_laplace_bound():
    # E[e^{-u sigma_m}] <= (lam_bar / (u + lam_bar))^m for the m-th arrival
    m = make_model(n=3,
                   Q=[[-2.0, 1.0, 1.0], [0.5, -1.0, 0.5], [1.0, 2.0, -3.0]],
                   lam=[1.0, 2.0, 4.0], mu=[[1.0, 0.0, 0.0]], horizon=1.0)
    u, k = 1.0, 3
    batch = simulate_paths(m, [1 / 3, 1 / 3, 1 / 3], 60.0, seed=12,
                           path_indices=range(800))
    vals = np.exp(-u * batch.arrival_t[:, k - 1])    # 0 with < k arrivals
    mean = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / np.sqrt(len(vals)))
    assert mean <= (4.0 / (u + 4.0)) ** k + 3.0 * se


# -- discrete-time value oracle ---------------------------------------------

def test_oracle_value_zero_horizon_is_H():
    model, _ = load_preset("regime")
    orc = oracle_value(model, 1e-3, grid=build_grid(2, 20), T=0.1,
                       snapshot_times=[0.0])
    H = terminal_reward(model, orc.grid.nodes)[0]
    assert np.array_equal(orc.values[0], H)


def test_oracle_value_trivial_model_stays_at_H():
    # unit penalties and a unit rate gap: stopping immediately is optimal
    # everywhere, so the backup never improves on H
    m = make_model(n=2, Q=[[0.0, 0.0], [0.0, 0.0]], lam=[1.0, 2.0],
                   c=[-1.0, -1.0], mu=[[0.0, -1.0], [-1.0, 0.0]],
                   horizon=0.5)
    orc = oracle_value(m, 1e-3, grid=build_grid(2, 50))
    H = terminal_reward(m, orc.grid.nodes)[0]
    assert np.max(np.abs(orc.values[-1] - H)) < 1e-12


def test_oracle_value_matches_solver_on_fine_grid():
    # the oracle's per-step interpolation of a convex surface biases it
    # upward by O(1/R); on a fine belief grid it matches the solver tightly
    model, _ = load_preset("regime")
    grid = build_grid(2, 40)
    surf = solve_finite(model, grid=grid, L=100, tol=1e-4)
    orc = oracle_value(model, 1e-3, grid=build_grid(2, 400),
                       snapshot_times=surf.knots)
    sup = 0.0
    for k in range(surf.L + 1):
        ov = np.array([orc.grid.interpolate(orc.values[k], p)
                       for p in grid.nodes])
        sup = max(sup, float(np.max(np.abs(ov - surf.values[k]))))
    assert sup < 5e-3


def test_oracle_value_caps():
    model, _ = load_preset("targeting")  # n = 4
    with pytest.raises(ValueError):
        oracle_value(model, 1e-3, grid=build_grid(model.n, 40))
    model2, _ = load_preset("regime")
    with pytest.raises(ValueError):
        oracle_value(model2, 0.5, grid=build_grid(model2.n, 40))
