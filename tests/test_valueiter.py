"""Value iteration: operators, surfaces, error bounds, infinite horizon."""

import dataclasses

import numpy as np
import pytest
from scipy import integrate
from scipy.linalg import expm

from poistop import (
    FiniteHorizonSolver,
    ValueSurface,
    apply_J,
    apply_J0,
    build_grid,
    err_infinity,
    horizon_error,
    load_preset,
    make_model,
    mark_operator,
    richardson_check,
    solve_finite,
    solve_infinite,
    truncated_rule_slack,
    uniform_error_bound,
)
from poistop.model import (discrete_marks, terminal_reward,
                           terminal_reward_nodes)
from poistop.valueiter import default_knot_count


@pytest.fixture(scope="module")
def regime_surface():
    model, _ = load_preset("regime")
    grid = build_grid(2, 100)
    return model, solve_finite(model, grid=grid, L=200, tol=1e-6)


# -- knots and degenerate cases ---------------------------------------------

def test_default_knot_count():
    model, _ = load_preset("regime")  # lam_bar=5, T=2
    assert default_knot_count(model) == 200


def test_zero_horizon_surface_is_H():
    model, _ = load_preset("regime")
    m0 = dataclasses.replace(model, horizon=0.0)
    surf = solve_finite(m0, R=20)
    H = surf.h_nodes()
    assert surf.values.shape == (1, surf.grid.n_nodes)
    assert np.array_equal(surf.values[0], H)


def test_zero_iterations_surface_is_H():
    model, _ = load_preset("regime")
    surf = solve_finite(model, R=20, L=40, m_max=0)
    H = surf.h_nodes()
    assert np.array_equal(surf.values, np.tile(H, (41, 1)))


# -- surface invariants -----------------------------------------------------

def test_surface_slice_zero_is_H(regime_surface):
    model, surf = regime_surface
    assert np.array_equal(surf.values[0], surf.h_nodes())


def test_surface_monotone_in_s(regime_surface):
    model, surf = regime_surface
    assert np.min(np.diff(surf.values, axis=0)) >= -1e-9


def test_surface_dominates_H(regime_surface):
    model, surf = regime_surface
    H = surf.h_nodes()
    assert np.min(surf.values - H[None, :]) >= -1e-9


def test_iterates_monotone_in_m():
    model, _ = load_preset("regime")
    solver = FiniteHorizonSolver(model, R=40, L=60, tol=1e-4)
    v = np.tile(solver.ws.Hnodes, (solver.L + 1, 1))
    for _ in range(5):
        vnew = solver.sweep(v)
        assert np.min(vnew - v) >= -1e-9
        v = vnew


def test_surface_convex_in_pi(regime_surface):
    # second differences along the pi_2 axis stay nonnegative
    model, surf = regime_surface
    order = np.argsort(surf.grid.nodes[:, 1])
    for k in (0, surf.L // 2, surf.L):
        v = surf.values[k][order]
        d2 = v[2:] - 2.0 * v[1:-1] + v[:-2]
        assert d2.min() >= -1e-9


def test_dp_shift_identity(regime_surface):
    # the horizon-1 solve agrees with the lower half of the horizon-2
    # solve: remaining time is all that matters
    model, surf = regime_surface
    m1 = dataclasses.replace(model, horizon=1.0)
    s1 = solve_finite(m1, grid=surf.grid, L=100, tol=1e-6)
    assert np.max(np.abs(s1.values - surf.values[:101])) <= 1e-4


def test_value_at_batch_matches_scalar(regime_surface):
    model, surf = regime_surface
    rng = np.random.default_rng(2)
    pts = rng.dirichlet(np.ones(2), size=25)
    ss = rng.uniform(0.0, 2.0, size=25)
    batch = surf.value_at_batch(ss, pts)
    direct = np.array([surf.value_at(s, p) for s, p in zip(ss, pts)])
    assert np.allclose(batch, direct, atol=1e-12)
    # scalar horizon broadcasts
    batch1 = surf.value_at_batch(1.0, pts)
    direct1 = np.array([surf.value_at(1.0, p) for p in pts])
    assert np.allclose(batch1, direct1, atol=1e-12)


def test_surface_save_load_round_trip(tmp_path, regime_surface):
    model, surf = regime_surface
    path = tmp_path / "surface.bin"
    surf.save(path)
    back = ValueSurface.load(path, model)
    assert np.array_equal(back.values, surf.values)
    assert np.array_equal(back.knots, surf.knots)
    assert back.meta["iterations"] == surf.meta["iterations"]


@pytest.mark.parametrize("part", ["header", "values", "metadata"])
def test_surface_load_truncated(tmp_path, regime_surface, part):
    model, surf = regime_surface
    path = tmp_path / "surface.bin"
    surf.save(path)
    blob = path.read_bytes()
    header = 8 + 32
    cut = {"header": 20,
           "values": header + 8 * len(surf.knots) + 8 * surf.values.size // 2,
           "metadata": len(blob) - 3}[part]
    path.write_bytes(blob[:cut])
    with pytest.raises(ValueError, match="surface.bin: truncated"):
        ValueSurface.load(path, model)


def test_surface_csv_header(tmp_path, regime_surface):
    model, surf = regime_surface
    path = tmp_path / "surface.csv"
    surf.to_csv(path)
    with open(path) as fh:
        assert fh.readline().strip() == "s,pi1,pi2,value,H,best_action"
        first = fh.readline().split(",")
    assert len(first) == 6


# -- mark-expectation operator ----------------------------------------------

def test_mark_operator_constant():
    model, _ = load_preset("techadopt")
    grid = build_grid(3, 20)
    ones = np.ones(grid.n_nodes)
    pi = np.array([0.3, 0.3, 0.4])
    for i in range(3):
        assert mark_operator(model, grid, ones, i, pi) == pytest.approx(
            1.0, abs=1e-12)


def test_mark_operator_identity_when_uninformative():
    m = make_model(
        n=2, Q=[[0.0, 0.0], [0.0, 0.0]], lam=[2.0, 2.0],
        marks=discrete_marks([1.0, 2.0], [[0.4, 0.6], [0.4, 0.6]]),
        mu=[[1.0, 0.0]], horizon=1.0,
    )
    grid = build_grid(2, 50)
    vals = grid.nodes[:, 0] ** 2 + 0.1
    pi = np.array([0.35, 0.65])
    want = grid.interpolate(vals, pi)
    assert mark_operator(m, grid, vals, 0, pi) == pytest.approx(
        want, abs=1e-12)


def test_mark_operator_direct_two_term_sum():
    # state Low of the adoption model: weights (0.2, 0.8) over two marks
    model, _ = load_preset("techadopt")
    grid = build_grid(3, 30)
    rng = np.random.default_rng(4)
    vals = rng.normal(size=grid.n_nodes)
    pi = np.array([0.5, 0.3, 0.2])
    total = 0.0
    for r, wr in enumerate([0.2, 0.8]):
        w = pi * model.lam * model.marks.density[:, r]
        total += wr * grid.interpolate(vals, w / w.sum())
    assert mark_operator(model, grid, vals, 0, pi) == pytest.approx(
        total, abs=1e-12)


# -- pointwise J and J0 -----------------------------------------------------

def test_apply_J_zero_time_is_H(regime_surface):
    model, surf = regime_surface
    pi = np.array([0.4, 0.6])
    assert apply_J(model, surf, 0.0, 1.0, pi) == pytest.approx(
        max(-2 * 0.6, -2 * 0.4), abs=1e-12)


def test_apply_J_martingale_collapse():
    # w = H, rho = 0, c = 0, absorbing chain, common rate, common marks:
    # the flow is constant, jumps are the identity, costs vanish, so
    # Jw(t, s, pi) = e^{-lam t} H + (1 - e^{-lam t}) H = H for every t
    m = make_model(n=2, Q=[[0.0, 0.0], [0.0, 0.0]], lam=[3.0, 3.0],
                   mu=[[1.0, -1.0]], horizon=1.0)
    grid = build_grid(2, 40)
    H = terminal_reward_nodes(m, grid.nodes)
    # many time knots so the only residual is the (tiny) trapezoid error
    surf = ValueSurface(model=m, grid=grid,
                        knots=np.linspace(0.0, 1.0, 801),
                        values=np.tile(H, (801, 1)), meta={})
    pi = np.array([0.3, 0.7])
    h = 0.3 * 1.0 + 0.7 * (-1.0)
    for t in (0.1, 0.5, 1.0):
        assert apply_J(m, surf, t, 1.0, pi) == pytest.approx(h, abs=1e-6)


def test_apply_J0_zero_horizon(regime_surface):
    model, surf = regime_surface
    v, t = apply_J0(model, surf, 0.0, [0.5, 0.5])
    assert (v, t) == (pytest.approx(-1.0, abs=1e-12), 0.0)


def test_apply_J0_decreasing_integrand_stops_at_zero():
    # flat reward, pure cost: waiting only burns money, so the sup sits at
    # t = 0 with value H
    m = make_model(n=2, Q=[[0.0, 0.0], [0.0, 0.0]], lam=[2.0, 2.0],
                   c=[-1.0, -1.0], mu=[[1.0, 1.0]], horizon=1.0)
    grid = build_grid(2, 20)
    surf = solve_finite(m, grid=grid, L=20, tol=1e-6)
    v, t = apply_J0(m, surf, 1.0, [0.5, 0.5])
    assert t == 0.0
    assert v == pytest.approx(1.0, abs=1e-9)


def test_apply_J0_dominates_apply_J(regime_surface):
    model, surf = regime_surface
    pi = np.array([0.45, 0.55])
    s = 1.0
    v0, _ = apply_J0(model, surf, s, pi)
    for t in (0.0, 0.25, 0.5, 1.0):
        assert v0 >= apply_J(model, surf, t, s, pi) - 1e-12


# -- pointwise J against the per-point reference loop ------------------------

def reference_J(model, surface, t, s, pi, min_substeps=8):
    """Slow oracle: Jw(t, s, pi) with one scalar interpolation per substep
    and mark, stepping the survival weights in a Python loop."""
    pi = np.asarray(pi, dtype=float)
    H = lambda q: terminal_reward(model, q)[0]
    if t <= 0:
        return H(pi)
    dt_surface = surface.dt if surface.L else t
    n_sub = max(min_substeps, int(round(t / dt_surface)) if dt_surface else 1)
    h = t / n_sub
    P = expm(h * model.flow_generator())
    lam_w = model.lam[:, None] * model.marks.weights
    lam_d = model.lam[:, None] * model.marks.density
    cost_rates = model.effective_cost_rates()
    m = pi.copy()
    phi = np.empty(n_sub + 1)
    for j in range(n_sub + 1):
        u = j * h
        sv = m.sum()
        x = m / sv
        omega = m @ lam_w
        g = 0.0
        for r in range(model.marks.n_marks):
            wgt = x * lam_d[:, r]
            zs = wgt.sum()
            if zs <= 0:
                continue
            g += omega[r] * surface.value_at(s - u, wgt / zs)
        phi[j] = np.exp(-model.rho * u) * (float(cost_rates @ m) + g)
        if j < n_sub:
            m = np.clip(m @ P, 0.0, None)
    sv_t = m.sum()
    head = sv_t * np.exp(-model.rho * t) * H(m / sv_t)
    return float(head + h * (0.5 * phi[0] + phi[1:-1].sum() + 0.5 * phi[-1]))


def reference_waits(surface, s):
    """The candidate waits of J0: knots in [0, s], plus s if off-knot."""
    ts = [float(t) for t in surface.knots if t <= s + 1e-12]
    if not ts or abs(ts[-1] - s) > 1e-12:
        ts.append(float(s))
    return ts


@pytest.fixture(scope="module")
def insurance_small():
    model, info = load_preset("insurance")
    assert model.n == 3 and model.marks.n_marks == 24
    grid = build_grid(3, 6)
    return model, solve_finite(model, grid=grid, L=24, tol=1e-4)


@pytest.fixture(scope="module")
def regime_flat():
    # L = 0: the surface holds only the maturity slice H
    model, _ = load_preset("regime")
    grid = build_grid(2, 50)
    H = terminal_reward_nodes(model, grid.nodes)
    return model, ValueSurface(model=model, grid=grid, knots=np.zeros(1),
                               values=H[None, :], meta={})


@pytest.mark.parametrize("case, s, pi", [
    ("regime", 1.0, [0.5, 0.5]),          # knot, interior maximiser
    ("regime", 1.2345, [0.7, 0.3]),       # off-knot s
    ("regime", 0.05, [0.5, 0.5]),         # s < 8 dt
    ("insurance", None, None),            # full horizon, 24 marks, n = 3
    ("insurance", 0.437, None),           # off-knot s
    ("insurance", 0.1, None),             # s < 8 dt
    ("flat", 0.3, [0.45, 0.55]),          # L = 0 surface
])
def test_apply_J_and_J0_match_reference(case, s, pi, regime_surface,
                                        insurance_small, regime_flat):
    model, surf = {"regime": regime_surface, "insurance": insurance_small,
                   "flat": regime_flat}[case]
    if s is None:
        s = model.horizon
    if pi is None:
        pi = load_preset("insurance")[1]["initial"]
    ts = reference_waits(surf, s)
    ref = np.array([reference_J(model, surf, t, s, pi) for t in ts])
    fast = np.array([apply_J(model, surf, t, s, pi) for t in ts])
    assert np.max(np.abs(fast - ref)) <= 1e-12
    v, wait = apply_J0(model, surf, s, pi)
    assert abs(v - ref.max()) <= 1e-12
    assert wait in ts
    assert ref[ts.index(wait)] >= ref.max() - 1e-12


def test_apply_J0_interior_wait(regime_surface):
    # the reference cases above include a strictly positive maximiser, so
    # the argmax check is not satisfied trivially by t = 0
    model, surf = regime_surface
    v, wait = apply_J0(model, surf, 1.0, [0.5, 0.5])
    assert 0.0 < wait < 1.0
    assert v > terminal_reward(model, [0.5, 0.5])[0]


def test_one_arrival_value_against_quadrature():
    # independent check of the J sweep: with w = H the value of "wait t,
    # stop at the first arrival (or at t)" has a closed integral form for
    # the absorbing two-state detection model, evaluated here with
    # adaptive quadrature
    model, _ = load_preset("regime")
    lam = model.lam
    pi = np.array([0.5, 0.5])
    s = 2.0

    def H(q):
        return max(-2.0 * q[1], -2.0 * q[0])

    def j_of_t(t):
        def integrand(u):
            m = pi * np.exp(-lam * u)
            x = m / m.sum()
            cost = -1.0 * m.sum()
            jump = 0.0
            for i in range(2):
                w = x * lam
                post = w / w.sum()
                jump += m[i] * lam[i] * H(post)
            return cost + jump

        head = float((pi * np.exp(-lam * t)).sum()
                     * H(pi * np.exp(-lam * t)
                         / (pi * np.exp(-lam * t)).sum()))
        tail, _ = integrate.quad(integrand, 0.0, t, limit=200)
        return head + tail

    ts = np.linspace(0.0, s, 401)
    direct = max(j_of_t(t) for t in ts)

    grid = build_grid(2, 40)
    solver = FiniteHorizonSolver(model, grid=grid, L=200, tol=1e-6)
    v0 = np.tile(solver.ws.Hnodes, (201, 1))
    v1 = solver.sweep(v0)
    node = grid.index_of(np.array([[20, 20]]))[0]
    assert v1[-1][node] == pytest.approx(direct, abs=1e-4)


# -- error bounds -----------------------------------------------------------

def test_uniform_error_bound_hand_value():
    model, _ = load_preset("insurance")
    # (T*||C|| + 2*||H||) * sqrt(lam_bar*T / (m-1)) * (lam_bar/(2rho+lam_bar))^{m/2}
    # = (0.24 + 12) * 2 * (5/5.2) at m = 2
    assert uniform_error_bound(model, 2) == pytest.approx(23.54, abs=0.01)


def test_uniform_error_bound_decreasing_to_zero():
    model, _ = load_preset("insurance")
    vals = [uniform_error_bound(model, m) for m in range(5, 200, 10)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert uniform_error_bound(model, 2000) < 1e-6


def test_uniform_error_bound_vanishes_for_large_rho():
    model, _ = load_preset("insurance")
    m_hi = dataclasses.replace(model, rho=1e6)
    assert uniform_error_bound(m_hi, 10) < 1e-12


def test_uniform_error_bound_needs_two_iterations():
    model, _ = load_preset("insurance")
    with pytest.raises(ValueError):
        uniform_error_bound(model, 1)


def test_err_infinity_hand_value():
    model, _ = load_preset("insurance")  # rho=0.1, lam_bar=5
    assert err_infinity(model, 50) == pytest.approx((5.0 / 5.1) ** 50,
                                                    rel=1e-12)
    assert err_infinity(model, 50) == pytest.approx(0.372, abs=5e-3)


def test_horizon_error_hand_value():
    model, _ = load_preset("insurance")
    # e^{-0.08} * (0.3 + 12)
    assert horizon_error(model, 0.8) == pytest.approx(11.35, abs=0.01)


def test_horizon_error_vanishes_for_long_horizons():
    model, _ = load_preset("insurance")
    assert horizon_error(model, 500.0) < 1e-12


def test_horizon_error_rho_zero_scales_inverse_T():
    model, _ = load_preset("regime")  # rho = 0, c = -1 < 0
    assert horizon_error(model, 4.0) == pytest.approx(
        0.5 * horizon_error(model, 2.0), rel=1e-12)


def test_truncated_rule_slack_additive():
    model, _ = load_preset("insurance")
    eps, m = 0.02, 30
    want = eps + err_infinity(model, m) \
        + err_infinity(model, 0) * horizon_error(model)
    assert truncated_rule_slack(model, eps, m) == pytest.approx(want,
                                                                rel=1e-12)


def test_infinite_requires_discount_or_strict_cost():
    m = make_model(n=2, Q=[[0.0, 0.0], [0.0, 0.0]], lam=[1.0, 2.0],
                   c=[0.0, 0.0], rho=0.0, mu=[[1.0, 0.0]], horizon=1.0)
    with pytest.raises(ValueError):
        solve_infinite(m, R=10)
    with pytest.raises(ValueError):
        err_infinity(m, 5)


# -- infinite horizon -------------------------------------------------------

def test_infinite_fixed_point_residual():
    model, _ = load_preset("regime")
    grid = build_grid(2, 60)
    tol = 1e-4
    stat = solve_infinite(model, grid=grid, tol=tol)
    assert stat.meta["converged"]
    # one extra application of the operator moves the surface by at most
    # a small multiple of the tolerance
    again = solve_infinite(model, grid=grid, tol=0.0,
                           m_max=stat.meta["iterations"] + 1)
    assert again.meta["deltas"][-1] <= 3.0 * tol


def test_infinite_dominates_finite():
    model, _ = load_preset("regime")
    grid = build_grid(2, 60)
    stat = solve_infinite(model, grid=grid, tol=1e-6)
    surf = solve_finite(model, grid=grid, L=200, tol=1e-6)
    assert np.min(stat.values - surf.values[-1]) >= -1e-6


def test_infinite_bounded_by_norm_H():
    # rho > 0, H >= 0, no running cost: discounted stopping of a bounded
    # reward cannot exceed its sup
    m = make_model(n=2, Q=[[-1.0, 1.0], [1.0, -1.0]], lam=[1.0, 4.0],
                   c=[0.0, 0.0], rho=0.5, mu=[[2.0, 0.0]], horizon=1.0)
    stat = solve_infinite(m, R=40, tol=1e-6)
    assert np.max(stat.values) <= 2.0 + 1e-6
    assert np.min(stat.values - terminal_reward_nodes(m, stat.grid.nodes)) \
        >= -1e-9


def test_rho_monotonicity():
    # H >= 0 and costs <= 0: a more impatient decision maker never gains
    model, _ = load_preset("insurance")
    grid = build_grid(3, 30)
    lo = solve_finite(model, grid=grid, tol=1e-6)
    hi = solve_finite(dataclasses.replace(model, rho=0.5), grid=grid,
                      tol=1e-6)
    assert np.max(hi.values - lo.values) <= 1e-9


def test_richardson_check_small_for_regime():
    model, _ = load_preset("regime")
    delta = richardson_check(model, grid=build_grid(2, 16), L=50, tol=1e-4)
    assert 0.0 <= delta < 5e-3
