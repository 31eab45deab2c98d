"""Exact filtering: survival weights, the no-arrival flow, jump updates."""

import csv
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poistop import (
    ArrivalEvent,
    bayes_update,
    filter_path,
    flow,
    jump_update,
    make_model,
)
from poistop.filter import (
    FLOW_CHUNK,
    FilterError,
    FlowPropagator,
    events_to_csv,
    flow_derivative,
    flow_path,
    propagator,
)
from poistop.grid import build_grid
from poistop.model import check_belief, discrete_marks, gamma_marks
from poistop.presets import load_preset


def absorbing_two_state(lam=(1.0, 2.0), **kw):
    args = dict(n=2, Q=[[0.0, 0.0], [0.0, 0.0]], lam=list(lam),
                mu=[[1.0, 0.0]], horizon=1.0)
    args.update(kw)
    return make_model(**args)


def ergodic_three_state():
    return make_model(
        n=3,
        Q=[[-2.0, 1.0, 1.0], [0.5, -1.0, 0.5], [1.0, 2.0, -3.0]],
        lam=[1.0, 2.0, 4.0],
        mu=[[1.0, 0.0, 0.0]],
        horizon=1.0,
    )


# -- survival weights -------------------------------------------------------

def survival_weights(m, t, pi):
    """m(t, pi) = pi . exp(t (Q - Lambda)): one flow_path step of t."""
    return flow_path(m, pi, t, 1)[0][1, 0]


def test_survival_weights_single_state():
    m = make_model(n=1, Q=[[0.0]], lam=[2.0], mu=[[1.0]], horizon=1.0)
    assert survival_weights(m, 0.5, [1.0])[0] == pytest.approx(
        np.exp(-1.0), abs=1e-14)


def test_survival_weights_zero_time_identity():
    m = ergodic_three_state()
    pi = np.array([0.2, 0.3, 0.5])
    assert np.allclose(survival_weights(m, 0.0, pi), pi, atol=1e-15)


def test_survival_weights_absorbing_closed_form():
    # Q = 0: m_i(t) = pi_i e^{-lam_i t}; at t = ln 2 with lam = (1, 2):
    # (0.5/2, 0.5/4) = (0.25, 0.125)
    m = absorbing_two_state()
    out = survival_weights(m, np.log(2.0), [0.5, 0.5])
    assert np.allclose(out, [0.25, 0.125], atol=1e-12)


def test_survival_weights_negative_time_rejected():
    # propagator refuses the step
    with pytest.raises(FilterError, match="step -0.1 outside"):
        survival_weights(absorbing_two_state(), -0.1, [0.5, 0.5])


# -- flow -------------------------------------------------------------------

def test_flow_zero_time_identity():
    m = ergodic_three_state()
    pi = np.array([0.2, 0.3, 0.5])
    assert np.allclose(flow(m, 0.0, pi), pi)


def test_flow_of_zero_length_is_the_belief():
    # no step is taken: every node is its own flow at t = 0, bit for bit
    # (one forced step moved 60 of these 1,891 nodes in the last bits)
    m, _ = load_preset("insurance")
    for x in build_grid(m.n, 60).nodes:
        assert np.array_equal(flow(m, 0.0, x).view(np.int64),
                              check_belief(x, m.n).view(np.int64))


def test_flow_absorbing_closed_form():
    m = absorbing_two_state()
    out = flow(m, np.log(2.0), [0.5, 0.5])
    assert np.allclose(out, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)


def test_flow_constant_for_uniform_rates():
    m = absorbing_two_state(lam=(3.0, 3.0))
    pi = np.array([0.3, 0.7])
    for t in (0.1, 1.0, 5.0):
        assert np.allclose(flow(m, t, pi), pi, atol=1e-12)


def test_flow_long_horizon_stays_normalized():
    m = ergodic_three_state()
    out = flow(m, 500.0, [1.0, 0.0, 0.0])
    assert np.isfinite(out).all()
    assert out.sum() == pytest.approx(1.0, abs=1e-9)


def test_flow_settles_on_the_slowest_mode():
    # the raw weights decay like e^{-800 t}: at t = 1000 the flow is the
    # normalized left eigenvector of Q - Lambda of the largest eigenvalue
    m = make_model(n=2, Q=[[-1.0, 1.0], [1.0, -1.0]], lam=[800.0, 1000.0],
                   mu=[[1.0, 0.0]], horizon=1.0)
    vals, vecs = np.linalg.eig(m.flow_generator().T)
    slow = np.abs(vecs[:, np.argmax(vals.real)].real)
    for pi in ([0.5, 0.5], [0.0, 1.0]):
        out = flow(m, 1000.0, pi)
        assert np.max(np.abs(out - slow / slow.sum())) < 1e-12


@pytest.mark.parametrize("t", [-0.1, np.inf, np.nan])
def test_flow_rejects_durations_outside_the_half_line(t):
    # a NaN duration used to return the start belief, an infinite one to
    # loop for ever
    with pytest.raises(FilterError, match="outside"):
        flow(ergodic_three_state(), t, [0.2, 0.3, 0.5])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1),
       st.floats(0.0, 1.2), st.floats(0.0, 1.2))
def test_flow_semigroup(seed, t, u):
    # x(t + u, pi) = x(u, x(t, pi)); durations kept within 5 / lam_bar
    m = ergodic_three_state()
    rng = np.random.default_rng(seed)
    pi = rng.exponential(size=3)
    pi /= pi.sum()
    lhs = flow(m, t + u, pi)
    rhs = flow(m, u, flow(m, t, pi))
    assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_flow_derivative_matches_finite_difference():
    m = ergodic_three_state()
    rng = np.random.default_rng(9)
    h = 1e-5
    for _ in range(20):
        pi = rng.exponential(size=3)
        pi /= pi.sum()
        fd = (flow(m, h, pi) - flow(m, 0.0, pi)) / h
        assert np.max(np.abs(fd - flow_derivative(m, pi))) < 1e-4


@pytest.mark.parametrize("name", ["insurance", "regime", "reliability",
                                  "reliability2", "techadopt", "targeting"])
def test_propagator_matches_expm(name):
    # from h = 1e-4 to flow's step cap h max_i(lambda_i - q_ii) = 200, on
    # the flow generator Q - Lambda and on Q (the oracles' predictor)
    from scipy.linalg import expm
    m, _ = load_preset(name)
    cap = 200.0 / float(np.max(m.lam - np.diag(m.Q)))
    for A in (m.flow_generator(), m.Q):
        assert np.array_equal(propagator(A, 0.0), np.eye(m.n))
        for h in np.geomspace(1e-4, cap, 25):
            P, E = propagator(A, h), expm(h * A)
            assert P.min() >= 0.0
            assert np.all(np.abs(P - E) <= 1e-12 * np.abs(E)), h


def test_propagator_rejects_steps_outside_the_half_line():
    for h in (-1e-3, np.inf, np.nan):
        with pytest.raises(FilterError):
            propagator(ergodic_three_state().flow_generator(), h)


def test_flow_path_matches_flow():
    m = ergodic_three_state()
    beliefs = np.array([[1.0, 0.0, 0.0], [0.2, 0.5, 0.3], [0.0, 0.1, 0.9]])
    h, n = 0.05, 40
    M, X, sv = flow_path(m, beliefs, h, n)
    assert M.shape == X.shape == (n + 1, 3, 3)
    assert np.array_equal(sv, M.sum(axis=2))
    for j in (0, 1, 7, n):
        for b, pi in enumerate(beliefs):
            assert np.max(np.abs(X[j, b] - flow(m, j * h, pi))) < 1e-12
            assert np.max(np.abs(M[j, b]
                                 - survival_weights(m, j * h, pi))) < 1e-12


def test_flow_path_tracks_the_flow_where_mass_underflows():
    # exp(-800 t) underflows past t = 0.93
    m = make_model(n=2, Q=[[-1.0, 1.0], [1.0, -1.0]], lam=[800.0, 1000.0],
                   mu=[[1.0, 0.0]], horizon=1.0)
    start = np.array([[0.5, 0.5], [0.0, 1.0]])
    h = 1.0 / 600
    M, X, sv = flow_path(m, start, h, 600)
    dead = sv == 0.0
    assert dead[-1].all() and not dead[500].any()
    for j in (500, 560, 580, 600):
        for b, pi in enumerate(start):
            assert np.max(np.abs(X[j, b] - flow(m, j * h, pi))) < 1e-12
    # X is the flowed belief however small M gets, so its update is too
    Z, gone = bayes_update(m, X, m.marks.density_at(0.0))
    assert np.all(np.isfinite(Z)) and not gone.any()
    assert np.allclose(Z.sum(axis=-1), 1.0, rtol=0, atol=1e-15)


def test_flow_in_chunks_matches_one_flow_path():
    # lam_2 - lam_1 = 1e-5: x_2 / x_1 = e^{-1e-5 t} on Q = 0, and every
    # step of h = 200 leaves the survival mass near underflow
    m = absorbing_two_state(lam=(1.0, 1.00001))
    pi = np.array([0.5, 0.5])
    for t, n in ((1.5e5, 751), (5e5, 2501)):
        x = flow(m, t, pi)
        one = flow_path(m, pi, t / n, n)[1][-1, 0]
        if n <= FLOW_CHUNK:
            assert np.array_equal(x, one)
        else:
            assert np.max(np.abs(x - one)) <= 1e-12
        r = np.exp(-1e-5 * t)
        assert np.allclose(x, [1 / (1 + r), r / (1 + r)], rtol=1e-9)
    # a three-state path of 1.4 chunks, against its one call
    m3 = ergodic_three_state()
    pi3 = np.array([0.2, 0.3, 0.5])
    x = flow(m3, 4e4, pi3)
    assert np.max(np.abs(x - flow_path(m3, pi3, 4e4 / 1400, 1400)[1][-1, 0])) \
        <= 1e-12
    assert np.array_equal(flow(m3, 2e4, pi3),
                          flow_path(m3, pi3, 2e4 / 700, 700)[1][-1, 0])


def test_flow_memory_does_not_grow_with_duration():
    # 1,252 and 5,005 steps; one flow_path call of every step peaked at
    # 0.08 and 0.29 MB
    m = make_model(n=2, Q=[[-1.0, 1.0], [1.0, -1.0]], lam=[800.0, 1000.0],
                   mu=[[1.0, 0.0]], horizon=1.0)
    flow(m, 1.0, [0.5, 0.5])
    peaks = []
    for t in (250.0, 1000.0):
        tracemalloc.start()
        try:
            flow(m, t, [0.5, 0.5])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0]


# -- jump update ------------------------------------------------------------

def test_jump_identity_when_likelihoods_equal():
    m = absorbing_two_state(lam=(2.0, 2.0))
    pi = np.array([0.3, 0.7])
    assert np.allclose(jump_update(m, pi, 0.0), pi, atol=1e-14)


def test_jump_simple_poisson_hand_value():
    # pi_i -> lam_i pi_i / sum: (1*.5, 5*.5) / 3 = (1/6, 5/6)
    m = absorbing_two_state(lam=(1.0, 5.0))
    assert np.allclose(jump_update(m, [0.5, 0.5], 0.0), [1.0 / 6, 5.0 / 6],
                       atol=1e-14)


def test_jump_corner_fixed_point():
    m = absorbing_two_state()
    assert np.allclose(jump_update(m, [1.0, 0.0], 0.0), [1.0, 0.0])


def test_jump_impossible_mark_rejected():
    m = make_model(
        n=2, Q=[[0.0, 0.0], [0.0, 0.0]], lam=[1.0, 2.0],
        marks=discrete_marks([1.0, 2.0], [[1.0, 0.0], [1.0, 0.0]]),
        mu=[[1.0, 0.0]], horizon=1.0,
    )
    with pytest.raises(FilterError, match="mark 2.0 impossible"):
        jump_update(m, [0.5, 0.5], 2.0)


@pytest.mark.parametrize("mark", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["techadopt", "insurance"])
def test_non_finite_mark_rejected(name, mark):
    # the nearest support point of NaN or inf used to be the first one:
    # jump_update read a NaN or infinite discrete mark as the mark 1.0
    model, _ = load_preset(name)
    pi = np.full(model.n, 1.0 / model.n)
    for call in (lambda: jump_update(model, pi, mark),
                 lambda: model.marks.mark_index([1.0, mark])):
        with pytest.raises(ValueError, match=f"mark {mark} is not a finite"):
            call()


# -- the Bayes update, batched ----------------------------------------------

def test_bayes_update_constant():
    # with the weights of corner i, the jump rates sum to lambda_i, and a
    # constant surface stays constant after the jump: discrete and gamma
    # marks
    grid = build_grid(3, 20)
    ones = np.ones(grid.n_nodes)
    for name in ("techadopt", "insurance"):
        model, _ = load_preset(name)
        w = model.marks.weights
        Z, dead = bayes_update(model, np.array([0.3, 0.3, 0.4]), w.T)
        assert Z.shape == (model.marks.n_marks, 3) and not dead.any()
        for i in range(3):
            total = sum(model.lam[i] * w[i, r] * grid.interpolate(ones, Z[r])
                        for r in range(model.marks.n_marks))
            assert total == pytest.approx(model.lam[i], abs=1e-12)


def test_bayes_update_identity_when_uninformative():
    m = make_model(
        n=2, Q=[[0.0, 0.0], [0.0, 0.0]], lam=[2.0, 2.0],
        marks=discrete_marks([1.0, 2.0], [[0.4, 0.6], [0.4, 0.6]]),
        mu=[[1.0, 0.0]], horizon=1.0,
    )
    pi = np.array([0.35, 0.65])
    Z, dead = bayes_update(m, pi, m.marks.weights.T)
    assert np.allclose(Z, pi, atol=1e-15) and not dead.any()


def test_bayes_update_direct_two_term_sum():
    # state Low of the adoption model: weights (0.2, 0.8) over two marks
    model, _ = load_preset("techadopt")
    grid = build_grid(3, 30)
    rng = np.random.default_rng(4)
    vals = rng.normal(size=grid.n_nodes)
    pi = np.array([0.5, 0.3, 0.2])
    total = 0.0
    for r, wr in enumerate([0.2, 0.8]):
        w = pi * model.lam * model.marks.weights[:, r]
        total += wr * grid.interpolate(vals, w / w.sum())
    Z = bayes_update(model, pi, model.marks.weights.T)[0]
    got = sum(wr * grid.interpolate(vals, Z[r])
              for r, wr in enumerate([0.2, 0.8]))
    assert got == pytest.approx(total, abs=1e-12)


def test_bayes_update_impossible_mark_keeps_belief():
    m = make_model(
        n=2, Q=[[0.0, 0.0], [0.0, 0.0]], lam=[1.0, 2.0],
        marks=discrete_marks([1.0, 2.0], [[1.0, 0.0], [1.0, 0.0]]),
        mu=[[1.0, 0.0]], horizon=1.0,
    )
    pi = np.array([0.25, 0.75])
    Z, dead = bayes_update(m, pi, m.marks.weights.T)
    assert np.array_equal(Z[1], pi) and dead.tolist() == [False, True]
    assert np.allclose(Z[0], jump_update(m, pi, 1.0), atol=1e-15)


# -- filter along a path ----------------------------------------------------

def test_filter_no_events_is_pure_flow():
    m = ergodic_three_state()
    pi0 = np.array([0.5, 0.25, 0.25])
    traj = filter_path(m, pi0, [], 0.7)
    assert len(traj.segments) == 1
    assert np.allclose(traj.evaluate(0.7), flow(m, 0.7, pi0))


def test_filter_one_event_composition():
    m = ergodic_three_state()
    pi0 = np.array([0.5, 0.25, 0.25])
    traj = filter_path(m, pi0, [ArrivalEvent(0.3, 0.0)], 1.0)
    expected = jump_update(m, flow(m, 0.3, pi0), 0.0)
    assert np.allclose(traj.evaluate(0.3), expected, atol=1e-12)


def test_filter_jump_records_consistent():
    m = ergodic_three_state()
    events = [ArrivalEvent(0.2, 0.0), ArrivalEvent(0.5, 0.0),
              ArrivalEvent(0.9, 0.0)]
    traj = filter_path(m, [1 / 3, 1 / 3, 1 / 3], events, 1.0)
    for _, pre, post in traj.jumps:
        assert np.max(np.abs(post - jump_update(m, pre, 0.0))) < 1e-10


def gamma_density(shape, rate, y):
    return rate ** shape * y ** (shape - 1) * math.exp(-rate * y) \
        / math.gamma(shape)


def test_filter_absorbing_one_shot_likelihood():
    # Q = 0: the posterior factorizes, so ten updates must agree with a
    # single likelihood evaluation
    #   post_i  propto  pi_i (lam_i)^k (prod_j f_i(y_j)) e^{-lam_i t}
    # for discrete marks, and for gamma marks, whose pdf is written out
    pmf = [[0.3, 0.7], [0.6, 0.4]]
    shape, rate = [2.0, 5.0], [1.0, 2.0]
    laws = [
        (discrete_marks([1.0, 2.0], pmf), [1.0, 2.0] * 5,
         lambda i, y: pmf[i][int(y) - 1]),
        (gamma_marks(shape, rate, n_quad=8),
         [0.7, 3.1, 1.9, 0.2, 2.5, 4.4, 1.1, 0.9, 3.6, 2.2],
         lambda i, y: gamma_density(shape[i], rate[i], y)),
    ]
    times = np.linspace(0.3, 4.2, 10)
    t_eval = 4.5
    for law, marks, f in laws:
        m = make_model(n=2, Q=[[0.0, 0.0], [0.0, 0.0]], lam=[1.0, 3.0],
                       marks=law, mu=[[1.0, 0.0]], horizon=5.0)
        events = [ArrivalEvent(float(t), y) for t, y in zip(times, marks)]
        traj = filter_path(m, [0.5, 0.5], events, 5.0)
        w = 0.5 * np.ones(2)
        for y in marks:
            w = w * m.lam * [f(0, y), f(1, y)]
        w = w * np.exp(-m.lam * t_eval)
        w /= w.sum()
        assert np.max(np.abs(traj.evaluate(t_eval) - w)) < 1e-8


@pytest.mark.parametrize("where", ["before 0", "after t_end"])
def test_filter_path_refuses_times_outside_the_horizon(where):
    # an arrival outside [0, t_end], and a trajectory read there
    m = ergodic_three_state()
    t = {"before 0": -0.1, "after t_end": 1.5}[where]
    with pytest.raises(FilterError, match=r"arrival times must lie in "
                                          r"\[0, t_end\]"):
        filter_path(m, [1 / 3, 1 / 3, 1 / 3], [ArrivalEvent(t, 0.0)], 1.0)
    traj = filter_path(m, [1 / 3, 1 / 3, 1 / 3], [], 1.0)
    with pytest.raises(FilterError, match=rf"evaluation time {t} outside "
                                          r"\[0, 1.0\]"):
        traj.evaluate(t)


def test_filter_rejects_unsorted_events():
    m = ergodic_three_state()
    with pytest.raises(FilterError):
        filter_path(m, [1 / 3, 1 / 3, 1 / 3],
                    [ArrivalEvent(0.5, 0.0), ArrivalEvent(0.2, 0.0)], 1.0)


@pytest.mark.parametrize("mark, why", [(np.nan, "is not a finite number"),
                                       (1.5, "not in the model's support")])
def test_filter_names_the_event_of_a_bad_mark(mark, why):
    # a NaN mark used to pass as the mark 1.0, and an off-support mark
    # lost the event's index and time
    model, info = load_preset("techadopt")
    events = [ArrivalEvent(0.05, 1.0), ArrivalEvent(0.1, mark)]
    with pytest.raises(FilterError, match=f"^event 1 at t=0.1: mark {mark} "
                                          + why):
        filter_path(model, info["initial"], events, model.horizon)


# -- batch propagation and CSV ----------------------------------------------

def test_flow_propagator_matches_flow():
    m = ergodic_three_state()
    prop = FlowPropagator(m)
    rng = np.random.default_rng(17)
    beliefs = rng.exponential(size=(40, 3))
    beliefs /= beliefs.sum(axis=1, keepdims=True)
    durations = rng.uniform(0.0, 2.0, size=40)
    out = prop.advance(beliefs, durations)
    for k in range(40):
        assert np.max(np.abs(out[k] - flow(m, durations[k], beliefs[k]))) \
            < 1e-9


def test_flow_propagator_where_mass_underflows():
    # exp(-800 t) underflows past t = 0.93; the raw weights of every row
    # below are 0 at these durations
    m = make_model(n=2, Q=[[-1.0, 1.0], [1.0, -1.0]], lam=[800.0, 1000.0],
                   mu=[[1.0, 0.0]], horizon=1.0)
    beliefs = np.array([[0.5, 0.5], [0.5, 0.5], [0.0, 1.0], [0.9, 0.1]])
    durations = np.array([1.0, 0.95, 1.0, 2.5])
    out = FlowPropagator(m).advance(beliefs, durations)
    for k in range(4):
        assert np.max(np.abs(out[k] - flow(m, durations[k], beliefs[k]))) \
            < 1e-12
    # a reducible chain: the start (0, 1) excites only the faster mode
    m0 = make_model(n=2, Q=[[0.0, 0.0], [0.0, 0.0]], lam=[800.0, 1000.0],
                    mu=[[1.0, 0.0]], horizon=1.0)
    out = FlowPropagator(m0).advance([[0.0, 1.0], [1.0, 0.0]], [1.0, 1.0])
    assert np.array_equal(out, [[0.0, 1.0], [1.0, 0.0]])


@pytest.mark.filterwarnings("error")
def test_flow_propagator_unexcited_slow_mode_does_not_overflow():
    # (0, 1) excites only the fast mode; the slow mode's shifted exponent
    # 5 * 999 overflows, and 0 * inf used to turn the row into NaN
    m = make_model(n=2, Q=[[0.0, 0.0], [0.0, 0.0]], lam=[1.0, 1000.0],
                   mu=[[1.0, 0.0]])
    beliefs = np.array([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]])
    out = FlowPropagator(m).advance(beliefs, [5.0, 5.0, 5.0])
    for k in range(3):
        assert np.max(np.abs(out[k] - flow(m, 5.0, beliefs[k]))) <= 1e-12


def test_flow_propagator_defective_generator_falls_back_to_flow():
    # Q - Lambda = [[-2, 1], [0, -2]] is a Jordan block: the eigenbasis is
    # singular, so advance takes the row-by-row branch; at t = 400 the raw
    # weights underflow, so that branch must renormalize as it steps
    m = make_model(n=2, Q=[[-1.0, 1.0], [0.0, 0.0]], lam=[1.0, 2.0],
                   mu=[[1.0, 0.0]])
    prop = FlowPropagator(m)
    assert not prop._ok
    beliefs = np.array([[0.5, 0.5], [0.5, 0.5]])
    durations = np.array([0.5, 400.0])
    out = prop.advance(beliefs, durations)
    for k in range(2):
        assert np.max(np.abs(out[k] - flow(m, durations[k], beliefs[k]))) \
            <= 1e-12
    assert out[1] == pytest.approx([0.0025, 0.9975], abs=1e-4)


@pytest.mark.parametrize("name", ["insurance", "regime", "reliability",
                                  "reliability2", "techadopt", "targeting"])
def test_flow_propagator_shift_moves_presets_by_ulps(name):
    # the unshifted eigenbasis formula, as the propagator had it before
    # the exponents were shifted
    m, _ = load_preset(name)
    prop = FlowPropagator(m)
    rng = np.random.default_rng(23)
    beliefs = np.vstack([build_grid(m.n, 8).nodes,
                         rng.dirichlet(np.ones(m.n), 200)])
    durations = rng.uniform(0.0, m.horizon / 20, len(beliefs))
    z = beliefs.astype(complex) @ prop.vecs
    z = z * np.exp(np.multiply.outer(durations, prop.vals))
    old = np.clip(np.real(z @ prop.vecs_inv), 0.0, None)
    old /= old.sum(axis=1, keepdims=True)
    new = prop.advance(beliefs, durations)
    assert np.max(np.abs(new - old)) <= 8 * np.finfo(float).eps
    # every preset's spectrum is real: advance multiplies real arrays
    assert prop.vecs.dtype == prop.vals.dtype == np.float64


def test_flow_propagator_complex_spectrum_matches_flow():
    # a cyclic chain: Q - Lambda has a complex pair of eigenvalues
    m = make_model(n=3, Q=[[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0],
                           [1.0, 0.0, -1.0]], lam=[1.0, 2.0, 3.0],
                   mu=[[1.0, 0.0, 0.0]], horizon=1.0)
    prop = FlowPropagator(m)
    assert np.iscomplexobj(prop.vals)
    rng = np.random.default_rng(29)
    beliefs = rng.dirichlet(np.ones(3), 20)
    durations = rng.uniform(0.0, 5.0, 20)
    out = prop.advance(beliefs, durations)
    assert out.dtype == np.float64
    for k in range(20):
        assert np.max(np.abs(out[k] - flow(m, durations[k], beliefs[k]))) \
            < 1e-12


def test_events_csv_round_trip(tmp_path):
    events = [ArrivalEvent(0.25, 1.0), ArrivalEvent(0.875, 2.0),
              ArrivalEvent(0.1 + 0.2, 1.0 / 3.0)]
    path = tmp_path / "events.csv"
    events_to_csv(events, path)
    with open(path, newline="") as fh:
        back = [ArrivalEvent(float(row["time"]), float(row["mark"]))
                for row in csv.DictReader(fh)]
    assert back == events
