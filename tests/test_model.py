"""Model assembly, validation and reward primitives."""

import json
import tracemalloc

import numpy as np
import pytest

from poistop import (
    build_grid,
    load_preset,
    make_model,
    net_return_rate,
    terminal_reward,
)
from poistop.model import (
    N_QUAD_CAP,
    ModelError,
    check_belief,
    check_time,
    discrete_marks,
    gamma_marks,
    gamma_pdf,
    load_model,
    model_from_dict,
    model_to_dict,
    model_violations,
    no_marks,
    save_model,
)
from poistop.presets import preset_names


def two_state(**kw):
    args = dict(
        n=2,
        Q=[[-1.0, 1.0], [1.0, -1.0]],
        lam=[1.0, 2.0],
        c=[0.0, 0.0],
        rho=0.0,
        mu=[[1.0, 0.0]],
        horizon=1.0,
    )
    args.update(kw)
    return make_model(**args)


# -- validation -------------------------------------------------------------

def test_row_sum_violation():
    with pytest.raises(ModelError) as exc:
        two_state(Q=[[-1.0, 1.1], [1.0, -1.0]])
    assert any("row" in v and "sum" in v for v in exc.value.violations)


def test_zero_rates_rejected():
    with pytest.raises(ModelError) as exc:
        two_state(lam=[0.0, 0.0])
    assert any("max lambda" in v for v in exc.value.violations)


def test_negative_offdiagonal_rejected():
    with pytest.raises(ModelError):
        two_state(Q=[[0.5, -0.5], [1.0, -1.0]])


def test_violations_collects_everything():
    spec = two_state()
    bad = spec.__class__(
        n=2,
        Q=np.array([[-1.0, 1.2], [1.0, -1.0]]),
        lam=np.array([-1.0, 0.0]),
        marks=spec.marks,
        c=np.zeros(2),
        rho=-0.5,
        mu=np.array([[1.0, 0.0]]),
        horizon=-1.0,
    )
    msgs = model_violations(bad)
    assert len(msgs) >= 4  # row sum, lambda sign, rho, horizon


def test_validation_normalizes_row_sums():
    m = two_state(Q=[[-1.0 + 1e-13, 1.0], [1.0, -1.0]])
    assert np.all(m.Q.sum(axis=1) == 0.0)


def test_discrete_mode_requires_K():
    with pytest.raises(ModelError) as exc:
        two_state(
            marks=discrete_marks([1.0, 2.0], [[0.5, 0.5], [0.2, 0.8]]),
            cost_mode="discrete",
        )
    assert any("K" in v for v in exc.value.violations)


# -- mark models ------------------------------------------------------------

def test_no_marks_normalized():
    m = no_marks(3)
    assert m.weights.shape == (3, 1)
    assert np.allclose(m.weights.sum(axis=1), 1.0)


def test_discrete_marks_density_at():
    m = discrete_marks([1.0, 2.0], [[0.2, 0.8], [0.5, 0.5]])
    assert np.allclose(m.density_at(2.0), [0.8, 0.5])
    with pytest.raises(ValueError):
        m.density_at(1.5)


def test_gamma_marks_rows_sum_to_one():
    m = gamma_marks([3.0, 4.0, 5.0], [2.0, 2.0, 2.0], n_quad=24)
    assert np.allclose(m.weights.sum(axis=1), 1.0, atol=1e-14)
    # quadrature mean should match the Gamma mean shape/rate to ~0.1%
    means = m.weights @ m.support
    assert np.allclose(means, [1.5, 2.0, 2.5], rtol=2e-3)


def test_gamma_density_at_is_exact_pdf():
    from scipy import stats
    m = gamma_marks([3.0], [2.0])
    y = 1.7
    assert m.density_at(y)[0] == pytest.approx(
        stats.gamma.pdf(y, 3.0, scale=0.5))


def test_density_at_takes_arrays_of_marks():
    m = discrete_marks([1.0, 2.0], [[0.2, 0.8], [0.5, 0.5]])
    assert np.array_equal(m.density_at([2.0, 1.0, 2.0]),
                          [[0.8, 0.5], [0.2, 0.5], [0.8, 0.5]])
    assert m.density_at(np.zeros((0,))).shape == (0, 2)
    with pytest.raises(ValueError, match="1.5"):
        m.density_at([1.0, 1.5])
    assert no_marks(3).density_at([0.0, 0.0]).shape == (2, 3)
    g = gamma_marks([3.0, 4.0], [2.0, 1.0])
    ys = np.array([0.3, 1.7, 4.0])
    dens = g.density_at(ys)
    assert dens.shape == (3, 2)
    assert np.array_equal(dens[1], g.density_at(1.7))
    # a gamma mark falls in the cell of its nearest quadrature node
    assert np.array_equal(g.mark_index(g.support + 1e-3),
                          np.arange(g.n_marks))


@pytest.mark.parametrize("a, b", [(3.0, 2.0), (0.7, 1.3), (25.0, 0.4)])
def test_gamma_pdf_and_support_match_scipy_stats(a, b):
    from scipy import stats
    law = stats.gamma(a, scale=1.0 / b)
    y = np.linspace(0.0, law.ppf(0.9999) * 1.5, 1001)[1:]
    want = law.pdf(y)
    assert np.all(np.abs(gamma_pdf(y, a, b) - want) <= 4e-16 * want)
    assert gamma_pdf(-1.0, a, b) == 0.0
    # the quadrature spans [0, the 0.9999 quantile]
    x, _ = np.polynomial.legendre.leggauss(40)
    nodes = 0.5 * law.ppf(0.9999) * (x + 1.0)
    assert np.allclose(gamma_marks([a], [b]).support, nodes, rtol=4e-16,
                       atol=0.0)


# -- reward primitives ------------------------------------------------------

def test_terminal_reward_insurance_corners():
    model, _ = load_preset("insurance")
    # mu rows: launch = (6, 1, -3), quit = 0
    v, a = terminal_reward(model, [1.0, 0.0, 0.0])
    assert (v, a) == (6.0, 0)
    v, a = terminal_reward(model, [0.0, 0.0, 1.0])
    assert (v, a) == (0.0, 1)  # max(-3, 0) at corner R


def test_terminal_reward_tie_breaks_smallest_index():
    m = two_state(mu=[[1.0, 0.0], [1.0, 0.0], [2.0, -1.0]])
    _, a = terminal_reward(m, [0.5, 0.5])
    assert a == 0  # all three actions give 0.5; smallest index wins
    # lattice nodes k / 60 with 6 k1 + k2 - 3 k3 = 0, where launch and quit
    # tie on insurance, alone and in the whole lattice
    model, _ = load_preset("insurance")
    nodes = build_grid(3, 60).nodes
    for i in (487, 865):
        assert np.array_equal(np.rint(60 * nodes[i]) @ [6, 1, -3], 0.0)
        assert terminal_reward(model, nodes[i])[1] == 0
        assert terminal_reward(model, nodes)[1][i] == 0


@pytest.mark.parametrize("name", preset_names())
def test_norm_H_bounds_H_on_the_lattice(name):
    # on regime H dips to -1 at (1/2, 1/2) below both corner values 0: the
    # largest corner |H| was 0 there
    model, info = load_preset(name)
    H = terminal_reward(model, build_grid(model.n, info["R"]).nodes)[0]
    assert model.norm_H() >= np.max(np.abs(H))
    assert model.norm_H() == np.max(np.abs(model.mu))


def test_best_action_invariant_under_common_shift():
    m = two_state(mu=[[1.0, 0.0], [0.0, 2.0]])
    m2 = two_state(mu=[[8.0, 7.0], [7.0, 9.0]])
    for p2 in np.linspace(0.0, 1.0, 21):
        pi = [1.0 - p2, p2]
        assert terminal_reward(m, pi)[1] == terminal_reward(m2, pi)[1]


def test_running_cost_zero_vector():
    m = two_state()
    assert m.c @ [0.3, 0.7] == 0.0


def test_net_return_rate_degenerate_zero():
    m = two_state(mu=[[2.0, 2.0]], c=[0.0, 0.0], rho=0.0)
    # equal mu, zero cost, zero discount: every term vanishes except
    # -rho*mu = 0
    assert net_return_rate(m, 0, 0) == 0.0


def test_net_return_rate_insurance_corner_G():
    model, _ = load_preset("insurance")
    # c_G - rho*mu_G + (mu_B - mu_G) q_GB + (mu_R - mu_G) q_GR
    # = -0.3 - 0.1*1 + (6-1)*2 + (-3-1)*2 = 1.6
    assert net_return_rate(model, 1, 0) == pytest.approx(1.6, abs=1e-12)


def test_effective_cost_rates_discrete():
    model, _ = load_preset("techadopt")
    # lambda_i * E_i[K]: 3*(.2*-3+.8*-1), 5*(.5*-3+.5*-1), 3*(.8*-3+.2*-1)
    assert np.allclose(model.effective_cost_rates(), [-4.2, -10.0, -7.8])


# -- JSON round trip --------------------------------------------------------

@pytest.mark.parametrize("name", ["regime", "insurance", "techadopt"])
def test_model_json_round_trip(tmp_path, name):
    model, _ = load_preset(name)
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.n == model.n
    assert np.allclose(loaded.Q, model.Q)
    assert np.allclose(loaded.lam, model.lam)
    assert np.allclose(loaded.mu, model.mu)
    assert np.allclose(loaded.marks.weights, model.marks.weights)
    assert loaded.cost_mode == model.cost_mode
    assert loaded.sense == model.sense
    if model.K is not None:
        assert np.allclose(loaded.K, model.K)


def test_model_dict_is_json_serializable():
    model, _ = load_preset("insurance")
    json.dumps(model_to_dict(model))


def test_model_from_dict_unknown_marks():
    with pytest.raises(ModelError):
        model_from_dict({"n": 1, "Q": [[0.0]], "lambda": [1.0],
                         "mu": [[1.0]], "marks": {"kind": "weird"}})


@pytest.mark.parametrize("edit, field", [
    (lambda d: d.pop("Q"), "Q: required field missing"),
    (lambda d: d.update(n=None), "n: expected an integer, got null"),
    (lambda d: d.update(n=2.5), "n: expected an integer"),
    (lambda d: d.update(rho="0.1"), "rho: expected a number"),
    (lambda d: d.update(horizon=True), "horizon: expected a number"),
    (lambda d: d.update(Q=[[0.0, 1.0], [2.0]]), "Q: expected [numbers]"),
    (lambda d: d.update(mu="abc"), "mu: expected [numbers]"),
    (lambda d: d.update({"lambda": [1.0, None]}),
     "lambda: expected [numbers]"),
    (lambda d: d.update(c=-1.0), "c: expected [numbers], got -1.0"),
    (lambda d: d.update(states="ab"), "states: expected a list"),
    (lambda d: d.update(marks="none"), "marks: expected an object"),
    (lambda d: d.update(marks={"kind": "discrete", "pmf": [[1.0]] * 2}),
     "marks.support: required field missing"),
    (lambda d: d.update(marks={"kind": "gamma", "shape": 3, "rate": [1, 1]}),
     "marks.shape: expected [numbers], got 3"),
])
def test_model_from_dict_names_a_field_of_the_wrong_type(edit, field):
    d = model_to_dict(two_state())
    edit(d)
    with pytest.raises(ModelError) as exc:
        model_from_dict(d)
    assert exc.value.violations[0].startswith(field)


@pytest.mark.parametrize("d", [[1, 2], None, "model", 3])
def test_model_from_dict_needs_an_object(d):
    with pytest.raises(ModelError, match="model: expected an object"):
        model_from_dict(d)


def test_label_counts_sense_and_mark_table_are_checked():
    d = model_to_dict(two_state())
    with pytest.raises(ModelError, match="states: expected 2 names, got 1"):
        model_from_dict(dict(d, states=["low"]))
    with pytest.raises(ModelError, match="sense: unknown sense 'least'"):
        model_from_dict(dict(d, sense="least"))
    marks = {"kind": "discrete", "support": [0.0, 1.0, 2.0],
             "pmf": [[0.5, 0.5], [0.5, 0.5]]}
    with pytest.raises(ModelError, match=r"marks: expected 2 weight rows "
                       r"of 3, one per support point, got shape \(2, 2\)"):
        model_from_dict(dict(d, marks=marks))
    with pytest.raises(ModelError, match="n: state count must be >= 1"):
        model_from_dict(dict(d, n=-1))


def test_a_large_n_is_refused_before_anything_is_built_to_it():
    # n = 10**6 next to a 2 x 2 Q: the default marks and c were built to
    # size n before Q was compared with it, a 17 MB peak
    d = model_to_dict(two_state())
    del d["c"]
    gamma = {"kind": "gamma", "shape": [2.0, 3.0], "rate": [1.0, 1.0]}
    tracemalloc.start()
    try:
        for marks in ({"kind": "none"}, gamma):
            with pytest.raises(ModelError, match=r"Q: expected shape "
                                                 r"\(1000000, 1000000\)"):
                model_from_dict(dict(d, n=10 ** 6, marks=marks))
        with pytest.raises(ModelError, match="Q: expected shape"):
            make_model(n=10 ** 6, Q=d["Q"], lam=d["lambda"], mu=d["mu"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_gamma_marks_refuse_more_nodes_than_the_cap():
    # leggauss's memory grows with n_quad squared (7.7 MB at 1,000), and a
    # model file reached it with any n_quad >= 1
    assert N_QUAD_CAP == 1000
    with pytest.raises(ValueError, match=r"n_quad must lie in \[1, 1000\]"):
        gamma_marks([3.0, 4.0], [2.0, 2.0], n_quad=N_QUAD_CAP + 1)
    d = model_to_dict(load_preset("insurance")[0])
    d["marks"]["n_quad"] = N_QUAD_CAP + 1
    with pytest.raises(ModelError, match=r"marks\.n_quad: expected an "
                                         r"integer in \[1, 1000\]"):
        model_from_dict(d)


def test_check_time_clips_within_slack_and_refuses_the_rest():
    assert check_time(0.7, 2.0) == 0.7
    assert check_time(2.0 + 1e-13, 2.0) == 2.0
    assert check_time(-1e-13, 2.0) == 0.0
    for bad in (np.nan, np.inf, -np.inf, -1e-11, 2.0 + 1e-11):
        with pytest.raises(ValueError, match="^t: time to maturity"):
            check_time(bad, 2.0, "t")


@pytest.mark.parametrize("bad", [[np.nan, 1.0], [np.nan, np.nan],
                                 [np.inf, 0.0]])
def test_check_belief_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="outside the simplex"):
        check_belief(bad, 2)


TWO_MARKS = ([1.0, 2.0], [[0.5, 0.5], [0.5, 0.5]])


@pytest.mark.parametrize("kw, message", [
    ({"lam": [1.0, 2.0, 3.0]}, "lambda: expected 2 rates, got shape (3,)"),
    ({"mu": [[1.0, 0.0, 0.0]]}, "mu: expected at least one action row of "
                                "width 2, got shape (1, 3)"),
    ({"mu": np.zeros((0, 2))}, "mu: expected at least one action row of "
                               "width 2, got shape (0, 2)"),
    ({"cost_mode": "lump"}, "cost_mode: unknown mode 'lump'"),
    ({"marks": discrete_marks(*TWO_MARKS), "cost_mode": "discrete",
      "K": [1.0]}, "K: expected one value per mark (2), got shape (1,)"),
    ({"marks": discrete_marks([1.0, 2.0], [[1.5, -0.5], [0.5, 0.5]])},
     "marks: negative probability weight"),
    ({"marks": discrete_marks([1.0, 2.0], [[0.5, 0.5], [0.25, 0.5]])},
     "marks: state 1 weights sum to 0.75, not 1 (within 1e-8)"),
])
def test_model_violations_name_the_field_and_the_shape(kw, message):
    with pytest.raises(ModelError) as exc:
        two_state(**kw)
    assert exc.value.violations == [message]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("field, kw", [
    ("Q", {"Q": [[-np.inf, np.inf], [1.0, -1.0]]}),
    ("lambda", {"lam": [1.0, np.nan]}),
    ("c", {"c": [np.inf, 0.0]}),
    ("rho", {"rho": np.nan}),
    ("rho", {"rho": np.inf}),
    ("mu", {"mu": [[np.nan, 0.0]]}),
    ("horizon", {"horizon": np.inf}),
    ("horizon", {"horizon": np.nan}),
    ("K", {"marks": discrete_marks([1.0, 2.0], [[0.5, 0.5], [0.5, 0.5]]),
           "cost_mode": "discrete", "K": [np.nan, -1.0]}),
    # a NaN shape makes NaN weights, whose row sums pass |sum - 1| > 1e-8
    ("marks", {"marks": gamma_marks([np.nan, 2.0], [1.0, 1.0], n_quad=4)}),
    # a NaN support point was the nearest point of every mark (argmin)
    ("marks.support", {"marks": discrete_marks([np.nan, 2.0],
                                               [[0.5, 0.5], [0.5, 0.5]])}),
])
def test_non_finite_model_numbers_rejected(field, kw):
    # filterwarnings: the check comes before any arithmetic that would warn
    with pytest.raises(ModelError, match=rf"^invalid model: {field}: "
                                         "every value must be finite"):
        two_state(**kw)
