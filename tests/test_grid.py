"""Simplex lattice and barycentric interpolation."""

from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poistop import build_grid


def random_simplex_points(rng, m, n):
    x = rng.exponential(size=(m, n))
    return x / x.sum(axis=1, keepdims=True)


# -- construction -----------------------------------------------------------

def test_node_counts():
    assert build_grid(2, 4).n_nodes == 5
    assert build_grid(3, 2).n_nodes == 6
    assert build_grid(3, 100).n_nodes == 5151  # C(102, 2)
    assert build_grid(4, 10).n_nodes == comb(13, 3)


def test_nodes_on_simplex():
    g = build_grid(3, 7)
    assert np.allclose(g.nodes.sum(axis=1), 1.0)
    assert np.all(g.nodes >= 0.0)
    assert np.all(g.comps.sum(axis=1) == 7)


def test_node_cap():
    with pytest.raises(ValueError):
        build_grid(6, 200)


def test_index_of_round_trip():
    g = build_grid(4, 9)
    idx = g.index_of(g.comps)
    assert np.array_equal(idx, np.arange(g.n_nodes))


# -- interpolation ----------------------------------------------------------

def test_nodal_exactness():
    g = build_grid(3, 10)
    vals = np.sin(np.arange(g.n_nodes, dtype=float))
    for i in range(0, g.n_nodes, 7):
        assert g.interpolate(vals, g.nodes[i]) == pytest.approx(
            vals[i], abs=1e-12)


@pytest.mark.parametrize("n,R", [(2, 7), (3, 12), (4, 6)])
def test_linear_reproduction(n, R):
    g = build_grid(n, R)
    rng = np.random.default_rng(3)
    a = rng.normal(size=n)
    vals = g.nodes @ a
    pts = random_simplex_points(rng, 200, n)
    out = np.array([g.interpolate(vals, p) for p in pts])
    assert np.max(np.abs(out - pts @ a)) < 1e-12


def test_convex_midpoint_dominated():
    # linear interpolation of convex nodal data over-estimates: the value
    # at the midpoint of two nodes is at most the average of the node values
    g = build_grid(3, 8)
    vals = np.sum(g.nodes ** 2, axis=1)  # convex in pi
    rng = np.random.default_rng(5)
    for _ in range(100):
        i, j = rng.integers(0, g.n_nodes, size=2)
        mid = 0.5 * (g.nodes[i] + g.nodes[j])
        assert g.interpolate(vals, mid) <= 0.5 * (vals[i] + vals[j]) + 1e-12


def test_barycentric_weights_valid():
    g = build_grid(3, 9)
    rng = np.random.default_rng(11)
    pts = random_simplex_points(rng, 500, 3)
    idx, w = g.barycentric(pts)
    assert np.all(w >= 0.0)
    assert np.allclose(w.sum(axis=1), 1.0, atol=1e-9)
    assert idx.min() >= 0 and idx.max() < g.n_nodes
    # reconstructed point equals the query point (partition of unity on
    # the containing cell)
    rec = np.einsum("mk,mkj->mj", w, g.nodes[idx])
    assert np.max(np.abs(rec - pts)) < 1e-9


def test_boundary_points_covered():
    g = build_grid(3, 6)
    edges = np.array([
        [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
        [0.5, 0.5, 0.0], [0.0, 0.25, 0.75], [1.0 / 3, 0.0, 2.0 / 3],
    ])
    idx, w = g.barycentric(edges)
    rec = np.einsum("mk,mkj->mj", w, g.nodes[idx])
    assert np.max(np.abs(rec - edges)) < 1e-9


def test_point_outside_simplex_rejected():
    g = build_grid(2, 4)
    with pytest.raises(ValueError):
        g.barycentric(np.array([[0.7, 0.7]]))
    with pytest.raises(ValueError):
        g.barycentric(np.array([[-0.2, 1.2]]))


@pytest.mark.parametrize("bad", [[np.nan, np.nan], [np.nan, 1.0],
                                 [np.inf, 0.0], [-np.inf, 1.0]])
def test_non_finite_point_rejected(bad):
    g = build_grid(2, 4)
    with pytest.raises(ValueError, match="non-finite"):
        g.barycentric(np.array([bad]))
    # one bad row in a batch of good ones is caught too
    with pytest.raises(ValueError, match="non-finite"):
        g.barycentric(np.array([[0.5, 0.5], bad, [1.0, 0.0]]))


def test_interp_matrix_matches_interpolate():
    g = build_grid(3, 9)
    rng = np.random.default_rng(21)
    pts = random_simplex_points(rng, 50, 3)
    vals = rng.normal(size=g.n_nodes)
    B = g.interp_matrix(pts)
    direct = np.array([g.interpolate(vals, p) for p in pts])
    assert np.allclose(B @ vals, direct, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 4), st.integers(2, 15))
def test_linearity_property(seed, n, R):
    g = build_grid(n, R)
    rng = np.random.default_rng(seed)
    a = rng.normal(size=n)
    b = rng.normal()
    vals = g.nodes @ a + b
    pts = random_simplex_points(rng, 20, n)
    out = np.array([g.interpolate(vals, p) for p in pts])
    assert np.max(np.abs(out - (pts @ a + b))) < 1e-11
