"""Simplex lattice and barycentric interpolation."""

from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poistop import FiniteHorizonSolver, SimplexGrid, build_grid, load_preset
from poistop.grid import BLOCK_POINTS


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
    assert np.all(np.rint(g.nodes * 7).sum(axis=1) == 7)


def reference_compositions(n, R):
    """The compositions of R into n parts in lexicographic order, built
    recursively on the first part."""
    if n == 1:
        return np.array([[R]], dtype=np.int64)
    rows = []
    for k in range(R + 1):
        rest = reference_compositions(n - 1, R - k)
        first = np.full((rest.shape[0], 1), k, dtype=np.int64)
        rows.append(np.hstack([first, rest]))
    return np.vstack(rows)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("R", [1, 2, 7, 20])
def test_compositions_match_recursive_reference(n, R):
    # the nodes are the compositions over R, bit for bit
    ref = reference_compositions(n, R)
    assert np.array_equal(build_grid(n, R).nodes, ref / R)


def test_node_cap():
    with pytest.raises(ValueError):
        build_grid(6, 200)


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


@pytest.mark.parametrize("pt", [[0.25] * 4, [0.5, 0.5], [1.0]])
def test_point_of_wrong_width_rejected(pt):
    # a summing-to-one row of another width used to get a cell: [0.25] * 4
    # the one of (0.25, 0.25, 0.5), [0.5, 0.5] the node (0.5, 0.5, 0)
    g = build_grid(3, 10)
    with pytest.raises(ValueError, match="width 3"):
        g.barycentric([pt])
    with pytest.raises(ValueError, match="width 3"):
        g.interpolate(np.ones(g.n_nodes), pt)
    with pytest.raises(ValueError, match="width 3"):
        g.barycentric(np.full((2, 2, 3), 1.0 / 3.0))


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


def test_interp_matrix_weighted_groups():
    # row i: sum over its 4 points of weight times the interpolant; lattice
    # points (duplicate and zero-weight vertices) and zero weights included
    g = build_grid(3, 9)
    rng = np.random.default_rng(22)
    pts = np.vstack([random_simplex_points(rng, 36, 3), g.nodes[::10][:4]])
    wts = rng.uniform(size=len(pts))
    wts[::7] = 0.0
    vals = rng.normal(size=g.n_nodes)
    B = g.interp_matrix(pts, wts, 4)
    assert B.shape == (10, g.n_nodes) and B.has_canonical_format
    assert np.all(B.data != 0.0) and len(B.data) == B.nnz
    direct = (wts * np.array([g.interpolate(vals, p) for p in pts]))
    assert np.allclose(B @ vals, direct.reshape(10, 4).sum(axis=1),
                       atol=1e-12)


@pytest.mark.parametrize("n, R, K, m", [
    (2, 12, 300, 40),        # 204 slices per block: one ragged last block
    (3, 9, 7, 3000),         # 2 slices per block: blocks of 2, 2, 2, 1
    (2, 50, 3, 9000),        # each slice wider than one block
    (3, 6, 1, 1),
])
def test_interp_matrices_bitwise_equal_per_slice(n, R, K, m):
    g = build_grid(n, R)
    rng = np.random.default_rng(23 + K)
    pts = random_simplex_points(rng, K * m, n).reshape(K, m, n)
    # lattice points (their duplicate vertices sum to one entry) and zero
    # weights, a whole zero slice included, so eliminate_zeros drops some
    on_nodes = pts[:, ::5].shape[:2]
    pts[:, ::5] = g.nodes[rng.integers(g.n_nodes, size=on_nodes)]
    wts = rng.uniform(size=(K, m))
    wts[:, ::3] = 0.0
    wts[K // 2] = 0.0
    per = max(1, BLOCK_POINTS // m)
    assert K == 1 or K % per or m > BLOCK_POINTS
    Bs = g.interp_matrices(pts, wts)
    assert len(Bs) == K
    for k, B in enumerate(Bs):
        ref = g.interp_matrix(pts[k], wts[k])
        assert B.shape == ref.shape == (m, g.n_nodes)
        for a, b in ((B.data, ref.data), (B.indices, ref.indices),
                     (B.indptr, ref.indptr)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        # each slice owns its buffers, no view of its block
        for a in (B.data, B.indices):
            assert (a if a.base is None else a.base).size == B.nnz
    assert Bs[K // 2].nnz == 0


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


# -- closed-form lookup against the sorted-code reference ---------------------

def reference_index_of(grid, comps):
    """Sorted-code lookup: pack each composition into a base-(R+1) code
    and binary-search the sorted codes of the nodes."""
    def encode(c):
        codes = np.zeros(c.shape[:-1], dtype=np.int64)
        for j in range(c.shape[-1]):
            codes = codes * (grid.R + 1) + c[..., j]
        return codes
    codes = encode(np.rint(grid.nodes * grid.R).astype(np.int64))
    order = np.argsort(codes)
    return order[np.searchsorted(codes[order], encode(np.asarray(comps)))]


def reference_barycentric(grid, pts):
    """The composition-tensor lookup: argsort of the fractional parts, an
    (m, n, n) tensor of vertex compositions, degenerate vertices redirected
    to the base vertex and then every row of the batch renormalised."""
    n, R = grid.n, grid.R
    m = pts.shape[0]
    if n == 1:
        return (np.zeros((m, 1), dtype=np.int64), np.ones((m, 1)))
    x = np.clip(pts, 0.0, 1.0) * R
    S = np.cumsum(x, axis=1)[:, : n - 1]
    S = np.clip(S, 0.0, R)
    B0 = np.floor(S)
    f = S - B0
    snap = f > 1.0 - 1e-12
    B0[snap] += 1.0
    f[snap | (f < 1e-12)] = 0.0
    B0 = np.minimum(B0, R)
    order = np.argsort(-f, axis=1, kind="stable")
    f_sorted = np.take_along_axis(f, order, axis=1)
    rows = np.arange(m)
    cur = B0.copy()
    verts = [B0.copy()]
    for j in range(n - 1):
        cur[rows, order[:, j]] += 1.0
        verts.append(cur.copy())
    B = np.stack(verts, axis=1)
    w = np.empty((m, n))
    w[:, 0] = 1.0 - f_sorted[:, 0]
    w[:, 1:-1] = f_sorted[:, :-1] - f_sorted[:, 1:]
    w[:, -1] = f_sorted[:, -1]
    comps = np.empty((m, n, n), dtype=np.int64)
    comps[:, :, 0] = B[:, :, 0]
    if n > 2:
        comps[:, :, 1: n - 1] = (B[:, :, 1:] - B[:, :, :-1]).astype(np.int64)
    comps[:, :, n - 1] = R - B[:, :, -1].astype(np.int64)
    ok = (comps >= 0).all(axis=2) & (comps.sum(axis=2) == R)
    if not ok.all():
        bad_rows, bad_verts = np.nonzero(~ok)
        comps[bad_rows, bad_verts] = comps[bad_rows, 0]
        w[:, :] = np.where(ok, w, 0.0)
        w /= w.sum(axis=1, keepdims=True)
    idx = reference_index_of(grid, comps.reshape(-1, n)).reshape(m, n)
    return idx, np.clip(w, 0.0, None)


def lookup_cases(grid, rng):
    """Query points of every kind the triangulation treats specially."""
    n, R = grid.n, grid.R
    rand = random_simplex_points(rng, 300, n)
    face = rand * (rng.random(rand.shape) < 0.6)
    face[face.sum(axis=1) == 0, 0] = 1.0
    face /= face.sum(axis=1, keepdims=True)
    i, j = rng.integers(0, grid.n_nodes, size=(2, 200))
    unit = np.eye(n)[rng.integers(0, n, size=(2, 200))]
    edge = grid.nodes[i] + 0.5 * (unit[0] - unit[1]) / R
    edge = edge[(edge >= 0.0).all(axis=1)]
    last_zero = rand.copy()          # S_(n-1) = R: the last part is 0
    last_zero[:, -1] = 0.0
    last_zero[last_zero.sum(axis=1) == 0, 0] = 1.0
    last_zero /= last_zero.sum(axis=1, keepdims=True)
    # cumulative coordinates a hair below a lattice hyperplane (fraction
    # 1 - 1e-13) and a hair above it (fraction 1e-13): both snap to it
    shift = 1e-13 / R * (unit[0] - unit[1])
    return {"random": rand, "nodes": grid.nodes, "faces": face,
            "midpoints": 0.5 * (grid.nodes[i] + grid.nodes[j]),
            "edge midpoints": edge, "last part zero": last_zero,
            "near nodes": np.clip(grid.nodes[i] + shift, 0.0, None),
            "near nodes, other side": np.clip(grid.nodes[i] - shift, 0.0,
                                              None)}


def assert_matches_reference(grid, pts, label=""):
    idx, w = grid.barycentric(pts)
    ref_idx, ref_w = reference_barycentric(grid, pts)
    assert idx.dtype == ref_idx.dtype and np.array_equal(idx, ref_idx), label
    assert np.max(np.abs(w - ref_w), initial=0.0) <= 4.5e-16, label


@pytest.mark.parametrize("n, R", [(1, 5), (2, 1), (2, 9), (3, 1), (3, 10),
                                  (3, 60), (4, 2), (4, 7), (5, 1), (5, 5)])
def test_barycentric_matches_reference(n, R):
    grid = build_grid(n, R)
    for label, pts in lookup_cases(grid, np.random.default_rng(n * R)).items():
        assert_matches_reference(grid, pts, label)


@pytest.mark.parametrize("name, R", [
    ("regime", 20), ("insurance", 6), ("reliability", 8),
    ("reliability2", 6), ("techadopt", 8), ("targeting", 6),
])
def test_barycentric_matches_reference_on_workspace_points(monkeypatch,
                                                          name, R):
    # every post-jump belief the workspace of the preset looks up
    seen = []
    lookup = SimplexGrid.barycentric
    monkeypatch.setattr(SimplexGrid, "barycentric",
                        lambda g, p: seen.append(p) or lookup(g, p))
    model, _ = load_preset(name)
    grid = build_grid(model.n, R)
    FiniteHorizonSolver(model, grid=grid)
    monkeypatch.undo()
    assert seen
    assert_matches_reference(grid, np.concatenate(seen), name)


@pytest.mark.parametrize("name", ["regime", "insurance", "reliability",
                                  "reliability2", "techadopt", "targeting"])
def test_workspace_B0_is_diagonal(name):
    # the flowed beliefs at u_0 are the nodes divided by a sum an ulp off 1,
    # so they land on either side of their lattice hyperplanes; both sides
    # snap, and B_0 = diag(sv_0), as the march's self-term takes it to be
    model, _ = load_preset(name)
    grid = build_grid(model.n, 20)
    B0 = FiniteHorizonSolver(model, grid=grid).ws.B[0].tocoo()
    assert B0.nnz == grid.n_nodes and np.array_equal(B0.row, B0.col)
    assert np.max(np.abs(B0.data - 1.0)) <= 4.5e-16


@pytest.mark.parametrize("n, R", [(2, 9), (3, 10), (4, 7), (5, 5)])
def test_barycentric_rows_independent_of_batch(n, R):
    # a degenerate vertex in one row must not move the weights of another
    grid = build_grid(n, R)
    pts = np.concatenate(list(lookup_cases(
        grid, np.random.default_rng(7 * n)).values()))
    idx, w = grid.barycentric(pts)
    rows = [grid.barycentric(p[None]) for p in pts]
    assert np.array_equal(idx, np.concatenate([r[0] for r in rows]))
    assert np.array_equal(np.ascontiguousarray(w).view(np.int64),
                          np.concatenate([r[1] for r in rows]).view(np.int64))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_nodes_locate_to_themselves(n):
    # a node's index is the base vertex of its own cell, with weight 1
    for R in (1, 3, 7, 12):
        g = build_grid(n, R)
        idx, w = g.barycentric(g.nodes)
        assert np.array_equal(idx[:, 0], np.arange(g.n_nodes))
        assert np.all(w[:, 0] == 1.0)
    # the closed-form rank of composition (3, 3, 4) of 10
    assert build_grid(3, 10).barycentric([0.3, 0.3, 0.4])[0][0, 0] == 33


@pytest.mark.parametrize("pts, match", [
    ([[0.3, 0.7]], "need width 3"), ([[0.2, 0.3, 0.4, 0.1]], "need width 3"),
    ([[0.3, 0.3, 0.3]], "outside the simplex"),
    ([[1.1, -0.1, 0.0]], "outside the simplex"),
    ([[0.5, 0.5, 0.0], [np.nan, 0.5, 0.5]], "non-finite point"),
])
def test_barycentric_rejects_points_off_the_simplex(pts, match):
    with pytest.raises(ValueError, match=match):
        build_grid(3, 10).barycentric(pts)
