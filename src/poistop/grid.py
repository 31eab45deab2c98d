"""Regular lattice on the probability simplex with linear interpolation.

Nodes are the beliefs with coordinates k_i / R, sum k_i = R.  Interpolation
uses the Freudenthal (Kuhn) triangulation expressed in cumulative-sum
coordinates: writing S_j = R * (pi_1 + ... + pi_j) for j < n, the base
vertex is floor(S) and the simplex is completed by unit increments taken in
decreasing order of the fractional parts.  The scheme is exact for linear
functions of pi and assigns every point a unique, deterministic cell
(boundary ties broken by the stable sort).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np
from scipy import sparse

NODE_CAP = 2_000_000


@dataclass(frozen=True)
class SimplexGrid:
    n: int
    R: int
    nodes: np.ndarray        # (N, n) beliefs
    comps: np.ndarray        # (N, n) integer compositions summing to R

    @property
    def n_nodes(self):
        return self.nodes.shape[0]

    def __post_init__(self):
        codes = _encode(self.comps, self.R)
        order = np.argsort(codes)
        object.__setattr__(self, "_codes_sorted", codes[order])
        object.__setattr__(self, "_order", order)

    def index_of(self, comps):
        """Node indices for integer compositions (vectorized)."""
        codes = _encode(np.asarray(comps), self.R)
        pos = np.searchsorted(self._codes_sorted, codes)
        return self._order[pos]

    def barycentric(self, points):
        """Containing-simplex vertices and weights for query beliefs.

        points: (M, n) array on the simplex.  Returns (idx, w) with shape
        (M, n) each: node indices and nonnegative weights summing to 1.
        """
        return _barycentric(self, np.atleast_2d(np.asarray(points, float)))

    def interpolate(self, values, pi):
        """Barycentric-linear interpolation of nodal values at pi."""
        pi = np.asarray(pi, dtype=float)
        single = pi.ndim == 1
        idx, w = self.barycentric(np.atleast_2d(pi))
        out = np.sum(np.asarray(values)[idx] * w, axis=1)
        return float(out[0]) if single else out

    def interp_matrix(self, points):
        """Sparse (M, N) operator mapping nodal values to point values."""
        idx, w = self.barycentric(points)
        m = idx.shape[0]
        rows = np.repeat(np.arange(m), self.n)
        return sparse.csr_matrix(
            (w.ravel(), (rows, idx.ravel())), shape=(m, self.n_nodes)
        )


def _encode(comps, R):
    """Pack integer compositions into scalar codes for fast lookup."""
    base = R + 1
    codes = np.zeros(comps.shape[:-1], dtype=np.int64)
    for j in range(comps.shape[-1]):
        codes = codes * base + comps[..., j]
    return codes


def build_grid(n, R, cap=NODE_CAP):
    """All lattice beliefs k/R on the (n-1)-simplex, deterministically ordered."""
    if n < 1 or R < 1:
        raise ValueError(f"build_grid: need n >= 1 and R >= 1, got {n}, {R}")
    count = comb(R + n - 1, n - 1)
    if count > cap:
        raise ValueError(
            f"build_grid: {count} nodes exceeds the cap of {cap}"
        )
    comps = _compositions(n, R)
    nodes = comps.astype(float) / R
    return SimplexGrid(n=n, R=R, nodes=nodes, comps=comps)


def _compositions(n, R):
    if n == 1:
        return np.array([[R]], dtype=np.int64)
    rows = []
    for k in range(R + 1):
        rest = _compositions(n - 1, R - k)
        first = np.full((rest.shape[0], 1), k, dtype=np.int64)
        rows.append(np.hstack([first, rest]))
    return np.vstack(rows)


def _barycentric(grid, pts):
    n, R = grid.n, grid.R
    m = pts.shape[0]
    finite = np.isfinite(pts).all(axis=1)
    if not finite.all():
        raise ValueError(f"non-finite point: {pts[np.argmin(finite)]}")
    if np.any(pts < -1e-9) or np.any(np.abs(pts.sum(axis=1) - 1.0) > 1e-9):
        bad = np.argmax(np.abs(pts.sum(axis=1) - 1.0))
        raise ValueError(f"point outside the simplex: {pts[bad]}")
    if n == 1:
        return (np.zeros((m, 1), dtype=np.int64), np.ones((m, 1)))

    x = np.clip(pts, 0.0, 1.0) * R
    S = np.cumsum(x, axis=1)[:, : n - 1]
    S = np.clip(S, 0.0, R)
    B0 = np.floor(S)
    f = S - B0
    # points sitting (numerically) on a lattice hyperplane snap to it
    snap = f > 1.0 - 1e-12
    B0[snap] += 1.0
    f[snap] = 0.0
    B0 = np.minimum(B0, R)

    order = np.argsort(-f, axis=1, kind="stable")
    f_sorted = np.take_along_axis(f, order, axis=1)

    # vertex j of the cell increments the base vertex at the j largest
    # fractional coordinates
    rows = np.arange(m)
    cur = B0.copy()
    verts = [B0.copy()]
    for j in range(n - 1):
        cur[rows, order[:, j]] += 1.0
        verts.append(cur.copy())
    B = np.stack(verts, axis=1)                        # (m, n vertices, n-1)

    w = np.empty((m, n))
    w[:, 0] = 1.0 - f_sorted[:, 0]
    w[:, 1:-1] = f_sorted[:, :-1] - f_sorted[:, 1:]
    w[:, -1] = f_sorted[:, -1]

    # back to compositions k_1 = B_1, k_j = B_j - B_{j-1}, k_n = R - B_{n-1}
    comps = np.empty((m, n, n), dtype=np.int64)
    comps[:, :, 0] = B[:, :, 0]
    if n > 2:
        comps[:, :, 1: n - 1] = (B[:, :, 1:] - B[:, :, :-1]).astype(np.int64)
    comps[:, :, n - 1] = R - B[:, :, -1].astype(np.int64)

    # degenerate vertices (possible only where the weight vanishes) are
    # redirected to the base vertex so every index is valid
    ok = (comps >= 0).all(axis=2) & (comps.sum(axis=2) == R)
    if not ok.all():
        bad_rows, bad_verts = np.nonzero(~ok)
        comps[bad_rows, bad_verts] = comps[bad_rows, 0]
        w[:, :] = np.where(ok, w, 0.0)
        w /= w.sum(axis=1, keepdims=True)

    idx = grid.index_of(comps.reshape(-1, n)).reshape(m, n)
    return idx, np.clip(w, 0.0, None)
