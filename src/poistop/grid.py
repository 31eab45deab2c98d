"""Regular lattice on the probability simplex with linear interpolation.

Nodes are the beliefs k / R with sum k_i = R, in lexicographic order of k,
so a node's index has a closed form in the cumulative parts of k.  Points
are located in the Freudenthal (Kuhn) triangulation in the cumulative-sum
coordinates S_j = R * (pi_1 + ... + pi_j), j < n: the base vertex is
floor(S) and the cell is completed by unit increments in decreasing order
of the fractional parts (ties broken by coordinate).  The scheme is exact
for linear functions of pi and gives every point one deterministic cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from math import comb

import numpy as np
from scipy import sparse

NODE_CAP = 2_000_000
BLOCK_POINTS = 2 ** 13      # points per interp_matrix call of interp_matrices


@dataclass(frozen=True)
class SimplexGrid:
    n: int
    R: int
    nodes: np.ndarray        # (N, n) beliefs

    @property
    def n_nodes(self):
        return self.nodes.shape[0]

    def __post_init__(self):
        # with cumulative parts B_d = k_1 + .. + k_d, a composition's index
        # is c0 - sum_d U[d, B_d] (hockey-stick count of those before it)
        n, R = self.n, self.R
        U = np.zeros((n - 1, R + 2), dtype=np.int64)
        for d in range(n - 1):
            U[d, : R + 1] = [comb(R - s + n - d - 2, n - d - 1)
                             for s in range(R + 1)]
        object.__setattr__(self, "_rank", U)
        object.__setattr__(self, "_step", U[:, :-1] - U[:, 1:])
        object.__setattr__(self, "_c0", comb(R + n - 1, n - 1) - 1)

    def barycentric(self, points):
        """Containing-simplex vertices and weights for query beliefs.

        points: (M, n) array on the simplex.  Returns (idx, w) with shape
        (M, n) each: node indices and nonnegative weights summing to 1.
        """
        pts = np.atleast_2d(np.asarray(points, float))
        n, R, m = self.n, self.R, pts.shape[0]
        if pts.ndim != 2 or pts.shape[1] != n:
            raise ValueError(f"points of shape {pts.shape}: need width {n}")
        if not np.isfinite(pts).all():
            bad = np.argmin(np.isfinite(pts).all(axis=1))
            raise ValueError(f"non-finite point: {pts[bad]}")
        err = np.abs(sum(pts.T) - 1.0)
        if pts.min(initial=0.0) < -1e-9 or np.any(err > 1e-9):
            raise ValueError("point outside the simplex: "
                             f"{pts[np.argmax(err)]}")
        if n == 1:
            return (np.zeros((m, 1), dtype=np.int64), np.ones((m, 1)))

        # one contiguous vector per cumulative coordinate d: S_d =
        # R (pi_1 + .. + pi_d), base vertex b_d = floor(S_d), fraction f_d
        k = n - 1
        b, f, S = [], [], 0.0
        for d in range(k):
            S = S + np.clip(pts[:, d], 0.0, 1.0) * R
            Sd = np.clip(S, 0.0, R)
            bd = np.floor(Sd)
            fd = Sd - bd
            # points within 1e-12 of a lattice hyperplane, either side, snap
            snap = fd > 1.0 - 1e-12
            bd += snap
            fd[snap | (fd < 1e-12)] = 0.0
            b.append(bd.astype(np.intp))
            f.append(fd)

        # rank of each coordinate in the stable decreasing order of f:
        # vertex v of the cell adds 1 to the coordinates of rank < v, and
        # the weights are the gaps between 1, the sorted fractions and 0
        rank = [np.zeros(m, dtype=np.int16) for _ in range(k)]
        for d in range(k):
            for e in range(d + 1, k):
                later = f[e] > f[d]
                rank[d] += later
                rank[e] += ~later
        F = [1.0] + f + [0.0]
        for i in range(k - 1):
            for j in range(1, k - i):
                F[j], F[j + 1] = (np.maximum(F[j], F[j + 1]),
                                  np.minimum(F[j], F[j + 1]))
        w = np.array([F[v] - F[v + 1] for v in range(n)])

        idx = np.empty((n, m), dtype=np.int64)
        idx[0] = self._c0 - sum(self._rank[d, b[d]] for d in range(k))
        steps = [self._step[d, b[d]] for d in range(k)]
        # a vertex with a negative part (k_d < 0 needs b_d = b_(d-1), k_n < 0
        # needs b_(n-1) = R) sits at a tie, so its weight is exactly 0; it is
        # redirected to the base vertex so every index is valid
        for v in range(1, n):
            inc = [r < v for r in rank]
            idx[v] = idx[0] + sum(i * s for i, s in zip(inc, steps))
            deg = (b[k - 1] == R) & inc[k - 1]
            for d in range(1, k):
                deg |= (b[d] == b[d - 1]) & inc[d - 1] & ~inc[d]
            np.copyto(idx[v], idx[0], where=deg)
        return idx.T, w.T

    def interpolate(self, values, pi):
        """Barycentric-linear interpolation of nodal values at pi."""
        pi = np.asarray(pi, dtype=float)
        single = pi.ndim == 1
        idx, w = self.barycentric(np.atleast_2d(pi))
        out = np.sum(np.asarray(values)[idx] * w, axis=1)
        return float(out[0]) if single else out

    def interp_matrix(self, points, weights, group=1):
        """Sparse (M / group, N) operator mapping nodal values to weighted
        point values: row i sums weight times interpolant over the points
        i group .. (i + 1) group - 1.  Built straight into CSR; the copy
        drops the buffers that pruning leaves behind."""
        idx, w = self.barycentric(points)
        w = w * np.reshape(weights, (-1, 1))
        m = idx.shape[0] // group
        B = sparse.csr_matrix((w.ravel(), idx.ravel(),
                               np.arange(m + 1) * (group * self.n)),
                              shape=(m, self.n_nodes))
        B.sum_duplicates()
        B.eliminate_zeros()
        return B.copy()

    def interp_matrices(self, points, weights):
        """interp_matrix of each (M, n) slice of a (K, M, n) stack: one call
        per block of about BLOCK_POINTS points, split into K CSR matrices."""
        K, m = np.shape(weights)
        per, out = max(1, BLOCK_POINTS // m), []
        for k in range(0, K, per):
            B = self.interp_matrix(np.reshape(points[k:k + per], (-1, self.n)),
                                   np.ravel(weights[k:k + per]))
            p = B.indptr
            for r in range(0, B.shape[0], m):
                lo, hi = p[r], p[r + m]
                out.append(sparse.csr_matrix(
                    (B.data[lo:hi], B.indices[lo:hi], p[r:r + m + 1] - lo),
                    shape=(m, self.n_nodes), copy=True))
        return out


def build_grid(n, R):
    """All lattice beliefs k/R on the (n-1)-simplex (at most NODE_CAP)."""
    if n < 1 or R < 1:
        raise ValueError(f"build_grid: need n >= 1 and R >= 1, got {n}, {R}")
    count = comb(R + n - 1, n - 1)
    if count > NODE_CAP:
        raise ValueError(f"build_grid: {count} nodes exceeds the cap "
                         f"of {NODE_CAP}")
    nodes = _compositions(n, R, count) / R
    return SimplexGrid(n=n, R=R, nodes=nodes)


def _compositions(n, R, count):
    """The count = C(R + n - 1, n - 1) compositions of R into n parts in
    lexicographic order, by stars and bars: the parts are the gaps between
    n - 1 bars placed among R + n - 1 slots, and combinations yields the
    bar positions in lexicographic order, which is that of the parts."""
    bars = np.fromiter(chain.from_iterable(
        combinations(range(R + n - 1), n - 1)), dtype=np.int64,
        count=count * (n - 1)).reshape(count, n - 1)
    edges = np.hstack([np.full((count, 1), -1, dtype=np.int64), bars,
                       np.full((count, 1), R + n - 1, dtype=np.int64)])
    return np.diff(edges, axis=1) - 1
