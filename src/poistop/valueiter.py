"""Discretized value iteration on the belief simplex.

The value of observing for at most one more arrival is computed by the
operator

    Jw(t, s, pi) = E[e^{-I(t)}] e^{-rho t} H(x(t, pi))
                   + int_0^t e^{-rho u} sum_i m_i(u, pi)
                       (C(x(u, pi)) + lambda_i S_i w(s - u, x(u, pi))) du

and its sup over the deterministic waiting time t in [0, s] (operator J0).
Iterating v_0 = H, v_{m+1} = J0 v_m yields a nondecreasing sequence that
converges uniformly to the value function, with a closed-form error bound.

Discretization: uniform time knots shared by the s-grid, the t-sup and the
inner u-integral (composite trapezoid); the survival weights m(u, .) are
stepped with exp(dt (Q - Lambda)); beliefs live on a SimplexGrid with
barycentric-linear interpolation.  For cost_mode="discrete" the running
term C is replaced by sum_i m_i lambda_i (nu_i K).
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from math import ceil

import numpy as np
from scipy import sparse
from scipy.linalg import expm

from . import model as model_mod
from .grid import SimplexGrid, build_grid
from .model import check_belief, terminal_reward, terminal_reward_nodes


class NumericalError(RuntimeError):
    pass


def default_knot_count(model, T=None):
    """L = ceil(T * max(lam_bar, rho, 1) * 20) uniform steps."""
    T = model.horizon if T is None else T
    return max(1, ceil(T * max(model.lam_bar, model.rho, 1.0) * 20.0))


# ---------------------------------------------------------------------------
# value surfaces
# ---------------------------------------------------------------------------

@dataclass
class ValueSurface:
    model: object
    grid: SimplexGrid
    knots: np.ndarray            # (L+1,) time-to-maturity knots, 0 .. T
    values: np.ndarray           # (L+1, N)
    meta: dict = field(default_factory=dict)

    @property
    def L(self):
        return len(self.knots) - 1

    @property
    def dt(self):
        return float(self.knots[1] - self.knots[0]) if self.L > 0 else 0.0

    def h_nodes(self):
        return terminal_reward_nodes(self.model, self.grid.nodes)

    def slice_at(self, s):
        """Nodal values at time-to-maturity s (linear in time between knots)."""
        lo, hi, a = self._bracket(s)
        return (1.0 - a) * self.values[lo] + a * self.values[hi]

    def value_at(self, s, pi):
        pi = check_belief(pi, self.model.n)
        return self.grid.interpolate(self.slice_at(s), pi)

    def value_at_batch(self, s, pts):
        """Vectorized evaluation for arrays of horizons and beliefs."""
        pts = np.atleast_2d(pts)
        s = np.broadcast_to(np.asarray(s, dtype=float), (len(pts),))
        idx, w = self.grid.barycentric(pts)
        if self.L == 0:
            return np.sum(self.values[0][idx] * w, axis=1)
        pos = np.clip(s / self.dt, 0.0, self.L)
        lo = np.minimum(pos.astype(int), self.L - 1)
        a = (pos - lo)[:, None]
        vals = (1.0 - a) * self.values[lo[:, None], idx] \
            + a * self.values[lo[:, None] + 1, idx]
        return np.sum(vals * w, axis=1)

    def _bracket(self, s):
        if self.L == 0:
            return 0, 0, 0.0
        pos = min(max(s / self.dt, 0.0), float(self.L))
        lo = min(int(pos), self.L - 1)
        return lo, lo + 1, pos - lo

    # -- persistence ------------------------------------------------------

    def to_csv(self, path):
        H = self.h_nodes()
        best = model_mod.best_action_nodes(self.model, self.grid.nodes)
        cols = ",".join(f"pi{i + 1}" for i in range(self.model.n))
        with open(path, "w") as fh:
            fh.write(f"s,{cols},value,H,best_action\n")
            for k, s in enumerate(self.knots):
                for node, v, h, b in zip(self.grid.nodes, self.values[k],
                                         H, best):
                    coords = ",".join(f"{p:.17g}" for p in node)
                    fh.write(f"{s:.17g},{coords},{v:.17g},{h:.17g},{b}\n")

    def save(self, path):
        """Binary layout: magic, int64 (n, R, L+1, N), little-endian doubles
        for knots then values (row-major), then int64-length-prefixed JSON
        metadata."""
        meta_blob = json.dumps(self.meta, default=float).encode()
        with open(path, "wb") as fh:
            fh.write(b"PSTSURF1")
            fh.write(struct.pack("<4q", self.model.n, self.grid.R,
                                 len(self.knots), self.grid.n_nodes))
            fh.write(self.knots.astype("<f8").tobytes())
            fh.write(self.values.astype("<f8").tobytes())
            fh.write(struct.pack("<q", len(meta_blob)))
            fh.write(meta_blob)

    @classmethod
    def load(cls, path, model):
        with open(path, "rb") as fh:
            magic = fh.read(8)
            if magic != b"PSTSURF1":
                raise ValueError(f"{path}: not a value-surface file")
            try:
                n, R, nk, N = struct.unpack("<4q", fh.read(32))
                knots = np.frombuffer(fh.read(8 * nk), dtype="<f8").copy()
                values = np.frombuffer(fh.read(8 * nk * N), dtype="<f8")
                values = values.reshape(nk, N).copy()
                (mlen,) = struct.unpack("<q", fh.read(8))
                meta = json.loads(fh.read(mlen).decode())
            except (struct.error, ValueError) as exc:
                raise ValueError(f"{path}: truncated or corrupt "
                                 f"value-surface file ({exc})") from exc
        if n != model.n:
            raise ValueError(f"{path}: surface has n={n}, model has "
                             f"n={model.n}")
        grid = build_grid(model.n, R)
        return cls(model=model, grid=grid, knots=knots, values=values,
                   meta=meta)


# ---------------------------------------------------------------------------
# solver workspace: everything that does not depend on the current iterate
# ---------------------------------------------------------------------------

class _Workspace:
    def __init__(self, model, grid, knots):
        n, N = model.n, grid.n_nodes
        L = len(knots) - 1
        self.L, self.dt = L, float(knots[1] - knots[0]) if L else 0.0
        lam = model.lam
        marks = model.marks
        Rm = marks.n_marks

        # survival-weight paths m(u_j, node) for every node, stepped once
        M = np.empty((L + 1, N, n))
        M[0] = grid.nodes
        if L:
            P = expm(self.dt * model.flow_generator())
            for j in range(L):
                M[j + 1] = M[j] @ P
            np.clip(M, 0.0, None, out=M)
        sv = M.sum(axis=2)
        X = M / np.where(sv[:, :, None] > 0, sv[:, :, None], 1.0)
        self.sv = sv

        self.Hnodes = terminal_reward_nodes(model, grid.nodes)
        Hx = np.max(X @ model.mu.T, axis=2)
        disc = np.exp(-model.rho * knots)
        self.Aterm = sv * disc[:, None] * Hx
        self.costM = M @ model.effective_cost_rates()
        self.disc = disc

        # per-step jump operators folded with their integrand weights:
        # G_j maps a value slice w(.) on the grid to
        #     sum_i m_i(u_j, node) lambda_i S_i w(node-flow at u_j)
        lam_w = lam[:, None] * marks.weights           # (n, Rm)
        lam_d = lam[:, None] * marks.density           # (n, Rm)
        fold = sparse.csr_matrix(
            (np.ones(N * Rm), (np.repeat(np.arange(N), Rm),
                               np.arange(N * Rm))),
            shape=(N, N * Rm),
        )
        self.G = []
        for j in range(L + 1):
            Z = X[j][:, None, :] * lam_d.T[None, :, :]  # (N, Rm, n)
            Z = Z.reshape(N * Rm, n)
            zs = Z.sum(axis=1, keepdims=True)
            dead = zs[:, 0] <= 0.0
            if dead.any():
                Z[dead] = np.repeat(X[j], Rm, axis=0)[dead]
                zs = Z.sum(axis=1, keepdims=True)
            Z /= zs
            B = grid.interp_matrix(Z)
            omega = (M[j] @ lam_w).ravel()
            omega[dead] = 0.0
            G = (fold @ B.multiply(omega[:, None])).tocsr()
            G.sum_duplicates()
            self.G.append(G)


class FiniteHorizonSolver:
    """Value iteration v_0 = H, v_{m+1} = J0 v_m on the full (s, pi) lattice."""

    def __init__(self, model, grid=None, L=None, R=40, tol=1e-4, m_max=200):
        self.model = model
        self.grid = grid if grid is not None else build_grid(model.n, R)
        self.L = default_knot_count(model) if L is None else int(L)
        T = model.horizon
        if T <= 0:
            self.L = 0
        self.knots = np.linspace(0.0, T, self.L + 1)
        self.tol = float(tol)
        self.m_max = int(m_max)
        self.ws = _Workspace(model, self.grid, self.knots)

    def sweep(self, v):
        """One application of the discretized J0 to a full surface."""
        ws, L = self.ws, self.L
        if L == 0:
            return v.copy()
        N = self.grid.n_nodes
        dt = ws.dt
        # phi[j][:, d] = e^{-rho u_j} (cost term + jump term against slice d)
        phi = []
        for j in range(L + 1):
            W = ws.G[j] @ v[: L + 1 - j].T               # (N, L+1-j)
            phi.append(ws.disc[j] * (ws.costM[j][:, None] + W))
        vnew = np.empty_like(v)
        vnew[0] = ws.Hnodes
        integ = np.empty((L + 1, N))
        for ell in range(1, L + 1):
            for j in range(ell + 1):
                integ[j] = phi[j][:, ell - j]
            inc = 0.5 * dt * (integ[:ell] + integ[1: ell + 1])
            I = np.concatenate([np.zeros((1, N)), np.cumsum(inc, axis=0)])
            vnew[ell] = np.max(ws.Aterm[: ell + 1] + I, axis=0)
        return vnew

    def solve(self):
        v = np.tile(self.ws.Hnodes, (self.L + 1, 1))
        deltas = []
        m = 0
        while m < self.m_max:
            vnew = self.sweep(v)
            worst = float(np.min(vnew - v))
            if worst < -10.0 * self.tol:
                raise NumericalError(
                    f"value iteration lost monotonicity (min step {worst}); "
                    "discretization bug"
                )
            delta = float(np.max(np.abs(vnew - v)))
            deltas.append(delta)
            v = vnew
            m += 1
            if delta <= self.tol:
                break
        bound = uniform_error_bound(self.model, m) if m >= 2 else float("inf")
        meta = {
            "iterations": m,
            "deltas": deltas,
            "tol": self.tol,
            "converged": bool(deltas and deltas[-1] <= self.tol),
            "uniform_error_bound": bound,
        }
        return ValueSurface(model=self.model, grid=self.grid,
                            knots=self.knots, values=v, meta=meta)


def solve_finite(model, grid=None, L=None, R=40, tol=1e-4, m_max=200):
    """Solve the finite-horizon problem; see FiniteHorizonSolver."""
    return FiniteHorizonSolver(model, grid=grid, L=L, R=R, tol=tol,
                               m_max=m_max).solve()


def richardson_check(model, grid=None, L=None, R=24, tol=1e-4):
    """Self-check of the time discretization: re-solve with halved steps
    and report the sup-norm change at the shared knots."""
    if grid is None:
        grid = build_grid(model.n, R)
    if L is None:
        L = default_knot_count(model)
    coarse = solve_finite(model, grid=grid, L=L, tol=tol)
    fine = solve_finite(model, grid=grid, L=2 * L, tol=tol)
    return float(np.max(np.abs(coarse.values - fine.values[::2])))


# ---------------------------------------------------------------------------
# pointwise operators for arbitrary beliefs
# ---------------------------------------------------------------------------

def mark_operator(model, grid, w_slice, i, pi):
    """S_i w(pi): expectation of w after a jump, under state i's mark law."""
    from .filter import jump_update
    pi = check_belief(pi, model.n)
    marks = model.marks
    total = 0.0
    for r in range(marks.n_marks):
        dens = marks.density[:, r]
        wgt = model.lam * dens * pi
        s = wgt.sum()
        z = pi if s <= 0 else wgt / s
        total += marks.weights[i, r] * grid.interpolate(w_slice, z)
    return total


def _j_path(model, surface, s, pi, h, n):
    """Jw(k h, s, pi) for k = 0..n from one no-arrival flow path of step h.

    The integrand at u_j = j h does not depend on the waiting time, so every
    J(k h) is its head term plus a cumulative trapezoid of the same phi.  All
    post-jump beliefs (u_j, mark r) are interpolated in one batched lookup.
    """
    P = expm(h * model.flow_generator())
    M = np.empty((n + 1, model.n))
    M[0] = pi
    for j in range(n):
        M[j + 1] = np.clip(M[j] @ P, 0.0, None)
    sv = M.sum(axis=1)
    X = M / sv[:, None]
    u = h * np.arange(n + 1)
    Z = X[:, None, :] * (model.lam[:, None] * model.marks.density).T
    zs = Z.sum(axis=2)
    live = zs > 0
    w = np.zeros(zs.shape)
    w[live] = surface.value_at_batch(np.broadcast_to(s - u[:, None],
                                                     zs.shape)[live],
                                     Z[live] / zs[live][:, None])
    omega = M @ (model.lam[:, None] * model.marks.weights)
    disc = np.exp(-model.rho * u)
    phi = disc * (M @ model.effective_cost_rates()
                  + np.sum(omega * w, axis=1))
    head = sv * disc * terminal_reward_nodes(model, X)
    return head + np.concatenate(
        [[0.0], np.cumsum(0.5 * h * (phi[:-1] + phi[1:]))])


def apply_J(model, surface, t, s, pi, min_substeps=8):
    """Jw(t, s, pi) against the stored surface w, for arbitrary pi.

    The inner integral uses composite trapezoid on max(min_substeps,
    round(t / dt)) uniform substeps of [0, t], dt the surface's time step.
    """
    if t > s + 1e-12:
        raise ValueError(f"apply_J: need t <= s, got t={t}, s={s}")
    pi = check_belief(pi, model.n)
    if t <= 0:
        return terminal_reward(model, pi)[0]
    n_sub = max(min_substeps, int(round(t / surface.dt)) if surface.L else 1)
    return float(_j_path(model, surface, s, pi, t / n_sub, n_sub)[-1])


def apply_J0(model, surface, s, pi):
    """sup over grid times t in [0, s] of apply_J; returns (value, argmax t).

    Knots k >= 8 use apply_J's substep dt, so one flow path serves them all;
    shorter knots and an off-knot t = s each get their own short path.
    """
    pi = check_belief(pi, model.n)
    ts = [float(t) for t in surface.knots if t <= s + 1e-12]
    k = len(ts)
    if not ts or abs(ts[-1] - s) > 1e-12:
        ts.append(float(s))
    shared = _j_path(model, surface, s, pi, surface.dt, k - 1) \
        if k > 8 else None
    vals = [shared[i] if 8 <= i < k else apply_J(model, surface, t, s, pi)
            for i, t in enumerate(ts)]
    best = int(np.argmax(vals))
    return float(vals[best]), ts[best]


# ---------------------------------------------------------------------------
# error bounds
# ---------------------------------------------------------------------------

def uniform_error_bound(model, m, T=None):
    """Sup-norm bound on V - v_m:

        (T ||C|| + 2 ||H||) (lam_bar T / (m-1))^{1/2}
                            (lam_bar / (2 rho + lam_bar))^{m/2}
    """
    if m < 2:
        raise ValueError(f"uniform_error_bound: need m >= 2, got {m}")
    T = model.horizon if T is None else T
    lb = model.lam_bar
    amp = T * model.norm_C() + 2.0 * model.norm_H()
    return float(amp * np.sqrt(lb * T / (m - 1))
                 * (lb / (2.0 * model.rho + lb)) ** (m / 2.0))


def _check_infinite_assumptions(model):
    c_eff = model.effective_cost_rates()
    if model.rho > 0 or np.max(c_eff) < 0:
        return
    raise ValueError(
        "infinite-horizon solve requires rho > 0 or max_i c_i < 0 "
        f"(got rho={model.rho}, max c={np.max(c_eff)})"
    )


def _rho_hat(model):
    if model.rho > 0:
        return model.rho
    c_eff = model.effective_cost_rates()
    nh = model.norm_H()
    return model.lam_bar * abs(np.min(c_eff)) / max(nh, 1e-300)


def err_infinity(model, m):
    """Err_inf(m): gap between the m-arrival-truncated and the full
    infinite-horizon value."""
    _check_infinite_assumptions(model)
    lb = model.lam_bar
    if model.rho > 0:
        return float((lb / (model.rho + lb)) ** m)
    if m < 2:
        return float("inf")
    c_eff = model.effective_cost_rates()
    ratio = max(float(np.max(model.mu) / np.max(c_eff)), 0.0)
    return float(np.sqrt(ratio * lb / (m - 1)))


def horizon_error(model, T=None):
    """Err(T): gap between the finite- and infinite-horizon values."""
    _check_infinite_assumptions(model)
    T = model.horizon if T is None else T
    if model.rho > 0:
        return float(np.exp(-model.rho * T)
                     * (model.norm_C() + 2.0 * model.norm_H()))
    if T <= 0:
        return float("inf")
    c_eff = model.effective_cost_rates()
    spread = float(np.min(model.mu) - np.max(model.mu))
    return float(2.0 * model.norm_H() / T * spread / np.max(c_eff))


def truncated_rule_slack(model, eps, m, T=None):
    """Total optimality slack of the truncated infinite-horizon rule:
    eps + Err_inf(m) + Err_inf(0) * Err(T)."""
    return float(eps + err_infinity(model, m)
                 + err_infinity(model, 0) * horizon_error(model, T))


# ---------------------------------------------------------------------------
# infinite horizon
# ---------------------------------------------------------------------------

@dataclass
class StationaryValue:
    model: object
    grid: SimplexGrid
    values: np.ndarray           # (N,)
    meta: dict

    def value_at(self, pi):
        return self.grid.interpolate(self.values, check_belief(pi,
                                                               self.model.n))


def solve_infinite(model, grid=None, R=40, tol=1e-4, m_max=500,
                   L_cap=6000):
    """Fixed-point iteration of the infinite-horizon operator (sup over
    t >= 0, truncated at t_max = max(20/lam_bar, 10/rho_hat))."""
    _check_infinite_assumptions(model)
    if grid is None:
        grid = build_grid(model.n, R)
    rho_hat = _rho_hat(model)
    t_max = max(20.0 / model.lam_bar, 10.0 / rho_hat)
    L = min(ceil(t_max * max(model.lam_bar, model.rho, 1.0) * 20.0), L_cap)
    knots = np.linspace(0.0, t_max, L + 1)
    ws = _Workspace(model, grid, knots)
    dt = ws.dt
    v = ws.Hnodes.copy()
    deltas = []
    m = 0
    while m < m_max:
        phi = np.empty((L + 1, grid.n_nodes))
        for j in range(L + 1):
            phi[j] = ws.disc[j] * (ws.costM[j] + ws.G[j] @ v)
        inc = 0.5 * dt * (phi[:-1] + phi[1:])
        I = np.concatenate([np.zeros((1, grid.n_nodes)),
                            np.cumsum(inc, axis=0)])
        vnew = np.max(ws.Aterm + I, axis=0)
        delta = float(np.max(np.abs(vnew - v)))
        deltas.append(delta)
        v = vnew
        m += 1
        if delta <= tol:
            break
    # truncation tail: survival mass still alive at t_max times the value
    # scale ||H|| + ||C|| / rho_hat
    sv_end = float(np.max(ws.sv[-1]))
    tail = sv_end * (model.norm_H() + model.norm_C() / rho_hat)
    meta = {
        "iterations": m,
        "deltas": deltas,
        "tol": float(tol),
        "converged": bool(deltas and deltas[-1] <= tol),
        "t_max": float(t_max),
        "err_infinity": err_infinity(model, m),
        "truncation_tail_bound": tail,
    }
    return StationaryValue(model=model, grid=grid, values=v, meta=meta)
