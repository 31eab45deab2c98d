"""The finite-horizon value surface on the belief simplex.

The value of observing for at most one more arrival is computed by the
operator

    Jw(t, s, pi) = E[e^{-I(t)}] e^{-rho t} H(x(t, pi))
                   + int_0^t e^{-rho u} sum_i m_i(u, pi)
                       (C(x(u, pi)) + lambda_i S_i w(s - u, x(u, pi))) du

and its sup over the deterministic waiting time t in [0, s] (operator J0).
Iterating v_0 = H, v_{m+1} = J0 v_m yields a nondecreasing sequence that
converges uniformly to the value function, with a closed-form error bound.

Discretization: uniform time knots shared by the s-grid, the t-sup and the
inner u-integral (composite trapezoid); the survival weights m(u, .) and
the flowed beliefs x come from filter.flow_path, stepped with exp(dt (Q -
Lambda)); beliefs live on a SimplexGrid with barycentric-linear
interpolation.  The jump term factors as sum(m) F(x), F(y) = sum_r
(y . lambda w_r) w(post_r(y)) with the marks' Bayes updates post_r from
filter.bayes_update: F is formed at the nodes (G0, once per slice) and
interpolated at the flowed beliefs (B_j), exact for linear w and of the
lattice's own order otherwise.  For cost_mode="discrete" the running term
C is replaced by sum_i m_i lambda_i (nu_i K).

The discretized J0 is causal in time-to-maturity: slice ell reads slices
ell - j, j >= 1, and itself only through the trapezoid's half-weight
self-term, a contraction of modulus dt lam_bar / 2.  FiniteHorizonSolver
therefore reaches the fixed point in one march over ell
(FiniteHorizonSolver.march).  Value iteration (_iterate, the one loop of
FiniteHorizonSolver.iterate and solve_infinite) stays as the reference
and as the certificate: it runs on a coarse problem and its m gives the
bound b(m) on V - v_m, which also bounds V minus the marched surface,
since that surface lies above every iterate.  The march of the coarse
problem is checked against it and serves as the coarse solve of the
Richardson check.
"""

from __future__ import annotations

import json
import mmap
import os
import pickle
import signal
import struct
import sys
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from math import ceil, comb, sqrt

import numpy as np
from scipy import sparse

from . import model as model_mod
from .filter import bayes_update, flow_path, propagator
from .grid import SimplexGrid, build_grid
from .model import (check_belief, check_count, check_nonneg, check_time,
                    terminal_reward)


class NumericalError(RuntimeError):
    pass


@contextmanager
def _forked(fn, *args, close=()):
    """Runs fn(*args) in a forked child, which first closes the fds close,
    while the with-block runs, and yields join(): fn's result, its exception
    raised here, or for a child that sent neither a ChildProcessError naming
    its exit status.  A child not joined when the block ends is killed;
    every child is reaped.  Off Linux, join runs fn."""
    if sys.platform != "linux":
        yield lambda: fn(*args)
        return
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:                          # compute, send, leave by _exit
        try:
            for fd in (r, *close):
                os.close(fd)
            try:
                out = fn(*args), None
            except Exception as exc:
                out = None, exc
            with open(w, "wb") as fh:
                pickle.dump(out, fh, pickle.HIGHEST_PROTOCOL)
            os._exit(0)
        finally:
            os._exit(1)
    os.close(w)
    status = None                         # set once the child is reaped

    def join():
        nonlocal status
        blob = fh.read()
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if status:
            raise ChildProcessError(
                f"the child process running {fn.__qualname__} ended with "
                f"exit status {status} and sent no result")
        result, exc = pickle.loads(blob)  # bytes our own child wrote
        if exc is not None:
            raise exc
        return result

    with open(r, "rb") as fh:
        try:
            yield join
        finally:
            if status is None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _format_nodes(nodes):
    """CSV coordinate field of every grid node, 17 significant digits."""
    return [",".join([f"{p:.17g}" for p in node]) for node in nodes.tolist()]


# the certificate problem: grid min(R, CERT_R), min(L, max(CERT_L,
# 2 T lam_bar)) knots (FiniteHorizonSolver._certificate)
CERT_R, CERT_L = 16, 60
# Picard steps allowed per slice of the march; value-iteration sweeps of
# FiniteHorizonSolver.iterate; knots of solve_infinite
PICARD_CAP, SWEEP_CAP, INF_L_CAP = 1000, 200, 6000


def default_knot_count(model):
    """L = ceil(T * max(lam_bar, rho, 1) * 20) uniform steps, < sys.maxsize."""
    T = model.horizon
    L = T * max(model.lam_bar, model.rho, 1.0) * 20.0
    if not L < sys.maxsize:                         # also inf and NaN
        raise ValueError(
            f"the default knot count 20 T max(lam_bar, rho, 1) = {L:.4g} "
            f"exceeds {sys.maxsize} (T = {T:.4g}, lam_bar = "
            f"{model.lam_bar:.4g}, rho = {model.rho:.4g}): set L (--L)")
    return max(1, ceil(L))


def _iterate(step, v0, tol, cap, scale):
    """v_{m+1} = step(v_m) from v0 until a step moves v by at most tol, or
    cap steps: the last v and meta iterations, deltas, tol, converged.  A
    step falling by over 10 tol (the iterates rise from H) or an iterate
    beyond twice the value scale is a NumericalError."""
    v, deltas = v0, []
    while len(deltas) < cap:
        vnew = step(v)
        worst = float(np.min(vnew - v))
        if worst < -10.0 * tol:
            raise NumericalError(f"value iteration lost monotonicity (min "
                                 f"step {worst}); discretization bug")
        sup = float(np.max(np.abs(vnew)))
        if not sup <= 2.0 * scale:                  # also NaN
            raise NumericalError(
                f"value iteration diverged: step {len(deltas) + 1} reached "
                f"sup |v| = {sup:.4g}, beyond twice the value scale "
                f"{scale:.4g}; the discretization is too coarse")
        deltas.append(float(np.max(np.abs(vnew - v))))
        v = vnew
        if deltas[-1] <= tol:
            break
    return v, {"iterations": len(deltas), "deltas": deltas, "tol": tol,
               "converged": bool(deltas and deltas[-1] <= tol)}


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

    def value_at(self, s, pi):
        s, pi = self.check_query(self.model, s, pi)
        return float(self.value_at_batch(s, pi)[0])

    def check_query(self, model, s, pi):
        """(s, pi) checked for a pointwise query under model, which must be
        the one this surface was solved for: the same object, or one with
        the same model_hash."""
        if model is not self.model and (model_mod.model_hash(model)
                                         != model_mod.model_hash(self.model)):
            raise ValueError("the surface was solved for another model "
                             "(model hashes differ); query it with its own")
        return check_time(s, model.horizon), check_belief(pi, model.n)

    def value_at_batch(self, s, pts):
        """Vectorized evaluation for arrays of horizons and beliefs; every
        horizon is refused as check_time refuses it."""
        pts = np.atleast_2d(pts)
        s = np.broadcast_to(np.asarray(s, dtype=float), (len(pts),))
        bad = ~((s >= -1e-12) & (s <= self.model.horizon + 1e-12))  # NaN too
        if bad.any():
            check_time(s[bad][0], self.model.horizon)
        idx, w = self.grid.barycentric(pts)
        if self.L == 0:
            return np.sum(self.values[0][idx] * w, axis=1)
        pos = np.clip(s / self.dt, 0.0, self.L)
        lo = np.minimum(pos.astype(int), self.L - 1)
        a = (pos - lo)[:, None]
        vals = (1.0 - a) * self.values[lo[:, None], idx] \
            + a * self.values[lo[:, None] + 1, idx]
        return np.sum(vals * w, axis=1)

    @cached_property
    def jump_surface(self):
        """The nodal jump values F = G0 v of every slice (_jump_operator) on
        the same lattice; built from the grid on first use, never stored."""
        F = _jump_operator(self.model, self.grid) @ self.values.T
        return ValueSurface(self.model, self.grid, self.knots, F.T)

    # -- persistence ------------------------------------------------------

    def to_csv(self, path, ready=()):
        """Rows (s, coordinates, value, H, best action) per knot and node;
        all but s and the value are formatted once, in row templates, each
        knot's rows filled by one % call, and a value with the bits of H (a
        stop cell) reuses H's text.  A knot whose values all have the bits
        of the knot before (the surface gone stationary in s) is that
        knot's text with only s changed.  Each count e that ready yields,
        "the slices below e are final", has the block up to it written
        before the next is read; the rest follows."""
        H, best = terminal_reward(self.model, self.grid.nodes)
        cols = ",".join(f"pi{i + 1}" for i in range(self.model.n))
        text = [(f"{c},%.17g,{h},{b}\n", f"{c},{h},{h},{b}\n")
                for c, h, b in zip(_format_nodes(self.grid.nodes),
                                   [f"{h:.17g}" for h in H.tolist()],
                                   best.tolist())]
        fmt, same = np.array(text, dtype=object).T
        # bits, not ==, so that -0.0 and 0.0 keep their own text
        bits, hbits = self.values.view(np.int64), H.view(np.int64)
        with open(path, "w") as fh:
            fh.write(f"s,{cols},value,H,best_action\n")
            a, cut = 0, None
            for e in chain(ready, [self.L + 1]):
                for d, s in zip(range(a, e), self.knots[a:e].tolist()):
                    s = f"{s:.17g},"      # every row starts with it
                    if d and np.array_equal(bits[d], bits[d - 1]):
                        # the last formatted knot's rows, cut at its s once
                        cut = cut or rows[len(p):].split("\n" + p)
                        rows = s + ("\n" + s).join(cut)
                    else:
                        cut, q = None, bits[d] == hbits
                        rows = (s + s.join(np.where(q, same, fmt).tolist())
                                ) % tuple(self.values[d][~q].tolist())
                    fh.write(rows)
                    p = s
                a = e

    def save(self, path):
        """Binary layout: magic, int64 (n, R, L+1, N), little-endian doubles
        for knots then values (row-major), then int64-length-prefixed JSON
        metadata, which carries the model hash that load checks."""
        meta = dict(self.meta, model_hash=model_mod.model_hash(self.model))
        meta_blob = json.dumps(meta, default=float).encode()
        with open(path, "wb") as fh:
            fh.write(b"PSTSURF1")
            fh.write(struct.pack("<4q", self.model.n, self.grid.R,
                                 len(self.knots), self.grid.n_nodes))
            for a in (self.knots, self.values):    # their own buffers
                fh.write(np.ascontiguousarray(a, dtype="<f8"))
            fh.write(struct.pack("<q", len(meta_blob)))
            fh.write(meta_blob)

    @classmethod
    def load(cls, path, model):
        """The surface saved at path for model; a ValueError naming path
        refuses a file of another model, whose header does not fit it,
        which is shorter than its header says or whose values are not all
        finite.  The header's counts are checked before they size a read."""
        def corrupt(what):
            return ValueError(f"{path}: truncated or corrupt value-surface "
                              f"file ({what})")

        with open(path, "rb") as fh:
            magic = fh.read(8)
            if magic != b"PSTSURF1":
                raise ValueError(f"{path}: not a value-surface file")
            try:
                n, R, nk, N = struct.unpack("<4q", fh.read(32))
            except struct.error as exc:
                raise corrupt(exc) from exc
            header = (f"{path}: corrupt value-surface header (n = {n}, "
                      f"R = {R}, {N} nodes, {nk} knots) for this model")
            if n != model.n or R < 1 or nk < 1 \
                    or N != comb(R + n - 1, n - 1):
                raise ValueError(header)
            left = os.fstat(fh.fileno()).st_size - fh.tell()
            if left < 8 * nk * (N + 1):
                raise corrupt(f"{nk} knots of {N} nodes need "
                              f"{8 * nk * (N + 1)} bytes, {left} left")
            knots, values = np.empty(nk, "<f8"), np.empty((nk, N), "<f8")
            try:
                for a in (knots, values):          # read into place
                    if fh.readinto(a) != a.nbytes:
                        raise ValueError(f"short read of {a.nbytes} bytes")
                (mlen,) = struct.unpack("<q", fh.read(8))
                blob = fh.read()
                if len(blob) != mlen:
                    raise ValueError(f"metadata of {len(blob)} bytes, "
                                     f"not {mlen}")
                meta = json.loads(blob.decode())
            except (struct.error, ValueError) as exc:
                raise corrupt(exc) from exc
        if not isinstance(meta, dict) \
                or meta.get("model_hash") != model_mod.model_hash(model):
            raise ValueError(f"{path}: surface was solved for another model "
                             "(model hash missing or different); solve "
                             "again with the same model and overrides")
        # at T = 0 every knot is 0: only one of them makes a time grid
        if not np.array_equal(knots, np.linspace(0.0, model.horizon, nk)) \
                or nk > 1 and not model.horizon > 0:
            raise ValueError(header)
        if not np.isfinite(values).all():
            raise ValueError(f"{path}: corrupt value-surface file (values "
                             "that are not finite numbers)")
        grid = build_grid(model.n, R)
        return cls(model=model, grid=grid, knots=knots, values=values,
                   meta=meta)


def _jump_operator(model, grid):
    """Sparse (N, N) G0 taking nodal values w to F(x) = sum_r (x . lambda
    w_r) w(post_r(x)) at every node x: one row sums the interpolants at the
    node's Rm post-jump beliefs, weighted by the rates of their marks (0
    for a mark impossible there)."""
    M, w = grid.nodes, model.marks.weights
    Z, dead = bayes_update(model, M[:, None, :], w.T)
    omega = M @ (model.lam[:, None] * w)
    omega[dead] = 0.0
    return grid.interp_matrix(Z.reshape(-1, model.n), omega.ravel(),
                              model.marks.n_marks)


# ---------------------------------------------------------------------------
# solver workspace: everything that does not depend on the current iterate
# ---------------------------------------------------------------------------

class _Workspace:
    """Built in blocks of the march's b knots, each flowed on from the last
    row of the block before: the build holds the flowed beliefs M and X of
    one block besides what the workspace keeps."""

    def __init__(self, model, grid, knots):
        L = len(knots) - 1
        self.L, self.dt = L, float(knots[1] - knots[0]) if L else 0.0
        # march blocks: b^2 / 2 single-slice products against L block ones
        self.b = b = max(1, ceil(sqrt(2 * L)))
        # jump term at u_j: sv_j F(X_j), G0 w = F at the nodes, B_j F at X_j
        self.G0 = _jump_operator(model, grid)
        self.disc = disc = np.exp(-model.rho * knots)
        self.Aterm, self.costM = np.empty((2, L + 1, grid.n_nodes))
        self.B = []
        P = propagator(model.flow_generator(), self.dt)
        for a in range(0, L + 1, b):
            e = min(a + b, L + 1)
            # survival-weight paths m(u_j, node), j = a .. e - 1
            if a:
                M, X, sv = (r[1:] for r in flow_path(
                    model, M[-1], self.dt, e - a, P, X[-1]))
            else:
                M, X, sv = flow_path(model, grid.nodes, self.dt, e - 1, P)
            Hx = terminal_reward(model, X)[0]
            self.Aterm[a:e] = sv * disc[a:e, None] * Hx
            self.costM[a:e] = M @ model.effective_cost_rates()
            self.B += grid.interp_matrices(X, sv)
        self.Hnodes = self.Aterm[0]       # x(0, node) is the node: H there
        self.sv_end = sv[-1].copy()       # survival mass at the last knot


def _check_solve(model, grid, tol, zero=False):
    """tol as a float, refused with a ValueError unless a finite number
    > 0 (>= 0 where zero), as is a grid whose n is not the model's."""
    if grid.n != model.n:
        raise ValueError(f"grid: a lattice for n = {grid.n} states, but the "
                         f"model has n = {model.n}")
    tol = float(tol)
    if not 0.0 <= tol < np.inf or tol == 0.0 and not zero:     # also NaN
        raise ValueError(f"tol: tolerance must be a finite number "
                         f"{'>=' if zero else '>'} 0, got {tol}")
    return tol


class FiniteHorizonSolver:
    """The fixed point of the discretized J0 on the full (s, pi) lattice:
    solve marches it, iterate runs value iteration v_{m+1} = J0 v_m."""

    def __init__(self, model, grid, L=None, tol=1e-4):
        self.model = model
        self.grid = grid
        self.tol = _check_solve(model, grid, tol)
        T = model.horizon
        # one knot at T = 0, at least one step at T > 0
        self.L = default_knot_count(model) if L is None \
            else check_count(L, "L: the knot count", int(T > 0))
        if T <= 0:
            self.L = 0
        self.knots = np.linspace(0.0, T, self.L + 1)

    @cached_property
    def ws(self):
        """The workspace, built on first use, so solve's children are forked
        before it."""
        return _Workspace(self.model, self.grid, self.knots)

    def sweep(self, v):
        """One application of the discretized J0 to a full surface.

        Slice ell integrates the term at u_k against slice ell - k, so the
        trapezoid sums I and the sup over the wait, best, of all target
        slices advance together over k, two integrand rows at a time, in
        the order of a per-slice cumulative sum (so bitwise the same).  The
        jump term of row k is B_k F, with F = G0 v formed once."""
        ws, L = self.ws, self.L
        F = (ws.G0 @ v.T).T
        half_dt = 0.5 * ws.dt
        vnew = np.empty_like(v)
        vnew[0] = ws.Hnodes
        best = vnew[1:]
        best[:] = ws.Aterm[0] + 0.0       # + 0.0: the empty integral at t = 0
        I = np.full(best.shape, -0.0)     # -0.0 + x is x, also for x = -0.0
        for k in range(L + 1):
            # row d: e^{-rho u_k} (cost term + jump term against slice d)
            W = ws.B[k] @ F[: L + 1 - k].T
            phi = (ws.disc[k] * (ws.costM[k][:, None] + W)).T
            if k:                         # targets ell = k .. L
                I[k - 1:] += half_dt * (prev[1:] + phi)
                np.maximum(best[k - 1:], ws.Aterm[k] + I[k - 1:],
                           out=best[k - 1:])
            prev = phi
        return vnew

    def march(self, v=None, final=lambda e: None):
        """The fixed point of sweep, one slice at a time in increasing s.

        Slice ell of J0 v is max(H, h_0[ell] + C_ell), with h_j[d] =
        dt/2 e^{-rho u_j} (costM_j + B_j F[d]), F = G0 v, and C_ell reading
        only the slices below ell.  Slice 0 is H, slice d > 0 the Picard
        iteration from v[d - 1] (modulus dt lam_bar / 2); each is pushed
        forward: h_j[d] reaches target d + j.  A target keeps one row, the
        max C over its open waits j of Aterm_j plus the trapezoid sum to
        u_j: h opens wait j (end weight h) and adds 2h to the others, so
        C' = h + max(C + h, Aterm_j), from C = -inf.  Slices go in the
        workspace's blocks of b from slice 0: a slice is pushed at once
        within its block, and the block to later targets by one product
        per j, in decreasing j.

        The march works inside the surface it fills: row t of v holds
        target t's C until slice t is solved, and F is a ring of b rows:
        slice d of the block at a in row d - a, and in row -1, while a
        block's first slice is solved, the last slice of the block before.
        Returns the (L+1, N) values, written into v if given, and the
        Picard steps of each slice.  final(e), if given, is called once the
        slices below e are final: after each block, ending at L + 1.  Rows
        at or above e are scratch until then."""
        ws, L, N, b = self.ws, self.L, self.grid.n_nodes, self.ws.b
        v = np.empty((L + 1, N)) if v is None else v
        F = np.empty((b, N))
        v[0] = ws.Hnodes
        v[1:] = -np.inf
        steps = np.zeros(L + 1, dtype=np.int64)
        hd = 0.5 * ws.dt * ws.disc        # trapezoid half-weight of u_j
        h0 = hd[0] * ws.costM[0]          # the cost term of u_0
        h = np.empty((b, N))

        def arrive(t, h, A):              # rows h reach the targets t
            Ct = v[t]
            Ct += h
            np.maximum(Ct, A, out=Ct)
            Ct += h

        for a in range(0, L + 1, b):
            e = min(a + b, L + 1)
            for k, d in enumerate(range(a, e)):   # slice d is F's row k
                if d:
                    v[d], steps[d] = self._picard(v[d - 1], F[k - 1],
                                                  h0 + v[d])
                F[k] = ws.G0 @ v[d]
                m = e - 1 - d             # targets d + 1 .. e - 1, j = 1 .. m
                for j in range(1, m + 1):
                    h[j - 1] = ws.B[j] @ F[k]
                hj = h[:m]
                hj += ws.costM[1: m + 1]
                hj *= hd[1: m + 1, None]
                arrive(slice(d + 1, e), hj, ws.Aterm[1: m + 1])
            for j in range(L - a, 0, -1):
                lo, hi = max(a, e - j), min(e, L + 1 - j)
                if lo < hi:               # targets lo + j .. hi + j - 1 >= e
                    hj = h[: hi - lo]     # C order, as arrive's rows
                    np.copyto(hj, (ws.B[j] @ F[lo - a: hi - a].T).T)
                    hj += ws.costM[j]
                    hj *= hd[j]
                    arrive(slice(lo + j, hi + j), hj, ws.Aterm[j])
            final(e)
        return v, steps

    def _picard(self, v, Gv, base):
        """Fixed point of w -> max(H, base + dt/2 G0 w) (B_0 = I), from v,
        whose jump values G0 v are Gv."""
        ws = self.ws
        H, G0, half_dt = ws.Aterm[0], ws.G0, 0.5 * ws.dt
        for step in range(1, PICARD_CAP + 1):
            w = np.maximum(H, base + half_dt * Gv)
            delta = float(np.max(np.abs(w - v)))
            v = w
            if delta <= 1e-15 * (1.0 + float(np.max(np.abs(w)))):
                return w, step
            if not np.isfinite(delta):
                break
            Gv = G0 @ w
        q = half_dt * self.model.lam_bar
        L_min = int(self.model.horizon * self.model.lam_bar / 2.0) + 1
        raise NumericalError(
            f"the self-term iteration of a time slice did not settle in "
            f"{step} steps: dt * lam_bar / 2 = {q:.4g} with L = {self.L} "
            f"knots; it is < 1 from L = {L_min}")

    def iterate(self):
        """_iterate of sweep from H, at most SWEEP_CAP sweeps, meta with b(m):
        the reference for march and the certificate of solve."""
        model = self.model
        v0 = np.tile(self.ws.Hnodes, (self.L + 1, 1))
        v, meta = _iterate(self.sweep, v0, self.tol, SWEEP_CAP,
                           model.norm_H() + model.horizon * model.norm_C())
        m = meta["iterations"]
        meta["uniform_error_bound"] = uniform_error_bound(model, m) \
            if m >= 2 else float("inf")
        return ValueSurface(model=model, grid=self.grid, knots=self.knots,
                            values=v, meta=meta)

    def _certificate(self):
        """A new solver of the certificate problem: grid min(R, CERT_R) and
        min(L, max(CERT_L, 2 T lam_bar)) knots, so its self-term modulus
        dt lam_bar / 2 is at most 1/4 or that of this problem."""
        model = self.model
        L = min(self.L, max(CERT_L, ceil(2.0 * model.horizon
                                         * model.lam_bar)))
        grid = self.grid if self.grid.R <= CERT_R \
            else build_grid(model.n, CERT_R)
        return FiniteHorizonSolver(model, grid=grid, L=L, tol=self.tol)

    def _certify(self):
        """The certificate problem marched and value-iterated once each:
        the value iteration's meta, the sup gap between the two solutions
        and the Richardson check of the march.  The march lies above every
        iterate and within 10 tol of a converged one; a gap beyond either
        is a NumericalError."""
        cert = self._certificate()
        coarse = cert.march()[0]
        ref = cert.iterate()
        diff = coarse - ref.values
        gap = float(np.max(np.abs(diff)))
        if -float(np.min(diff)) > 10.0 * self.tol \
                or (ref.meta["converged"] and gap > 10.0 * self.tol):
            raise NumericalError(
                f"march and value iteration differ by {gap} on the "
                f"certificate problem (tol {self.tol}); discretization bug")
        return ref.meta, gap, richardson_check(self.model, grid=cert.grid,
                                               L=cert.L, coarse=coarse)

    def solve(self, v=None, final=lambda e: None):
        """The marched surface (v and final as in march: rows of v at or
        above e are scratch until final(e)), certified by _certify in a
        forked child while this process builds the workspace and marches.
        meta carries the value iteration's iterations, deltas,
        uniform_error_bound b(m) (which bounds V minus the marched surface
        too) and its convergence (certificate_converged); march_gap;
        richardson_delta."""
        with _forked(self._certify) as join:
            values, steps = self.march(v, final)
            try:
                ref_meta, gap, delta = join()
            except ChildProcessError as exc:
                raise NumericalError(str(exc)) from exc
        meta = dict(ref_meta, converged=True,
                    certificate_converged=ref_meta["converged"],
                    picard_max=int(steps.max()), march_gap=gap,
                    richardson_delta=delta)
        return ValueSurface(model=self.model, grid=self.grid,
                            knots=self.knots, values=values, meta=meta)


def solve_finite(model, grid, L=None, tol=1e-4):
    """Solve the finite-horizon problem; see FiniteHorizonSolver.solve."""
    return FiniteHorizonSolver(model, grid=grid, L=L, tol=tol).solve()


@contextmanager
def solve_to_csv(model, grid, path, L=None, tol=1e-4):
    """Yields solve_finite's surface, its values a shared anonymous mapping,
    while a child forked before the workspace writes its to_csv to path +
    ".part", each block once the march sends its count through a pipe.  A
    with-block that ends normally joins the writer (off Linux the join
    writes) and renames the file to path; else the writer is killed.  No
    .part file outlives the call.  The solver, and with it the workspace,
    is dropped before the surface is yielded."""
    solver = FiniteHorizonSolver(model, grid=grid, L=L, tol=tol)
    size = 8 * (solver.L + 1) * grid.n_nodes
    values = np.frombuffer(mmap.mmap(-1, size)).reshape(solver.L + 1, -1)
    part = f"{path}.part"
    r, w = os.pipe()
    # one count at a time up to L + 1, as the certificate holds w too
    counts = iter(lambda: struct.unpack("<q", os.read(r, 8))[0], solver.L + 1)
    try:
        writer = ValueSurface(model, grid, solver.knots, values).to_csv
        # the writer drops w, so a parent killed from outside ends it too
        with _forked(writer, part, counts, close=(w,)) as join:
            surface = solver.solve(values, lambda e: os.write(
                w, struct.pack("<q", e)))
            del solver
            yield surface
            join()
        os.replace(part, path)
    finally:
        os.close(r)
        os.close(w)
        with suppress(FileNotFoundError):
            os.remove(part)


def richardson_check(model, grid, L, coarse=None):
    """Self-check of the time discretization: march again with halved
    steps and report the sup-norm change at the shared knots.  coarse is
    the march at L knots on grid, if already known."""
    if coarse is None:
        coarse, _ = FiniteHorizonSolver(model, grid=grid, L=L).march()
    fine, _ = FiniteHorizonSolver(model, grid=grid, L=2 * L).march()
    return float(np.max(np.abs(coarse - fine[::2])))


# ---------------------------------------------------------------------------
# pointwise operators for arbitrary beliefs
# ---------------------------------------------------------------------------

def _j_path(model, surface, s, pi, h, n):
    """Jw(k h, s, pi) for k = 0..n from one no-arrival flow path of step h.

    The integrand at u_j = j h does not depend on the waiting time, so every
    J(k h) is its head term plus a cumulative trapezoid of the same phi, whose
    jump term sv_j F(s - u_j, X_j) is one lookup in the surface's jump values.
    """
    M, X, sv = (a[:, 0] for a in flow_path(model, pi, h, n))
    u = h * np.arange(n + 1)
    # s - u may fall an ulp past the 1e-12 slack below 0 at s's last knot
    jump = surface.jump_surface.value_at_batch(np.maximum(s - u, 0.0), X)
    disc = np.exp(-model.rho * u)
    phi = disc * (M @ model.effective_cost_rates() + sv * jump)
    head = sv * disc * terminal_reward(model, X)[0]
    return head + np.concatenate(
        [[0.0], np.cumsum(0.5 * h * (phi[:-1] + phi[1:]))])


def apply_J(model, surface, t, s, pi):
    """Jw(t, s, pi) against the stored surface w, for arbitrary pi.

    The inner integral is the composite trapezoid on max(1, round(t / dt))
    uniform substeps of [0, t], dt the surface's time step (one step on an
    L = 0 surface): the march's step, so at a knot t and a lattice node
    this is the J of the solved lattice.
    """
    s, pi = surface.check_query(model, s, pi)
    t = check_time(t, model.horizon, "t")
    if t > s + 1e-12:
        raise ValueError(f"apply_J: need t <= s, got t={t}, s={s}")
    if t <= 0:
        return float(terminal_reward(model, pi)[0])
    n_sub = max(1, int(round(t / surface.dt))) if surface.L else 1
    return float(_j_path(model, surface, s, pi, t / n_sub, n_sub)[-1])


def apply_J0(model, surface, s, pi):
    """sup over grid times t in [0, s] of apply_J; returns (value, argmax t).

    One flow path at the surface's step gives J at every knot in [0, s];
    an off-knot t = s adds one apply_J.
    """
    s, pi = surface.check_query(model, s, pi)
    ts = [float(t) for t in surface.knots if t <= s + 1e-12]
    vals = list(_j_path(model, surface, s, pi, surface.dt, len(ts) - 1))
    if abs(ts[-1] - s) > 1e-12:
        ts.append(float(s))
        vals.append(apply_J(model, surface, s, s, pi))
    best = int(np.argmax(vals))
    return float(vals[best]), ts[best]


# ---------------------------------------------------------------------------
# error bounds
# ---------------------------------------------------------------------------

def uniform_error_bound(model, m):
    """Sup-norm bound on V - v_m:

        (T ||C|| + 2 ||H||) (lam_bar T / (m-1))^{1/2}
                            (lam_bar / (2 rho + lam_bar))^{m/2}
    """
    m = check_count(m, "uniform_error_bound: m", least=2)
    T, lb = model.horizon, model.lam_bar
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
    infinite-horizon value; inf where no bound is known (m < 2 at rho = 0,
    or max mu / max c not positive there)."""
    m = check_count(m, "err_infinity: m")
    _check_infinite_assumptions(model)
    lb = model.lam_bar
    if model.rho > 0:
        return float((lb / (model.rho + lb)) ** m)
    ratio = float(np.max(model.mu) / np.max(model.effective_cost_rates()))
    if m < 2 or not ratio > 0.0:
        return float("inf")
    return float(np.sqrt(ratio * lb / (m - 1)))


def horizon_error(model, T=None):
    """Err(T): gap between the finite- and infinite-horizon values."""
    T = model.horizon if T is None else check_nonneg(T, "T: the horizon")
    _check_infinite_assumptions(model)
    if model.rho > 0:
        return float(np.exp(-model.rho * T)
                     * (model.norm_C() + 2.0 * model.norm_H()))
    if T <= 0:
        return float("inf")
    c_eff = model.effective_cost_rates()
    spread = float(np.min(model.mu) - np.max(model.mu))
    return float(2.0 * model.norm_H() / T * spread / np.max(c_eff))


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


def solve_infinite(model, grid, tol=1e-4, m_max=500):
    """_iterate of the infinite-horizon operator (sup over t >= 0 up to
    t_max = max(20/lam_bar, 10/rho_hat), on at most INF_L_CAP knots, each
    short enough for one flow step) to tol; tol = 0 runs m_max steps.
    meta's converged is that iteration's test only: the truncation at
    t_max shows in truncation_tail_bound alone."""
    tol = _check_solve(model, grid, tol, zero=True)
    m_max = check_count(m_max, "m_max: the iteration cap", least=1)
    _check_infinite_assumptions(model)
    rho_hat = _rho_hat(model)
    t_max = max(20.0 / model.lam_bar, 10.0 / rho_hat)
    L = ceil(min(t_max * max(model.lam_bar, model.rho, 1.0) * 20.0,
                 INF_L_CAP))
    q = t_max / L * float(np.max(model.lam - np.diag(model.Q)))
    if not q <= 200.0:
        raise ValueError(
            f"solve_infinite: t_max = {t_max:.4g} (rho_hat = {rho_hat:.4g}) "
            f"on {L} knots (INF_L_CAP = {INF_L_CAP}) has dt max_i(lambda_i "
            f"- q_ii) = {q:.4g} > 200: a flow step decays out of range")
    knots = np.linspace(0.0, t_max, L + 1)
    ws = _Workspace(model, grid, knots)
    B = sparse.vstack(ws.B, format="csr")     # every B_j F in one product

    def step(v):
        W = (B @ (ws.G0 @ v)).reshape(L + 1, grid.n_nodes)
        phi = ws.disc[:, None] * (ws.costM + W)
        inc = 0.5 * ws.dt * (phi[:-1] + phi[1:])
        I = np.concatenate([np.zeros((1, grid.n_nodes)),
                            np.cumsum(inc, axis=0)])
        return np.max(ws.Aterm + I, axis=0)

    # the value scale; times the survival mass left at t_max, the tail
    scale = model.norm_H() + model.norm_C() / rho_hat
    v, meta = _iterate(step, ws.Hnodes.copy(), tol, m_max, scale)
    meta.update(t_max=float(t_max),
                err_infinity=err_infinity(model, meta["iterations"]),
                truncation_tail_bound=float(np.max(ws.sv_end)) * scale)
    return StationaryValue(model=model, grid=grid, values=v, meta=meta)
