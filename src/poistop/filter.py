"""Exact belief dynamics for the hidden chain observed through arrivals.

Between arrivals the conditional distribution follows the deterministic
flow x(t, pi): the survival-weight vector m(t, pi) = pi . exp(t(Q - Lambda))
normalized by its sum.  At an arrival with mark y the belief jumps to the
Bayes update with per-state likelihoods lambda_i f_i(y).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.linalg import expm

from .model import check_belief


class ArrivalEvent(NamedTuple):
    time: float
    mark: float


class FilterError(ValueError):
    pass


def survival_weights(model, t, pi):
    """m(t, pi) = pi . exp(t (Q - Lambda)); entries >= 0, sum <= 1."""
    if t < 0:
        raise FilterError(f"survival_weights: negative duration {t}")
    pi = check_belief(pi, model.n)
    return flow_path(model, pi, t, 1)[0][1, 0]


# survival mass below which the raw weights near the subnormal range: the
# beliefs there are stepped renormalized instead of read off M
_LOW_MASS = 1e-250


def flow_path(model, beliefs, h, n):
    """The no-arrival flow of every belief at u_j = j h, j = 0..n.

    Returns the survival weights M, shape (n+1, B, n), stepped by one
    P = exp(h (Q - Lambda)) and clipped at 0 every step, the beliefs X,
    and the survival mass sv = sum M, shape (n+1, B).  X is M / sv; where
    sv is near underflow, X is instead the previous belief stepped by P and
    renormalized, so X is the flowed belief however small M gets.
    """
    beliefs = np.atleast_2d(beliefs)
    M = np.empty((n + 1,) + beliefs.shape)
    M[0] = beliefs
    P = expm(h * model.flow_generator()) if n else None
    # clip at 0 with np.maximum: np.clip's per-call overhead is most of a
    # step for the single-belief paths of the pointwise operators
    for j in range(n):
        np.matmul(M[j], P, out=M[j + 1])
        np.maximum(M[j + 1], 0.0, out=M[j + 1])
    sv = M.sum(axis=2)
    low = sv < _LOW_MASS
    X = np.divide(M, sv[..., None], out=np.empty_like(M),
                  where=~low[..., None])
    for j in np.flatnonzero(low.any(axis=1)):      # j >= 1: sv[0] = 1
        x = np.maximum(X[j - 1, low[j]] @ P, 0.0)
        X[j, low[j]] = x / x.sum(axis=1, keepdims=True)
    return M, X, sv


def post_jump(model, X, M):
    """Beliefs and weights after an arrival with each mark r.

    For beliefs X (..., n) with survival weights M, Z[..., r, :] is the
    Bayes update X * lambda * f_r / sum, and omega[..., r] = M . (lambda
    w_r) the rate of arriving with mark r.  A mark impossible at X keeps
    Z = X and gets omega = 0.
    """
    marks = model.marks
    Z = X[..., None, :] * (model.lam[:, None] * marks.density).T
    zs = Z.sum(axis=-1, keepdims=True)
    dead = zs <= 0.0
    if dead.any():
        Z = np.where(dead, X[..., None, :], Z)
        zs = Z.sum(axis=-1, keepdims=True)
    Z /= zs
    omega = M @ (model.lam[:, None] * marks.weights)
    omega[dead[..., 0]] = 0.0
    return Z, omega


def flow(model, t, pi):
    """No-arrival belief x(t, pi) = m(t, pi) / sum_j m_j(t, pi).

    Long horizons are propagated in renormalized chunks, so only the
    normalized direction is tracked and underflow of the raw survival
    weights cannot occur.
    """
    if t < 0:
        raise FilterError(f"flow: negative duration {t}")
    pi = check_belief(pi, model.n)
    if t == 0.0:
        return pi
    A = model.flow_generator()
    # keep the per-chunk decay of exp(t A) well inside double range
    chunk = 200.0 / max(model.lam_bar, 1.0)
    x = pi
    remaining = float(t)
    while remaining > 0:
        step = min(chunk, remaining)
        m = x @ expm(step * A)
        m = np.clip(m, 0.0, None)
        s = m.sum()
        if s < 1e-300:
            raise FilterError("flow horizon too long: survival weights "
                              "vanished")
        x = m / s
        remaining -= step
    return x


def flow_derivative(model, pi):
    """Right-hand side of the flow ODE at pi:

        dx_i/dt = sum_j q_{j,i} x_j - lambda_i x_i + x_i sum_j lambda_j x_j
    """
    pi = np.asarray(pi, dtype=float)
    return pi @ model.Q - model.lam * pi + pi * float(model.lam @ pi)


def jump_update(model, pi, mark=None):
    """Belief after an arrival with the given mark:

        pi_i  ->  lambda_i f_i(y) pi_i / sum_j lambda_j f_j(y) pi_j
    """
    pi = check_belief(pi, model.n)
    if mark is None:
        dens = np.ones(model.n)
    else:
        dens = model.marks.density_at(mark)
    w = model.lam * dens * pi
    s = w.sum()
    if s <= 0.0:
        raise FilterError(f"mark {mark!r} impossible under current belief")
    return w / s


@dataclass
class BeliefTrajectory:
    """Piecewise-deterministic belief path over [0, t_end].

    ``segments`` lists (start time, start belief); between knots the belief
    follows the deterministic flow.  ``jumps`` records, per arrival,
    (time, pre-jump belief, post-jump belief).  Evaluation at an arrival
    time returns the post-jump value; the pre-jump value is available from
    the jump record.
    """

    model: object
    t_end: float
    segments: list = field(default_factory=list)
    jumps: list = field(default_factory=list)

    def evaluate(self, t):
        if not 0.0 <= t <= self.t_end + 1e-12:
            raise FilterError(f"evaluation time {t} outside [0, {self.t_end}]")
        starts = [s for s, _ in self.segments]
        k = int(np.searchsorted(starts, t, side="right")) - 1
        t0, pi0 = self.segments[k]
        return flow(self.model, t - t0, pi0)


def filter_path(model, pi0, events, t_end):
    """Run the exact filter along an observed arrival record."""
    pi0 = check_belief(pi0, model.n)
    times = [e.time for e in events]
    if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
        raise FilterError("arrival times must be strictly increasing")
    if times and (times[0] < 0 or times[-1] > t_end):
        raise FilterError("arrival times must lie in [0, t_end]")
    traj = BeliefTrajectory(model=model, t_end=float(t_end))
    traj.segments.append((0.0, pi0))
    cur_t, cur = 0.0, pi0
    for k, ev in enumerate(events):
        try:
            pre = flow(model, ev.time - cur_t, cur)
            post = jump_update(model, pre, ev.mark)
        except FilterError as exc:
            raise FilterError(f"event {k} at t={ev.time}: {exc}") from exc
        traj.jumps.append((ev.time, pre, post))
        traj.segments.append((ev.time, post))
        cur_t, cur = ev.time, post
    return traj


class FlowPropagator:
    """Batch evaluation of the flow for many (belief, duration) pairs.

    Diagonalizes A = Q - Lambda once; exp(t A) is then evaluated per path
    by scaling in the eigenbasis.  Falls back to flow, row by row, when the
    eigenbasis is ill-conditioned.
    """

    def __init__(self, model, cond_cap=1e8):
        self.model = model
        vals, vecs = np.linalg.eig(model.flow_generator())
        self._ok = np.linalg.cond(vecs) < cond_cap
        if self._ok:
            self.vals = vals
            self.vecs = vecs
            self.vecs_inv = np.linalg.inv(vecs)

    def advance(self, beliefs, durations):
        """Normalized flow of each belief over its own duration."""
        beliefs = np.atleast_2d(beliefs)
        durations = np.asarray(durations, dtype=float)
        if self._ok:
            z = beliefs.astype(complex) @ self.vecs
            # shift each row's exponents by the largest real part among the
            # modes it excites: the factor cancels in the normalization,
            # and the leading mode no longer underflows on long durations
            top = np.where(z != 0, self.vals.real, -np.inf).max(axis=1)
            z = z * np.exp(durations[:, None]
                           * (self.vals[None, :] - top[:, None]))
            m = np.real(z @ self.vecs_inv)
        else:
            m = np.empty(beliefs.shape)
            for k, (pi, t) in enumerate(zip(beliefs, durations)):
                m[k] = flow(self.model, t, pi)
        m = np.clip(m, 0.0, None)
        s = m.sum(axis=1, keepdims=True)
        s[s <= 0] = np.nan
        return m / s


# ---------------------------------------------------------------------------
# CSV import/export for arrival records
# ---------------------------------------------------------------------------

def events_to_csv(events, path):
    with open(path, "w") as fh:
        fh.write("time,mark\n")
        for ev in events:
            fh.write(f"{ev.time:.17g},{ev.mark:.17g}\n")


def events_from_csv(path):
    out = []
    with open(path) as fh:
        header = fh.readline()
        for line in fh:
            if not line.strip():
                continue
            t, y = line.strip().split(",")
            out.append(ArrivalEvent(float(t), float(y)))
    return out

