"""Exact belief dynamics for the hidden chain observed through arrivals.

Between arrivals the conditional distribution follows the deterministic
flow x(t, pi): the survival-weight vector m(t, pi) = pi . exp(t(Q - Lambda))
normalized by its sum.  At an arrival with mark y the belief jumps to the
Bayes update with per-state likelihoods lambda_i f_i(y): bayes_update, the
one update of every arrival, batched or not.
flow_path flows beliefs on a uniform time grid by the step_powers of the
one-step matrix of propagator, and flow is its one-belief call;
FlowPropagator flows many beliefs, each over its own duration, in the
eigenbasis of Q - Lambda, with flow as its fallback and its oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil, exp, log2
from typing import NamedTuple

import numpy as np

from .model import check_belief, check_nonneg, combine_rows


class ArrivalEvent(NamedTuple):
    time: float
    mark: float


class FilterError(ValueError):
    pass


_EPS = 2.0 ** -53        # unit roundoff: propagator's truncation threshold


def propagator(A, h):
    """exp(h A) for a sub-generator A (off-diagonal >= 0, rows sum <= 0)
    by uniformization, every entry >= 0 and accurate.

    With q = max_i -a_ii and K = I + A / q >= 0, exp(h A) = e^{-x} sum_k
    x^k K^k / k!, x = q h: a sum of nonnegative terms.  h is halved s times
    until x <= 1, the series is summed up to the first degree whose next
    term falls below 2^-53 times the term of degree n - 1 (by which every
    entry that is ever nonzero is nonzero), and the result squared s times.
    A diagonal A (no transitions) gives diag(exp(h a_ii)) directly.
    """
    if not 0.0 <= h < np.inf:
        raise FilterError(f"propagator: step {h} outside [0, inf)")
    A = np.asarray(A, dtype=float)
    n = len(A)
    if np.count_nonzero(A) == np.count_nonzero(A.diagonal()):
        return np.diag(np.exp(h * A.diagonal()))
    q = -float(A.diagonal().min(initial=0.0))
    x = q * h
    if x == 0.0:
        return np.eye(n)
    s = max(0, ceil(log2(x)))
    x /= 2 ** s
    term = 1.0
    for k in range(1, n):
        term *= x / k
    d, ref = n - 1, term
    while term * x / (d + 1) > _EPS * ref:
        d += 1
        term *= x / d
    K = A / q
    K.flat[:: n + 1] += 1.0
    c = [exp(-x)]
    for k in range(1, d + 1):
        c.append(c[-1] * x / k)
    P = (np.array(c) @ step_powers(K, d).reshape(d + 1, n * n)).reshape(n, n)
    for _ in range(s):
        P = P @ P
    return P


def step_powers(K, d):
    """K^0 .. K^d, shape (d + 1, n, n): the stack doubled by one stacked
    product a round, no row rewritten, so row j has the same bits for any d."""
    pw = np.eye(len(K))[None]
    while len(pw) <= d:
        pw, K = np.concatenate((pw, pw @ K)), K @ K
    return pw[: d + 1]


# survival mass below which the raw weights near the subnormal range: the
# beliefs there are stepped renormalized instead of read off M
_LOW_MASS = 1e-250
FLOW_CHUNK = 1000       # steps per flow_path call of flow


def flow_path(model, beliefs, h, n, P=None, powers=None, x0=None):
    """The no-arrival flow of every belief at u_j = j h, j = 0..n: the
    survival weights M_j = beliefs . P^j, shape (n+1, B, n), one product
    with step_powers(P, n) of P = propagator(Q - Lambda, h) >= 0, the
    beliefs X and the survival mass sv = sum M, shape (n+1, B).  At u = 0
    sv is exactly 1 and X the beliefs given, bit for bit.  Elsewhere X is
    M / sv, or where sv is near underflow the belief of the row before
    stepped by P and renormalized, so X is the flowed belief however small
    M gets.  Given rows k .. k + n (k > 0) of a longer path's stack as
    powers and its X at row k - 1 as x0, it returns that path's rows.
    """
    beliefs = np.atleast_2d(beliefs)
    P = propagator(model.flow_generator(), h) if P is None else P
    M = beliefs @ (step_powers(P, n) if powers is None else powers)
    sv = M.sum(axis=2)
    low = sv < _LOW_MASS
    X = np.divide(M, sv[..., None], out=np.empty_like(M),
                  where=~low[..., None])
    if x0 is None:                   # row 0 is P^0: the beliefs themselves
        sv[0], low[0], X[0] = 1.0, False, beliefs
    for j in np.flatnonzero(low.any(axis=1)):
        x = (X[j - 1] if j else x0)[low[j]] @ P
        X[j, low[j]] = x / x.sum(axis=1, keepdims=True)
    return M, X, sv


def bayes_update(model, X, dens):
    """Beliefs after an arrival whose mark has per-state densities dens,
    X_i -> lambda_i f_i(y) X_i / sum_j lambda_j f_j(y) X_j, for beliefs X
    (..., n) that dens broadcasts against.  Returns (Z, dead): where the
    sum is <= 0 (a mark impossible at X), Z is X and dead is True.  The
    product is formed X * (lambda * dens), the order G0 is built in.
    """
    Z = X * (model.lam * dens)
    zs = Z.sum(axis=-1, keepdims=True)
    dead = zs <= 0.0
    Z = np.divide(Z, zs, out=np.broadcast_to(X, Z.shape).copy(),
                  where=~dead)
    return Z, dead[..., 0]


def flow(model, t, pi):
    """No-arrival belief x(t, pi) = m(t, pi) / sum_j m_j(t, pi): the
    one-belief call of flow_path, on the fewest equal steps h with
    h max_i(lambda_i - q_ii) <= 200, so that no step decays out of double
    range, in calls of at most FLOW_CHUNK steps, so its memory is bounded.
    At t = 0 it takes no step and returns the checked belief itself.
    """
    if not 0.0 <= t < np.inf:
        raise FilterError(f"flow: duration {t} outside [0, inf)")
    x = check_belief(pi, model.n)
    n = ceil(t * float(np.max(model.lam - np.diag(model.Q))) / 200.0)
    for j in range(0, n, FLOW_CHUNK):
        x = flow_path(model, x, t / n, min(FLOW_CHUNK, n - j))[1][-1, 0].copy()
    return x


def flow_derivative(model, pi):
    """Right-hand side of the flow ODE at pi:

        dx_i/dt = sum_j q_{j,i} x_j - lambda_i x_i + x_i sum_j lambda_j x_j
    """
    pi = np.asarray(pi, dtype=float)
    return pi @ model.Q - model.lam * pi + pi * float(model.lam @ pi)


def jump_update(model, pi, mark):
    """Belief after an arrival with the given mark: the one-belief call of
    bayes_update, a FilterError where the mark is impossible."""
    pi = check_belief(pi, model.n)
    post, dead = bayes_update(model, pi, model.marks.density_at(mark))
    if dead:
        raise FilterError(f"mark {mark!r} impossible under current belief")
    return post


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
    t_end = check_nonneg(t_end, "t_end: the horizon")
    times = [e.time for e in events]
    if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
        raise FilterError("arrival times must be strictly increasing")
    if times and (times[0] < 0 or times[-1] > t_end):
        raise FilterError("arrival times must lie in [0, t_end]")
    traj = BeliefTrajectory(model=model, t_end=t_end)
    traj.segments.append((0.0, pi0))
    cur_t, cur = 0.0, pi0
    for k, ev in enumerate(events):
        try:
            pre = flow(model, ev.time - cur_t, cur)
            post = jump_update(model, pre, ev.mark)
        except ValueError as exc:        # FilterError, or a bad mark
            raise FilterError(f"event {k} at t={ev.time}: {exc}") from exc
        traj.jumps.append((ev.time, pre, post))
        traj.segments.append((ev.time, post))
        cur_t, cur = ev.time, post
    return traj


COND_CAP = 1e8          # cond(V) from which FlowPropagator falls back to flow


class FlowPropagator:
    """Batch evaluation of the flow for many (belief, duration) pairs.

    Diagonalizes A = Q - Lambda once; exp(t A) is then evaluated per path
    by scaling in the eigenbasis.  Falls back to flow, row by row, when the
    eigenbasis is ill-conditioned (cond >= COND_CAP).
    """

    def __init__(self, model):
        self.model = model
        vals, vecs = np.linalg.eig(model.flow_generator())
        self._ok = np.linalg.cond(vecs) < COND_CAP
        if self._ok:
            self.vals = vals
            self.vecs = vecs
            self.vecs_inv = np.linalg.inv(vecs)

    def advance(self, beliefs, durations):
        """Normalized flow of each belief over its own duration.  Every step
        is elementwise along the batch, on one contiguous row per state, so
        a belief's result does not depend on the other beliefs."""
        beliefs = np.atleast_2d(beliefs)
        durations = np.asarray(durations, dtype=float)
        if self._ok:
            z = combine_rows(np.ascontiguousarray(beliefs.T), self.vecs)
            # shift each belief's exponents by the largest real part among
            # the modes it excites: the factor cancels in the normalization,
            # and the leading mode no longer underflows on long durations;
            # an unexcited mode gets 0, not 0 * exp(shift), which may be inf
            on = z != 0
            top = np.where(on, self.vals.real[:, None], -np.inf).max(axis=0)
            shift = durations * (self.vals[:, None] - top)
            z *= np.exp(shift, out=np.zeros_like(shift), where=on)
            m = np.real(combine_rows(z, self.vecs_inv))
        else:
            m = np.array([flow(self.model, t, pi) for pi, t
                          in zip(beliefs, durations)]).reshape(beliefs.shape).T
        m = np.clip(m, 0.0, None)
        s = m.sum(axis=0)
        s[s <= 0] = np.nan
        return (m / s).T


# ---------------------------------------------------------------------------
# CSV export of arrival records
# ---------------------------------------------------------------------------

def events_to_csv(events, path):
    with open(path, "w") as fh:
        fh.write("time,mark\n")
        for ev in events:
            fh.write(f"{ev.time:.17g},{ev.mark:.17g}\n")

