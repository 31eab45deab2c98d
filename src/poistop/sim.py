"""Ground truth: path simulation, Monte Carlo policy evaluation, oracles.

The hidden chain is drawn from exponential holding times; arrivals come
from thinning a rate-lam_bar Poisson stream with acceptance probability
lambda_state / lam_bar; marks are drawn from the current state's law.
Randomness uses the counter-based Philox generator with a per-path
substream keyed by (seed, path index), so paths are reproducible and
embarrassingly parallel.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .filter import ArrivalEvent, FlowPropagator
from .grid import build_grid
from .model import check_belief, terminal_reward_nodes

RNG_ALGORITHM = "philox4x64"


@dataclass(frozen=True)
class PathSample:
    hidden: tuple          # ((time, state), ...) with hidden[0] = (0, M0)
    arrivals: tuple        # (ArrivalEvent, ...)
    t_end: float
    seed: int
    path_index: int = 0

    def state_at(self, t):
        times = [h[0] for h in self.hidden]
        return self.hidden[bisect_right(times, t) - 1][1]


def _rng(seed, path_index):
    return np.random.Generator(np.random.Philox(key=[seed, path_index]))


def _draw_categorical(rng, p):
    return int(np.searchsorted(np.cumsum(p), rng.random() * p.sum()))


def _draw_mark(model, rng, state):
    marks = model.marks
    if marks.kind == "none":
        return 0.0
    if marks.kind == "discrete":
        r = _draw_categorical(rng, marks.weights[state])
        return float(marks.support[r])
    return float(rng.gamma(marks.gamma_shape[state],
                           1.0 / marks.gamma_rate[state]))


def simulate_path(model, initial, t_end, seed, path_index=0):
    """One hidden trajectory plus its modulated compound-Poisson arrivals."""
    rng = _rng(seed, path_index)
    if np.ndim(initial) == 0:
        state = int(initial)
    else:
        state = _draw_categorical(rng, check_belief(initial, model.n))
    hidden = [(0.0, state)]
    t, cur = 0.0, state
    while True:
        rate = -model.Q[cur, cur]
        if rate <= 0:
            break
        t += rng.exponential(1.0 / rate)
        if t >= t_end:
            break
        p = np.clip(model.Q[cur], 0.0, None)
        cur = _draw_categorical(rng, p)
        hidden.append((t, cur))
    times = [h[0] for h in hidden]
    lb = model.lam_bar
    arrivals = []
    s = 0.0
    while True:
        s += rng.exponential(1.0 / lb)
        if s > t_end:
            break
        st = hidden[bisect_right(times, s) - 1][1]
        if rng.random() < model.lam[st] / lb:
            arrivals.append(ArrivalEvent(s, _draw_mark(model, rng, st)))
    return PathSample(hidden=tuple(hidden), arrivals=tuple(arrivals),
                      t_end=float(t_end), seed=int(seed),
                      path_index=int(path_index))


# ---------------------------------------------------------------------------
# Monte Carlo policy evaluation
# ---------------------------------------------------------------------------

@dataclass
class EvalReport:
    mean: float
    se: float
    n_paths: int
    eps: float
    stop_time_mean: float
    stop_time_quantiles: dict
    frac_at_horizon: float
    rng_algorithm: str = RNG_ALGORITHM

    def to_dict(self):
        return {
            "mean": self.mean,
            "se": self.se,
            "n_paths": self.n_paths,
            "eps": self.eps,
            "stop_time_mean": self.stop_time_mean,
            "stop_time_quantiles": self.stop_time_quantiles,
            "frac_at_horizon": self.frac_at_horizon,
            "rng_algorithm": self.rng_algorithm,
        }


def _mark_costs(model, marks_flat):
    if model.K is None:
        return np.zeros(marks_flat.size)
    return np.asarray(model.K)[model.marks.mark_index(marks_flat)]


def evaluate_policy(model, surface, eps, initial, n_paths, seed):
    """Monte Carlo value of the eps-stop rule driven by the given surface.

    Each path runs the exact filter; stopping is checked at every solver
    time knot and at every arrival, and is forced at the horizon.  Rewards
    use the simulated hidden state for the terminal payoff.
    """
    if surface.model.n != model.n or surface.model.mu.shape != model.mu.shape:
        raise ValueError("evaluate_policy: surface was solved for a "
                         "different model")
    T = model.horizon
    pi0 = check_belief(initial, model.n)
    paths = [simulate_path(model, pi0, T, seed, i) for i in range(n_paths)]

    P = n_paths
    n = model.n
    kmax = max((len(p.arrivals) for p in paths), default=0)
    jmax = max(len(p.hidden) for p in paths)
    arr_t = np.full((P, kmax + 1), np.inf)
    arr_y = np.zeros((P, kmax))
    hid_t = np.full((P, jmax + 1), np.inf)
    hid_s = np.zeros((P, jmax), dtype=np.int64)
    for i, p in enumerate(paths):
        for k, ev in enumerate(p.arrivals):
            arr_t[i, k] = ev.time
            arr_y[i, k] = ev.mark
        for j, (t, st) in enumerate(p.hidden):
            hid_t[i, j] = t
            hid_s[i, j] = st
    flat_marks = arr_y[arr_t[:, :kmax] < np.inf]
    dens_flat = model.marks.density_at(flat_marks)
    arr_dens = np.ones((P, kmax, n))
    arr_dens[arr_t[:, :kmax] < np.inf] = dens_flat

    prop = FlowPropagator(model)
    belief = np.tile(pi0, (P, 1))
    cur_t = np.zeros(P)
    alive = np.ones(P, dtype=bool)
    tau = np.full(P, T)
    act = np.zeros(P, dtype=np.int64)
    evptr = np.zeros(P, dtype=np.int64)
    rows = np.arange(P)

    def check_stop(idx, t_now, force=False):
        if idx.size == 0:
            return
        s_rem = np.maximum(T - t_now, 0.0)
        v = surface.value_at_batch(s_rem, belief[idx])
        hv = belief[idx] @ model.mu.T
        h = hv.max(axis=1)
        stop = (v - eps <= h) if not force else np.ones(idx.size, bool)
        hit = idx[stop]
        if hit.size:
            tau[hit] = np.broadcast_to(t_now, idx.shape)[stop]
            act[hit] = np.argmax(hv[stop], axis=1)
            alive[hit] = False

    knots = surface.knots if surface.L else np.array([0.0, T])
    check_stop(np.nonzero(alive)[0], 0.0)
    for t_hi in knots[1:]:
        while True:
            nxt = arr_t[rows, evptr]
            m = alive & (nxt <= t_hi)
            if not m.any():
                break
            idx = np.nonzero(m)[0]
            te = arr_t[idx, evptr[idx]]
            belief[idx] = prop.advance(belief[idx], te - cur_t[idx])
            d = arr_dens[idx, evptr[idx]]
            w = belief[idx] * model.lam[None, :] * d
            belief[idx] = w / w.sum(axis=1, keepdims=True)
            cur_t[idx] = te
            evptr[idx] += 1
            check_stop(idx[alive[idx]], te[alive[idx]])
        idx = np.nonzero(alive)[0]
        if idx.size:
            belief[idx] = prop.advance(belief[idx], t_hi - cur_t[idx])
            cur_t[idx] = t_hi
        check_stop(idx, float(t_hi), force=t_hi >= T - 1e-12)

    # rewards ------------------------------------------------------------
    rho = model.rho
    reward = np.zeros(P)
    if model.cost_mode == "running":
        for j in range(jmax):
            a = np.minimum(hid_t[:, j], tau)
            b = np.minimum(hid_t[:, j + 1], tau)
            seg = np.maximum(b - a, 0.0)
            if rho > 0:
                seg = (np.exp(-rho * a) - np.exp(-rho * np.maximum(b, a))) \
                    / rho
            reward += model.c[hid_s[:, j]] * seg
    else:
        counted = arr_t[:, :kmax] <= tau[:, None]
        kcost = np.zeros((P, kmax))
        kcost[arr_t[:, :kmax] < np.inf] = _mark_costs(model, flat_marks)
        disc = np.exp(-rho * np.where(np.isfinite(arr_t[:, :kmax]),
                                      arr_t[:, :kmax], 0.0))
        reward += np.sum(counted * disc * kcost, axis=1)
    # hidden state at tau
    j_at = np.sum(hid_t[:, :jmax] <= tau[:, None], axis=1) - 1
    state_at_tau = hid_s[rows, j_at]
    reward += np.exp(-rho * tau) * model.mu[act, state_at_tau]

    mean = float(reward.mean())
    se = float(reward.std(ddof=1) / np.sqrt(P)) if P > 1 else 0.0
    qs = {q: float(np.quantile(tau, q)) for q in (0.1, 0.5, 0.9)}
    return EvalReport(
        mean=mean, se=se, n_paths=P, eps=float(eps),
        stop_time_mean=float(tau.mean()),
        stop_time_quantiles=qs,
        frac_at_horizon=float(np.mean(tau >= T * (1.0 - 1e-12))),
    )


# ---------------------------------------------------------------------------
# discrete-time oracles
# ---------------------------------------------------------------------------

def oracle_filter(model, path, dt, pi0=None):
    """First-order discrete-time Bayes recursion along a simulated path.

    Starts from the prior ``pi0``, or from a point mass at the path's first
    hidden state when it is None.  Returns (times, posteriors) on the
    uniform dt-grid; each arrival is bucketed into the step that contains it.
    """
    if model.lam_bar * dt >= 0.1:
        raise ValueError("oracle_filter: need lam_bar * dt < 0.1")
    if pi0 is None:
        pi = np.zeros(model.n)
        pi[path.hidden[0][1]] = 1.0
    else:
        pi = check_belief(pi0, model.n)
    steps = int(np.ceil(path.t_end / dt - 1e-12))
    Ppred = expm(dt * model.Q)
    surv = np.exp(-model.lam * dt)
    times = np.linspace(0.0, steps * dt, steps + 1)
    post = np.empty((steps + 1, model.n))
    post[0] = pi
    arr = list(path.arrivals)
    a = 0
    for k in range(1, steps + 1):
        pi = pi @ Ppred
        hi = times[k]
        updated = False
        while a < len(arr) and arr[a].time <= hi + 1e-15:
            dens = model.marks.density_at(arr[a].mark)
            pi = pi * (model.lam * dt * dens)
            a += 1
            updated = True
        if not updated:
            pi = pi * surv
        pi = pi / pi.sum()
        post[k] = pi
    return times, post


@dataclass
class OracleSurface:
    grid: object
    times: np.ndarray          # snapshot horizons, ascending
    values: np.ndarray         # (len(times), N)
    dt: float


def oracle_value(model, dt, grid=None, R=40, T=None, snapshot_times=None):
    """Discrete-time DP approximation of the value function.

    Backward induction value = max(H, cost + e^{-rho dt} E[next]) with the
    one-step belief kernel of oracle_filter (predict, then branch on
    no-arrival / arrival-with-mark).  Returns snapshots of the value for
    the requested horizons (all multiples of dt are available).
    """
    if model.n > 3:
        raise ValueError("oracle_value: n <= 3 only (resource cap)")
    if model.lam_bar * dt >= 0.05:
        raise ValueError("oracle_value: need lam_bar * dt < 0.05")
    if grid is None:
        grid = build_grid(model.n, R)
    T = model.horizon if T is None else T
    steps = int(round(T / dt))
    if snapshot_times is None:
        snapshot_times = np.array([T])
    snapshot_times = np.asarray(snapshot_times, dtype=float)
    snap_steps = np.rint(snapshot_times / dt).astype(int)

    nodes = grid.nodes
    pred = nodes @ expm(dt * model.Q)
    surv = np.exp(-model.lam * dt)
    w0 = pred * surv[None, :]
    p0 = w0.sum(axis=1)
    B0 = grid.interp_matrix(w0 / p0[:, None])
    marks = model.marks
    branches = []
    for r in range(marks.n_marks):
        wr = pred * ((1.0 - surv) * marks.weights[:, r])[None, :]
        pr = wr.sum(axis=1)
        ok = pr > 0
        post = np.where(ok[:, None], wr / np.where(pr[:, None] > 0,
                                                   pr[:, None], 1.0), nodes)
        branches.append((pr, grid.interp_matrix(post)))
    H = terminal_reward_nodes(model, nodes)
    if model.cost_mode == "running":
        step_cost = (nodes @ model.c) * dt
    else:
        step_cost = sum(pr * float(model.K[r])
                        for r, (pr, _) in enumerate(branches))
    disc = np.exp(-model.rho * dt)

    v = H.copy()
    snaps = {0: v.copy()} if 0 in snap_steps else {}
    for k in range(1, steps + 1):
        ev = p0 * (B0 @ v)
        for pr, Br in branches:
            ev = ev + pr * (Br @ v)
        v = np.maximum(H, step_cost + disc * ev)
        if k in snap_steps:
            snaps[k] = v.copy()
    times = np.array(sorted(snaps)) * dt
    values = np.stack([snaps[k] for k in sorted(snaps)])
    return OracleSurface(grid=grid, times=times, values=values, dt=dt)


# ---------------------------------------------------------------------------
# path export
# ---------------------------------------------------------------------------

def path_to_csv(path, arrivals_file, hidden_file):
    from .filter import events_to_csv
    events_to_csv(path.arrivals, arrivals_file)
    with open(hidden_file, "w") as fh:
        fh.write("time,state\n")
        for t, st in path.hidden:
            fh.write(f"{t:.17g},{st}\n")
