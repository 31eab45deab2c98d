"""Ground truth: path simulation, Monte Carlo policy evaluation, oracles.

Paths are simulated in batches, one event of a rate-(q_bar + lam_bar)
Poisson stream at a time for all of them, with q_bar = max_i |q_ii|.  An
event is, with probability q_bar / (q_bar + lam_bar), a step of the
uniformized hidden chain (kernel I + Q / q_bar; a self-loop leaves the
state as it is), and otherwise an arrival candidate, kept with probability
lambda_state / lam_bar (thinning), whose mark is drawn from the state's
law.  Each event reads one Philox4x64-10 block of four uniforms (gap,
event type, next state or acceptance, mark), and every draw is an
inverse-CDF transform of one of them.  Path i reads only the blocks of its
own key (seed, i), so it is the same whichever paths share its batch.
"""

from __future__ import annotations

import operator
from dataclasses import asdict, dataclass, replace
from math import ceil, sqrt

import numpy as np

from .filter import (ArrivalEvent, FlowPropagator, bayes_update,
                     events_to_csv, propagator)
from .model import check_belief, check_count, check_eps, terminal_reward
from .policy import _flow_stop, stop_rule
from .valueiter import NumericalError, _forked

RNG_ALGORITHM = "philox4x64"


@dataclass(frozen=True)
class PathSample:
    hidden: tuple          # ((time, state), ...) with hidden[0] = (0, M0)
    arrivals: tuple        # (ArrivalEvent, ...)
    t_end: float
    seed: int
    path_index: int = 0


# ---------------------------------------------------------------------------
# counter-based streams: Philox4x64-10 on uint64 arrays
# ---------------------------------------------------------------------------

_PHILOX_M = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
_LO32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)
_PHILOX_PIECE = 1 << 14


def _mulhilo(a, m):
    """High and low words of the 128-bit product a * m.  The high word is
    summed from the 32-bit halves, with no partial sum leaving 64 bits."""
    m0, m1 = m & _LO32, m >> _S32
    a0 = a & _LO32
    a1 = a >> _S32
    t = a0 * m0
    t >>= _S32
    t += a1 * m0          # a1 m0 + (a0 m0 >> 32) < 2**64
    w = t & _LO32
    t >>= _S32
    a0 *= m1
    w += a0               # (t mod 2**32) + a0 m1 < 2**64
    w >>= _S32
    a1 *= m1
    a1 += t
    a1 += w
    return a1, a * m


def philox_blocks(seed, keys, first, count):
    """Blocks first .. first + count - 1 of the Philox4x64-10 stream of
    every key (seed, k), k in keys: an array of shape (4, len(keys), count)
    of uint64 words.

    Block b of key (seed, k) is words 4b .. 4b + 3 of
    np.random.Philox(key=[seed, k]).random_raw(), i.e. counter b + 1.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    k1 = np.repeat(keys, count)
    c0 = np.tile(np.arange(first + 1, first + count + 1, dtype=np.uint64),
                 keys.size)
    out = np.empty((4, k1.size), dtype=np.uint64)
    # in pieces that stay in cache: each round makes a dozen temporaries
    for lo in range(0, k1.size, _PHILOX_PIECE):
        part = slice(lo, lo + _PHILOX_PIECE)
        out[:, part] = _philox(seed, k1[part], c0[part])
    return out.reshape(4, keys.size, count)


def _philox(seed, k1, c0):
    """The ten rounds on counters (c0, 0, 0, 0) under keys (seed, k1)."""
    k0 = np.full(1, np.uint64(seed))    # an array: uint64 wraps silently
    c1 = c2 = c3 = np.zeros_like(c0)
    for r in range(10):
        if r:
            k0 = k0 + _PHILOX_W[0]
            k1 = k1 + _PHILOX_W[1]
        hi0, lo0 = _mulhilo(c0, _PHILOX_M[0])
        hi1, lo1 = _mulhilo(c2, _PHILOX_M[1])
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return c0, c1, c2, c3


def _uniform(word):
    """Doubles in [0, 1) from the top 53 bits, as numpy's Generator.random
    makes them from the same words."""
    return (word >> np.uint64(11)).astype(float) * 2.0 ** -53


def _cdf(p):
    """Row-wise CDF of the weights p (clipped at 0), ending at exactly 1."""
    c = np.cumsum(np.maximum(p, 0.0), axis=-1)
    c /= c[..., -1:]
    c[..., -1] = 1.0
    return c


def _categorical(cdf, u):
    """Inverse-CDF draw for u in [0, 1): the first index whose CDF entry
    exceeds u, so an index of weight 0 is never drawn."""
    return np.sum(cdf <= u[..., None], axis=-1)


# ---------------------------------------------------------------------------
# path simulation
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PathBatch:
    """Paths of one seed as the rows of padded arrays.

    Row p is path ``path_indices[p]``.  ``hidden_t[p, j]`` is the time at
    which the hidden state becomes ``hidden_s[p, j]`` (``hidden_t[p, 0]``
    is 0); ``arrival_t[p, k]`` and ``arrival_y[p, k]`` are the time and
    mark of arrival k.  Past a path's last record the times are inf and
    the states and marks 0, and each time array ends in a column of inf.
    """

    hidden_t: np.ndarray       # (P, J + 1)
    hidden_s: np.ndarray       # (P, J)
    arrival_t: np.ndarray      # (P, K + 1)
    arrival_y: np.ndarray      # (P, K)
    t_end: float
    seed: int
    path_indices: np.ndarray   # (P,)

    def sample(self, row):
        """Row ``row`` as a PathSample."""
        nh = int(np.isfinite(self.hidden_t[row]).sum())
        na = int(np.isfinite(self.arrival_t[row]).sum())
        hidden = tuple((float(t), int(s)) for t, s in
                       zip(self.hidden_t[row, :nh], self.hidden_s[row, :nh]))
        arrivals = tuple(ArrivalEvent(float(t), float(y)) for t, y in
                         zip(self.arrival_t[row, :na],
                             self.arrival_y[row, :na]))
        return PathSample(hidden=hidden, arrivals=arrivals, t_end=self.t_end,
                          seed=self.seed,
                          path_index=int(self.path_indices[row]))

    def rows(self, sel):
        """The rows ``sel`` as a PathBatch."""
        return replace(self, hidden_t=self.hidden_t[sel],
                       hidden_s=self.hidden_s[sel],
                       arrival_t=self.arrival_t[sel],
                       arrival_y=self.arrival_y[sel],
                       path_indices=self.path_indices[sel])


def _pad(rows, times, values, P, fill):
    """Records (rows, times, values), in time order within each row, as
    (P, width + 1) times padded with inf and (P, width) values padded with
    ``fill``."""
    order = np.argsort(rows, kind="stable")
    rows = rows[order]
    counts = np.bincount(rows, minlength=P)
    pos = np.arange(rows.size) - (np.cumsum(counts) - counts)[rows]
    width = int(counts.max(initial=0))
    t_out = np.full((P, width + 1), np.inf)
    v_out = np.full((P, width), fill, dtype=values.dtype)
    t_out[rows, pos] = times[order]
    v_out[rows, pos] = values[order]
    return t_out, v_out


def _draw_marks(marks, states, u):
    """Inverse-CDF mark draws, one per (state, uniform) pair."""
    if marks.kind == "none":
        return np.zeros(states.size)
    if marks.kind == "discrete":
        return marks.support[_categorical(_cdf(marks.weights)[states], u)]
    from scipy import special
    return special.gammaincinv(marks.gamma_shape[states], u) \
        / marks.gamma_rate[states]


def simulate_paths(model, initial, t_end, seed, path_indices):
    """Hidden trajectories and modulated compound-Poisson arrivals of the
    paths ``path_indices`` of ``seed``, simulated together.

    ``initial`` is the belief the start state is drawn from (with the
    first word of block 0).  Events read blocks 1, 2, ... of the path's
    stream, a chunk of blocks at a time for every path still short of
    ``t_end``; event times are accumulated in path order, so a path's
    numbers do not depend on the chunking or on the other paths.
    Returns a PathBatch.
    """
    seed = operator.index(seed)
    if not 0 <= seed < 2 ** 64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    keys = np.asarray(path_indices)
    if keys.ndim != 1 or (keys.size and (keys.dtype.kind not in "iu"
                                         or keys.min() < 0)):
        raise ValueError("path_indices: expected a 1-D sequence of "
                         "integers in [0, 2**64)")
    keys = keys.astype(np.uint64)
    P, n = keys.size, model.n
    cdf0 = _cdf(check_belief(initial, n))
    state = _categorical(cdf0, _uniform(philox_blocks(seed, keys, 0, 1)
                                        [0][:, 0]))
    q_bar = float(np.max(-np.diag(model.Q)))
    rate = q_bar + model.lam_bar
    step_cdf = _cdf(np.eye(n) + model.Q / q_bar) if q_bar > 0 else None
    accept = model.lam / model.lam_bar

    hid = [(np.arange(P), np.zeros(P), state.copy())]
    arr = [(np.zeros(0, dtype=np.int64), np.zeros(0),
            np.zeros(0, dtype=np.int64), np.zeros(0))]
    t = np.zeros(P)
    live = np.arange(P)
    first = 1
    while live.size:
        # blocks for the expected events left plus one standard deviation
        left = rate * (t_end - t[live].min())
        chunk = int(left + np.sqrt(left)) + 1
        w = philox_blocks(seed, keys[live], first, chunk)
        gap = -np.log1p(-_uniform(w[0])) / rate
        times = np.cumsum(np.concatenate([t[live, None], gap], axis=1),
                          axis=1)[:, 1:]
        inside = times < t_end
        step = (_uniform(w[1]) * rate < q_bar) & inside
        u2 = _uniform(w[2])
        # hist[:, k]: the state after the first k columns with a chain step
        cols = np.flatnonzero(step.any(axis=0))
        hist = np.empty((live.size, cols.size + 1), dtype=np.int64)
        hist[:, 0] = s = state[live]
        for k, j in enumerate(cols, 1):
            s = np.where(step[:, j], _categorical(step_cdf[s], u2[:, j]), s)
            hist[:, k] = s
        j = np.arange(chunk)
        before = hist[:, np.searchsorted(cols, j, side="left")]
        after = hist[:, np.searchsorted(cols, j, side="right")]
        r, c = np.nonzero(after != before)
        hid.append((live[r], times[r, c], after[r, c]))
        kept = inside & ~step & (u2 < accept[before])
        r, c = np.nonzero(kept)
        arr.append((live[r], times[r, c], before[r, c],
                    _uniform(w[3][r, c])))
        t[live] = times[:, -1]
        state[live] = s
        live = live[inside[:, -1]]
        first += chunk

    h_rows, h_t, h_s = (np.concatenate(x) for x in zip(*hid))
    hid_t, hid_s = _pad(h_rows, h_t, h_s, P, 0)
    a_rows, a_t, a_s, a_u = (np.concatenate(x) for x in zip(*arr))
    arr_t, arr_y = _pad(a_rows, a_t, _draw_marks(model.marks, a_s, a_u), P,
                        0.0)
    return PathBatch(hidden_t=hid_t, hidden_s=hid_s, arrival_t=arr_t,
                     arrival_y=arr_y, t_end=float(t_end), seed=seed,
                     path_indices=keys)


def simulate_path(model, initial, t_end, seed, path_index=0):
    """One hidden trajectory from a start drawn from the belief initial plus
    its modulated compound-Poisson arrivals: simulate_paths for one path."""
    return simulate_paths(model, initial, t_end, seed, [path_index]).sample(0)


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
        return asdict(self)


def evaluate_policy(model, surface, eps, initial, n_paths, seed):
    """Monte Carlo value of the eps-stop rule driven by the given surface.

    Each path runs the exact filter.  Its stop is checked at t = 0, just
    after each arrival and at each solver time knot (an arrival on a knot
    first), and forced at the last knot, the horizon.  Until its first
    arrival a path follows the no-arrival flow, whose stop tau0 and action
    deterministic_stop_time's rule gives once per call; a path with no
    arrival at or before tau0 stops there, and the others are walked from
    arrival to arrival (_walk).  Where the flow's survival mass at tau0 is
    below 1/2 all paths are simulated to T at once, else all just past tau0
    and those with an arrival by then on to T.  Rewards use the simulated
    hidden state for the terminal payoff.

    This process runs paths 0 .. n_paths // 2 - 1 and a forked child the
    rest.  A path reads only its own stream and every step of the walk
    computes its row from that row alone, so the report is bitwise that of
    one process.
    """
    T, pi0 = surface.check_query(model, model.horizon, initial)
    n_paths = check_count(n_paths, "n_paths: the path count", 1)
    eps = check_eps(eps)
    task = (model, surface, eps, pi0, seed,
            *_flow_stop(model, surface, T, pi0, eps))
    half = n_paths // 2
    if half:
        with _forked(_run_paths, *task, half, n_paths) as join:
            first = _run_paths(*task, 0, half)
            try:
                rest = join()
            except ChildProcessError as exc:
                raise NumericalError(str(exc)) from exc
        reward, tau = (np.concatenate(x) for x in zip(first, rest))
    else:
        reward, tau = _run_paths(*task, 0, n_paths)

    mean = float(reward.mean())
    se = float(reward.std(ddof=1) / np.sqrt(n_paths)) if n_paths > 1 else 0.0
    qs = {q: float(np.quantile(tau, q)) for q in (0.1, 0.5, 0.9)}
    return EvalReport(
        mean=mean, se=se, n_paths=n_paths, eps=eps,
        stop_time_mean=float(tau.mean()),
        stop_time_quantiles=qs,
        frac_at_horizon=float(np.mean(tau >= T * (1.0 - 1e-12))),
    )


def _run_paths(model, surface, eps, pi0, seed, tau0, act0, mass0, lo, hi):
    """(reward, tau) of paths lo .. hi - 1 under the rule of
    evaluate_policy, the arrival-free trajectory stopping at (tau0, act0),
    where its survival mass is mass0."""
    T = model.horizon
    knots = surface.knots if surface.L else np.array([0.0, T])
    keys = np.arange(lo, hi)
    t_first = T if mass0 < 0.5 else min(np.nextafter(tau0, np.inf), T)
    paths = simulate_paths(model, pi0, t_first, seed, keys)
    tau = np.full(keys.size, tau0)
    reward = _rewards(model, paths, tau, np.full(keys.size, act0))
    early = paths.arrival_t[:, 0] <= tau0
    if early.any():
        rest = simulate_paths(model, pi0, T, seed, keys[early]) \
            if t_first < T else paths.rows(early)
        seen = rest.arrival_t[:, :-1] < np.inf
        dens = np.ones(rest.arrival_y.shape + (model.n,))
        dens[seen] = model.marks.density_at(rest.arrival_y[seen])
        # the knots before a path's first arrival did not stop it
        k = np.searchsorted(knots, rest.arrival_t[:, 0])
        tau[early], act = _walk(model, surface, eps, knots, pi0,
                                rest.arrival_t, dens, k)
        reward[early] = _rewards(model, rest, tau[early], act)
    return reward, tau


def _walk(model, surface, eps, knots, pi0, arr_t, dens, k):
    """(tau, action) of the first stop of each path, walked from arrival to
    arrival from the anchor (0, pi0), which has been checked.

    ``arr_t`` (P, K + 1) holds each path's arrival times padded with inf,
    ``dens`` (P, K, n) the per-state densities of their marks, and ``k``
    (P,) the index of each path's first knot left to check.  A pass flows
    each path's anchor (the belief just after its last arrival) directly to
    each of up to ceil(sqrt(len(knots))) knots before its next arrival and,
    once no knot is left before it, to that arrival too, Bayes-updated
    there: one advance, one value lookup and one stop check for all live
    paths, of which each keeps its first stop in time order.  An arrival on
    a knot is thus processed before the knot's check; the stop is forced at
    the last knot.
    """
    T = model.horizon
    last = len(knots) - 1
    width = ceil(sqrt(len(knots)))
    P = len(k)
    prop = FlowPropagator(model)
    x_a = np.tile(pi0, (P, 1))
    t_a = np.zeros(P)
    nxt = np.zeros(P, dtype=np.int64)        # each path's next arrival
    tau = np.empty(P)
    act = np.empty(P, dtype=np.int64)
    live = np.arange(P)
    while live.size:
        t_next = arr_t[live, nxt[live]]
        kl = k[live]
        before = np.searchsorted(knots, t_next) - kl
        w = np.minimum(before, width)
        jump = (before <= width) & (t_next < np.inf)
        size = w + jump
        start = np.cumsum(size) - size
        owner = np.repeat(np.arange(live.size), size)
        pos = np.arange(owner.size) - start[owner]
        at_knot = pos < w[owner]
        kr = np.where(at_knot, kl[owner] + pos, 0)
        t = np.where(at_knot, knots[kr], t_next[owner])
        p = live[owner]
        x = prop.advance(x_a[p], t - t_a[p])
        hit = np.flatnonzero(~at_knot)
        x[hit] = bayes_update(model, x[hit],
                              dens[p[hit], nxt[p[hit]]])[0]
        v = surface.value_at_batch(np.maximum(T - t, 0.0), x)
        stop, best, _ = stop_rule(model, v, x, eps)
        stop |= at_knot & (kr == last)
        first = np.minimum.reduceat(
            np.where(stop, np.arange(stop.size), stop.size), start)
        done = first < stop.size
        tau[live[done]] = t[first[done]]
        act[live[done]] = best[first[done]]
        # the others past their window, and to their next arrival if in it
        go = ~done
        on = go & jump
        moved = live[on]
        x_a[moved] = x[(start + size - 1)[on]]
        t_a[moved] = t_next[on]
        nxt[moved] += 1
        k[live[go]] += w[go]
        live = live[go]
    return tau, act


def _rewards(model, paths, tau, act):
    """Reward of each path of the PathBatch stopped at tau with action act,
    each summed in time order: records past tau add exact zeros, so a path
    simulated only a little past tau gets the same bits."""
    rho = model.rho
    P = len(tau)
    hid_t, hid_s = paths.hidden_t, paths.hidden_s
    arr_t, arr_y = paths.arrival_t[:, :-1], paths.arrival_y
    reward = np.zeros(P)
    if model.cost_mode == "running":
        for j in range(hid_s.shape[1]):
            a = np.minimum(hid_t[:, j], tau)
            b = np.minimum(hid_t[:, j + 1], tau)
            seg = np.maximum(b - a, 0.0)
            if rho > 0:
                seg = (np.exp(-rho * a) - np.exp(-rho * np.maximum(b, a))) \
                    / rho
            reward += model.c[hid_s[:, j]] * seg
    else:
        seen = arr_t < np.inf
        counted = arr_t <= tau[:, None]
        kcost = np.zeros(arr_y.shape)
        kcost[seen] = model.K[model.marks.mark_index(arr_y[seen])]
        disc = np.exp(-rho * np.where(seen, arr_t, 0.0))
        for term in (counted * disc * kcost).T:
            reward += term
    # hidden state at tau
    j_at = np.sum(hid_t[:, :-1] <= tau[:, None], axis=1) - 1
    reward += np.exp(-rho * tau) * model.mu[act, hid_s[np.arange(P), j_at]]
    return reward


# ---------------------------------------------------------------------------
# discrete-time oracles
# ---------------------------------------------------------------------------

@dataclass
class OracleSurface:
    grid: object
    times: np.ndarray          # snapshot horizons, ascending
    values: np.ndarray         # (len(times), N)
    dt: float


def oracle_value(model, dt, grid, T=None, snapshot_times=None):
    """Discrete-time DP approximation of the value function.

    Backward induction value = max(H, cost + e^{-rho dt} E[next]) with a
    first-order one-step belief kernel (predict with exp(dt Q), then branch
    on no arrival / an arrival with each mark).  Returns snapshots of the
    value for the requested horizons (all multiples of dt are available).
    """
    if model.n > 3:
        raise ValueError("oracle_value: n <= 3 only (resource cap)")
    if model.lam_bar * dt >= 0.05:
        raise ValueError("oracle_value: need lam_bar * dt < 0.05")
    T = model.horizon if T is None else T
    steps = int(round(T / dt))
    if snapshot_times is None:
        snapshot_times = np.array([T])
    snapshot_times = np.asarray(snapshot_times, dtype=float)
    snap_steps = np.rint(snapshot_times / dt).astype(int)

    nodes = grid.nodes
    pred = nodes @ propagator(model.Q, dt)
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
    H = terminal_reward(model, nodes)[0]
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
    events_to_csv(path.arrivals, arrivals_file)
    with open(hidden_file, "w") as fh:
        fh.write("time,state\n")
        for t, st in path.hidden:
            fh.write(f"{t:.17g},{st}\n")
