"""The discrete-time dynamic program that the solver is checked against.

An independent reference for the tests, first order in its time step dt:
it shares with the solver only the lattice's interpolation, the one-step
matrix `filter.propagator` and the terminal reward.
"""

from dataclasses import dataclass

import numpy as np

from poistop.filter import propagator
from poistop.model import terminal_reward


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
    B0 = grid.interp_matrix(w0 / p0[:, None], np.ones(len(nodes)))
    marks = model.marks
    branches = []
    for r in range(marks.n_marks):
        wr = pred * ((1.0 - surv) * marks.weights[:, r])[None, :]
        pr = wr.sum(axis=1)
        ok = pr > 0
        post = np.where(ok[:, None], wr / np.where(pr[:, None] > 0,
                                                   pr[:, None], 1.0), nodes)
        branches.append((pr, grid.interp_matrix(post, np.ones(len(nodes)))))
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
