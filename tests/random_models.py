"""A seeded generator of small valid models for the contract tests.

random_model(seed) draws one model from np.random.default_rng(seed):

- n = 2 or 3 states, a generator Q and arrival rates lambda each with some
  zero entries (at least one lambda_i > 0);
- marks none, discrete (2 or 3 support points) or gamma (2 to 6 quadrature
  nodes);
- one or two actions, a running cost or a per-mark cost K
  (cost_mode="discrete"), rho = 0 or rho > 0, a horizon T in [0.3, 2];
- sense "max", or "min" stored sign-flipped as the presets store it
  (terminal losses and costs >= 0, negated).

R_FOR_N[n] is the lattice each model is solved on: at the default knot
count a solve takes milliseconds.
"""

import numpy as np

from poistop import make_model
from poistop.model import discrete_marks, gamma_marks, no_marks

R_FOR_N = {2: 30, 3: 12}


def random_model(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 4))
    Q = rng.uniform(0.0, 2.0, (n, n)) * (rng.random((n, n)) < 0.6)
    np.fill_diagonal(Q, 0.0)
    np.fill_diagonal(Q, -Q.sum(axis=1))
    lam = rng.uniform(0.2, 3.0, n) * (rng.random(n) < 0.7)
    lam[rng.integers(n)] = rng.uniform(0.5, 3.0)
    kind = str(rng.choice(["none", "discrete", "gamma"]))
    if kind == "none":
        marks = no_marks(n)
    elif kind == "discrete":
        k = int(rng.integers(2, 4))
        marks = discrete_marks(np.arange(1.0, k + 1.0),
                               rng.dirichlet(np.ones(k), n))
    else:
        marks = gamma_marks(rng.uniform(1.0, 5.0, n), rng.uniform(0.5, 2.0, n),
                            n_quad=int(rng.integers(2, 7)))
    n_actions = int(rng.integers(1, 3))
    sense = str(rng.choice(["max", "min"]))
    if sense == "max":
        mu = rng.normal(0.0, 1.0, (n_actions, n))
        c = rng.normal(-0.2, 0.5, n)
        K = rng.normal(-0.2, 0.5, marks.n_marks)
    else:
        mu = -rng.uniform(0.0, 2.0, (n_actions, n))
        c = -rng.uniform(0.0, 1.0, n)
        K = -rng.uniform(0.0, 1.0, marks.n_marks)
    discrete = rng.random() < 0.3
    rho = float(rng.uniform(0.05, 1.0)) if rng.random() < 0.5 else 0.0
    return make_model(
        n=n, Q=Q, lam=lam, marks=marks, c=c, rho=rho, mu=mu,
        horizon=float(rng.uniform(0.3, 2.0)),
        cost_mode="discrete" if discrete else "running",
        K=K if discrete else None, sense=sense)
