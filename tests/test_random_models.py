"""The solver's contract on seeded random models (tests/random_models.py)."""

import numpy as np
import pytest

from poistop import FiniteHorizonSolver, ValueSurface, build_grid
from poistop.model import terminal_reward

from random_models import R_FOR_N, random_model
from test_valueiter import assert_bitwise_equal


@pytest.mark.parametrize("seed", range(24))
def test_random_model_keeps_the_contract(tmp_path, seed):
    # at the default knot count: the march is the fixed point of the sweep
    # to 1e-12 of the value scale, nondecreasing in s and >= H, within
    # 10 tol of the certificate's value iteration, and surface.bin gives
    # back its bits
    model = random_model(seed)
    solver = FiniteHorizonSolver(model,
                                 grid=build_grid(model.n, R_FOR_N[model.n]))
    surf = solver.solve()
    v = surf.values
    scale = model.norm_H() + model.horizon * model.norm_C()
    assert np.max(np.abs(solver.sweep(v) - v)) <= 1e-12 * scale
    assert np.min(np.diff(v, axis=0)) >= -1e-12 * scale
    assert np.all(v >= terminal_reward(model, surf.grid.nodes)[0])
    assert surf.meta["march_gap"] <= 10.0 * solver.tol
    surf.save(tmp_path / "surface.bin")
    back = ValueSurface.load(tmp_path / "surface.bin", model)
    assert_bitwise_equal(back.knots, surf.knots)
    assert_bitwise_equal(back.values, v)
