"""Value iteration: operators, surfaces, error bounds, infinite horizon."""

import dataclasses
import gc
import json
import mmap
import os
import signal
import struct
import sys
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import integrate, sparse
from scipy.linalg import expm

from poistop import (
    FiniteHorizonSolver,
    ValueSurface,
    apply_J,
    apply_J0,
    build_grid,
    deterministic_stop_time,
    err_infinity,
    extract_regions,
    horizon_error,
    load_preset,
    make_model,
    recommend,
    richardson_check,
    solve_finite,
    solve_infinite,
    uniform_error_bound,
)
from poistop import valueiter
from poistop.filter import filter_path, flow_path, propagator, step_powers
from poistop.model import discrete_marks, terminal_reward
from poistop.policy import CONTINUE
from poistop.presets import preset_names
from poistop.valueiter import NumericalError, default_knot_count
from test_grid import reference_barycentric


@pytest.fixture(scope="module")
def regime_surface():
    model, _ = load_preset("regime")
    grid = build_grid(2, 100)
    return model, solve_finite(model, grid=grid, L=200, tol=1e-6)


# -- knots and degenerate cases ---------------------------------------------

def test_default_knot_count():
    model, _ = load_preset("regime")  # lam_bar=5, T=2
    assert default_knot_count(model) == 200


def test_zero_horizon_surface_is_H():
    model, _ = load_preset("regime")
    m0 = dataclasses.replace(model, horizon=0.0)
    surf = solve_finite(m0, grid=build_grid(2, 20))
    H = terminal_reward(m0, surf.grid.nodes)[0]
    assert surf.values.shape == (1, surf.grid.n_nodes)
    assert np.array_equal(surf.values[0], H)


def test_zero_iterations_surface_is_H(monkeypatch):
    model, _ = load_preset("regime")
    monkeypatch.setattr(valueiter, "SWEEP_CAP", 0)
    surf = FiniteHorizonSolver(model, grid=build_grid(2, 20), L=40).iterate()
    H = terminal_reward(model, surf.grid.nodes)[0]
    assert np.array_equal(surf.values, np.tile(H, (41, 1)))


SOLVE_ENTRY_POINTS = {
    "FiniteHorizonSolver": lambda m, g, L, tol, path: FiniteHorizonSolver(
        m, grid=g, L=L, tol=tol),
    "solve_finite": lambda m, g, L, tol, path: solve_finite(
        m, grid=g, L=L, tol=tol),
    "solve_to_csv": lambda m, g, L, tol, path: valueiter.solve_to_csv(
        m, g, path, L=L, tol=tol).__enter__(),
    "richardson_check": lambda m, g, L, tol, path: richardson_check(
        m, grid=g, L=L),
}
BAD_SOLVE_INPUTS = [("grid", None, "grid: a lattice for n = 3 states"),
                    ("L", 2.7, "L: the knot count .* got 2.7"),
                    ("L", -3, "L: the knot count .* got -3"),
                    ("L", "4", "L: the knot count .* got '4'"),
                    ("L", 0, "L: the knot count .*>= 1, got 0"),
                    ("tol", np.nan, "tol: .* got nan"),
                    ("tol", -1.0, "tol: .* got -1.0"),
                    ("tol", 0.0, "tol: .*> 0, got 0.0"),
                    ("tol", np.inf, "tol: .* got inf")]


# richardson_check takes no tol
@pytest.mark.parametrize("entry, field, bad, message", [
    (entry, *bad) for entry in sorted(SOLVE_ENTRY_POINTS)
    for bad in BAD_SOLVE_INPUTS
    if not (entry == "richardson_check" and bad[0] == "tol")])
def test_solve_entry_points_refuse_bad_numbers(tmp_path, entry, field, bad,
                                               message):
    # numpy's matmul mismatch for a grid of another n, L = 2.7 truncated
    # to 2, L = -3 failing in linspace, and a NaN tol running every sweep
    # of the certificate, which then never converged nor checked the march
    model, _ = load_preset("regime")
    args = {"grid": build_grid(2, 4), "L": 4, "tol": 1e-4}
    args[field] = build_grid(3, 4) if field == "grid" else bad
    path = tmp_path / "surface.csv"
    with pytest.raises(ValueError, match=message):
        SOLVE_ENTRY_POINTS[entry](model, args["grid"], args["L"],
                                  args["tol"], path)
    assert not os.listdir(tmp_path)


def test_solve_entry_points_keep_zero_knots():
    # one knot, and no step, at T = 0 only (L = 0 at T > 0 is refused above)
    model = dataclasses.replace(load_preset("regime")[0], horizon=0.0)
    surf = solve_finite(model, grid=build_grid(2, 4), L=0)
    assert surf.L == 0
    assert np.array_equal(surf.values[0],
                          terminal_reward(model, surf.grid.nodes)[0])


@pytest.mark.parametrize("field, bad, message", [
    ("grid", None, "grid: a lattice for n = 3 states"),
    ("tol", np.nan, "tol: .*>= 0, got nan"),
    ("tol", -1.0, "tol: .* got -1.0"),
    ("tol", np.inf, "tol: .* got inf"),
    ("m_max", np.nan, "m_max: .* integer >= 1, got nan"),
    ("m_max", 0, "m_max: .* got 0"),
    ("m_max", -3, "m_max: .* got -3"),
    ("m_max", 2.5, "m_max: .* got 2.5")])
def test_solve_infinite_refuses_bad_numbers(field, bad, message):
    # at tol = NaN or -1 every one of the m_max iterations ran; m_max = NaN,
    # 0 or -3 returned H after no iteration and 2.5 ran 3
    model, _ = load_preset("regime")
    args = {"grid": build_grid(2, 4), "tol": 1e-4, "m_max": 500}
    args[field] = build_grid(3, 4) if field == "grid" else bad
    with pytest.raises(ValueError, match=message):
        solve_infinite(model, **args)


# -- surface invariants -----------------------------------------------------

def test_surface_slice_zero_is_H(regime_surface):
    model, surf = regime_surface
    assert np.array_equal(surf.values[0],
                          terminal_reward(model, surf.grid.nodes)[0])


def test_surface_monotone_in_s(regime_surface):
    model, surf = regime_surface
    assert np.min(np.diff(surf.values, axis=0)) >= -1e-9


def test_surface_dominates_H(regime_surface):
    model, surf = regime_surface
    H = terminal_reward(model, surf.grid.nodes)[0]
    assert np.min(surf.values - H[None, :]) >= -1e-9


def test_iterates_monotone_in_m():
    model, _ = load_preset("regime")
    solver = FiniteHorizonSolver(model, grid=build_grid(2, 40), L=60,
                                 tol=1e-4)
    v = np.tile(solver.ws.Hnodes, (solver.L + 1, 1))
    for _ in range(5):
        vnew = solver.sweep(v)
        assert np.min(vnew - v) >= -1e-9
        v = vnew


def test_surface_convex_in_pi(regime_surface):
    # second differences along the pi_2 axis stay nonnegative
    model, surf = regime_surface
    order = np.argsort(surf.grid.nodes[:, 1])
    for k in (0, surf.L // 2, surf.L):
        v = surf.values[k][order]
        d2 = v[2:] - 2.0 * v[1:-1] + v[:-2]
        assert d2.min() >= -1e-9


def test_dp_shift_identity(regime_surface):
    # the horizon-1 solve agrees with the lower half of the horizon-2
    # solve: remaining time is all that matters
    model, surf = regime_surface
    m1 = dataclasses.replace(model, horizon=1.0)
    s1 = solve_finite(m1, grid=surf.grid, L=100, tol=1e-6)
    assert np.max(np.abs(s1.values - surf.values[:101])) <= 1e-4


def test_value_at_batch_matches_scalar(regime_surface):
    model, surf = regime_surface
    rng = np.random.default_rng(2)
    pts = rng.dirichlet(np.ones(2), size=25)
    ss = rng.uniform(0.0, 2.0, size=25)
    batch = surf.value_at_batch(ss, pts)
    direct = np.array([surf.value_at(s, p) for s, p in zip(ss, pts)])
    assert np.allclose(batch, direct, atol=1e-12)
    # scalar horizon broadcasts
    batch1 = surf.value_at_batch(1.0, pts)
    direct1 = np.array([surf.value_at(1.0, p) for p in pts])
    assert np.allclose(batch1, direct1, atol=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -5.0, -2e-12,
                                 2.0 + 2e-12, 3.0])
def test_value_at_batch_refuses_what_check_time_refuses(regime_surface, bad):
    # every entry is checked: one bad horizon among good ones is refused; it
    # raised an IndexError at NaN and read V(0) at s = -5
    model, surf = regime_surface
    pts = np.array([[0.3, 0.7]] * 3)
    with pytest.raises(ValueError, match=f"^s: .*got {bad}"):
        surf.value_at_batch([0.5, bad, 1.0], pts)
    edge = surf.value_at_batch([-1e-12, 2.0 + 1e-12], pts[:2])
    assert np.array_equal(edge, surf.value_at_batch([0.0, 2.0], pts[:2]))


def test_pointwise_queries_read_the_surface_within_its_horizon(
        regime_surface):
    # s one slack below a knot: a knot read 1e-12 above s may put s - u an
    # ulp past -1e-12, which value_at_batch refuses; apply_J0 and the flow
    # stop read it as 0
    model, surf = regime_surface
    pi = [0.3, 0.7]
    for s in surf.knots[1:].tolist():
        for q in (s - 1e-12, s):
            apply_J0(model, surf, q, pi)
            deterministic_stop_time(model, surf, q, pi, 1e-3)


def test_surface_save_load_round_trip(tmp_path, regime_surface):
    model, surf = regime_surface
    path = tmp_path / "surface.bin"
    surf.save(path)
    back = ValueSurface.load(path, model)
    assert np.array_equal(back.values, surf.values)
    assert np.array_equal(back.knots, surf.knots)
    assert back.meta["iterations"] == surf.meta["iterations"]


def test_surface_save_and_load_copy_no_surface(tmp_path, regime_surface):
    # save writes the arrays' own buffers and load reads the values into
    # the array it returns: traced peaks of about 0 and 1 surfaces (a
    # whole-surface copy each way was 2 and 2)
    model, surf = regime_surface
    path = tmp_path / "surface.bin"
    surf.save(path)
    ValueSurface.load(path, model)        # the grid it builds is cached
    tracemalloc.start()
    try:
        surf.save(path)
        save = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        back = ValueSurface.load(path, model)
        load = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert_bitwise_equal(back.values, surf.values)
    assert save <= 0.25 * surf.values.nbytes
    assert load <= 1.5 * surf.values.nbytes


@pytest.mark.parametrize("part", ["header", "values", "metadata"])
def test_surface_load_truncated(tmp_path, regime_surface, part):
    model, surf = regime_surface
    path = tmp_path / "surface.bin"
    surf.save(path)
    blob = path.read_bytes()
    header = 8 + 32
    cut = {"header": 20,
           "values": header + 8 * len(surf.knots) + 8 * surf.values.size // 2,
           "metadata": len(blob) - 3}[part]
    path.write_bytes(blob[:cut])
    with pytest.raises(ValueError, match="surface.bin: truncated"):
        ValueSurface.load(path, model)


@pytest.mark.parametrize("field", ["n", "R up", "R down", "knot", "magic"])
def test_surface_load_refuses_a_header_that_does_not_fit(tmp_path,
                                                         regime_surface,
                                                         field):
    # the model hash still matches, so each field is checked against the
    # model itself: a wrong R would index past the values or read another
    # lattice from them
    model, surf = regime_surface
    path = tmp_path / "surface.bin"
    surf.save(path)
    blob = bytearray(path.read_bytes())
    at, word = {"n": (8, struct.pack("<q", 3)),
                "R up": (16, struct.pack("<q", surf.grid.R + 5)),
                "R down": (16, struct.pack("<q", surf.grid.R - 5)),
                "knot": (8 + 32 + 8, struct.pack(
                    "<d", np.nextafter(surf.knots[1], 1.0))),
                "magic": (0, b"PSTSURF2")}[field]
    blob[at: at + 8] = word
    path.write_bytes(bytes(blob))
    message = ("not a value-surface file" if field == "magic"
               else "corrupt value-surface header")
    with pytest.raises(ValueError, match=f"surface.bin: {message}"):
        ValueSurface.load(path, model)


def test_surface_load_refuses_other_model(tmp_path, regime_surface):
    model, surf = regime_surface
    path = tmp_path / "surface.bin"
    surf.save(path)
    other = dataclasses.replace(model, horizon=0.5)
    with pytest.raises(ValueError, match="surface.bin: surface was solved "
                                         "for another model"):
        ValueSurface.load(path, other)


def test_surface_load_refuses_missing_model_hash(tmp_path, regime_surface):
    model, surf = regime_surface
    path = tmp_path / "surface.bin"
    dataclasses.replace(surf, meta={}).save(path)
    blob = path.read_bytes()
    # the metadata block is the last thing in the file: length, then JSON
    head = len(blob) - 8 - len(json.dumps({"model_hash": "0" * 64}))
    (mlen,) = struct.unpack("<q", blob[head: head + 8])
    assert json.loads(blob[head + 8:]).keys() == {"model_hash"}
    assert mlen == len(blob) - head - 8
    path.write_bytes(blob[:head] + struct.pack("<q", 2) + b"{}")
    with pytest.raises(ValueError, match="model hash missing"):
        ValueSurface.load(path, model)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["one", "all"])
def test_surface_load_refuses_non_finite_values(tmp_path, regime_surface,
                                                bad, where):
    # the model hash still matches: a surface of NaN values sent every
    # Monte Carlo path to the horizon and made recommend say "continue"
    model, surf = regime_surface
    values = surf.values.copy()
    if where == "one":
        values[7, 3] = bad
    else:
        values[:] = bad
    path = tmp_path / "surface.bin"
    dataclasses.replace(surf, values=values).save(path)
    with pytest.raises(ValueError, match="surface.bin: corrupt "
                                         "value-surface file .*not finite"):
        ValueSurface.load(path, model)


def test_surface_csv_header(tmp_path, regime_surface):
    model, surf = regime_surface
    path = tmp_path / "surface.csv"
    surf.to_csv(path)
    with open(path) as fh:
        assert fh.readline().strip() == "s,pi1,pi2,value,H,best_action"
        first = fh.readline().split(",")
    assert len(first) == 6


# -- sweep and writers against their per-slice reference --------------------

def reference_sweep(solver, v):
    """Slow oracle for FiniteHorizonSolver.sweep: every integrand row
    phi_j against every slice is kept, and each target slice gathers its
    column and takes a cumulative trapezoid sum and a max over the wait.
    The jump term of row j is B_j (G0 v)."""
    ws, L = solver.ws, solver.L
    N = solver.grid.n_nodes
    dt = ws.dt
    F = (ws.G0 @ v.T).T
    phi = []
    for j in range(L + 1):
        W = ws.B[j] @ F[: L + 1 - j].T
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


def assert_bitwise_equal(a, b):
    # stricter than np.array_equal: -0.0 and 0.0 differ, as in the CSV
    assert a.shape == b.shape and a.dtype == b.dtype == np.float64
    assert np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("name, R, L", [
    ("regime", 30, None), ("regime", 30, 1), ("insurance", 6, None),
    ("reliability", 8, None), ("reliability2", 8, None),
    ("techadopt", 8, None), ("targeting", 8, None),
])
def test_sweep_bitwise_equals_reference(name, R, L):
    model, _ = load_preset(name)
    solver = FiniteHorizonSolver(model, grid=build_grid(model.n, R), L=L)
    v = np.tile(solver.ws.Hnodes, (solver.L + 1, 1))
    for _ in range(3):
        vnew = solver.sweep(v)
        assert_bitwise_equal(vnew, reference_sweep(solver, v))
        v = vnew


def test_sweep_zero_knots_is_H():
    # J0 of any v at s = 0 is H: no wait, so no integral
    model, _ = load_preset("regime")
    solver = FiniteHorizonSolver(dataclasses.replace(model, horizon=0.0),
                                 grid=build_grid(2, 20))
    assert solver.L == 0
    v = solver.ws.Hnodes[None, :] + 0.25
    out = solver.sweep(v)
    assert out is not v
    assert_bitwise_equal(out, solver.ws.Hnodes[None, :])
    assert_bitwise_equal(out, reference_sweep(solver, v))


def reference_surface_csv(surface, path):
    """The per-row writer: every field formatted at every knot."""
    H = terminal_reward(surface.model, surface.grid.nodes)[0]
    best = terminal_reward(surface.model, surface.grid.nodes)[1]
    cols = ",".join(f"pi{i + 1}" for i in range(surface.model.n))
    with open(path, "w") as fh:
        fh.write(f"s,{cols},value,H,best_action\n")
        for k, s in enumerate(surface.knots):
            for node, v, h, b in zip(surface.grid.nodes, surface.values[k],
                                     H, best):
                coords = ",".join(f"{p:.17g}" for p in node)
                fh.write(f"{s:.17g},{coords},{v:.17g},{h:.17g},{b}\n")


def reference_regions_csv(region, path):
    """The per-row writer: a row where a node's label is not the one it
    had at the knot before (every node at the first knot)."""
    grid = region.surface.grid
    cols = ",".join(f"pi{i + 1}" for i in range(grid.n))
    last = [None] * grid.n_nodes
    with open(path, "w") as fh:
        fh.write(f"s,{cols},label\n")
        for k, s in enumerate(region.surface.knots):
            for i, (node, lab) in enumerate(zip(grid.nodes,
                                                region.labels[k])):
                if lab == last[i]:
                    continue
                last[i] = lab
                coords = ",".join(f"{p:.17g}" for p in node)
                fh.write(f"{s:.17g},{coords},{int(lab)}\n")


@pytest.mark.parametrize("name, R", [("regime", 20), ("insurance", 6)])
def test_csv_writers_byte_equal_reference(tmp_path, name, R):
    model, _ = load_preset(name)
    surf = solve_finite(model, grid=build_grid(model.n, R), L=12, tol=1e-3)
    # signed zero, a subnormal-range magnitude, large and negative values
    surf.values[1, :5] = [-0.0, 1e-300, -1.2345678901234567e17, 1e20,
                          -0.1]
    # a -0.0 and a 0.0 value at a node whose H is +0.0: only the second
    # has H's bits, so only it may reuse H's text
    H = terminal_reward(model, surf.grid.nodes)[0]
    zero = int(np.flatnonzero(H.view(np.int64) == 0)[0])
    surf.values[2:4, zero] = [-0.0, 0.0]
    same = surf.values.view(np.int64) == H.view(np.int64)
    assert same[4:].any() and not same[2, zero] and same[3, zero]
    region = extract_regions(surf)
    surf.to_csv(tmp_path / "surface.csv")
    assert os.listdir(tmp_path) == ["surface.csv"]   # no temporary file
    reference_surface_csv(surf, tmp_path / "surface_ref.csv")
    region.to_csv(tmp_path / "regions.csv")
    reference_regions_csv(region, tmp_path / "regions_ref.csv")
    text = (tmp_path / "surface.csv").read_bytes()
    assert text == (tmp_path / "surface_ref.csv").read_bytes()
    for field in (b",-0,", b",1e-300,", b",1e+20,", b",-0.10000000000000001,"):
        assert field in text
    rows = text.splitlines()[1:]
    N = surf.grid.n_nodes
    assert rows[2 * N + zero].split(b",")[-3:-1] == [b"-0", b"0"]
    assert rows[3 * N + zero].split(b",")[-3:-1] == [b"0", b"0"]
    labels = (tmp_path / "regions.csv").read_bytes()
    assert labels == (tmp_path / "regions_ref.csv").read_bytes()
    assert (region.labels == CONTINUE).any() and b",-1\n" in labels


def edge_surface(kind):
    """Insurance surfaces at the edges of the writer's blocks: one knot (at
    T = 0), two knots, and every cell a stop cell (each knot one %.17g
    field)."""
    model, _ = load_preset("insurance")
    if kind == "L = 0":
        model = dataclasses.replace(model, horizon=0.0)
    grid = build_grid(3, 6)
    H = terminal_reward(model, grid.nodes)[0]
    L = {"L = 0": 0, "L = 1": 1, "all stop": 12}[kind]
    values = np.tile(H, (L + 1, 1))
    if kind != "all stop":
        values[-1] += np.linspace(0.0, 1.0, grid.n_nodes)
    return ValueSurface(model, grid, np.linspace(0.0, model.horizon, L + 1),
                        values)


def solve_as(surf, block=5):
    """A FiniteHorizonSolver.solve that writes surf's values into the
    march's v and reports them final as the march does: after each block
    of up to block slices from slice 0, ending at L + 1."""
    def solve(self, v, final):
        for a in range(0, self.L + 1, block):
            e = min(a + block, self.L + 1)
            v[a:e] = surf.values[a:e]
            final(e)
        return ValueSurface(self.model, self.grid, self.knots, v)
    return solve


def mapping_of(a):
    while isinstance(a, np.ndarray):
        a = a.base
    return a.obj if isinstance(a, memoryview) else a


@pytest.mark.parametrize("kind", ["L = 0", "L = 1", "all stop"])
def test_streamed_surface_csv_byte_equal_reference_at_the_edges(
        tmp_path, monkeypatch, deadline, kind):
    surf = edge_surface(kind)
    monkeypatch.setattr(FiniteHorizonSolver, "solve", solve_as(surf))
    out = tmp_path / "out"
    out.mkdir()
    with valueiter.solve_to_csv(surf.model, surf.grid, out / "streamed.csv",
                                L=surf.L) as streamed:
        assert not (out / "streamed.csv").exists()   # named once whole
    assert_no_child()
    # the surface keeps the shared mapping the writer read, not a copy
    assert isinstance(mapping_of(streamed.values), mmap.mmap)
    assert_bitwise_equal(streamed.values, surf.values)
    surf.to_csv(out / "surface.csv")
    assert sorted(os.listdir(out)) == ["streamed.csv", "surface.csv"]
    reference_surface_csv(surf, tmp_path / "surface_ref.csv")
    text = (out / "surface.csv").read_bytes()
    assert text == (tmp_path / "surface_ref.csv").read_bytes()
    assert (out / "streamed.csv").read_bytes() == text
    assert len(text.splitlines()) == 1 + (surf.L + 1) * surf.grid.n_nodes
    # "all stop": every knot after the first repeats the knot before
    assert len(repeated_knots(surf)) == (12 if kind == "all stop" else 0)


def repeated_knots(surf):
    """The knots whose values all have the bits of the knot before."""
    bits = surf.values.view(np.int64)
    return [k for k in range(1, surf.L + 1)
            if np.array_equal(bits[k], bits[k - 1])]


def test_surface_csv_of_a_stationary_surface_byte_equal_reference(
        tmp_path, deadline):
    # reliability's optimal wait is bounded, so its surface goes bitwise
    # stationary in s: knots 28 .. 40 repeat the knot before.  Blocks of
    # b = 9 end at 36, inside that run, so the streamed writer carries the
    # last knot's text across a count
    model, _ = load_preset("reliability")
    grid = build_grid(3, 20)
    path = tmp_path / "streamed.csv"
    with valueiter.solve_to_csv(model, grid, path, L=40) as surf:
        pass
    assert_no_child()
    assert repeated_knots(surf) == list(range(28, 41))
    assert FiniteHorizonSolver(model, grid=grid, L=40).ws.b == 9
    surf.to_csv(tmp_path / "surface.csv")
    reference_surface_csv(surf, tmp_path / "surface_ref.csv")
    text = (tmp_path / "surface_ref.csv").read_bytes()
    assert (tmp_path / "surface.csv").read_bytes() == text
    assert path.read_bytes() == text


def test_surface_csv_does_not_reuse_a_knot_that_differs_by_a_signed_zero(
        tmp_path):
    # knot 5 differs from knot 4 only by -0.0 against 0.0 at one node: its
    # rows are formatted afresh, and knot 6 repeats knot 5's "-0"
    surf = edge_surface("all stop")
    H = terminal_reward(surf.model, surf.grid.nodes)[0]
    zero = int(np.flatnonzero(H.view(np.int64) == 0)[0])
    surf.values[5:, zero] = -0.0
    assert repeated_knots(surf) == [1, 2, 3, 4] + list(range(6, 13))
    surf.to_csv(tmp_path / "surface.csv")
    reference_surface_csv(surf, tmp_path / "surface_ref.csv")
    text = (tmp_path / "surface.csv").read_bytes()
    assert text == (tmp_path / "surface_ref.csv").read_bytes()
    rows, N = text.splitlines()[1:], surf.grid.n_nodes
    for k, value in [(4, b"0"), (5, b"-0"), (6, b"-0")]:
        assert rows[k * N + zero].split(b",")[-3:-1] == [value, b"0"]


def test_surface_csv_reuse_keeps_each_rows_own_s(tmp_path):
    # s texts that are prefixes of one another, and of the coordinate
    # fields (0.5 is a node coordinate at R = 6): each reused knot has
    # every row start with its own s, and nowhere else changed
    surf = edge_surface("all stop")
    half = np.nextafter(0.5, 1.0)
    surf.knots = np.array([0.05, 0.5, half, 0.5, 0.05, 5.0, 0.50000000001,
                           half, 1.0, 0.0, 0.5, 0.05, 0.5])
    surf.values[:] = surf.values[0] + np.linspace(-1.0, 1.0, 28)
    assert f"{half:.17g}" == "0.50000000000000011"
    assert len(repeated_knots(surf)) == 12
    surf.to_csv(tmp_path / "surface.csv")
    reference_surface_csv(surf, tmp_path / "surface_ref.csv")
    text = (tmp_path / "surface.csv").read_bytes()
    assert text == (tmp_path / "surface_ref.csv").read_bytes()
    rows, N = text.splitlines()[1:], surf.grid.n_nodes
    assert any(b",0.5," in r for r in rows[:N])
    for k, s in enumerate(surf.knots):
        assert {r.split(b",")[0] for r in rows[k * N: (k + 1) * N]} \
            == {f"{s:.17g}".encode()}


def snapshotting(final, v, kept):
    """final(e) that first appends e and a copy of v's rows below e to
    kept."""
    def snap(e):
        kept.append((e, v[:e].copy()))
        final(e)
    return snap


@pytest.mark.parametrize("L", [0, 1, 2, 7, 12, 40, 121])
def test_march_reports_final_slices_once_per_block(L):
    # one count per block of ceil(sqrt(2 L)) slices from slice 0 (L = 7:
    # two full blocks of 4), ending at L + 1: a few 8-byte messages, far
    # below a pipe's buffer, and the last one the writer's sentinel.  Rows
    # of v at or above e are scratch until final(e), the rows below are
    # the surface's: a row reported final is never written again.  One
    # knot is a T = 0 problem
    model, _ = load_preset("regime")
    if L == 0:
        model = dataclasses.replace(model, horizon=0.0)
    solver = FiniteHorizonSolver(model, grid=build_grid(2, 8), L=L)
    v, kept = np.full((L + 1, 9), np.nan), []
    solver.march(v, snapshotting(lambda e: None, v, kept))
    counts = [e for e, _ in kept]
    b = max(1, int(np.ceil(np.sqrt(2 * L))))
    assert counts == [min(a + b, L + 1) for a in range(0, L + 1, b)]
    assert len(counts) <= 1 + np.sqrt(L)
    for e, rows in kept:
        assert_bitwise_equal(rows, v[:e])
    assert_bitwise_equal(v, FiniteHorizonSolver(
        model, grid=build_grid(2, 8), L=L).march()[0])


def test_solve_to_csv_frees_the_workspace_before_it_yields(tmp_path,
                                                           deadline):
    # the artifacts are written while the surface is yielded: no workspace
    # made by the solve is reachable then
    def workspaces():
        gc.collect()
        return [o for o in gc.get_objects()
                if isinstance(o, valueiter._Workspace)]

    model, _ = load_preset("reliability")
    before = workspaces()                 # left alive by earlier callers
    with valueiter.solve_to_csv(model, build_grid(3, 8),
                                tmp_path / "surface.csv", L=20) as surf:
        held = [ws for ws in workspaces()
                if all(ws is not old for old in before)]
        assert held == []
    assert surf.values.shape == (21, 45)


def test_slow_march_streams_the_same_bytes(tmp_path, monkeypatch, deadline):
    # each block is reported late, so the writer waits on the pipe, and
    # the shared mapping's rows below each count are the surface's already
    model, _ = load_preset("reliability")
    grid = build_grid(3, 8)
    march, kept = FiniteHorizonSolver.march, []

    def slow_march(self, v=None, final=lambda e: None):
        def late(e):
            time.sleep(0.05)
            final(e)
        return march(self, v, late if v is None
                     else snapshotting(late, v, kept))

    monkeypatch.setattr(FiniteHorizonSolver, "march", slow_march)
    path = tmp_path / "surface.csv"
    with valueiter.solve_to_csv(model, grid, path, L=40) as surf:
        pass
    assert_no_child()
    assert kept[-1][0] == 41
    for e, rows in kept:
        assert_bitwise_equal(rows, surf.values[:e])
    ref = solve_finite(model, grid=grid, L=40)
    assert_bitwise_equal(surf.values, ref.values)
    ref.to_csv(tmp_path / "in_memory.csv")
    reference_surface_csv(ref, tmp_path / "surface_ref.csv")
    text = path.read_bytes()
    assert text == (tmp_path / "in_memory.csv").read_bytes()
    assert text == (tmp_path / "surface_ref.csv").read_bytes()


def test_streamed_surface_csv_inline_as_off_linux(tmp_path, monkeypatch):
    # _forked's inline path: join runs the writer, which finds every count
    # already in the pipe
    model, _ = load_preset("techadopt")
    grid = build_grid(model.n, 6)
    monkeypatch.setattr(valueiter, "sys", SimpleNamespace(platform="darwin"))
    path = tmp_path / "surface.csv"
    with valueiter.solve_to_csv(model, grid, path, L=30) as surf:
        assert os.listdir(tmp_path) == []
    assert os.listdir(tmp_path) == ["surface.csv"]
    reference_surface_csv(surf, tmp_path / "surface_ref.csv")
    assert path.read_bytes() == (tmp_path / "surface_ref.csv").read_bytes()


def in_writer_child(monkeypatch, act):
    """ValueSurface.to_csv running act() in a forked child only, before
    each block that ready reports final is written."""
    parent, to_csv = os.getpid(), ValueSurface.to_csv

    def acting(ready):
        for e in ready:
            act()
            yield e

    def patched(self, path, ready=()):
        if os.getpid() != parent:
            ready = acting(ready)
        return to_csv(self, path, ready)

    monkeypatch.setattr(ValueSurface, "to_csv", patched)


@pytest.mark.skipif(sys.platform != "linux",
                    reason="off Linux the CSV is written inline")
def test_surface_csv_writer_child_error_reaches_the_caller(tmp_path,
                                                           monkeypatch,
                                                           deadline):
    # to_csv fails only in the forked writer: its exception is raised when
    # the with-block ends, the child reaped and the .part file removed
    def no_space():
        raise OSError(28, "No space left on device")

    in_writer_child(monkeypatch, no_space)
    surf = edge_surface("all stop")
    monkeypatch.setattr(FiniteHorizonSolver, "solve", solve_as(surf))
    with pytest.raises(OSError, match="No space left on device"):
        with valueiter.solve_to_csv(surf.model, surf.grid,
                                    tmp_path / "surface.csv", L=surf.L):
            pass
    assert os.listdir(tmp_path) == []
    assert_no_child()


# -- jump operators against the sparse-product assembly ----------------------

def reference_flow(solver):
    """Survival weights M of every node at every knot, one product of the
    nodes with each power of the one-step matrix, their sums sv and the
    flowed beliefs X.  The powers are filter.step_powers' of
    filter.propagator's step, which test_filter checks against expm: this
    checks the assembly of the B_j."""
    model, grid = solver.model, solver.grid
    P = propagator(model.flow_generator(), solver.ws.dt)
    M = np.array([grid.nodes @ Pj for Pj in step_powers(P, solver.L)])
    sv = M.sum(axis=2)
    X = M / np.where(sv[:, :, None] > 0, sv[:, :, None], 1.0)
    sv[0], X[0] = 1.0, grid.nodes      # a flow of zero length: the nodes
    return M, sv, X


def reference_G(solver):
    """The exact per-knot jump operators G_j as a sparse product: an
    (N * Rm, N) interpolation matrix from the reference lookup, scaled by
    the integrand weights and folded over the marks by an (N, N * Rm) sum.
    G_0 is the workspace's G0; the workspace factors G_j as B_j G0."""
    model, grid = solver.model, solver.grid
    n, N = model.n, grid.n_nodes
    marks = model.marks
    Rm = marks.n_marks
    M, sv, X = reference_flow(solver)
    lam_w = model.lam[:, None] * marks.weights
    lam_d = model.lam[:, None] * marks.weights
    fold = sparse.csr_matrix(
        (np.ones(N * Rm), (np.repeat(np.arange(N), Rm), np.arange(N * Rm))),
        shape=(N, N * Rm))
    out = []
    for j in range(solver.L + 1):
        Z = (X[j][:, None, :] * lam_d.T[None, :, :]).reshape(N * Rm, n)
        zs = Z.sum(axis=1, keepdims=True)
        dead = zs[:, 0] <= 0.0
        if dead.any():
            Z[dead] = np.repeat(X[j], Rm, axis=0)[dead]
            zs = Z.sum(axis=1, keepdims=True)
        Z /= zs
        idx, w = reference_barycentric(grid, Z)
        B = sparse.csr_matrix(
            (w.ravel(), (np.repeat(np.arange(N * Rm), n), idx.ravel())),
            shape=(N * Rm, N))
        omega = (M[j] @ lam_w).ravel()
        omega[dead] = 0.0
        G = (fold @ B.multiply(omega[:, None])).tocsr()
        G.sum_duplicates()
        out.append(G)
    return out


def reference_B(solver):
    """The per-knot flow interpolation B_j: the reference lookup at the
    flowed beliefs X_j, row i scaled by the survival mass sv_j(i)."""
    grid = solver.grid
    n, N = grid.n, grid.n_nodes
    _, sv, X = reference_flow(solver)
    out = []
    for j in range(solver.L + 1):
        idx, w = reference_barycentric(grid, X[j])
        B = sparse.csr_matrix(
            ((w * sv[j][:, None]).ravel(),
             (np.repeat(np.arange(N), n), idx.ravel())), shape=(N, N))
        B.eliminate_zeros()
        out.append(B)
    return out


def assert_csr_matches(A, ref):
    assert A.has_canonical_format
    assert np.array_equal(A.indptr, ref.indptr)
    assert np.array_equal(A.indices, ref.indices)
    scale = np.max(np.abs(ref.data), initial=0.0)
    assert np.max(np.abs(A.data - ref.data), initial=0.0) <= 1e-15 * scale
    # compact: the buffers own nnz entries, no pruned assembly tail
    for a in (A.data, A.indices):
        assert (a if a.base is None else a.base).size == A.nnz


@pytest.mark.parametrize("name, R", [
    ("regime", 20), ("insurance", 6), ("insurance", 20), ("reliability", 8),
    ("reliability2", 6), ("techadopt", 8), ("targeting", 6),
])
def test_jump_operators_match_reference(name, R):
    model, _ = load_preset(name)
    solver = FiniteHorizonSolver(model, grid=build_grid(model.n, R))
    ws = solver.ws
    assert_csr_matches(ws.G0, reference_G(solver)[0])
    ref = reference_B(solver)
    assert len(ref) == len(ws.B) == solver.L + 1
    for B, Br in zip(ws.B, ref):
        assert_csr_matches(B, Br)


def test_jump_operator_drops_an_impossible_mark():
    # mark 2 never comes from state 0: at the corner (1, 0) its Bayes
    # update is dead, and its rate in G0 must be 0, not the kept belief's
    model = make_model(n=2, Q=[[-1.0, 1.0], [1.0, -1.0]], lam=[1.0, 2.0],
                       marks=discrete_marks([1.0, 2.0],
                                            [[1.0, 0.0], [0.5, 0.5]]),
                       mu=[[1.0, 0.0]], horizon=1.0)
    solver = FiniteHorizonSolver(model, grid=build_grid(2, 4))
    G0 = solver.ws.G0
    assert_csr_matches(G0, reference_G(solver)[0])
    corner = int(np.flatnonzero(solver.grid.nodes[:, 0] == 1.0)[0])
    row = G0.getrow(corner)
    assert row.indices.tolist() == [corner] and row.data.tolist() == [1.0]


@pytest.mark.parametrize("name, R", [("insurance", 10), ("techadopt", 10)])
def test_surface_with_reference_jump_operators(name, R):
    model, _ = load_preset(name)
    solver = FiniteHorizonSolver(model, grid=build_grid(model.n, R), tol=1e-6)
    surf = solver.iterate()
    solver.ws.G0 = reference_G(solver)[0]
    solver.ws.B = reference_B(solver)
    ref = solver.iterate()
    assert surf.meta["iterations"] == ref.meta["iterations"]
    assert np.max(np.abs(surf.values - ref.values)) <= 1e-13


@pytest.mark.parametrize("name, R", [
    ("regime", 20), ("reliability", 8), ("techadopt", 8), ("insurance", 6),
])
def test_factorized_jump_is_exact_for_linear_values(name, R):
    # for v linear in pi, F = G0 v is linear too (the rate of mark r
    # cancels the normalization of its Bayes update), and interpolation is
    # exact for linear functions: B_j G0 v is the exact G_j v
    model, _ = load_preset(name)
    solver = FiniteHorizonSolver(model, grid=build_grid(model.n, R))
    v = solver.grid.nodes @ np.linspace(-1.0, 2.0, model.n)
    F = solver.ws.G0 @ v
    for B, G in zip(solver.ws.B, reference_G(solver)):
        assert np.max(np.abs(B @ F - G @ v)) <= 1e-13


@pytest.mark.parametrize("name, R, bound", [
    ("insurance", 20, 3e-3),
    ("techadopt", 10, 3e-2),
])
def test_factorized_surface_against_exact_assembly(name, R, bound):
    # the factorization interpolates F instead of the post-jump values:
    # a change of the lattice's own interpolation order, bounded here
    # against value iteration on the exact per-knot operators G_j (run as
    # B_j = G_j after an identity G0)
    model, _ = load_preset(name)
    solver = FiniteHorizonSolver(model, grid=build_grid(model.n, R),
                                 tol=1e-10)
    fact = solver.iterate()
    solver.ws.G0 = sparse.identity(solver.grid.n_nodes, format="csr")
    solver.ws.B = reference_G(solver)
    exact = solver.iterate()
    assert fact.meta["converged"] and exact.meta["converged"]
    change = np.max(np.abs(fact.values - exact.values))
    assert 0.0 < change <= bound


# -- the march against value iteration ---------------------------------------

@pytest.mark.parametrize("name, R, L", [
    ("regime", 30, None), ("regime", 30, 1), ("insurance", 6, None),
    ("reliability", 8, None), ("reliability2", 8, None),
    ("techadopt", 8, None), ("targeting", 8, None),
])
def test_march_is_the_fixed_point(name, R, L):
    model, _ = load_preset(name)
    solver = FiniteHorizonSolver(model, grid=build_grid(model.n, R), L=L,
                                 tol=1e-11)
    v, steps = solver.march()
    assert_bitwise_equal(v[0], solver.ws.Hnodes)
    assert np.max(np.abs(solver.sweep(v) - v)) <= 1e-13
    assert steps[0] == 0 and np.all(steps[1:] >= 1)
    # above every iterate, and the limit of value iteration
    tight = solver.iterate().values
    assert np.min(v - tight) >= -1e-12
    assert np.max(np.abs(v - tight)) <= 1e-10
    solver.tol = 1e-4
    assert np.min(v - solver.iterate().values) >= -1e-12


@pytest.mark.parametrize("name, T, L", [("reliability", 12.5, 1000),
                                        ("insurance", 8.0, 800)])
def test_march_is_the_fixed_point_at_many_knots(name, T, L):
    # at the default knot counts: each target's one row takes up to L
    # in-place updates C' = h + max(C + h, Aterm_j), and their rounding
    # stays within the bound of the short marches (7.8e-16 and 2.2e-15)
    model, _ = load_preset(name)
    solver = FiniteHorizonSolver(dataclasses.replace(model, horizon=T),
                                 grid=build_grid(model.n, 10))
    assert solver.L == L
    v, _ = solver.march()
    assert np.max(np.abs(solver.sweep(v) - v)) <= 1e-13


def test_march_zero_knots_is_H():
    model, _ = load_preset("regime")
    solver = FiniteHorizonSolver(dataclasses.replace(model, horizon=0.0),
                                 grid=build_grid(2, 20))
    v, _ = solver.march()
    assert v.shape == (1, solver.grid.n_nodes)
    assert_bitwise_equal(v[0], solver.ws.Hnodes)
    assert_bitwise_equal(solver.sweep(v), v)


def test_march_picard_cap_names_the_knot_count():
    # insurance: T lam_bar = 4, so dt lam_bar / 2 = 2 at L = 1 and the
    # self-term iteration of slice 1 diverges
    model, _ = load_preset("insurance")
    solver = FiniteHorizonSolver(model, grid=build_grid(3, 6), L=1)
    with pytest.raises(NumericalError, match=r"= 2 with L = 1 .* L = 3"):
        solver.march()
    v, _ = FiniteHorizonSolver(model, grid=build_grid(3, 6), L=3).march()
    assert np.isfinite(v).all()


def test_solve_reports_the_certificate_run():
    model, _ = load_preset("reliability")
    surf = FiniteHorizonSolver(model, grid=build_grid(3, 20), L=80,
                               tol=1e-4).solve()
    cert = FiniteHorizonSolver(model, grid=build_grid(3, 16), L=60,
                               tol=1e-4)
    ref = cert.iterate()
    for key in ("iterations", "deltas", "uniform_error_bound"):
        assert surf.meta[key] == ref.meta[key]
    assert surf.meta["uniform_error_bound"] == \
        uniform_error_bound(model, ref.meta["iterations"])
    assert surf.meta["converged"]
    assert surf.meta["picard_max"] >= 1
    coarse = cert.march()[0]
    assert surf.meta["march_gap"] == np.max(np.abs(coarse - ref.values))
    assert 0.0 < surf.meta["march_gap"] <= 1e-3
    assert surf.meta["certificate_converged"]
    # the Richardson check reuses the certificate problem's march
    assert surf.meta["richardson_delta"] == \
        richardson_check(model, grid=build_grid(3, 16), L=60)
    assert surf.meta["richardson_delta"] == \
        richardson_check(model, grid=build_grid(3, 16), L=60, coarse=coarse)


def test_solve_long_horizon_certificate_keeps_self_term_small():
    # T lam_bar = 120: at 60 knots the certificate's self-term modulus
    # dt lam_bar / 2 would be 1 and its march would not settle
    model, _ = load_preset("insurance")
    model = dataclasses.replace(model, horizon=24.0)
    solver = FiniteHorizonSolver(model, grid=build_grid(3, 4), L=300)
    cert = solver._certificate()
    assert cert.L == 240 and cert.grid is solver.grid
    surf = solver.solve()
    assert np.isfinite(surf.values).all()
    assert surf.meta["converged"] and surf.meta["certificate_converged"]
    assert surf.meta["march_gap"] <= 10.0 * solver.tol
    assert np.isfinite(surf.meta["uniform_error_bound"])
    assert np.isfinite(surf.meta["richardson_delta"])
    # a caller's coarser time grid is certified as it is
    assert FiniteHorizonSolver(model, grid=build_grid(3, 4),
                               L=100)._certificate().L == 100


def test_solve_unconverged_certificate_is_reported_and_checked(monkeypatch):
    # value iteration stops at SWEEP_CAP: its flag is reported on its own, and
    # the march is still checked to lie above the last iterate
    model, _ = load_preset("reliability")
    monkeypatch.setattr(valueiter, "SWEEP_CAP", 3)
    solver = FiniteHorizonSolver(model, grid=build_grid(3, 8), L=40)
    surf = solver.solve()
    ref = solver.iterate()
    assert not ref.meta["converged"] and ref.meta["iterations"] == 3
    assert surf.meta["converged"] and not surf.meta["certificate_converged"]
    assert surf.meta["iterations"] == 3
    assert surf.meta["uniform_error_bound"] == uniform_error_bound(model, 3)
    assert surf.meta["march_gap"] > 10.0 * solver.tol
    march = FiniteHorizonSolver.march
    monkeypatch.setattr(FiniteHorizonSolver, "march",
                        lambda self, *args: (lambda v, k: (v - 1e-2, k))(
                            *march(self, *args)))
    with pytest.raises(NumericalError, match="certificate problem"):
        solver.solve()


def test_iterate_refuses_a_step_that_falls():
    # the iterates rise from H: a step falling by over 10 tol is a bug
    with pytest.raises(NumericalError, match=r"lost monotonicity \(min step "
                                             r"-0.002\)"):
        valueiter._iterate(lambda v: v - 2e-3, np.zeros(4), 1e-4, 10, 1.0)


@pytest.mark.parametrize("L, step", [(1, 9), (2, 34)])
def test_iterate_refuses_a_diverging_iteration(L, step):
    # one or two knots on insurance: the sweeps left the value scale
    # ||H|| + T ||C|| and reached 4.1e58 after SWEEP_CAP sweeps at L = 1
    model, _ = load_preset("insurance")
    solver = FiniteHorizonSolver(model, grid=build_grid(3, 6), L=L)
    with pytest.raises(NumericalError, match=f"diverged: step {step} .*"
                       "twice the value scale 6.24"):
        solver.iterate()


# -- the certificate in a forked child ---------------------------------------

forked = pytest.mark.skipif(sys.platform != "linux",
                            reason="off Linux the certificate runs inline")


@pytest.fixture
def deadline():
    """Fails a test still running after 120 s (a join that hangs)."""
    def expire(signum, frame):
        raise TimeoutError("solve did not return within 120 s")
    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(120)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, old)


def assert_no_child():
    # no child process at all, running or left unreaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@forked
@pytest.mark.parametrize("name, R, L, is_main", [
    ("insurance", 20, None, False), ("regime", 16, 40, True)])
def test_forked_certificate_equals_inline(monkeypatch, deadline, name, R, L,
                                          is_main):
    model, _ = load_preset(name)
    solver = FiniteHorizonSolver(model, grid=build_grid(model.n, R), L=L)
    # the child builds and marches its own solver in either case
    cert = solver._certificate()
    assert cert is not solver
    assert (cert.grid is solver.grid and cert.L == solver.L) == is_main
    surf = solver.solve()
    assert_no_child()
    # the helper's own inline path, as off Linux
    monkeypatch.setattr(valueiter, "sys", SimpleNamespace(platform="darwin"))
    ref = solver.solve()
    assert_no_child()
    assert_bitwise_equal(surf.values, ref.values)
    assert list(surf.meta.items()) == list(ref.meta.items())


@forked
def test_failed_march_kills_and_reaps_the_certificate_child(monkeypatch,
                                                            deadline):
    model, _ = load_preset("reliability")
    solver = FiniteHorizonSolver(model, grid=build_grid(3, 20), L=80)
    parent, march = os.getpid(), FiniteHorizonSolver.march

    def march_here_fails(self, *args):
        if os.getpid() == parent:
            raise FloatingPointError("the main march failed")
        return march(self, *args)

    monkeypatch.setattr(FiniteHorizonSolver, "march", march_here_fails)
    with pytest.raises(FloatingPointError, match="main march"):
        solver.solve()
    assert_no_child()


def certificate_raises(self):
    raise NumericalError("value iteration failed in the child")


@forked
@pytest.mark.parametrize("iterate, message", [
    (certificate_raises, "value iteration failed in the child"),
    (lambda self: os._exit(3), "exit status 3 and sent no result")])
def test_failed_certificate_reaches_the_caller(monkeypatch, deadline,
                                               iterate, message):
    # iterate runs only in the child: its exception is sent back; a child
    # that leaves without a result is named by its exit status
    model, _ = load_preset("reliability")
    solver = FiniteHorizonSolver(model, grid=build_grid(3, 20), L=80)
    monkeypatch.setattr(FiniteHorizonSolver, "iterate", iterate)
    with pytest.raises(NumericalError, match=message):
        solver.solve()
    assert_no_child()


@forked
def test_forked_child_keeps_the_parents_mask(deadline):
    # the kernel places the child: its mask is the parent's, the parent's
    # CPU included (a mask of two or more CPUs shows it), and the parent's
    # is unchanged
    mask = os.sched_getaffinity(0)
    with valueiter._forked(os.sched_getaffinity, 0) as join:
        assert join() == mask
    assert os.sched_getaffinity(0) == mask
    assert_no_child()


@forked
def test_forked_child_keeps_a_one_cpu_mask(deadline):
    mask = os.sched_getaffinity(0)
    cpu = min(mask)
    try:
        os.sched_setaffinity(0, {cpu})
        with valueiter._forked(os.sched_getaffinity, 0) as join:
            assert join() == {cpu}
        assert os.sched_getaffinity(0) == {cpu}
    finally:
        os.sched_setaffinity(0, mask)
    assert_no_child()


# -- pointwise J and J0 -----------------------------------------------------

def test_apply_J_zero_time_is_H(regime_surface):
    model, surf = regime_surface
    pi = np.array([0.4, 0.6])
    assert apply_J(model, surf, 0.0, 1.0, pi) == pytest.approx(
        max(-2 * 0.6, -2 * 0.4), abs=1e-12)


def test_apply_J_martingale_collapse():
    # w = H, rho = 0, c = 0, absorbing chain, common rate, common marks:
    # the flow is constant, jumps are the identity, costs vanish, so
    # Jw(t, s, pi) = e^{-lam t} H + (1 - e^{-lam t}) H = H for every t
    m = make_model(n=2, Q=[[0.0, 0.0], [0.0, 0.0]], lam=[3.0, 3.0],
                   mu=[[1.0, -1.0]], horizon=1.0)
    grid = build_grid(2, 40)
    H = terminal_reward(m, grid.nodes)[0]
    # many time knots so the only residual is the (tiny) trapezoid error
    surf = ValueSurface(model=m, grid=grid,
                        knots=np.linspace(0.0, 1.0, 801),
                        values=np.tile(H, (801, 1)), meta={})
    pi = np.array([0.3, 0.7])
    h = 0.3 * 1.0 + 0.7 * (-1.0)
    for t in (0.1, 0.5, 1.0):
        assert apply_J(m, surf, t, 1.0, pi) == pytest.approx(h, abs=1e-6)


def test_apply_J0_zero_horizon(regime_surface):
    model, surf = regime_surface
    v, t = apply_J0(model, surf, 0.0, [0.5, 0.5])
    assert (v, t) == (pytest.approx(-1.0, abs=1e-12), 0.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("s", [np.nan, np.inf, -np.inf, 1e300, -0.5, 2.5])
def test_pointwise_operators_refuse_a_bad_time_to_maturity(regime_surface,
                                                           s):
    # NaN was an IndexError after a cast warning, inf an OverflowError and
    # 1e300 a flow path of round(s / dt) steps; s outside [0, T = 2] was
    # clamped, or read as t = 0
    model, surf = regime_surface
    pi = [0.5, 0.5]
    for call in (lambda: surf.value_at(s, pi),
                 lambda: apply_J0(model, surf, s, pi),
                 lambda: apply_J(model, surf, 0.0, s, pi),
                 lambda: apply_J(model, surf, s, model.horizon, pi)):
        with pytest.raises(ValueError, match="time to maturity"):
            call()


def test_apply_J_refuses_a_wait_past_the_time_to_maturity(regime_surface):
    model, surf = regime_surface
    with pytest.raises(ValueError, match=r"need t <= s, got t=1.5, s=1.0"):
        apply_J(model, surf, 1.5, 1.0, [0.5, 0.5])


def test_pointwise_calls_refuse_a_surface_of_another_model():
    # insurance with rho raised by 0.5 once read the insurance surface
    # silently: apply_J0 returned 0.985 against 1.058 under its own model
    model, _ = load_preset("insurance")
    surf = solve_finite(model, grid=build_grid(3, 4), L=10)
    other = dataclasses.replace(model, rho=model.rho + 0.5)
    pi = (0.2, 0.5, 0.3)
    for call in (lambda m: apply_J0(m, surf, 0.5, pi),
                 lambda m: apply_J(m, surf, 0.25, 0.5, pi),
                 lambda m: recommend(m, surf, 0.5, pi, 1e-3,
                                     compute_wait=True),
                 lambda m: deterministic_stop_time(m, surf, 0.5, pi, 1e-3)):
        with pytest.raises(ValueError, match="solved for another model"):
            call(other)
        # an equal copy is the same model
        assert call(dataclasses.replace(model)) == call(model)


def test_apply_J0_decreasing_integrand_stops_at_zero():
    # flat reward, pure cost: waiting only burns money, so the sup sits at
    # t = 0 with value H
    m = make_model(n=2, Q=[[0.0, 0.0], [0.0, 0.0]], lam=[2.0, 2.0],
                   c=[-1.0, -1.0], mu=[[1.0, 1.0]], horizon=1.0)
    grid = build_grid(2, 20)
    surf = solve_finite(m, grid=grid, L=20, tol=1e-6)
    v, t = apply_J0(m, surf, 1.0, [0.5, 0.5])
    assert t == 0.0
    assert v == pytest.approx(1.0, abs=1e-9)


def test_apply_J0_dominates_apply_J(regime_surface):
    model, surf = regime_surface
    pi = np.array([0.45, 0.55])
    s = 1.0
    v0, _ = apply_J0(model, surf, s, pi)
    for t in (0.0, 0.25, 0.5, 1.0):
        assert v0 >= apply_J(model, surf, t, s, pi) - 1e-12


# -- survival mass that underflows to 0 --------------------------------------

def underflow_model():
    # exp(-800 t) underflows past t = 0.93, well inside the horizon
    return make_model(n=2, Q=[[-1.0, 1.0], [1.0, -1.0]], lam=[800.0, 1000.0],
                      c=[0.5, -0.5], mu=[[1.0, 0.0], [0.0, 1.0]], horizon=1.0)


def test_workspace_with_underflowing_survival_mass():
    # the workspace only: a full solve at L = 600 is unstable
    # (dt lam_bar = 1.67); the default L for this model is 20,000
    model = underflow_model()
    solver = FiniteHorizonSolver(model, grid=build_grid(2, 4), L=600)
    ws = solver.ws
    assert np.any(flow_path(model, solver.grid.nodes, ws.dt, 600)[2] == 0.0)
    assert np.all(np.isfinite(ws.Aterm))
    assert np.all(np.isfinite(ws.G0.data))
    assert all(np.all(np.isfinite(B.data)) for B in ws.B)
    assert ws.B[-1].nnz == 0


@pytest.mark.parametrize("name", preset_names())
def test_workspace_row_at_zero_is_the_lattice(name):
    # the flow of zero length is the node itself: survival mass 1, the stop
    # floor Aterm[0] is H at the nodes bit for bit, and B_0 is the identity
    model, _ = load_preset(name)
    grid = build_grid(model.n, 8 if name == "targeting" else 20)
    ws = FiniteHorizonSolver(model, grid=grid).ws
    sv = flow_path(model, grid.nodes, ws.dt, ws.L)[2]
    assert np.array_equal(sv[0], np.ones(grid.n_nodes))
    assert_bitwise_equal(ws.Aterm[0], terminal_reward(model, grid.nodes)[0])
    assert (ws.B[0] != sparse.identity(grid.n_nodes, format="csr")).nnz == 0


def one_shot_workspace(model, grid, knots):
    """The workspace arrays from one pass over every knot: one flow_path,
    one terminal_reward and one interp_matrices call, the reference for
    _Workspace's build in march blocks."""
    L = len(knots) - 1
    M, X, sv = flow_path(model, grid.nodes, knots[1] - knots[0] if L else 0.0,
                         L)
    Aterm = sv * np.exp(-model.rho * knots)[:, None] \
        * terminal_reward(model, X)[0]
    return SimpleNamespace(Aterm=Aterm, Hnodes=Aterm[0], sv_end=sv[-1],
                           costM=M @ model.effective_cost_rates(),
                           G0=valueiter._jump_operator(model, grid),
                           B=grid.interp_matrices(X, sv))


def assert_csr_bitwise_equal(A, B):
    assert A.shape == B.shape
    assert np.array_equal(A.indptr, B.indptr)
    assert np.array_equal(A.indices, B.indices)
    assert_bitwise_equal(A.data, B.data)


@pytest.mark.parametrize("name, R, L", [(name, 8, None) for name in
                                        preset_names()]
                         + [("regime", 8, 0), ("insurance", 8, 0),
                            ("underflow", 400, 600)])
def test_workspace_in_blocks_is_the_one_shot_workspace(name, R, L):
    # each block is stepped on from the last row of the one before: every
    # array bitwise the one-pass build, also where blocks end inside the
    # knots whose survival mass underflows (underflow, past u = 0.93)
    model = underflow_model() if name == "underflow" else load_preset(name)[0]
    if L == 0:                                    # one knot: T = 0
        model = dataclasses.replace(model, horizon=0.0)
    solver = FiniteHorizonSolver(model, grid=build_grid(model.n, R), L=L)
    ws, ref = solver.ws, one_shot_workspace(model, solver.grid, solver.knots)
    assert solver.L == 0 or (solver.L + 1) % ws.b    # a short last block
    for key in ("Aterm", "Hnodes", "costM", "sv_end"):
        assert_bitwise_equal(getattr(ws, key), getattr(ref, key))
    assert len(ws.B) == len(ref.B) == solver.L + 1
    for A, B in zip([ws.G0] + ws.B, [ref.G0] + ref.B):
        assert_csr_bitwise_equal(A, B)


def test_workspace_build_holds_one_block():
    # the build holds one block of flowed beliefs besides what it keeps
    # (2.56 times what it keeps when every knot was flowed at once), and
    # the march adds, to what is held when it starts, its surface v (which
    # holds C too) plus F's b rows and (b, N) block buffers (measured:
    # 1 surface and 4.2 b N doubles).  What is held is the kept arrays and
    # the Python objects around them, whose size depends on what earlier
    # calls left cached, so the march is not bounded against the kept
    # bytes alone
    model, _ = load_preset("reliability")
    solver = FiniteHorizonSolver(model, grid=build_grid(model.n, 30))
    tracemalloc.start()
    try:
        ws = solver.ws
        held, build = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        solver.march()
        march = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = sum(B.data.nbytes + B.indices.nbytes + B.indptr.nbytes
               for B in [ws.G0] + ws.B) \
        + ws.Aterm.nbytes + ws.costM.nbytes + ws.disc.nbytes
    surface = ws.Aterm.nbytes                     # one (L + 1, N) array
    assert build <= 1.75 * kept
    assert march <= held + surface + 6 * ws.b * solver.grid.n_nodes * 8


def test_no_continue_cell_within_rounding_of_H():
    # with one H at the nodes a stop cell holds H's bits, so at eps = 0 no
    # cell whose value is H up to rounding reads as continue (52 did when
    # the march's stop floor was a second, flowed H)
    model, _ = load_preset("insurance")
    grid = build_grid(model.n, 20)
    surf = solve_finite(model, grid, L=20)
    H = terminal_reward(model, grid.nodes)[0]
    gap = surf.values - H
    assert not np.any((gap > 0) & (gap <= 4 * np.spacing(np.abs(H) + 1)))
    # and the eps = 0 stop cells are exactly the cells with H's bits
    stop = surf.values.view(np.int64) == H.view(np.int64)
    assert np.array_equal(extract_regions(surf, 0.0).labels != CONTINUE, stop)


def test_pointwise_J_with_underflowing_survival_mass():
    # H(0.5, 0.5) = 0.5, and waiting is worth at most about
    # |c| / lam_min = 6e-4: stopping now is optimal
    model = underflow_model()
    grid = build_grid(2, 4)
    surf = ValueSurface(model=model, grid=grid,
                        knots=np.linspace(0.0, 1.0, 601),
                        values=np.zeros((601, grid.n_nodes)), meta={})
    assert np.isfinite(apply_J(model, surf, 1.0, 1.0, [0.5, 0.5]))
    v, t = apply_J0(model, surf, 1.0, [0.5, 0.5])
    assert (v, t) == (0.5, 0.0)


# -- pointwise J against the per-point reference loop ------------------------

def reference_jump_surface(model, surface):
    """The nodal jump values F = G0 v of every slice as a surface: at each
    node x, sum_r (x . lambda w_r) v(post_r(x)), one node and mark at a
    time through the reference lookup."""
    grid = surface.grid
    lam_w = model.lam[:, None] * model.marks.weights
    lam_d = model.lam[:, None] * model.marks.weights
    F = np.zeros_like(surface.values)
    for k, x in enumerate(grid.nodes):
        omega = x @ lam_w
        for r in range(model.marks.n_marks):
            wgt = x * lam_d[:, r]
            zs = wgt.sum()
            if zs <= 0:
                continue
            idx, w = reference_barycentric(grid, (wgt / zs)[None, :])
            F[:, k] += omega[r] * (surface.values[:, idx[0]] @ w[0])
    return ValueSurface(model=model, grid=grid, knots=surface.knots,
                        values=F, meta={})


def reference_J(model, jump, t, s, pi):
    """Slow oracle: Jw(t, s, pi) with one scalar interpolation of the jump
    surface (reference_jump_surface of w) per substep, stepping the survival
    weights in a Python loop, on the march's max(1, round(t / dt))
    substeps (one on an L = 0 surface)."""
    pi = np.asarray(pi, dtype=float)
    H = lambda q: terminal_reward(model, q)[0]
    if t <= 0:
        return H(pi)
    dt_surface = jump.dt if jump.L else t
    n_sub = max(1, int(round(t / dt_surface)) if dt_surface else 1)
    h = t / n_sub
    P = expm(h * model.flow_generator())
    cost_rates = model.effective_cost_rates()
    m = pi.copy()
    phi = np.empty(n_sub + 1)
    for j in range(n_sub + 1):
        u = j * h
        sv = m.sum()
        g = sv * jump.value_at(s - u, m / sv)
        phi[j] = np.exp(-model.rho * u) * (float(cost_rates @ m) + g)
        if j < n_sub:
            m = np.clip(m @ P, 0.0, None)
    sv_t = m.sum()
    head = sv_t * np.exp(-model.rho * t) * H(m / sv_t)
    return float(head + h * (0.5 * phi[0] + phi[1:-1].sum() + 0.5 * phi[-1]))


def reference_waits(surface, s):
    """The candidate waits of J0: knots in [0, s], plus s if off-knot."""
    ts = [float(t) for t in surface.knots if t <= s + 1e-12]
    if not ts or abs(ts[-1] - s) > 1e-12:
        ts.append(float(s))
    return ts


@pytest.fixture(scope="module")
def insurance_small():
    model, info = load_preset("insurance")
    assert model.n == 3 and model.marks.n_marks == 24
    grid = build_grid(3, 6)
    return model, solve_finite(model, grid=grid, L=24, tol=1e-4)


@pytest.fixture(scope="module")
def regime_flat():
    # L = 0: the surface holds only the maturity slice H
    model, _ = load_preset("regime")
    grid = build_grid(2, 50)
    H = terminal_reward(model, grid.nodes)[0]
    return model, ValueSurface(model=model, grid=grid, knots=np.zeros(1),
                               values=H[None, :], meta={})


@pytest.mark.parametrize("case, s, pi", [
    ("regime", 1.0, [0.5, 0.5]),          # knot, interior maximiser
    ("regime", 1.2345, [0.7, 0.3]),       # off-knot s
    ("regime", 0.05, [0.5, 0.5]),         # s < 8 dt
    ("insurance", None, None),            # full horizon, 24 marks, n = 3
    ("insurance", 0.437, None),           # off-knot s
    ("insurance", 0.1, None),             # s < 8 dt
    ("flat", 0.3, [0.45, 0.55]),          # L = 0 surface
])
def test_apply_J_and_J0_match_reference(case, s, pi, regime_surface,
                                        insurance_small, regime_flat):
    model, surf = {"regime": regime_surface, "insurance": insurance_small,
                   "flat": regime_flat}[case]
    if s is None:
        s = model.horizon
    if pi is None:
        pi = load_preset("insurance")[1]["initial"]
    ts = reference_waits(surf, s)
    jump = reference_jump_surface(model, surf)
    ref = np.array([reference_J(model, jump, t, s, pi) for t in ts])
    fast = np.array([apply_J(model, surf, t, s, pi) for t in ts])
    assert np.max(np.abs(fast - ref)) <= 1e-12
    v, wait = apply_J0(model, surf, s, pi)
    assert abs(v - ref.max()) <= 1e-12
    assert wait in ts
    assert ref[ts.index(wait)] >= ref.max() - 1e-12


@pytest.mark.parametrize("name, R, L", [
    ("regime", 100, 200),
    ("insurance", 8, 24),                 # 24 marks, n = 3
    ("reliability", 12, 60),
])
def test_apply_J0_at_lattice_nodes_is_the_solved_surface(name, R, L,
                                                         regime_surface):
    # the pointwise J0 steps at the surface's dt, so at a node and a knot
    # it is the discretized J0 whose fixed point the march solved
    if name == "regime":
        model, surf = regime_surface
    else:
        model, _ = load_preset(name)
        surf = solve_finite(model, grid=build_grid(model.n, R), L=L)
    assert surf.L == L
    for ell in sorted({1, 3, 7, L // 2, L}):
        s = surf.knots[ell]
        pointwise = [apply_J0(model, surf, s, node)[0]
                     for node in surf.grid.nodes]
        assert np.max(np.abs(pointwise - surf.values[ell])) <= 1e-12


@pytest.mark.parametrize("case", ["regime", "insurance"])
def test_apply_J0_on_a_loaded_surface(tmp_path, case, regime_surface,
                                      insurance_small):
    # the jump values are rebuilt from the grid, not read from the file,
    # so the loaded surface answers bitwise as the solved one
    model, surf = {"regime": regime_surface,
                   "insurance": insurance_small}[case]
    surf.save(tmp_path / "surface.bin")
    back = ValueSurface.load(tmp_path / "surface.bin", model)
    rng = np.random.default_rng(7)
    ss = [model.horizon, surf.knots[surf.L // 2], 0.437 * model.horizon]
    for s, pi in zip(ss, rng.dirichlet(np.ones(model.n), size=len(ss))):
        assert_bitwise_equal(np.array(apply_J0(model, back, s, pi)),
                             np.array(apply_J0(model, surf, s, pi)))


def test_apply_J0_interior_wait(regime_surface):
    # the reference cases above include a strictly positive maximiser, so
    # the argmax check is not satisfied trivially by t = 0
    model, surf = regime_surface
    v, wait = apply_J0(model, surf, 1.0, [0.5, 0.5])
    assert 0.0 < wait < 1.0
    assert v > terminal_reward(model, [0.5, 0.5])[0]


def test_one_arrival_value_against_quadrature():
    # independent check of the J sweep: with w = H the value of "wait t,
    # stop at the first arrival (or at t)" has a closed integral form for
    # the absorbing two-state detection model, evaluated here with
    # adaptive quadrature
    model, _ = load_preset("regime")
    lam = model.lam
    pi = np.array([0.5, 0.5])
    s = 2.0

    def H(q):
        return max(-2.0 * q[1], -2.0 * q[0])

    def j_of_t(t):
        def integrand(u):
            m = pi * np.exp(-lam * u)
            x = m / m.sum()
            cost = -1.0 * m.sum()
            jump = 0.0
            for i in range(2):
                w = x * lam
                post = w / w.sum()
                jump += m[i] * lam[i] * H(post)
            return cost + jump

        head = float((pi * np.exp(-lam * t)).sum()
                     * H(pi * np.exp(-lam * t)
                         / (pi * np.exp(-lam * t)).sum()))
        tail, _ = integrate.quad(integrand, 0.0, t, limit=200)
        return head + tail

    ts = np.linspace(0.0, s, 401)
    direct = max(j_of_t(t) for t in ts)

    grid = build_grid(2, 40)
    solver = FiniteHorizonSolver(model, grid=grid, L=200, tol=1e-6)
    v0 = np.tile(solver.ws.Hnodes, (201, 1))
    v1 = solver.sweep(v0)
    node = grid.barycentric([0.5, 0.5])[0][0, 0]
    assert v1[-1][node] == pytest.approx(direct, abs=1e-4)


# -- error bounds -----------------------------------------------------------

def test_uniform_error_bound_hand_value():
    model, _ = load_preset("insurance")
    # (T*||C|| + 2*||H||) * sqrt(lam_bar*T / (m-1)) * (lam_bar/(2rho+lam_bar))^{m/2}
    # = (0.24 + 12) * 2 * (5/5.2) at m = 2
    assert uniform_error_bound(model, 2) == pytest.approx(23.54, abs=0.01)


def test_uniform_error_bound_decreasing_to_zero():
    model, _ = load_preset("insurance")
    vals = [uniform_error_bound(model, m) for m in range(5, 200, 10)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert uniform_error_bound(model, 2000) < 1e-6


def test_uniform_error_bound_vanishes_for_large_rho():
    model, _ = load_preset("insurance")
    m_hi = dataclasses.replace(model, rho=1e6)
    assert uniform_error_bound(m_hi, 10) < 1e-12


def test_uniform_error_bound_needs_two_iterations():
    model, _ = load_preset("insurance")
    with pytest.raises(ValueError):
        uniform_error_bound(model, 1)


def test_err_infinity_hand_value():
    model, _ = load_preset("insurance")  # rho=0.1, lam_bar=5
    assert err_infinity(model, 50) == pytest.approx((5.0 / 5.1) ** 50,
                                                    rel=1e-12)
    assert err_infinity(model, 50) == pytest.approx(0.372, abs=5e-3)


@pytest.mark.parametrize("name", ["regime", "targeting", "techadopt"])
def test_err_infinity_claims_no_exact_truncation_at_rho_zero(name):
    # max mu / max c <= 0 on these presets: no bound is known, so none is
    # given; it used to read 0 (exact from m = 2 on)
    model, _ = load_preset(name)
    assert model.rho == 0.0
    for m in (0, 1, 2, 5, 30):
        assert err_infinity(model, m) == np.inf


def test_err_infinity_rho_zero_formula():
    # max mu = -1 and max c = -0.5 < 0: sqrt(ratio lam_bar / (m - 1)) with
    # ratio = max mu / max c = 2 and lam_bar = 2, inf below m = 2
    model = make_model(n=2, Q=[[-1.0, 1.0], [1.0, -1.0]], lam=[2.0, 0.5],
                       c=[-0.5, -2.0], rho=0.0, mu=[[-1.0, -3.0]],
                       horizon=1.0)
    assert err_infinity(model, 5) == np.sqrt(2.0 * 2.0 / 4)
    assert err_infinity(model, 17) == 0.5
    assert err_infinity(model, 1) == np.inf


def test_horizon_error_hand_value():
    model, _ = load_preset("insurance")
    # e^{-0.08} * (0.3 + 12)
    assert horizon_error(model, 0.8) == pytest.approx(11.35, abs=0.01)


def test_horizon_error_vanishes_for_long_horizons():
    model, _ = load_preset("insurance")
    assert horizon_error(model, 500.0) < 1e-12


def test_horizon_error_regime_is_positive():
    # 2 ||H|| / T (min mu - max mu) / max c = 2 * 2 / 2 * (-2) / (-1); it
    # read 0 while norm_H took the largest corner |H|, which is 0 on regime
    model, _ = load_preset("regime")
    assert horizon_error(model) == 4.0


def test_horizon_error_rho_zero_scales_inverse_T():
    model, _ = load_preset("regime")  # rho = 0, c = -1 < 0
    assert horizon_error(model, 4.0) == pytest.approx(
        0.5 * horizon_error(model, 2.0), rel=1e-12)
    # 2 ||H|| / T at T = 0: no bound
    assert horizon_error(model, 0.0) == np.inf


REFUSING = {"horizon_error": horizon_error, "err_infinity": err_infinity,
            "uniform_error_bound": uniform_error_bound,
            "filter_path": lambda m, t: filter_path(m, [1 / 3] * 3, [], t)}


@pytest.mark.parametrize("name, bad", [
    ("horizon_error", -1.0), ("horizon_error", np.nan),
    ("horizon_error", np.inf), ("err_infinity", -1), ("err_infinity", 2.5),
    ("err_infinity", np.nan), ("uniform_error_bound", np.inf),
    ("uniform_error_bound", np.nan), ("filter_path", -1.0),
    ("filter_path", np.nan), ("filter_path", np.inf)])
def test_error_bounds_and_filter_path_refuse_bad_numbers(name, bad):
    # a horizon T or t_end that is not a finite number >= 0 and an
    # iteration count m that is not an integer (>= 2 for b(m)) are refused;
    # horizon_error read 13.59 at T = -1, err_infinity 1.02 at m = -1,
    # uniform_error_bound 0.0 at m = inf, and filter_path took t_end = NaN
    model, _ = load_preset("insurance")
    with pytest.raises(ValueError, match=f"got {bad}"):
        REFUSING[name](model, bad)


def test_infinite_requires_discount_or_strict_cost():
    m = make_model(n=2, Q=[[0.0, 0.0], [0.0, 0.0]], lam=[1.0, 2.0],
                   c=[0.0, 0.0], rho=0.0, mu=[[1.0, 0.0]], horizon=1.0)
    with pytest.raises(ValueError):
        solve_infinite(m, grid=build_grid(2, 10))
    with pytest.raises(ValueError):
        err_infinity(m, 5)


# -- infinite horizon -------------------------------------------------------

def test_infinite_fixed_point_residual():
    model, _ = load_preset("regime")
    grid = build_grid(2, 60)
    tol = 1e-4
    stat = solve_infinite(model, grid=grid, tol=tol)
    assert stat.meta["converged"]
    # a lattice node reads its own value; a NaN belief is refused
    for i in (0, 17, grid.n_nodes - 1):
        assert stat.value_at(grid.nodes[i]) == stat.values[i]
    with pytest.raises(ValueError, match="belief"):
        stat.value_at([np.nan, 0.5])
    # one extra application of the operator moves the surface by at most
    # a small multiple of the tolerance
    again = solve_infinite(model, grid=grid, tol=0.0,
                           m_max=stat.meta["iterations"] + 1)
    assert again.meta["deltas"][-1] <= 3.0 * tol


def per_knot_infinite(model, grid, tol):
    """solve_infinite's iteration with one product B_j F per knot: the
    reference for its single stacked product.  Returns the values and the
    sup change of each iteration."""
    rho_hat = valueiter._rho_hat(model)
    t_max = max(20.0 / model.lam_bar, 10.0 / rho_hat)
    L = min(int(np.ceil(t_max * max(model.lam_bar, model.rho, 1.0) * 20.0)),
            valueiter.INF_L_CAP)
    ws = valueiter._Workspace(model, grid, np.linspace(0.0, t_max, L + 1))
    v, deltas = ws.Hnodes.copy(), []
    while len(deltas) < 500:
        F = ws.G0 @ v
        phi = np.empty((L + 1, grid.n_nodes))
        for j in range(L + 1):
            phi[j] = ws.disc[j] * (ws.costM[j] + ws.B[j] @ F)
        inc = 0.5 * ws.dt * (phi[:-1] + phi[1:])
        I = np.concatenate([np.zeros((1, grid.n_nodes)),
                            np.cumsum(inc, axis=0)])
        vnew = np.max(ws.Aterm + I, axis=0)
        deltas.append(float(np.max(np.abs(vnew - v))))
        v = vnew
        if deltas[-1] <= tol:
            break
    return v, deltas


@pytest.mark.parametrize("name, R", [("regime", 20), ("insurance", 6)])
def test_infinite_stacked_product_matches_per_knot_loop(name, R):
    model, _ = load_preset(name)
    grid = build_grid(model.n, R)
    stat = solve_infinite(model, grid=grid, tol=1e-4)
    v, deltas = per_knot_infinite(model, grid, 1e-4)
    assert np.array_equal(stat.values, v)
    assert stat.meta["deltas"] == deltas
    assert stat.meta["iterations"] == len(deltas)


@pytest.mark.parametrize("rho, step", [(0.01, 161), (0.001, 14)])
def test_infinite_refuses_a_diverging_iteration(rho, step):
    # too few knots for the truncation time: the iterates left the value
    # scale ||H|| + ||C|| / rho and reached 3.1e8 (rho = 0.01, 500
    # iterations, not converged) and 3.5e303 (rho = 0.001)
    model = dataclasses.replace(load_preset("insurance")[0], rho=rho)
    scale = model.norm_H() + model.norm_C() / rho
    with pytest.raises(NumericalError, match=f"diverged: step {step} .*"
                       f"twice the value scale {scale:.4g}"):
        solve_infinite(model, grid=build_grid(3, 4), tol=1e-4)


@pytest.mark.parametrize("rho", [1e-6, 1e-15, 1e-306])
def test_infinite_refuses_knots_too_coarse_for_the_flow(rho):
    # 1e-6 and 1e-15 ended in a non-finite belief [nan nan nan], 1e-306 in
    # the knot count's message, which named --L
    model = dataclasses.replace(load_preset("insurance")[0], rho=rho)
    with pytest.raises(ValueError, match=r"t_max = .*rho_hat = .*INF_L_CAP "
                       r"= 6000\) .*> 200") as info:
        solve_infinite(model, grid=build_grid(3, 4), tol=1e-4)
    assert "--L" not in str(info.value)


def test_infinite_dominates_finite():
    model, _ = load_preset("regime")
    grid = build_grid(2, 60)
    stat = solve_infinite(model, grid=grid, tol=1e-6)
    surf = solve_finite(model, grid=grid, L=200, tol=1e-6)
    assert np.min(stat.values - surf.values[-1]) >= -1e-6


def test_infinite_bounded_by_norm_H():
    # rho > 0, H >= 0, no running cost: discounted stopping of a bounded
    # reward cannot exceed its sup
    m = make_model(n=2, Q=[[-1.0, 1.0], [1.0, -1.0]], lam=[1.0, 4.0],
                   c=[0.0, 0.0], rho=0.5, mu=[[2.0, 0.0]], horizon=1.0)
    stat = solve_infinite(m, grid=build_grid(2, 40), tol=1e-6)
    assert np.max(stat.values) <= 2.0 + 1e-6
    assert np.min(stat.values - terminal_reward(m, stat.grid.nodes)[0]) \
        >= -1e-9


def test_rho_monotonicity():
    # H >= 0 and costs <= 0: a more impatient decision maker never gains
    model, _ = load_preset("insurance")
    grid = build_grid(3, 30)
    lo = solve_finite(model, grid=grid, tol=1e-6)
    hi = solve_finite(dataclasses.replace(model, rho=0.5), grid=grid,
                      tol=1e-6)
    assert np.max(hi.values - lo.values) <= 1e-9


def test_richardson_check_small_for_regime():
    model, _ = load_preset("regime")
    delta = richardson_check(model, grid=build_grid(2, 16), L=50)
    assert 0.0 <= delta < 5e-3
