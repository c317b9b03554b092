"""Stepper sub-operations against independent oracles, plus full-step invariants."""
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chemokin import kinetic
from chemokin.config import GridConfig, RunConfig
from chemokin.diagnostics import DiagnosticsReport
from chemokin.errors import (BadConfig, CflViolation, NonFiniteInput, PositivityError,
                             SpecViolation)
from chemokin.fields import DensityField, in_layout, total_mass, vmx
from chemokin.kinetic import (StepperState, TurningTensors, adaptation_apply,
                              adaptation_feet, adaptation_plan, macro_step, run,
                              transport_apply, turning_apply)
from chemokin.limit import oda_run, oda_state, oda_step
from chemokin.model import (AdaptationModel, ModelSpec, PhaseGrid, TurningModel,
                            build_scenario, package_initial, velocity_set)


def custom_grid(velocities, weights, x_nodes=16, x_extent=4.0, m_nodes=8,
                m_max=1.7, topology="periodic", dim=1):
    return PhaseGrid(dim=dim, x_nodes=x_nodes, x_extent=x_extent,
                     x_topology=topology, velocities=np.atleast_2d(velocities).T
                     if np.ndim(velocities) == 1 else np.asarray(velocities),
                     weights=np.asarray(weights, dtype=float),
                     m_nodes=m_nodes, m_max=m_max)


def make_spec(grid, t_family="constant", lambda0=2.0, f_family="linear",
              kappa=1.0, beta=0.4, eps=1.0):
    spec = ModelSpec(
        adaptation=AdaptationModel(kind=f_family, kappa=kappa, s_ref=0.5,
                                   m_minus=0.2, m_plus=1.2),
        turning=TurningModel(kind=t_family, lambda0=lambda0, beta=beta,
                             m_c=0.7, delta=0.25),
        epsilon=eps)
    spec.validate_on(grid)
    return spec


def turning_tensor(spec, grid):
    """Reference T[k, k', j] = T(v_k, v_k', m_j) at the m-cell centers."""
    lam = spec.turning.frequency(grid.m_centers)
    return spec.turning.kernel_matrix(grid)[:, :, None] * lam[None, None, :]


def default_scenario(**overrides):
    cfg = RunConfig()
    cfg.grid = GridConfig(x_nodes=32, x_extent=8.0, v_count=4, m_nodes=24)
    for key, val in overrides.items():
        for section in (cfg.grid, cfg.model, cfg.initial, cfg.run):
            if hasattr(section, key):
                setattr(section, key, val)
                break
        else:
            raise KeyError(key)
    return cfg, *build_scenario(cfg)


# -- turning -------------------------------------------------------------------

def turning_oracle(p, tensor, weights, dt):
    """Direct double-quadrature of the gain/loss integrand, nested loops."""
    nv = len(weights)
    out = p.copy()
    for x in range(p.shape[0]):
        for j in range(p.shape[2]):
            for k in range(nv):
                q = 0.0
                for kp in range(nv):
                    q += weights[kp] * (tensor[k, kp, j] * p[x, kp, j]
                                        - tensor[kp, k, j] * p[x, k, j])
                out[x, k, j] = p[x, k, j] + dt * q
    return out


def test_turning_two_velocity_exchange():
    # V = {-1, +1} with unit weights and T = 1: Q = (b - a, a - b).
    grid = custom_grid([-1.0, 1.0], [1.0, 1.0], x_nodes=2, m_nodes=2)
    spec = make_spec(grid, t_family="constant", lambda0=2.0)  # T = 2 / V_d = 1
    tensors = TurningTensors.build(spec, grid)
    p = np.zeros(grid.field_shape)
    a, b = 0.3, 1.1
    p[0, 0, 0], p[0, 1, 0] = a, b
    dt = 0.2
    new = turning_apply(p, spec, grid, dt, tensors)
    assert new[0, 0, 0] == pytest.approx(a + dt * (b - a), rel=1e-14)
    assert new[0, 1, 0] == pytest.approx(b + dt * (a - b), rel=1e-14)


def test_turning_matches_direct_quadrature():
    grid = custom_grid(*velocity_set(1, 4), x_nodes=6, m_nodes=5)
    spec = make_spec(grid, t_family="separable-uniform", lambda0=1.0)
    tensors = TurningTensors.build(spec, grid)
    rng = np.random.default_rng(8)
    p = rng.random(grid.field_shape)
    dt = 0.3
    new = turning_apply(p, spec, grid, dt, tensors)
    oracle = turning_oracle(p, turning_tensor(spec, grid), grid.weights, dt)
    assert np.allclose(new, oracle, rtol=1e-13, atol=1e-15)


def test_turning_uniform_in_v_is_stationary():
    grid = custom_grid(*velocity_set(1, 4), x_nodes=4, m_nodes=4)
    spec = make_spec(grid, t_family="constant")
    p = np.ones(grid.field_shape) * 0.7
    new = turning_apply(p, spec, grid, 0.25)
    assert np.allclose(new, p, rtol=1e-14)


def test_turning_conserves_mass_roundoff():
    grid = custom_grid(*velocity_set(1, 6), x_nodes=8, m_nodes=8)
    spec = make_spec(grid, t_family="separable-angle", lambda0=1.3)
    rng = np.random.default_rng(13)
    p = rng.random(grid.field_shape)
    new = turning_apply(p, spec, grid, 0.2)
    assert total_mass(new, grid) == pytest.approx(total_mass(p, grid), rel=1e-14)


def test_turning_cfl_violation():
    grid = custom_grid(*velocity_set(1, 2), x_nodes=2, m_nodes=2)
    spec = make_spec(grid, t_family="constant", lambda0=2.0)
    with pytest.raises(CflViolation):
        turning_apply(np.ones(grid.field_shape), spec, grid, dt=1.01)


# -- transport -----------------------------------------------------------------

def test_unit_cfl_shifts_exactly_one_cell():
    grid = custom_grid([1.0], [2.0], x_nodes=8, m_nodes=2)
    p = np.zeros(grid.field_shape)
    p[3, 0, :] = 1.0
    new = transport_apply(p, grid, dt=grid.dx)
    expected = np.roll(p, 1, axis=0)
    assert np.array_equal(new, expected)


def test_zero_velocity_node_unchanged():
    grid = custom_grid([0.0, 0.5], [1.0, 1.0], x_nodes=8, m_nodes=2)
    rng = np.random.default_rng(1)
    p = rng.random(grid.field_shape)
    new = transport_apply(p, grid, dt=0.3)
    assert np.array_equal(new[:, 0, :], p[:, 0, :])


def test_transport_cfl_violation():
    grid = custom_grid([1.0], [2.0], x_nodes=8, m_nodes=2)
    with pytest.raises(CflViolation):
        transport_apply(np.ones(grid.field_shape), grid, dt=1.5 * grid.dx)


def test_transport_first_order_against_exact_translate():
    # Exact translate as oracle; each refinement at fixed CFL 0.5.
    errors = []
    for nx in (64, 128, 256):
        grid = custom_grid([1.0], [2.0], x_nodes=nx, x_extent=8.0, m_nodes=1,
                           m_max=1.0)
        x = grid.x_centers
        p = (1.0 + np.cos(2 * np.pi * x / 8.0))[:, None, None] * np.ones((1, 1, 1))
        dt = 0.5 * grid.dx
        n_steps = int(round(1.0 / dt))
        cur = p
        for _ in range(n_steps):
            cur = transport_apply(cur, grid, dt)
        shift_cells = int(round(1.0 / grid.dx))
        exact = np.roll(p, shift_cells, axis=0)
        errors.append(float(np.sum(np.abs(cur - exact)) * grid.dx))
    orders = [np.log2(a / b) for a, b in zip(errors, errors[1:])]
    assert all(o >= 0.9 for o in orders), (errors, orders)


def test_transport_conserves_mass_periodic():
    grid = custom_grid(*velocity_set(1, 4), x_nodes=32, m_nodes=4)
    rng = np.random.default_rng(3)
    p = rng.random(grid.field_shape)
    new = transport_apply(p, grid, dt=0.4 * grid.dx)
    assert total_mass(new, grid) == pytest.approx(total_mass(p, grid), rel=1e-14)


def test_transport_2d_positivity_and_mass():
    grid = custom_grid(*velocity_set(2, 4), x_nodes=12, x_extent=6.0, m_nodes=3,
                       dim=2)
    rng = np.random.default_rng(6)
    p = rng.random(grid.field_shape)
    dt = 0.9 * grid.dx / grid.max_speed
    new = transport_apply(p, grid, dt)
    assert new.min() >= 0.0
    assert total_mass(new, grid) == pytest.approx(total_mass(p, grid), rel=1e-13)


def translation_2d_error(n):
    """Mean per-velocity L1 error of exp(-r^2/0.5) translated to t = 2 on [-4, 4)^2.

    Periodic grid, ``velocity_set(2, 8)``, steps of dx / max_speed; the
    exact translate sums the neighbouring periodic images.
    """
    grid = custom_grid(*velocity_set(2, 8), x_nodes=n, x_extent=8.0, m_nodes=1,
                       m_max=1.0, dim=2)
    x = grid.x_centers

    def gaussian(cx, cy):
        return sum(np.exp(-((x[:, None] - cx - sx) ** 2 + (x[None, :] - cy - sy) ** 2) / 0.5)
                   for sx in (-8.0, 0.0, 8.0) for sy in (-8.0, 0.0, 8.0))

    p = np.repeat(gaussian(0.0, 0.0)[:, :, None, None], grid.n_v, axis=2)
    dt = grid.dx / grid.max_speed
    for _ in range(round(2.0 / dt)):
        p = transport_apply(p, grid, dt)
    exact = np.stack([gaussian(*(2.0 * v)) for v in grid.velocities], axis=2)[..., None]
    return float(np.sum(np.abs(p - exact)) * grid.dx ** 2 / grid.n_v)


def test_transport_2d_first_order_against_exact_translate():
    # Corner-transport upwind at its own largest step (Courant 1 per axis).
    # Unsplit upwind, at its own limit dx/sqrt(2), errs 0.533 / 0.305 / 0.169,
    # so the bound at n = 64 tells the two schemes apart.
    errors = [translation_2d_error(n) for n in (32, 64, 128)]
    assert all(a / b >= 1.7 for a, b in zip(errors, errors[1:])), errors
    assert errors[1] < 0.15, errors


def test_free_2d_grid_runs_one_step_per_quarter_time_unit():
    # 64^2 cells of dx = 0.25 and 8 directions: the transport CFL is dx
    # (largest per-axis speed 1), so each 0.25 output interval is one step.
    grid, spec, init = build_scenario(RunConfig(grid=GridConfig(
        dim=2, x_nodes=64, x_extent=16.0, x_topology="free", v_count=8, m_nodes=16)))
    state = StepperState.create(grid, spec, init)
    assert state.cfl_dt() == grid.dx
    state, _ = run(state, 2.0, 0.25)
    assert state.step_count == 8


def transport_reference(p, grid, dt):
    """Corner-transport upwind: the product of one 1-d upwind sweep per moving axis.

    Each sweep is out * (1 - |c|) + inflow, the inflow added into an
    accumulator filled with -0.0, the additive identity of IEEE arithmetic
    (-0.0 + a == a for every a, -0.0 included), so a cell that nothing
    enters keeps the bits of what stays in it.
    """
    q = np.ascontiguousarray(vmx(p))
    res = np.empty(q.shape)
    for k, slab in enumerate(q):
        cur = slab.copy()
        for axis, c in enumerate(grid.velocities[k] * dt / grid.dx):
            if c == 0.0:
                continue
            cmag = min(abs(float(c)), 1.0)
            inflow = cmag * np.roll(cur, 1 if c > 0 else -1, axis=1 + axis)
            entered = [slice(None)] * slab.ndim
            if grid.x_topology == "free":  # nothing enters the boundary cell
                entered[1 + axis] = slice(1, None) if c > 0 else slice(None, -1)
            acc = np.full(slab.shape, -0.0)
            acc[tuple(entered)] += inflow[tuple(entered)]
            cur = cur * (1.0 - cmag) + acc
        res[k] = cur
    return res.transpose(*range(2, res.ndim), 0, 1)


@st.composite
def transport_cases(draw):
    """Random velocities (one of them zero, components down to ones too small to
    move ``stay`` off 1), grid, a step up to the CFL edge, and a density with
    +0.0 and -0.0 cells (``read_dump`` accepts both)."""
    dim = draw(st.sampled_from([1, 2]))
    n_v = draw(st.integers(1, 5))
    speed = st.sampled_from([0.0, 1e-300, -1e-300]) | st.floats(-2.0, 2.0)
    v = np.array([[0.0] * dim] + [[draw(speed) for _ in range(dim)] for _ in range(n_v - 1)])
    grid = custom_grid(v, np.ones(n_v), x_nodes=draw(st.integers(1, 16 if dim == 1 else 7)),
                       x_extent=draw(st.floats(1.0, 20.0)),
                       topology=draw(st.sampled_from(["periodic", "free"])),
                       dim=dim, m_nodes=draw(st.integers(1, 6)))
    reach = np.abs(grid.velocities).max()
    dt = draw(st.sampled_from([1.0, 0.5]) | st.floats(0.01, 1.0)) * grid.dx / max(reach, 1e-3)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    p = rng.random(grid.field_shape) * (rng.random(grid.field_shape) < 0.7)
    p[rng.random(grid.field_shape) < 0.2] = -0.0
    return grid, p, dt


@settings(max_examples=150, deadline=None, derandomize=True)
@given(transport_cases())
def test_transport_equals_zero_filled_accumulation_bitwise(case):
    # The first sweep writes a velocity's output slab whole, so there is no
    # zero fill; the bits are those of adding into -0.0, signed zeros of the
    # density included.  A NaN-filled ``out`` shows any cell left unwritten.
    grid, p, dt = case
    expected = transport_reference(p, grid, dt)
    assert transport_apply(p, grid, dt).tobytes() == expected.tobytes()
    into = transport_apply(p, grid, dt, out=np.full(vmx(p).shape, np.nan))
    assert into.tobytes() == expected.tobytes()


# -- turning and transport across random grids ------------------------------------

@st.composite
def operator_cases(draw):
    """Random grid (dim 1-2, periodic or free), turning family and density."""
    dim = draw(st.sampled_from([1, 2]))
    grid = custom_grid(*velocity_set(dim, draw(st.sampled_from([2, 4, 6, 8]))),
                       x_nodes=draw(st.integers(2, 24 if dim == 1 else 8)),
                       x_extent=draw(st.floats(1.0, 20.0)),
                       topology=draw(st.sampled_from(["periodic", "free"])),
                       dim=dim, m_nodes=draw(st.integers(1, 12)))
    spec = make_spec(
        grid, t_family=draw(st.sampled_from(["constant", "separable-uniform",
                                             "separable-angle"])),
        lambda0=draw(st.floats(0.05, 20.0)), beta=draw(st.floats(0.0, 0.9)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    p = rng.random(grid.field_shape) * (rng.random(grid.field_shape) < 0.7)
    return grid, spec, p, rng


@settings(max_examples=100, deadline=None, derandomize=True)
@given(operator_cases())
def test_turning_at_cfl_edge_positive_and_conservative(case):
    grid, spec, p, _ = case
    tensors = TurningTensors.build(spec, grid)
    dt = 1.0 / tensors.loss.max()
    new = turning_apply(p, spec, grid, dt, tensors)
    assert new.min() >= 0.0
    assert total_mass(new, grid) == pytest.approx(total_mass(p, grid), rel=1e-13)
    with pytest.raises(CflViolation):
        turning_apply(p, spec, grid, dt * (1.0 + 1e-6), tensors)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(operator_cases())
def test_reduced_turning_at_cfl_edge_positive_conservative_and_exact(case):
    # The reduced model's lambda varies along x, at m0(S(x)), on one m-cell:
    # the same operator, batched over x-cells instead of m-cells.
    grid, spec, _, rng = case
    rgrid = replace(grid, m_nodes=1, m_max=1.0)
    s = 3.0 * rng.random(grid.x_shape)
    m0 = spec.adaptation.equilibrium(s)
    tensors = TurningTensors.build(spec, rgrid, m=m0[None])
    p = rng.random(rgrid.field_shape) * (rng.random(rgrid.field_shape) < 0.7)
    dt = 1.0 / tensors.loss.max()
    new = turning_apply(p, spec, rgrid, dt, tensors)
    assert new.min() >= 0.0
    assert total_mass(new, rgrid) == pytest.approx(total_mass(p, rgrid), rel=1e-13)
    ker = spec.turning.kernel_matrix(rgrid)[:, :, None]
    for x in np.ndindex(grid.x_shape):
        tensor = ker * spec.turning.frequency(m0[x])
        oracle = turning_oracle(p[x][None], tensor, rgrid.weights, dt)[0]
        assert np.allclose(new[x], oracle, rtol=1e-13, atol=1e-15)
    with pytest.raises(CflViolation):
        turning_apply(p, spec, rgrid, dt * (1.0 + 1e-6), tensors)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(operator_cases())
def test_transport_at_cfl_edge_positive_and_conservative(case):
    grid, _, p, _ = case
    dt = grid.dx / grid.max_speed
    new = transport_apply(p, grid, dt)
    assert new.min() >= 0.0
    before, after = total_mass(p, grid), total_mass(new, grid)
    if grid.x_topology == "periodic":
        assert after == pytest.approx(before, rel=1e-13)
    else:
        assert after <= before * (1.0 + 1e-13)
    with pytest.raises(CflViolation):
        transport_apply(p, grid, dt * (1.0 + 1e-6))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(operator_cases())
def test_nan_cell_anywhere_raises_positivity_error(case):
    # Also on a density that is zero outside a band of m-rows, with the NaN,
    # a +inf or a negative cell in an otherwise empty row: the remap's scan
    # for the rows that hold mass must count that row as held.
    grid, spec, p, rng = case
    state = StepperState.create(grid, spec, package_initial(DensityField(p), grid))
    bad = p.copy()
    bad[tuple(int(rng.integers(n)) for n in grid.field_shape)] = np.nan
    inputs = [bad]
    n_m = grid.m_nodes
    if n_m > 1:
        lo = int(rng.integers(n_m - 1))
        hi = int(rng.integers(lo + 1, n_m if lo == 0 else n_m + 1))
        row = int(rng.choice([*range(lo), *range(hi, n_m)]))
        cell = tuple(int(rng.integers(n)) for n in grid.field_shape[:-1]) + (row,)
        for value in (np.nan, np.inf, -1e3):
            banded = np.zeros(grid.field_shape)
            banded[..., lo:hi] = p[..., lo:hi]
            banded[cell] = value
            inputs.append(banded)
    # inf - inf and 0 * inf, which make the NaN, warn on the way.
    with np.errstate(invalid="ignore"):
        for dens in inputs:
            with pytest.raises(PositivityError, match="non-finite"):
                macro_step(replace(state, field=DensityField(dens, state.t)), state.cfl_dt())


# -- adaptation ----------------------------------------------------------------

def test_adapted_data_barely_moves():
    grid = custom_grid(*velocity_set(1, 2), x_nodes=4, m_nodes=32)
    spec = make_spec(grid, eps=0.5)
    s = np.full(grid.x_shape, 0.5)
    m0 = float(spec.adaptation.equilibrium(0.5))
    j0 = int(m0 / grid.dm)
    p = np.zeros(grid.field_shape)
    p[:, :, j0] = 1.0
    new = adaptation_apply(p, s, spec, grid, dt=0.1)
    marg = new.sum(axis=(0, 1))
    mean = float(marg @ grid.m_centers / marg.sum())
    assert abs(mean - grid.m_centers[j0]) <= grid.dm


@st.composite
def remap_cases(draw):
    """Random adaptation scenario: family, dim 1-2, m-grid, eps in [1e-12, 1]."""
    dim = draw(st.sampled_from([1, 2]))
    grid = custom_grid(*velocity_set(dim, draw(st.sampled_from([2, 4]))),
                       x_nodes=draw(st.integers(1, 5)), dim=dim,
                       m_nodes=draw(st.integers(2, 96)),
                       m_max=draw(st.floats(1.25, 4.0)))
    spec = make_spec(grid, f_family=draw(st.sampled_from(["linear", "cubic"])),
                     kappa=draw(st.floats(0.1, 5.0)),
                     eps=10.0 ** draw(st.floats(-12.0, 0.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    s = rng.uniform(0.0, 5.0, grid.x_shape)
    dt = draw(st.floats(1e-4, 0.5))
    return grid, spec, s, dt, rng


@settings(max_examples=150, deadline=None, derandomize=True)
@given(remap_cases())
def test_remap_column_mass_finite_and_positive(case):
    grid, spec, s, dt, rng = case
    p = rng.random(grid.field_shape) * (rng.random(grid.field_shape) < 0.8)
    new = adaptation_apply(p, s, spec, grid, dt)
    assert np.all(np.isfinite(new))
    assert new.min() >= 0.0
    before, after = p.sum(axis=-1), new.sum(axis=-1)
    assert np.all(np.abs(after - before) <= 1e-13 * before)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(remap_cases())
def test_remap_feet_compose_as_exact_flow(case):
    # Pulling back over dt/2 twice lands where one pull-back over dt does.
    grid, spec, s, dt, _ = case
    full = adaptation_feet(s, spec, grid, dt)
    half = adaptation_feet(s, spec, grid, 0.5 * dt)
    twice = spec.adaptation.pull_back(half, s.ravel(), 0.5 * dt / spec.epsilon)
    assert np.all(np.diff(full, axis=0) >= 0.0)
    assert np.max(np.abs(full - np.clip(twice, 0.0, grid.m_max))) <= 1e-12


def remap_reference(p, s, spec, grid, dt):
    """The remap one (x, v) column at a time, with the same arithmetic."""
    u = adaptation_feet(s, spec, grid, dt).T / grid.dm
    idx = np.minimum(np.floor(u), grid.m_nodes - 1).astype(np.intp)
    frac = np.minimum(u - idx, 1.0)
    cols = p.reshape(len(u), grid.n_v, grid.m_nodes)
    out = np.empty_like(cols)
    for x in range(len(u)):
        for v in range(grid.n_v):
            col = cols[x, v]
            cum = np.concatenate(([0.0], np.cumsum(col[:-1])))
            out[x, v] = np.diff(cum[idx[x]] + frac[x] * col[idx[x]])
    return out.reshape(p.shape)


def plan_reference(s, spec, grid, dt):
    """``frac`` and the flat gather index of every foot, (M+1, X), with an
    unconditional running maximum and an integer m-cell index."""
    feet = spec.adaptation.pull_back(grid.m_edges[:, None], s.ravel(), dt / spec.epsilon)
    u = np.maximum.accumulate(np.clip(feet, 0.0, grid.m_max), axis=0) / grid.dm
    idx = np.minimum(np.floor(u), grid.m_nodes - 1).astype(np.intp)
    return np.minimum(u - idx, 1.0), idx * u.shape[1] + np.arange(u.shape[1])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(remap_cases(), st.booleans())
def test_plan_equals_one_with_an_unconditional_running_maximum(case, jitter):
    # With jittered feet the plan's consecutive-edge check finds inversions
    # and repairs them; without, the exact flows come out in order.
    grid, spec, s, dt, rng = case
    noise = rng.normal(0.0, grid.dm, (grid.m_nodes + 1, s.size)) if jitter else 0.0
    exact = spec.adaptation.pull_back
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spec.adaptation, "pull_back", lambda m, s, tau: exact(m, s, tau) + noise)
        plan = adaptation_plan(s, spec, grid, dt)
        frac, at = plan_reference(s, spec, grid, dt)
    assert plan.frac.tobytes() == frac.tobytes()
    assert plan.gather.dtype == at.dtype and np.array_equal(plan.gather, at)
    # The remap finds the edges that reach a band of m-rows by searchsorted
    # on the per-edge lowest and highest foot cells, so both must be sorted.
    cells = at // s.size
    assert np.array_equal(plan.min_cell, cells.min(axis=1))
    assert np.array_equal(plan.max_cell, cells.max(axis=1))
    assert np.all(np.diff(plan.min_cell) >= 0) and np.all(np.diff(plan.max_cell) >= 0)


def full_remap_reference(p, s, spec, grid, dt):
    """The remap over all M m-rows, whatever they hold: a sequential prefix
    sum over every row, then every edge gathered and differenced."""
    frac, at = plan_reference(s, spec, grid, dt)
    q = np.ascontiguousarray(vmx(p)).reshape(grid.n_v, grid.m_nodes, -1)
    cum = np.zeros((grid.n_v, grid.m_nodes + 1, q.shape[2]))
    for i in range(grid.m_nodes):
        cum[:, i + 1] = cum[:, i] + q[:, i]
    out = np.empty(q.shape)
    for v in range(grid.n_v):
        at_feet = cum[v, :-1].ravel()[at] + frac * q[v].ravel()[at]
        out[v] = at_feet[1:] - at_feet[:-1]
    return out.reshape(vmx(p).shape)


@st.composite
def banded_remap_cases(draw):
    """A remap case whose density holds mass only in the m-rows [lo, hi):
    empty, one row, from row 0, up to row M-1, M-2 or M-3 (so that zero,
    one or two rows lie above it), the full range or inside it, and -0.0
    everywhere else."""
    grid, spec, s, dt, rng = draw(remap_cases())
    n_m = grid.m_nodes
    kind = draw(st.sampled_from(["empty", "one row", "from row 0", "to row M-1", "to row M-2",
                                 "to row M-3", "full", "inside"]))
    lo = 0 if kind in ("empty", "from row 0", "full") else draw(st.integers(0, n_m - 1))
    if kind == "empty":
        hi = 0
    elif kind == "one row":
        hi = lo + 1
    elif kind == "full":
        hi = n_m
    elif kind.startswith("to row"):
        hi = max(n_m + 1 - int(kind[-1]), 1)
        lo = min(lo, hi - 1)
    else:
        hi = draw(st.integers(lo + 1, n_m))
    p = np.full(grid.field_shape, -0.0)
    band = p[..., lo:hi]
    band[...] = np.where(rng.random(band.shape) < 0.8, rng.random(band.shape), -0.0)
    if hi > lo:  # the band's end rows hold mass
        p.reshape(-1, n_m)[0, [lo, hi - 1]] = 1.0
    return grid, spec, s, dt, p


@settings(max_examples=200, deadline=None, derandomize=True)
@given(banded_remap_cases())
def test_banded_remap_equals_a_full_range_remap_bitwise(case):
    # The remap sums, gathers and differences only near the rows that hold
    # mass and writes +0.0 elsewhere: the bits of the remap over every row.
    # The -0.0 rows of the input come out +0.0, as the full remap gives
    # them, and a NaN-filled ``out`` shows any row left unwritten.
    grid, spec, s, dt, p = case
    expected = full_remap_reference(p, s, spec, grid, dt)
    new = vmx(adaptation_apply(p, s, spec, grid, dt))
    assert new.tobytes() == expected.tobytes()
    assert not np.any(np.signbit(new))
    into = adaptation_apply(p, s, spec, grid, dt, out=np.full(vmx(p).shape, np.nan))
    assert vmx(into).tobytes() == expected.tobytes()


@pytest.mark.parametrize("dim", [1, 2])
def test_banded_remap_fills_the_rows_above_the_band_without_a_copy_of_them(dim):
    # A warm remap into ``out`` of a density held in m-rows 2-5 of 64
    # allocates one (v, x) row to fill the rows above the band from, not a
    # broadcast copy of those rows (numpy's way to resolve the overlap).
    import tracemalloc
    grid = custom_grid(*velocity_set(dim, 4), x_nodes=32, dim=dim, m_nodes=64)
    spec = make_spec(grid)
    s = np.random.default_rng(0).uniform(0.0, 2.0, grid.x_shape)
    dens = np.zeros(grid.field_shape)
    dens[..., 2:6] = 1.0
    p, out = in_layout(dens), np.empty(vmx(dens).shape)
    plan = adaptation_plan(s, spec, grid, 0.1)
    adaptation_apply(p, s, spec, grid, 0.1, plan, out=out)
    tracemalloc.start()
    try:
        adaptation_apply(p, s, spec, grid, 0.1, plan, out=out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * p.nbytes


@st.composite
def layout_cases(draw):
    """Random grid (dim 1-2, periodic or free, two velocities and more), turning
    and rate family and a density seed, for the layout and composition checks."""
    dim = draw(st.sampled_from([1, 2]))
    grid = custom_grid(*velocity_set(dim, draw(st.sampled_from([2, 3, 4, 8]))),
                       x_nodes=draw(st.integers(1, 12 if dim == 1 else 6)),
                       x_extent=draw(st.floats(1.0, 10.0)),
                       topology=draw(st.sampled_from(["periodic", "free"])),
                       dim=dim, m_nodes=draw(st.integers(1, 40)),
                       m_max=draw(st.floats(1.25, 4.0)))
    spec = make_spec(grid, t_family=draw(st.sampled_from(["constant", "separable-uniform",
                                                           "separable-angle"])),
                     f_family=draw(st.sampled_from(["linear", "cubic"])),
                     kappa=draw(st.floats(0.1, 5.0)), eps=10.0 ** draw(st.floats(-6.0, 0.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return grid, spec, rng


@settings(max_examples=30, deadline=None, derandomize=True)
@given(layout_cases())
def test_macro_step_is_strang_composition(case):
    # One shared plan, and sub-steps alternating between two buffers, must
    # give the bits of two independently planned half steps around turning
    # and transport, each into a fresh array.
    grid, spec, rng = case
    init = package_initial(DensityField(rng.random(grid.field_shape)), grid)
    state = StepperState.create(grid, spec, init)
    dt = float(rng.uniform(0.1, 1.0)) * state.cfl_dt()
    s = state.signal.values
    stepped = macro_step(state, dt).field.values
    p = adaptation_apply(state.field.values, s, spec, grid, 0.5 * dt)
    p = turning_apply(p, spec, grid, 0.5 * dt, state.tensors)
    p = transport_apply(p, grid, dt)
    p = turning_apply(p, spec, grid, 0.5 * dt, state.tensors)
    p = adaptation_apply(p, s, spec, grid, 0.5 * dt)
    assert np.array_equal(stepped, p)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(layout_cases())
def test_operators_give_the_same_bits_in_either_layout(case):
    # A C-ordered (x, v, m) density and the same density backed by a
    # (v, m, x) buffer give bit-identical results, and every operator
    # returns its result in the (v, m, x) layout.  Written into an ``out``
    # buffer (NaN-filled, so stale contents would show), each operator
    # gives the same bytes, and each refuses an ``out`` that is its input's
    # own buffer.
    grid, spec, rng = case
    p = rng.random(grid.field_shape) * (rng.random(grid.field_shape) < 0.8)
    s = rng.uniform(0.0, 5.0, grid.x_shape)
    state = StepperState.create(grid, spec, package_initial(DensityField(p), grid))
    dt = float(rng.uniform(0.1, 1.0)) * state.cfl_dt()

    def operators(dens, out=lambda: None):
        return (adaptation_apply(dens, s, spec, grid, 0.5 * dt, out=out()),
                turning_apply(dens, spec, grid, 0.5 * dt, state.tensors, out=out()),
                transport_apply(dens, grid, dt, out=out()))

    results = [operators(dens)
               + (macro_step(replace(state, field=DensityField(dens)), dt).field.values,)
               for dens in (p, in_layout(p))]
    for dens, fresh in zip((p, in_layout(p)), results):
        into = operators(dens, out=lambda: np.full(vmx(dens).shape, np.nan))
        for written, expected in zip(into, fresh):
            assert written.tobytes() == expected.tobytes()
        own = in_layout(dens)
        with pytest.raises(ValueError, match="shares memory"):
            adaptation_apply(own, s, spec, grid, 0.5 * dt, out=vmx(own))
        with pytest.raises(ValueError, match="shares memory"):
            turning_apply(own, spec, grid, 0.5 * dt, state.tensors, out=vmx(own))
        with pytest.raises(ValueError, match="shares memory"):
            transport_apply(own, grid, dt, out=vmx(own))
    for c_ordered, vmx_backed in zip(*results):
        assert c_ordered.tobytes() == vmx_backed.tobytes()
        assert vmx(c_ordered).flags.c_contiguous and vmx(vmx_backed).flags.c_contiguous
    assert np.array_equal(results[0][0], remap_reference(p, s, spec, grid, 0.5 * dt))


def test_remap_positive_even_if_flow_rounds_out_of_order(monkeypatch):
    # The exact flows are monotone, but the remap must not rely on every
    # foot computation rounding in order: jitter the feet and require
    # positivity and column mass all the same.
    grid = custom_grid(*velocity_set(1, 2), x_nodes=6, m_nodes=40)
    spec = make_spec(grid, eps=0.05)
    rng = np.random.default_rng(4)
    exact = spec.adaptation.pull_back

    def jittered(m, s, tau):
        feet = exact(m, s, tau)
        return feet + rng.normal(0.0, grid.dm, feet.shape)

    monkeypatch.setattr(spec.adaptation, "pull_back", jittered)
    p = rng.random(grid.field_shape)
    new = adaptation_apply(p, rng.uniform(0.0, 2.0, grid.x_shape), spec, grid, 0.05)
    assert new.min() >= 0.0
    assert np.allclose(new.sum(axis=-1), p.sum(axis=-1), rtol=1e-13, atol=0.0)


def characteristic_end(spec, m, s, t, n_steps):
    """RK4 along dm/dt = rate(m, S)/eps from every start point in m."""
    h = t / n_steps
    for _ in range(n_steps):
        k1 = spec.adaptation_rate(m, s) / spec.epsilon
        k2 = spec.adaptation_rate(m + 0.5 * h * k1, s) / spec.epsilon
        k3 = spec.adaptation_rate(m + 0.5 * h * k2, s) / spec.epsilon
        k4 = spec.adaptation_rate(m + h * k3, s) / spec.epsilon
        m = m + h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
    return m


@pytest.mark.parametrize("family,kappa", [("linear", 1.0), ("cubic", 4.0)])
def test_remap_mean_m_refines_against_characteristics(family, kappa):
    # Oracle: the mean of the initial profile carried along the
    # characteristics, integrated by RK4 from 4096 sub-cell nodes.
    s_val, t_end, n_steps, n_fine = 0.4, 0.2, 4, 4096
    base = custom_grid(*velocity_set(1, 2), x_nodes=2, m_nodes=n_fine)
    spec = make_spec(base, f_family=family, kappa=kappa, eps=0.5)
    nodes = base.m_centers
    profile = np.exp(-0.5 * ((nodes - 0.95) / 0.12) ** 2)
    exact = float(profile @ characteristic_end(spec, nodes, s_val, t_end, 400)
                  / profile.sum())
    errors, spacings = [], []
    for m_nodes in (16, 32, 64, 128, 256):
        grid = custom_grid(*velocity_set(1, 2), x_nodes=2, m_nodes=m_nodes)
        p = np.broadcast_to(profile.reshape(m_nodes, -1).mean(axis=1),
                            grid.field_shape).copy()
        s = np.full(grid.x_shape, s_val)
        for _ in range(n_steps):
            p = adaptation_apply(p, s, spec, grid, t_end / n_steps)
        errors.append(abs(float(p[0, 0] @ grid.m_centers / p[0, 0].sum()) - exact))
        spacings.append(grid.dm)
    order = np.log2(errors[0] / errors[-1]) / (len(errors) - 1)
    assert all(e <= h for e, h in zip(errors, spacings)), errors
    assert order >= 0.9, (errors, order)


def test_adaptation_mass_exact_and_positive():
    grid = custom_grid(*velocity_set(1, 2), x_nodes=8, m_nodes=48)
    spec = make_spec(grid, eps=0.05)
    rng = np.random.default_rng(17)
    p = rng.random(grid.field_shape)
    s = np.linspace(0.0, 1.0, grid.x_nodes)
    new = adaptation_apply(p, s, spec, grid, dt=0.1)
    assert new.min() >= 0.0
    assert total_mass(new, grid) == pytest.approx(total_mass(p, grid), rel=1e-13)


def test_adaptation_relaxes_to_equilibrium():
    # Single-cell ODE oracle: dM/dt = rate(M, S)/eps pulls the marginal
    # mean onto the adapted state.
    grid = custom_grid(*velocity_set(1, 2), x_nodes=2, m_nodes=64)
    spec = make_spec(grid, eps=0.1)
    s_val = 0.6
    s = np.full(grid.x_shape, s_val)
    p = np.ones(grid.field_shape)  # uniform slab in m
    for _ in range(40):
        p = adaptation_apply(p, s, spec, grid, dt=0.05)
    marg = p[0, 0]
    mean = float(marg @ grid.m_centers / marg.sum())
    # oracle: integrate the ODE from the slab's mean; long-time limit is m0
    m_ode = float(np.mean(grid.m_centers))
    for _ in range(4000):
        m_ode += 0.0005 * float(spec.adaptation_rate(m_ode, s_val)) / spec.epsilon
    assert abs(m_ode - float(spec.adaptation.equilibrium(s_val))) < 1e-6
    assert abs(mean - m_ode) <= 2 * grid.dm


def test_adaptation_rejects_bad_truncation():
    grid = custom_grid(*velocity_set(1, 2), x_nodes=2, m_nodes=8, m_max=1.7)
    spec = make_spec(grid)
    small = PhaseGrid(dim=1, x_nodes=2, x_extent=4.0, x_topology="periodic",
                      velocities=grid.velocities, weights=grid.weights,
                      m_nodes=8, m_max=1.0)  # below m_plus
    p = np.ones(small.field_shape)
    with pytest.raises(SpecViolation, match="m_max"):
        adaptation_apply(p, np.full(small.x_shape, 5.0), spec, small, dt=0.01)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_adaptation_rejects_non_finite_signal(bad):
    # Comparisons against NaN are false, so without its own check the plan
    # would pass a NaN signal to the feet and the remap would return NaN
    # density cells; the plan's indices are also what keeps the gathers in
    # range.
    grid, spec, init = build_scenario(RunConfig())
    state = StepperState.create(grid, spec, init)
    s = state.signal.values.copy()
    s[5] = bad
    with pytest.raises(NonFiniteInput):
        adaptation_apply(state.field.values, s, spec, grid, 0.05)


# -- macro step and run ---------------------------------------------------------

def test_uncertified_spec_is_refused_before_stepping():
    # The caps stay 0.0 until validate_on sets them; stepping on them would
    # divide by zero in cfl_dt.  The reduced model builds its state directly.
    cfg, grid, spec, init = default_scenario()
    raw = ModelSpec.from_config(cfg)
    assert spec.certified and not raw.certified
    with pytest.raises(BadConfig, match="validated"):
        StepperState.create(grid, raw, init)
    with pytest.raises(BadConfig, match="validated"):
        oda_run(grid, raw, init, 0.1, 0.05)


def test_state_shares_an_initial_density_already_in_the_layout():
    # build_initial builds a (v, m, x) buffer, which the state keeps; a
    # C-ordered (x, v, m) density is copied into the layout.
    cfg, grid, spec, init = default_scenario()
    state = StepperState.create(grid, spec, init)
    assert np.shares_memory(state.field.values, init.p0.values)
    p = np.ascontiguousarray(init.p0.values)
    other = package_initial(DensityField(p), grid)
    copied = StepperState.create(grid, spec, other)
    assert not np.shares_memory(copied.field.values, p)
    assert vmx(copied.field.values).flags.c_contiguous
    assert copied.field.values.tobytes() == state.field.values.tobytes()


def test_run_from_a_shared_initial_density_leaves_it_unchanged():
    cfg, grid, spec, init = default_scenario()
    before = init.p0.values.tobytes()
    state = StepperState.create(grid, spec, init)
    end, _ = run(state, 0.3, 0.1)
    assert end.step_count > 0 and not np.shares_memory(end.field.values, init.p0.values)
    assert init.p0.values.tobytes() == before


def test_macro_step_never_writes_a_returned_density():
    cfg, grid, spec, init = default_scenario()
    dt = 0.5 * StepperState.create(grid, spec, init).cfl_dt()
    states = [StepperState.create(grid, spec, init)]
    copies = [states[0].field.values.copy()]
    for _ in range(3):
        states.append(macro_step(states[-1], dt))
        copies.append(states[-1].field.values.copy())
    for state, copy in zip(states, copies):
        assert state.field.values.tobytes() == copy.tobytes()
    assert macro_step(states[0], dt).field.values.tobytes() == copies[1].tobytes()


def test_concurrent_steps_keep_their_own_scratch():
    # A caller may step two states in two threads at once; each thread's
    # sub-steps run in its own scratch buffers, so every thread gets the
    # serial bits.
    import sys
    import threading
    cfg, grid, spec, init = default_scenario()
    specs = [replace(spec, epsilon=eps) for eps in (1.0, 0.3, 0.1, 0.03)]

    def advance(member_spec):
        state = StepperState.create(grid, member_spec, init)
        dt = 0.5 * state.cfl_dt()
        for _ in range(10):
            state = macro_step(state, dt)
        return state.field.values

    serial = [advance(member_spec) for member_spec in specs]
    threaded = [None] * len(specs)

    def member(i):
        threaded[i] = advance(specs[i])

    workers = [threading.Thread(target=member, args=(i,)) for i in range(len(specs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    for alone, together in zip(serial, threaded):
        assert together is not None and together.tobytes() == alone.tobytes()


def test_run_frees_its_scratch():
    # A finished run leaves its thread no step-sized buffers; the next step
    # allocates fresh ones and gets the bits it gets on a fresh thread.
    import threading
    grid, spec, init = build_scenario(RunConfig(grid=GridConfig(
        dim=2, x_nodes=32, x_topology="free", v_count=8, m_nodes=16)))
    state = StepperState.create(grid, spec, init)
    dt = 0.5 * state.cfl_dt()
    state = macro_step(state, dt)
    assert vars(kinetic._SCRATCH)
    state, _ = run(state, 2.0 * dt, dt)
    assert not vars(kinetic._SCRATCH)
    here = macro_step(state, dt).field.values
    fresh = []
    worker = threading.Thread(target=lambda: fresh.append(macro_step(state, dt).field.values))
    worker.start()
    worker.join(timeout=60.0)
    assert fresh and fresh[0].tobytes() == here.tobytes()


STEP_GRIDS = pytest.mark.parametrize("grid_cfg", [
    GridConfig(),
    GridConfig(dim=2, x_nodes=32, x_topology="free", v_count=8, m_nodes=16)],
    ids=["default", "free-2d"])


@STEP_GRIDS
def test_macro_step_allocates_about_one_density(grid_cfg):
    # A warm macro step allocates its result and small per-step arrays (the
    # remap plan, n and the signal); the sub-steps run in reused buffers.
    import tracemalloc
    grid, spec, init = build_scenario(RunConfig(grid=grid_cfg))
    state = StepperState.create(grid, spec, init)
    dt = state.cfl_dt()
    state = macro_step(state, dt)
    tracemalloc.start()
    try:
        macro_step(state, dt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * state.field.values.nbytes


@STEP_GRIDS
def test_reduced_step_allocates_no_more_than_its_turning(grid_cfg):
    # A warm reduced step runs in the work buffer and its one result, so its
    # peak is that of one turning call into a fresh array (its (X, V, V)
    # matrices outweigh the reduced density), not a density more.
    import tracemalloc
    grid, spec, init = build_scenario(RunConfig(grid=grid_cfg))
    state = oda_state(grid, spec, init)
    dt = state.cfl_dt()
    state = oda_step(state, dt)
    peaks = []
    for call in (lambda: oda_step(state, dt),
                 lambda: turning_apply(state.field.values, spec, state.grid, 0.5 * dt,
                                       state.tensors)):
        tracemalloc.start()
        try:
            call()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= peaks[1] + 0.5 * state.field.values.nbytes


@STEP_GRIDS
def test_step_scratch_holds_one_velocity_of_gathers(grid_cfg):
    # The remap gathers one velocity at a time, so each of its two gather
    # buffers holds (M+1)*X elements whatever V; transport writes its output
    # slabs directly and keeps no accumulator.  Stepped on a fresh thread,
    # whose scratch no earlier step has grown.
    import math
    import threading
    grid, spec, init = build_scenario(RunConfig(grid=grid_cfg))
    state = StepperState.create(grid, spec, init)
    sizes = {}

    def step():
        macro_step(state, state.cfl_dt())
        sizes.update((role, buf.size) for role, buf in vars(kinetic._SCRATCH).items())

    worker = threading.Thread(target=step)
    worker.start()
    worker.join(timeout=60.0)
    n_x = math.prod(grid.x_shape)
    assert sizes == {"work": state.field.values.size, "slab": grid.m_nodes * n_x,
                     "remap_cum": (grid.m_nodes + 1) * n_x,
                     "remap_p": (grid.m_nodes + 1) * n_x}



def test_x_uniform_data_stays_x_uniform():
    cfg, grid, spec, init = default_scenario(profile="uniform")
    state = StepperState.create(grid, spec, init)
    for _ in range(5):
        state = macro_step(state, 0.05)
    p = state.field.values
    spread = np.max(np.abs(p - p.mean(axis=0, keepdims=True)))
    assert spread <= 1e-13 * p.max()


def test_nearly_free_streaming_matches_translate():
    # Vanishing turning and adaptation rates: dynamics reduce to transport.
    grid = custom_grid([-1.0, 1.0], [1.0, 1.0], x_nodes=32, x_extent=8.0,
                       m_nodes=8)
    spec = make_spec(grid, t_family="constant", lambda0=1e-12, kappa=1e-12)
    rng = np.random.default_rng(5)
    p0 = rng.random(grid.field_shape)
    init = package_initial(DensityField(p0.copy()), grid)
    state = StepperState.create(grid, spec, init)
    n_steps = 8
    for _ in range(n_steps):
        state = macro_step(state, grid.dx)  # unit CFL: exact shifts
    expected = np.empty_like(p0)
    expected[:, 0, :] = np.roll(p0[:, 0, :], -n_steps, axis=0)
    expected[:, 1, :] = np.roll(p0[:, 1, :], n_steps, axis=0)
    assert np.max(np.abs(state.field.values - expected)) <= 1e-9 * p0.max()


def test_hundred_steps_mass_and_positivity():
    cfg, grid, spec, init = default_scenario()
    state = StepperState.create(grid, spec, init)
    dt = 0.5 * state.cfl_dt()
    for _ in range(100):
        state = macro_step(state, dt)
    assert state.max_mass_defect <= 1e-12
    assert state.field.values.min() >= 0.0


@pytest.mark.parametrize("dim, x_nodes, v_count", [(1, 16, 2), (1, 32, 2), (2, 16, 8)])
def test_initial_mass_and_step_defect_share_one_measure(dim, x_nodes, v_count):
    # dx = 1.6/16 or 1.6/32 is not a power of two, so (S*dx)*dm and
    # S*(dx*dm) can round apart: initial data and the step's defect must
    # weigh the density with the same product, bit for bit.
    cfg = RunConfig(grid=GridConfig(dim=dim, x_nodes=x_nodes, x_extent=1.6,
                                    v_count=v_count, m_nodes=16))
    grid, spec, init = build_scenario(cfg)
    assert total_mass(init.p0.values, grid) == init.mass
    state = StepperState.create(grid, spec, init)
    unchanged = kinetic.finish_step(state, state.field.values.copy(), 0.01)
    assert unchanged.max_mass_defect == 0.0


def test_nan_density_raises_positivity_error():
    # A frozen signal skips the signal solve, so only the step's own guard
    # can stop a NaN from spreading.
    cfg, grid, spec, init = default_scenario()
    state = StepperState.create(grid, spec, init, freeze_signal=True)
    p = state.field.values.copy()
    p[3, 1, 5] = np.nan
    state = replace(state, field=DensityField(p, state.t))
    with pytest.raises(PositivityError, match="non-finite"):
        macro_step(state, 0.05)


def test_run_identity_when_t_end_equals_t():
    cfg, grid, spec, init = default_scenario()
    state = StepperState.create(grid, spec, init)
    out, report = run(state, 0.0, 0.1)
    assert out is state and report is None


@pytest.mark.parametrize("t_end, output_every", [
    (1.0, np.nan), (1.0, 0.0), (1.0, -0.1), (np.nan, 0.1), (np.inf, 0.1), (np.inf, -0.1),
    (-0.5, 0.1), (1.0, 1e-6),
])
def test_run_refuses_a_bad_schedule(t_end, output_every):
    # A library caller passes no config parser: a NaN or infinite end, an
    # end before the start, a cadence that is not positive or a schedule of
    # more than 10^4 instants is a BadConfig before any step, never a hang
    # or a bare ValueError / ZeroDivisionError.
    cfg, grid, spec, init = default_scenario()
    state = StepperState.create(grid, spec, init)
    with pytest.raises(BadConfig):
        run(state, t_end, output_every, observer=pytest.fail)


def test_run_observes_a_fresh_run_at_start_and_each_output_once():
    # With no report, the observer still sees t_start, then each instant once.
    cfg, grid, spec, init = default_scenario()
    seen = []
    state, _ = run(StepperState.create(grid, spec, init), 0.3, 0.1,
                   observer=lambda st: seen.append((st.t, st.step_count)))
    assert [t for t, _ in seen] == [0.0, 0.1, 0.2, 0.3]
    assert seen[0][1] == 0 and seen[-1][1] == state.step_count

    # A run resumed with a report that already has rows does not repeat t_start.
    report = DiagnosticsReport(init, spec, grid)
    half, _ = run(StepperState.create(grid, spec, init), 0.1, 0.1, report=report)
    resumed = []
    run(half, 0.3, 0.1, report=report, observer=lambda st: resumed.append(st.t))
    assert resumed == [0.2, 0.3]
    assert [row.t for row in report.rows] == [0.0, 0.1, 0.2, 0.3]


def test_run_determinism_bitwise():
    cfg, grid, spec, init = default_scenario()
    a = StepperState.create(grid, spec, init)
    b = StepperState.create(grid, spec, init)
    a, _ = run(a, 0.3, 0.1)
    b, _ = run(b, 0.3, 0.1)
    assert np.array_equal(a.field.values, b.field.values)
    assert a.t == b.t


def test_run_restart_equals_straight_through():
    cfg, grid, spec, init = default_scenario()
    straight = StepperState.create(grid, spec, init)
    straight, _ = run(straight, 0.4, 0.1)
    half = StepperState.create(grid, spec, init)
    half, _ = run(half, 0.2, 0.1)
    resumed, _ = run(half, 0.4, 0.1)
    assert np.array_equal(straight.field.values, resumed.field.values)
    assert straight.t == resumed.t


def coarsen(p, factor=2):
    """Average fine-grid density onto the coarse grid (x and m by blocks)."""
    nx, nv, nm = p.shape
    out = p.reshape(nx // factor, factor, nv, nm).mean(axis=1)
    return out.reshape(nx // factor, nv, nm // factor, factor).mean(axis=3)


def test_joint_refinement_first_order():
    # Halving (dx, dm, dt) together shrinks the L1 self-difference by >= 1.8
    # on a smooth, mildly adapting scenario.
    def solve(nx, nm, n_steps, t_end=0.3):
        cfg = RunConfig()
        cfg.grid = GridConfig(x_nodes=nx, x_extent=8.0, v_count=2, m_nodes=nm)
        cfg.model.eps = 1.0
        cfg.model.kappa = 0.5
        grid, spec, init = build_scenario(cfg)
        state = StepperState.create(grid, spec, init)
        dt = t_end / n_steps
        for _ in range(n_steps):
            state = macro_step(state, dt)
        return state.field.values, grid

    solutions = [solve(64, 64, 16), solve(128, 128, 32),
                 solve(256, 256, 64), solve(512, 512, 128)]
    diffs = []
    for (pc, gc), (pf, _) in zip(solutions, solutions[1:]):
        meas = gc.cell_volume * gc.dm
        diffs.append(float(np.sum(np.abs(coarsen(pf) - pc)
                                  * gc.weights[:, None]) * meas))
    ratios = [a / b for a, b in zip(diffs, diffs[1:])]
    assert all(r >= 1.8 for r in ratios), (diffs, ratios)


def test_dump_roundtrip_bitwise(tmp_path):
    from chemokin import dumpio
    cfg, grid, spec, init = default_scenario()
    state = StepperState.create(grid, spec, init)
    state, _ = run(state, 0.2, 0.1)
    path = tmp_path / "state.chk"
    dumpio.write_dump(path, state.field.values, state.t, grid, spec.epsilon, "abc123",
                      steps=state.step_count, max_mass_defect=state.max_mass_defect)
    dump = dumpio.read_dump(path)
    assert dump.t == state.t
    assert dump.scenario == "abc123"
    assert np.array_equal(dump.values, state.field.values)
    assert dump.steps == state.step_count > 0
    assert dump.max_mass_defect == state.max_mass_defect
    dumpio.check_compatible(dump, grid, "abc123")


def test_dump_without_bookkeeping_keys_still_reads(tmp_path):
    # Dumps written before the header carried steps and max_mass_defect
    # read with both at zero.
    from chemokin import dumpio
    cfg, grid, spec, init = default_scenario()
    path = tmp_path / "state.chk"
    dumpio.write_dump(path, init.p0.values, 0.0, grid, spec.epsilon, "abc123",
                      steps=7, max_mass_defect=1e-15)
    raw = path.read_bytes()
    lines = raw.split(b"\n")
    assert b"steps=7" in lines and b"max_mass_defect=1e-15" in lines
    legacy = tmp_path / "legacy.chk"
    legacy.write_bytes(raw.replace(b"steps=7\n", b"").replace(b"max_mass_defect=1e-15\n", b""))
    dump = dumpio.read_dump(legacy)
    assert (dump.steps, dump.max_mass_defect) == (0, 0.0)
    assert np.array_equal(dump.values, init.p0.values)


def test_dump_rejects_corruption(tmp_path):
    from chemokin import dumpio
    from chemokin.errors import BadConfig
    cfg, grid, spec, init = default_scenario()
    path = tmp_path / "state.chk"
    dumpio.write_dump(path, init.p0.values, 0.0, grid, spec.epsilon, "abc123")

    not_a_dump = tmp_path / "junk.chk"
    not_a_dump.write_bytes(b"not a dump at all")
    with pytest.raises(BadConfig, match=f"not a {dumpio.MAGIC} dump"):
        dumpio.read_dump(not_a_dump)

    # The older format, x outermost, is refused by name, never misread.
    old_format = tmp_path / "old.chk"
    old_format.write_bytes(path.read_bytes().replace(dumpio.MAGIC.encode(), b"CHKIN1", 1))
    with pytest.raises(BadConfig, match="CHKIN1 dump, the older format with x outermost"):
        dumpio.read_dump(old_format)

    not_ascii = tmp_path / "not_ascii.chk"
    not_ascii.write_bytes(path.read_bytes().replace(b"scenario=", b"scenario=\xff", 1))
    with pytest.raises(BadConfig, match="malformed dump header"):
        dumpio.read_dump(not_ascii)

    truncated = tmp_path / "short.chk"
    for cut in (16, 3):  # whole values short, and a part of one
        truncated.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(BadConfig, match="payload"):
            dumpio.read_dump(truncated)

    negative = tmp_path / "negative.chk"
    negative.write_bytes(path.read_bytes().replace(b"steps=0\n", b"steps=-1\n"))
    with pytest.raises(BadConfig, match="bookkeeping"):
        dumpio.read_dump(negative)

    # The payload is checked once here, for every reader: restart and compare.
    for bad, word in ((np.inf, "non-finite"), (np.nan, "non-finite"), (-1e-300, "negative")):
        values = init.p0.values.copy()
        values[1, 2, 3] = bad
        poisoned = tmp_path / "poisoned.chk"
        dumpio.write_dump(poisoned, values, 0.0, grid, spec.epsilon, "abc123")
        with pytest.raises(BadConfig, match=word):
            dumpio.read_dump(poisoned)

    dump = dumpio.read_dump(path)
    with pytest.raises(BadConfig, match="hash"):
        dumpio.check_compatible(dump, grid, "different-hash")


def test_failed_dump_write_leaves_no_partial_file(tmp_path, monkeypatch):
    from chemokin import dumpio
    cfg, grid, spec, init = default_scenario()
    path = tmp_path / "state.chk"
    dumpio.write_dump(path, init.p0.values, 0.0, grid, spec.epsilon, "old")
    original = path.read_bytes()

    real_open = open

    class DiskFull:
        """File whose second write fails after the first reached the disk."""

        def __init__(self, *args):
            self.fh = real_open(*args)
            self.writes = 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.writes += 1
            if self.writes > 1:
                self.fh.write(data[: len(data) // 2])
                raise OSError("no space left on device")
            return self.fh.write(data)

    monkeypatch.setattr(dumpio, "open", DiskFull, raising=False)
    with pytest.raises(OSError, match="no space"):
        dumpio.write_dump(path, init.p0.values, 0.1, grid, spec.epsilon, "new")
    with pytest.raises(OSError, match="no space"):
        dumpio.write_dump(tmp_path / "fresh.chk", init.p0.values, 0.1, grid,
                          spec.epsilon, "new")
    assert path.read_bytes() == original
    assert sorted(p.name for p in tmp_path.iterdir()) == ["state.chk"]
