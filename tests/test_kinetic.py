"""Stepper sub-operations against independent oracles, plus full-step invariants."""
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chemokin import kinetic
from chemokin.config import GridConfig, RunConfig
from chemokin.errors import (BadConfig, CflViolation, NonFiniteInput, PositivityError,
                             SpecViolation)
from chemokin.fields import DensityField, in_layout, total_mass, vmx
from chemokin.kinetic import (StepperState, TurningTensors, adaptation_apply,
                              adaptation_feet, adaptation_plan, macro_step, run,
                              transport_apply, turning_apply)
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
    dt = 1.0 / tensors.max_loss
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
    dt = 1.0 / tensors.max_loss
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
    grid, spec, p, rng = case
    state = StepperState.create(grid, spec, package_initial(DensityField(p), grid))
    bad = p.copy()
    bad[tuple(int(rng.integers(n)) for n in grid.field_shape)] = np.nan
    state = replace(state, field=DensityField(bad, state.t))
    with pytest.raises(PositivityError, match="non-finite"):
        macro_step(state, state.cfl_dt())


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
    twice = spec.adaptation.pull_back(half, s[..., None], 0.5 * dt / spec.epsilon)
    assert np.all(np.diff(full, axis=-1) >= 0.0)
    assert np.max(np.abs(full - np.clip(twice, 0.0, grid.m_max))) <= 1e-12


def remap_reference(p, s, spec, grid, dt):
    """Unblocked remap, one (x, v) column at a time, same arithmetic."""
    u = adaptation_feet(s, spec, grid, dt).reshape(-1, grid.m_nodes + 1) / grid.dm
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


@st.composite
def blocked_remap_cases(draw):
    """Adaptation scenario plus a REMAP_BLOCK that splits x into several
    blocks with a short last one."""
    dim = draw(st.sampled_from([1, 2]))
    x_nodes = draw(st.integers(3, 12 if dim == 1 else 5))
    grid = custom_grid(*velocity_set(dim, draw(st.sampled_from([2, 4]))),
                       x_nodes=x_nodes, dim=dim, m_nodes=draw(st.integers(2, 24)),
                       m_max=draw(st.floats(1.25, 4.0)))
    spec = make_spec(grid, f_family=draw(st.sampled_from(["linear", "cubic"])),
                     kappa=draw(st.floats(0.1, 5.0)),
                     eps=10.0 ** draw(st.floats(-6.0, 0.0)))
    n_x = x_nodes ** dim
    step = draw(st.sampled_from([k for k in range(2, n_x) if n_x % k]))
    column = grid.n_v * grid.m_nodes
    block = step * column + draw(st.integers(0, column - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return grid, spec, block, step, rng


@settings(max_examples=60, deadline=None, derandomize=True)
@given(blocked_remap_cases())
def test_blocked_remap_matches_unblocked_reference(case):
    grid, spec, block, step, rng = case
    p = rng.random(grid.field_shape) * (rng.random(grid.field_shape) < 0.8)
    s = rng.uniform(0.0, 5.0, grid.x_shape)
    dt = float(rng.uniform(1e-3, 0.5))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kinetic, "REMAP_BLOCK", block)
        plan = adaptation_plan(s, spec, grid, dt)
        assert plan.gather[0].shape[1] == step
        planned = adaptation_apply(p, s, spec, grid, dt, plan)
        unplanned = adaptation_apply(p, s, spec, grid, dt)
    expected = remap_reference(p, s, spec, grid, dt)
    assert np.array_equal(planned, expected)
    assert np.array_equal(unplanned, expected)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(blocked_remap_cases(), st.sampled_from(["periodic", "free"]))
def test_macro_step_is_strang_composition(case, topology):
    # One shared plan must give the bits of two independently planned
    # half steps around turning and transport.
    grid, spec, block, _, rng = case
    grid = replace(grid, x_topology=topology)
    init = package_initial(DensityField(rng.random(grid.field_shape)), grid)
    state = StepperState.create(grid, spec, init)
    dt = float(rng.uniform(0.1, 1.0)) * state.cfl_dt()
    s = state.signal.values
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kinetic, "REMAP_BLOCK", block)
        stepped = macro_step(state, dt).field.values
        p = adaptation_apply(state.field.values, s, spec, grid, 0.5 * dt)
        p = turning_apply(p, spec, grid, 0.5 * dt, state.tensors)
        p = transport_apply(p, grid, dt)
        p = turning_apply(p, spec, grid, 0.5 * dt, state.tensors)
        p = adaptation_apply(p, s, spec, grid, 0.5 * dt)
    assert np.array_equal(stepped, p)


@st.composite
def layout_cases(draw):
    """Random grid (dim 1-2, periodic or free, two velocities and more), rate
    family, REMAP_BLOCK and a density, for the layout-independence checks."""
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
    block = draw(st.integers(1, 4 * grid.n_v * grid.m_nodes))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return grid, spec, block, rng


@settings(max_examples=80, deadline=None, derandomize=True)
@given(layout_cases())
def test_operators_give_the_same_bits_in_either_layout(case):
    # A C-ordered (x, v, m) density and the same density backed by a
    # (v, m, x) buffer give bit-identical results, and every operator
    # returns its result in the (v, m, x) layout.  Written into an ``out``
    # buffer (NaN-filled, so stale contents would show), each operator
    # gives the same bytes; transport also in place, into its input's own
    # buffer, while turning and the remap refuse that aliasing.
    grid, spec, block, rng = case
    p = rng.random(grid.field_shape) * (rng.random(grid.field_shape) < 0.8)
    s = rng.uniform(0.0, 5.0, grid.x_shape)
    state = StepperState.create(grid, spec, package_initial(DensityField(p), grid))
    dt = float(rng.uniform(0.1, 1.0)) * state.cfl_dt()

    def operators(dens, out=lambda: None):
        return (adaptation_apply(dens, s, spec, grid, 0.5 * dt, out=out()),
                turning_apply(dens, spec, grid, 0.5 * dt, state.tensors, out=out()),
                transport_apply(dens, grid, dt, out=out()))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kinetic, "REMAP_BLOCK", block)
        results = [operators(dens)
                   + (macro_step(replace(state, field=DensityField(dens)), dt).field.values,)
                   for dens in (p, in_layout(p))]
        for dens, fresh in zip((p, in_layout(p)), results):
            into = operators(dens, out=lambda: np.full(vmx(dens).shape, np.nan))
            own = in_layout(dens)
            moved = transport_apply(own, grid, dt, out=vmx(own))
            assert np.shares_memory(moved, own)
            for written, expected in zip(into + (moved,), fresh[:3] + fresh[2:3]):
                assert written.tobytes() == expected.tobytes()
            with pytest.raises(ValueError, match="shares memory"):
                adaptation_apply(own, s, spec, grid, 0.5 * dt, out=vmx(own))
            with pytest.raises(ValueError, match="shares memory"):
                turning_apply(own, spec, grid, 0.5 * dt, state.tensors, out=vmx(own))
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
    # Threaded eps-study members step concurrently; each thread's sub-steps
    # run in its own scratch buffers, so every thread gets the serial bits.
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


@pytest.mark.parametrize("grid_cfg", [
    GridConfig(),
    GridConfig(dim=2, x_nodes=32, x_topology="free", v_count=8, m_nodes=16)],
    ids=["default", "free-2d"])
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
    with pytest.raises(BadConfig, match="not a CHKIN1 dump"):
        dumpio.read_dump(not_a_dump)

    truncated = tmp_path / "short.chk"
    truncated.write_bytes(path.read_bytes()[:-16])
    with pytest.raises(BadConfig, match="payload"):
        dumpio.read_dump(truncated)

    negative = tmp_path / "negative.chk"
    negative.write_bytes(path.read_bytes().replace(b"steps=0\n", b"steps=-1\n"))
    with pytest.raises(BadConfig, match="bookkeeping"):
        dumpio.read_dump(negative)

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
