"""Cross-module runs off the main acceptance path: 2-d, free space, angle kernel."""
import numpy as np
import pytest

from chemokin.config import GridConfig, RunConfig
from chemokin.diagnostics import DiagnosticsReport
from chemokin.fields import total_mass
from chemokin.kinetic import StepperState, macro_step, run as kinetic_run
from chemokin.limit import concentration_metrics, oda_run
from chemokin.model import build_scenario


def build(**overrides):
    cfg = RunConfig()
    cfg.grid = GridConfig(x_nodes=24, x_extent=6.0, v_count=4, m_nodes=20)
    for key, val in overrides.items():
        for section in (cfg.grid, cfg.model, cfg.initial, cfg.run):
            if hasattr(section, key):
                setattr(section, key, val)
                break
        else:
            raise KeyError(key)
    return cfg, *build_scenario(cfg)


def test_two_dimensional_run_conserves_and_stays_positive():
    cfg, grid, spec, init = build(dim=2, x_nodes=12, v_count=6, m_nodes=16)
    state = StepperState.create(grid, spec, init)
    report = DiagnosticsReport(init, spec, grid)
    state, report = kinetic_run(state, 0.3, 0.1, report=report)
    assert state.max_mass_defect <= 1e-12
    assert float(state.field.values.min()) >= 0.0
    assert not report.failed
    assert report.moment_control_ok()


def test_two_dimensional_run_deterministic():
    cfg, grid, spec, init = build(dim=2, x_nodes=10, v_count=4, m_nodes=12)
    a = StepperState.create(grid, spec, init)
    b = StepperState.create(grid, spec, init)
    a, _ = kinetic_run(a, 0.2, 0.1)
    b, _ = kinetic_run(b, 0.2, 0.1)
    assert np.array_equal(a.field.values, b.field.values)


def test_two_dimensional_concentration_metrics():
    cfg, grid, spec, init = build(dim=2, x_nodes=10, v_count=4, m_nodes=16,
                                  eps=0.05)
    state = StepperState.create(grid, spec, init)
    state, _ = kinetic_run(state, 0.4, 0.1)
    w1 = concentration_metrics(state.field.values, state.signal.values, spec, grid)
    assert np.isfinite(w1)
    # relaxed for ~8 relaxation times: width collapses toward the grid scale
    assert w1 <= 4 * grid.dm


def test_two_dimensional_oda_runs():
    cfg, grid, spec, init = build(dim=2, x_nodes=10, v_count=4, m_nodes=12)
    state = oda_run(grid, spec, init, 0.3, 0.1)
    assert total_mass(state.field.values, state.grid) == pytest.approx(init.mass, rel=1e-12)
    assert state.field.values.min() >= 0.0


def test_free_topology_outflow_only():
    # Truncated free space: interior dynamics conserve; mass can only leave.
    cfg, grid, spec, init = build(x_topology="free", x_nodes=64, x_extent=16.0,
                                  width=0.8)
    state = StepperState.create(grid, spec, init)
    masses = [total_mass(state.field.values, grid)]
    for _ in range(30):
        state = macro_step(state, 0.05)
        masses.append(total_mass(state.field.values, grid))
    assert float(state.field.values.min()) >= 0.0
    assert all(b <= a * (1 + 1e-13) for a, b in zip(masses, masses[1:]))
    # the bump's tails stay clear of the boundary on this horizon
    assert masses[-1] == pytest.approx(masses[0], rel=1e-9)


def test_angle_kernel_full_and_reduced_runs():
    cfg, grid, spec, init = build(t_family="separable-angle")
    state = StepperState.create(grid, spec, init)
    state, _ = kinetic_run(state, 0.3, 0.1)
    assert state.max_mass_defect <= 1e-12
    assert float(state.field.values.min()) >= 0.0

    oda = oda_run(grid, spec, init, 0.3, 0.1)
    assert total_mass(oda.field.values, oda.grid) == pytest.approx(init.mass, rel=1e-12)


def test_cubic_family_full_run():
    cfg, grid, spec, init = build(f_family="cubic", eps=0.2)
    state = StepperState.create(grid, spec, init)
    report = DiagnosticsReport(init, spec, grid)
    state, report = kinetic_run(state, 0.5, 0.1, report=report)
    assert state.max_mass_defect <= 1e-12
    assert float(state.field.values.min()) >= 0.0
    assert not report.failed
