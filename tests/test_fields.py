"""The density layout and the phase-space sums that must keep their bits across it."""
import numpy as np
import pytest

from chemokin import dumpio
from chemokin.cli import main
from chemokin.config import GridConfig, RunConfig
from chemokin.fields import (in_layout, number_density, pairwise_sum, pbar_of, total_mass,
                             vmx)
from chemokin.kinetic import StepperState, macro_step
from chemokin.model import PhaseGrid, build_scenario, velocity_set


def backed_by_vmx_buffer(p: np.ndarray) -> bool:
    """Whether density p is a view of a C-contiguous (v, m, *x) buffer."""
    return vmx(p).flags.c_contiguous


@pytest.mark.parametrize("lead, trail", [((), (5,)), ((3,), (4,)), ((2,), (3, 2)), ((), ()),
                                         ((2, 3), (4,))])
def test_pairwise_sum_equals_contiguous_sum(lead, trail):
    # Lengths 1-300 cover the sequential (< 8), the 8-way unrolled (<= 128)
    # and the recursive (> 128) regimes of numpy's contiguous-axis sum,
    # with -0.0 terms and magnitudes far apart so any other order shows.
    rng = np.random.default_rng(len(lead) + len(trail))
    axis = len(lead)
    for n in range(1, 301):
        shape = lead + (n,) + trail
        a = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)
        a[rng.random(shape) < 0.05] = -0.0
        expected = np.sum(np.ascontiguousarray(np.moveaxis(a, axis, -1)), axis=-1)
        got = pairwise_sum(np.moveaxis(a, axis, 0))
        assert got.tobytes() == np.asarray(expected).tobytes(), n
    assert pairwise_sum(np.full((9, 2), -0.0)).tobytes() == np.zeros(2).tobytes()


@pytest.mark.parametrize("dim, nx, nv, nm", [(1, 7, 2, 1), (1, 12, 4, 96), (1, 5, 16, 300),
                                             (2, 6, 8, 16), (2, 3, 2, 129)])
def test_density_sums_have_the_bits_of_the_x_outermost_layout(dim, nx, nv, nm):
    v, w = velocity_set(dim, nv)
    grid = PhaseGrid(dim=dim, x_nodes=nx, x_extent=3.0, x_topology="periodic",
                     velocities=v, weights=w, m_nodes=nm, m_max=1.7)
    rng = np.random.default_rng(nm)
    p = rng.random(grid.field_shape) * 10.0 ** rng.integers(-6, 4, grid.field_shape)
    pbar = np.sum(p, axis=-1) * grid.dm
    n = np.sum(pbar * grid.weights, axis=-1)
    for dens in (p, in_layout(p)):
        assert np.array_equal(pbar_of(dens, grid), pbar)
        assert np.array_equal(number_density(dens, grid), n)
        assert total_mass(dens, grid) == float(np.sum(n) * grid.cell_volume)


def test_in_layout_copies_into_a_vmx_buffer():
    p = np.arange(2 * 3 * 4 * 5, dtype=float).reshape(2, 3, 4, 5)
    q = in_layout(p)
    assert backed_by_vmx_buffer(q) and not backed_by_vmx_buffer(p)
    assert np.array_equal(q, p) and not np.shares_memory(q, p)
    assert backed_by_vmx_buffer(q.copy(order="K"))


def test_solver_state_stays_in_the_vmx_layout(tmp_path, monkeypatch):
    # After create, after steps, after --restart and after read_dump the
    # density is a view of a contiguous (v, m, x) buffer.
    cfg = RunConfig(grid=GridConfig(dim=2, x_nodes=6, x_extent=3.0, v_count=4, m_nodes=8))
    grid, spec, init = build_scenario(cfg)
    assert backed_by_vmx_buffer(init.p0.values)
    state = StepperState.create(grid, spec, init)
    assert backed_by_vmx_buffer(state.field.values)
    for _ in range(3):
        state = macro_step(state, state.cfl_dt())
        assert backed_by_vmx_buffer(state.field.values)

    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(f"[grid]\nx_nodes = 16\nv_count = 2\nm_nodes = 12\n\n"
                        f"[run]\nt_end = 0.2\noutput_every = 0.1\nout_dir = {tmp_path / 'out'}\n")
    assert main(["run", str(cfg_path)]) == 0
    dump = dumpio.read_dump(tmp_path / "out" / "dump_0.1.chk")
    assert backed_by_vmx_buffer(dump.values)

    written = []
    real_write = dumpio.write_dump

    def recording_write(path, values, *args, **kwargs):
        written.append(backed_by_vmx_buffer(values))
        real_write(path, values, *args, **kwargs)

    monkeypatch.setattr(dumpio, "write_dump", recording_write)
    assert main(["run", str(cfg_path), "--restart",
                 str(tmp_path / "out" / "dump_0.1.chk")]) == 0
    assert written and all(written)


def test_dump_payload_stays_x_outermost(tmp_path):
    v, w = velocity_set(2, 2)
    grid = PhaseGrid(dim=2, x_nodes=3, x_extent=3.0, x_topology="periodic",
                     velocities=v, weights=w, m_nodes=4, m_max=1.7)
    p = np.arange(np.prod(grid.field_shape), dtype=float).reshape(grid.field_shape)
    path = tmp_path / "d.chk"
    dumpio.write_dump(path, in_layout(p), 0.0, grid, 1.0, "x")
    raw = path.read_bytes()
    assert raw[raw.index(b"END_HEADER\n") + len(b"END_HEADER\n"):] == p.astype("<f8").tobytes()
    assert np.array_equal(dumpio.read_dump(path).values, p)
