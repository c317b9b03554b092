"""The density layout and the phase-space sums that must keep their bits across it."""
import math

import numpy as np
import pytest

from chemokin import dumpio
from chemokin.cli import main
from chemokin.config import GridConfig, RunConfig
from chemokin.fields import in_layout, number_density, pbar_of, total_mass, vmx
from chemokin.kinetic import StepperState, macro_step
from chemokin.model import PhaseGrid, build_scenario, velocity_set


def backed_by_vmx_buffer(p: np.ndarray) -> bool:
    """Whether density p is a view of a C-contiguous (v, m, *x) buffer."""
    return vmx(p).flags.c_contiguous


@pytest.mark.parametrize("dim, nx, nv, nm", [(1, 7, 2, 1), (1, 12, 4, 96), (1, 5, 16, 300),
                                             (2, 6, 8, 16), (2, 3, 2, 129), (2, 4, 4, 7)])
def test_density_sums_have_the_bits_of_the_x_outermost_layout(dim, nx, nv, nm):
    # An x-outermost (C-ordered (x, v, m)) density sums to the bits of its
    # (v, m, x) copy, and each m-sum is within (M - 1) u of the exact one.
    # Unit m-cells make pbar the bare m-sum; magnitudes spread over ten
    # decades so any change of order shows in the bits.
    v, w = velocity_set(dim, nv)
    grid = PhaseGrid(dim=dim, x_nodes=nx, x_extent=3.0, x_topology="periodic",
                     velocities=v, weights=w, m_nodes=nm, m_max=float(nm))
    rng = np.random.default_rng(nm)
    p = rng.random(grid.field_shape) * 10.0 ** rng.integers(-6, 4, grid.field_shape)
    q = in_layout(p)
    assert np.array_equal(pbar_of(p, grid), pbar_of(q, grid))
    assert np.array_equal(number_density(p, grid), number_density(q, grid))
    assert total_mass(p, grid) == total_mass(q, grid)

    pbar = pbar_of(p, grid).reshape(-1)
    exact = np.array([math.fsum(row) for row in p.reshape(-1, nm)])
    assert np.all(np.abs(pbar - exact) <= (nm - 1) * 2.0 ** -53 * exact)


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


def test_dump_payload_is_the_vmx_buffer(tmp_path):
    v, w = velocity_set(2, 2)
    grid = PhaseGrid(dim=2, x_nodes=3, x_extent=3.0, x_topology="periodic",
                     velocities=v, weights=w, m_nodes=4, m_max=1.7)
    p = np.arange(np.prod(grid.field_shape), dtype=float).reshape(grid.field_shape)
    path = tmp_path / "d.chk"
    dumpio.write_dump(path, in_layout(p), 0.0, grid, 1.0, "x", steps=0, max_mass_defect=0.0)
    raw = path.read_bytes()
    payload = raw[raw.index(b"END_HEADER\n") + len(b"END_HEADER\n"):]
    assert payload == vmx(p).tobytes()
    assert payload != p.astype("<f8").tobytes()
    assert np.array_equal(dumpio.read_dump(path).values, p)


@pytest.mark.parametrize("dim, x_nodes", [(1, 7), (1, 300), (2, 3), (2, 24)])
def test_dump_payload_is_the_row_major_density(tmp_path, dim, x_nodes):
    # The payload is the row-major (v, m, *x) buffer's bytes, also when the
    # density written is x-outermost in memory, and the read is bitwise the
    # written density.
    v, w = velocity_set(dim, 4)
    grid = PhaseGrid(dim=dim, x_nodes=x_nodes, x_extent=3.0, x_topology="free",
                     velocities=v, weights=w, m_nodes=5, m_max=1.7)
    values = in_layout(np.random.default_rng(x_nodes).random(grid.field_shape))
    for written in (values, np.ascontiguousarray(values)):
        path = tmp_path / "d.chk"
        dumpio.write_dump(path, written, 0.0, grid, 1.0, "x", steps=0, max_mass_defect=0.0)
        raw = path.read_bytes()
        payload = raw[raw.index(b"END_HEADER\n") + len(b"END_HEADER\n"):]
        assert payload == vmx(values).tobytes()
        read = dumpio.read_dump(path).values
        assert backed_by_vmx_buffer(read) and read.tobytes() == values.tobytes()


def test_read_dump_holds_the_file_and_the_density_only(tmp_path):
    # The payload is read straight into the buffer it returns, so a read
    # peaks at that density (and a byte mask), not a second density for the
    # file's bytes or a transposing copy.
    import tracemalloc
    v, w = velocity_set(2, 8)
    grid = PhaseGrid(dim=2, x_nodes=32, x_extent=8.0, x_topology="free",
                     velocities=v, weights=w, m_nodes=16, m_max=1.7)
    values = in_layout(np.random.default_rng(0).random(grid.field_shape))
    path = tmp_path / "d.chk"
    dumpio.write_dump(path, values, 0.0, grid, 1.0, "x", steps=0, max_mass_defect=0.0)
    tracemalloc.start()
    try:
        read = dumpio.read_dump(path).values
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert read.tobytes() == values.tobytes()
    assert peak < 1.5 * values.nbytes, peak / values.nbytes
