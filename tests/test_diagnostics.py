"""Norm reductions, envelope arithmetic and report bookkeeping."""
from dataclasses import astuple

import numpy as np
import pytest

from chemokin.config import GridConfig, RunConfig
from chemokin.diagnostics import (DiagnosticsReport, envelope_check, growth_factor,
                                  reduce_norms)
from chemokin.errors import BadConfig
from chemokin.fields import in_layout
from chemokin.kinetic import StepperState, run
from chemokin.model import PhaseGrid, build_scenario, velocity_set


def scenario(**model_kw):
    cfg = RunConfig()
    cfg.grid = GridConfig(x_nodes=24, x_extent=6.0, v_count=4, m_nodes=16)
    for key, val in model_kw.items():
        setattr(cfg.model, key, val)
    return cfg, *build_scenario(cfg)


def test_zero_field_all_norms_zero():
    cfg, grid, spec, init = scenario()
    row = reduce_norms(np.zeros(grid.field_shape), np.zeros(grid.x_shape),
                       grid, spec.m_plus, t=0.0)
    for name in ("mass", "p_sup", "pbar_sup", "n_sup", "s_l1", "s_sup",
                 "x_moment", "m_moment", "tail_moment"):
        assert getattr(row, name) == 0.0


def test_single_cell_normalization():
    cfg, grid, spec, init = scenario()
    p = np.zeros(grid.field_shape)
    cell = grid.cell_volume * grid.weights[0] * grid.dm
    p[0, 0, 0] = 1.0 / cell
    row = reduce_norms(p, np.zeros(grid.x_shape), grid, spec.m_plus, t=0.0)
    assert row.mass == pytest.approx(1.0, rel=1e-14)
    assert row.p_sup == pytest.approx(1.0 / cell, rel=1e-14)


def test_l1_matches_naive_summation():
    # Oracle: plain nested Python loops.
    cfg, grid, spec, init = scenario()
    rng = np.random.default_rng(2)
    p = rng.random(grid.field_shape)
    row = reduce_norms(p, np.zeros(grid.x_shape), grid, spec.m_plus, t=0.0)
    naive = 0.0
    for i in range(grid.x_nodes):
        for k in range(grid.n_v):
            for j in range(grid.m_nodes):
                naive += p[i, k, j] * grid.dx * grid.weights[k] * grid.dm
    assert row.mass == pytest.approx(naive, rel=1e-14)


def test_reductions_bitwise_repeatable():
    cfg, grid, spec, init = scenario()
    rng = np.random.default_rng(4)
    p = rng.random(grid.field_shape)
    s = rng.random(grid.x_shape)
    a = reduce_norms(p, s, grid, spec.m_plus, t=0.0)
    b = reduce_norms(p, s, grid, spec.m_plus, t=0.0)
    assert all(getattr(a, f) == getattr(b, f) for f in
               ("mass", "p_sup", "s_l1", "x_moment", "m_moment"))


@pytest.mark.parametrize("dim, nx, nv, nm", [(1, 24, 4, 16), (1, 7, 2, 33), (2, 9, 8, 12)])
def test_moments_bitwise_equal_to_masked_sums(dim, nx, nv, nm):
    # The integrals add in one order whatever the density's layout, so
    # diagnostics.csv keeps its bytes: the mass is sum_x n(x) dx^dim with n
    # summed over the contiguous m and v axes of the x-outermost array, and
    # the m-moments are m-weighted sums within round-off of the masked ones.
    v, w = velocity_set(dim, nv)
    grid = PhaseGrid(dim=dim, x_nodes=nx, x_extent=3.0, x_topology="periodic",
                     velocities=v, weights=w, m_nodes=nm, m_max=1.7)
    rng = np.random.default_rng(nm)
    measure = grid.cell_volume * grid.dm
    m_c = grid.m_centers
    wv = grid.weights[:, None]
    for m_plus in (0.2, 0.5, 0.85, 1.2):
        p = rng.random(grid.field_shape) * 10.0 ** rng.integers(-6, 4, grid.field_shape)
        row = reduce_norms(p, np.zeros(grid.x_shape), grid, m_plus, t=0.0)
        assert astuple(reduce_norms(in_layout(p), np.zeros(grid.x_shape), grid, m_plus,
                                    t=0.0)) == astuple(row)
        tail = m_c > 2.0 * m_plus
        n = np.sum(np.sum(p, axis=-1) * grid.dm * grid.weights, axis=-1)
        assert row.mass == float(np.sum(n) * grid.cell_volume)
        assert row.m_moment == pytest.approx(float(np.sum(p * wv * m_c) * measure),
                                             rel=1e-13)
        assert row.tail_moment == pytest.approx(
            float(np.sum(p[..., tail] * wv * m_c[tail]) * measure), rel=1e-13)
        assert (row.tail_moment == 0.0) == (not tail.any())


def test_growth_factor_arithmetic():
    # Instantiation of the envelope multiplier at V_d = 2, C_T = 1, t = 1.
    assert growth_factor(2.0 * 1.0, 1.0) == pytest.approx(1.0 + 4.0 * np.e ** 4)


def test_margins_zero_at_t0_for_saturating_data():
    cfg, grid, spec, init = scenario()
    s0 = np.zeros(grid.x_shape)
    row = reduce_norms(init.p0.values, s0, grid, spec.m_plus, t=0.0)
    envelope_check(row, init, spec, grid)
    assert row.margin_pbar == pytest.approx(0.0, abs=1e-15)
    assert row.margin_p == pytest.approx(0.0, abs=1e-15)


def test_stationary_solution_margin_grows():
    # x- and v-uniform data under a constant kernel is a steady state, so
    # the observed sup stays put while the envelope grows.
    cfg = RunConfig()
    cfg.grid = GridConfig(x_nodes=16, x_extent=4.0, v_count=2, m_nodes=16)
    cfg.model.t_family = "constant"
    cfg.initial.profile = "uniform"
    grid, spec, init = build_scenario(cfg)
    state = StepperState.create(grid, spec, init)
    report = DiagnosticsReport(init, spec, grid)
    pbar0 = init.pbar0_sup
    state, report = run(state, 0.4, 0.1, report=report)
    sups = [r.pbar_sup for r in report.rows]
    assert all(s == pytest.approx(pbar0, rel=1e-12) for s in sups)
    margins = [r.margin_pbar for r in report.rows]
    assert all(b > a for a, b in zip(margins, margins[1:]))


def test_sup_chain_inequality_every_row():
    cfg, grid, spec, init = scenario()
    state = StepperState.create(grid, spec, init)
    report = DiagnosticsReport(init, spec, grid)
    run(state, 0.5, 0.1, report=report)
    for row in report.rows:
        assert row.n_sup <= grid.v_measure * row.pbar_sup * (1 + 1e-12)


def test_rows_strictly_increasing_in_t():
    cfg, grid, spec, init = scenario()
    report = DiagnosticsReport(init, spec, grid)
    p, s = init.p0.values, np.zeros(grid.x_shape)
    report.observe(p, s, 0.0)
    with pytest.raises(BadConfig):
        report.observe(p, s, 0.0)


def test_envelope_failure_flagged():
    cfg, grid, spec, init = scenario()
    report = DiagnosticsReport(init, spec, grid)
    bad = init.p0.values * 10.0  # sup exceeds its t = 0 envelope
    report.observe(bad, np.zeros(grid.x_shape), 0.0)
    assert report.failed
    assert any("margin" in msg for msg in report.failures)


def test_csv_layout(tmp_path):
    cfg, grid, spec, init = scenario()
    report = DiagnosticsReport(init, spec, grid)
    report.observe(init.p0.values, np.zeros(grid.x_shape), 0.0)
    path = tmp_path / "diag.csv"
    report.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == ("t,mass,p_sup,pbar_sup,n_sup,s_l1,s_sup,x_moment,"
                        "m_moment,tail_moment,margin_pbar,margin_n,margin_s_l1,"
                        "margin_s_sup,margin_p")
    assert len(lines) == 2
    assert float(lines[1].split(",")[1]) == pytest.approx(init.mass)


def test_x_moment_rate_and_control():
    cfg, grid, spec, init = scenario()
    state = StepperState.create(grid, spec, init)
    report = DiagnosticsReport(init, spec, grid)
    run(state, 0.6, 0.2, report=report)
    rates = report.x_moment_rates()
    assert rates.size == len(report.rows) - 1
    assert report.moment_control_ok()
