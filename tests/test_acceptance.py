"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
live).  Criteria 6-8 run on the shipped study scenario (finer m-grid and
macro step than the general default; documented in the README); the
conservation/envelope/moment criteria run on the default scenario.
"""
import math
from dataclasses import replace as dc_replace
from pathlib import Path

import numpy as np
import pytest

from chemokin.cli import main as cli_main
from chemokin.config import GridConfig, RunConfig, parse_config
from chemokin.diagnostics import DiagnosticsReport
from chemokin.elliptic import kernel_check, solve_signal, stencil_residual
from chemokin.fields import DensityField
from chemokin.kinetic import StepperState, macro_step, pbar_of, run as kinetic_run
from chemokin.limit import eps_study
from chemokin.model import (AdaptationModel, ModelSpec, PhaseGrid, build_scenario,
                            package_initial, velocity_set, TurningModel)
from chemokin.oracle import SignalHistory, duhamel_solve

EPS_LIST = [0.2, 0.1, 0.05, 0.025]
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def report_line(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def study_config() -> RunConfig:
    """The shipped study scenario: finer m-grid and macro cadence."""
    return parse_config(CONFIG_DIR / "study.cfg")


@pytest.fixture(scope="module")
def long_run():
    """Criterion 1 workload: 1000 macro steps of the default scenario."""
    cfg = parse_config(CONFIG_DIR / "default.cfg")
    grid, spec, init = build_scenario(cfg)
    state = StepperState.create(grid, spec, init)
    report = DiagnosticsReport(init, spec, grid)
    report.observe(state.field.values, state.signal.values, state.t)
    dt = state.cfl_dt()
    for step in range(1, 1001):
        state = macro_step(state, dt)
        if step % 25 == 0:
            report.observe(state.field.values, state.signal.values, state.t)
    return state, report, grid, spec, init


@pytest.fixture(scope="module")
def study():
    cfg = study_config()
    report = eps_study(cfg, EPS_LIST)
    grid, spec, init = build_scenario(cfg)
    return report, grid, spec, init


def test_criterion_1_conservation(long_run):
    state, report, grid, spec, init = long_run
    drift = state.max_mass_defect
    pmin = float(state.field.values.min())
    ok = drift <= 1e-12 and pmin >= 0.0
    report_line(1, "conservation", ok,
                f"1000 steps, |mass drift| = {drift:.3e} <= 1e-12, min p = {pmin:.3e} >= 0")
    assert ok


def test_criterion_2_elliptic_fidelity():
    v, w = velocity_set(1, 2)
    per = PhaseGrid(dim=1, x_nodes=192, x_extent=12.0, x_topology="periodic",
                    velocities=v, weights=w, m_nodes=4, m_max=1.0)
    x = per.x_centers
    n = np.exp(-0.5 * x ** 2) * (1.1 + 0.4 * np.sin(1.3 * x) ** 2)
    s = solve_signal(n, per)
    res = stencil_residual(s.values, n, per)
    res_ok = res <= 1e-10 * float(np.abs(n).max())

    free = PhaseGrid(dim=1, x_nodes=256, x_extent=8.0, x_topology="free",
                     velocities=v, weights=w, m_nodes=4, m_max=1.0)
    delta = np.zeros(free.x_nodes)
    i0 = free.x_nodes // 2
    delta[i0] = 1.0 / free.dx
    s_free = solve_signal(delta, free)
    delta_err = abs(float(s_free.values[i0]) - 0.5)
    delta_ok = delta_err <= free.dx

    kern = kernel_check(free)
    mass = next(c for c in kern.checks if c.name == "mass")
    mass_ok = 1.0 - 1e-6 <= mass.value <= 1.0

    ok = res_ok and delta_ok and mass_ok
    report_line(2, "elliptic fidelity", ok,
                f"residual = {res:.2e} <= 1e-10*|n|, |S(x0)-0.5| = {delta_err:.2e} "
                f"<= dx = {free.dx:.3g}, kernel mass = {mass.value:.9f}")
    assert ok


def _oracle_level(n: int, t: float = 0.4):
    v, w = velocity_set(1, 2)
    grid = PhaseGrid(dim=1, x_nodes=n, x_extent=1.6, x_topology="periodic",
                     velocities=v, weights=w, m_nodes=n, m_max=1.7)
    spec = ModelSpec(
        adaptation=AdaptationModel(kind="linear", kappa=0.25, s_ref=0.5,
                                   m_minus=0.2, m_plus=1.2),
        turning=TurningModel(kind="separable-uniform", lambda0=0.4, beta=0.4,
                             m_c=0.7, delta=0.25),
        epsilon=1.0)
    spec.validate_on(grid)
    x = grid.x_centers
    p0 = (np.exp(-(x / 0.4) ** 2)[:, None, None]
          * np.exp(-0.5 * ((grid.m_centers - 0.8) / 0.22) ** 2)[None, None, :]
          * np.ones((1, grid.n_v, 1)))
    init = package_initial(DensityField(p0.copy()), grid)
    state = StepperState.create(grid, spec, init, freeze_signal=True)
    hist = SignalHistory.constant(state.signal.values, grid)
    dt = 2.0 * grid.dx  # unit Courant number for the two-speed set
    for _ in range(int(round(t / dt))):
        state = macro_step(state, dt)
    oracle = duhamel_solve(init.p0, hist, spec, grid, t, picard_iters=100,
                           n_time=24)
    gap = float(np.sum(np.abs(state.field.values - oracle.field.values)
                       * grid.weights[:, None]) * grid.cell_volume * grid.dm)
    return gap / init.mass


def test_criterion_3_oracle_equivalence():
    levels = (8, 16, 32, 64, 128)
    gaps = [_oracle_level(n) for n in levels]
    order = math.log2(gaps[0] / gaps[-1]) / (len(gaps) - 1)
    finest = gaps[-1]
    ok = order >= 0.9 and finest <= 5e-3
    report_line(3, "oracle equivalence", ok,
                f"gaps = {['%.2e' % g for g in gaps]}, measured order = {order:.3f} "
                f">= 0.9, finest = {finest:.2e} <= 5e-3")
    assert ok


def test_criterion_4_a_priori_envelopes(long_run, study):
    state, long_report, grid, spec, init = long_run
    study_report, sgrid, sspec, sinit = study

    cfg = parse_config(CONFIG_DIR / "default.cfg")
    g2, sp2, in2 = build_scenario(cfg)
    st2 = StepperState.create(g2, sp2, in2)
    rep2 = DiagnosticsReport(in2, sp2, g2)
    kinetic_run(st2, 1.0, 0.1, report=rep2)

    tol = 1e-8
    study_margins_ok = all(
        r.env_pbar_margin >= -tol * (r.env_pbar_margin + sinit.pbar0_sup)
        and r.env_n_margin >= -tol * (r.env_n_margin + sgrid.v_measure * sinit.pbar0_sup)
        for r in study_report.rows)
    ok = (not long_report.failed) and (not rep2.failed) and study_margins_ok
    report_line(4, "a priori envelopes", ok,
                f"long-run min margin = {long_report.min_margin():.3e}, t=1 run min "
                f"margin = {rep2.min_margin():.3e}, study rows = {len(study_report.rows)}, "
                f"all >= -1e-8 relative")
    assert ok


def test_criterion_5_moment_controls(long_run, study):
    state, long_report, grid, spec, init = long_run
    study_report, sgrid, sspec, sinit = study

    rates_ok = long_report.moment_control_ok(tol_rel=1e-8)
    cap = sinit.mass * (1 + 1e-8)
    study_rates_ok = all(r.xmoment_rate <= cap for r in study_report.rows)
    study_tail_ok = all(r.tail_moment <= sinit.m_moment * (1 + 1e-12)
                        for r in study_report.rows)

    # nontrivial tail scenario: truncation well above 2*m_plus, uniform m-slab
    cfg = RunConfig()
    cfg.grid = GridConfig(x_nodes=32, x_extent=8.0, v_count=2, m_nodes=64, m_max=3.0)
    cfg.model.m_minus, cfg.model.m_plus = 0.2, 0.9
    tgrid, tspec, _ = build_scenario(cfg)
    slab = (np.exp(-0.5 * tgrid.x_centers ** 2)[:, None, None]
            * np.ones((1, tgrid.n_v, tgrid.m_nodes)))
    tinit = package_initial(DensityField(slab), tgrid)
    tstate = StepperState.create(tgrid, tspec, tinit)
    trep = DiagnosticsReport(tinit, tspec, tgrid)
    kinetic_run(tstate, 0.8, 0.1, report=trep)
    tails = [r.tail_moment for r in trep.rows]
    tail_ok = tails[0] > 0.0 and all(t <= tinit.m_moment * (1 + 1e-12) for t in tails)

    ok = rates_ok and study_rates_ok and study_tail_ok and tail_ok
    report_line(5, "moment controls", ok,
                f"x-moment rate <= mass(1+1e-8) on all intervals (long run and study); "
                f"tail moment <= initial m-moment for all eps (max tail/m0 = "
                f"{max(tails) / tinit.m_moment:.3f} on the loaded-tail scenario)")
    assert ok


def test_criterion_6_concentration(study):
    study_report, grid, spec, init = study
    finals = study_report.final_rows()
    widths = [r.w1 for r in finals]
    decreasing = all(b < a for a, b in zip(widths, widths[1:]))
    bar = max(3.0 * grid.dm, 0.35 * widths[0])
    fine_ok = widths[-1] <= bar
    ok = decreasing and fine_ok
    report_line(6, "fast-adaptation concentration", ok,
                f"w1 at t=1: {['%.3e' % w for w in widths]}, strictly decreasing = "
                f"{decreasing}, finest = {widths[-1]:.3e} <= max(3 dm, 0.35 w0) = {bar:.3e}")
    assert ok


def test_criterion_7_limit_convergence(study):
    study_report, grid, spec, init = study
    ratios = study_report.l1_gap_ratios()
    ok = all(r >= 1.3 for r in ratios)
    gaps = [r.l1_gap for r in study_report.final_rows()]
    report_line(7, "limit-equation convergence", ok,
                f"L1 gaps = {['%.2e' % g for g in gaps]}, halving ratios = "
                f"{['%.3f' % r for r in ratios]}, all >= 1.3")
    assert ok


def test_criterion_8_m_independent_degeneracy():
    cfg = study_config()
    cfg.model.t_family = "constant"
    rels = []
    for eps in EPS_LIST:
        cfg_eps = dc_replace(cfg, model=dc_replace(cfg.model, eps=eps))
        grid, spec, init = build_scenario(cfg_eps)
        kin = StepperState.create(grid, spec, init)
        kin, _ = kinetic_run(kin, cfg.run.t_end, cfg.run.output_every)
        from chemokin.limit import oda_run
        oda = oda_run(grid, spec, init, cfg.run.t_end, cfg.run.output_every)
        gap = float(np.sum(np.abs(pbar_of(kin.field.values, grid)
                                  - pbar_of(oda.field.values, oda.grid))
                           * grid.weights) * grid.cell_volume)
        rels.append(gap / init.mass)
    ok = all(r <= 2e-3 for r in rels)
    report_line(8, "m-independent degeneracy", ok,
                f"relative L1(kinetic pbar, reduced) per eps = "
                f"{['%.2e' % r for r in rels]}, all <= 2e-3")
    assert ok


def test_criterion_9_determinism(tmp_path):
    cfg_text = """\
[grid]
x_nodes = 64
x_extent = 8.0
v_count = 4
m_nodes = 48

[model]
eps = 0.1

[initial]
width = 1.0

[run]
t_end = 0.3
output_every = 0.1
out_dir = {out}
"""
    cfg_a = tmp_path / "a.cfg"
    cfg_a.write_text(cfg_text.format(out=tmp_path / "out_a"))
    cfg_b = tmp_path / "b.cfg"
    cfg_b.write_text(cfg_text.format(out=tmp_path / "out_b"))

    assert cli_main(["run", str(cfg_a)]) == 0
    assert cli_main(["run", str(cfg_b)]) == 0
    same_twice = ((tmp_path / "out_a" / "final.chk").read_bytes()
                  == (tmp_path / "out_b" / "final.chk").read_bytes())

    cfg_half = tmp_path / "half.cfg"
    cfg_half.write_text(cfg_text.format(out=tmp_path / "out_half")
                        .replace("t_end = 0.3", "t_end = 0.1"))
    assert cli_main(["run", str(cfg_half)]) == 0
    cfg_resume = tmp_path / "resume.cfg"
    cfg_resume.write_text(cfg_text.format(out=tmp_path / "out_resume"))
    assert cli_main(["run", str(cfg_resume), "--restart",
                     str(tmp_path / "out_half" / "dump_0.1.chk")]) == 0
    restart_same = ((tmp_path / "out_a" / "final.chk").read_bytes()
                    == (tmp_path / "out_resume" / "final.chk").read_bytes())

    ok = same_twice and restart_same
    report_line(9, "determinism", ok,
                f"identical reruns bitwise equal = {same_twice}, restart equals "
                f"straight-through = {restart_same}")
    assert ok
