"""Command-line interface: run, study-eps, verify, compare.

Exit codes are stable: 0 success, 2 bad config, 3 I/O trouble,
4 verification failure (a failed check, or a ``SolverFailure`` such as a
negative density or a CFL violation mid-run).  ``CHEMOKIN_OUT`` overrides
the configured output directory.  All outputs are deterministic for a
fixed config with threads=1.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace as dc_replace
from pathlib import Path

import numpy as np

from . import dumpio
from .config import RunConfig, RunSettings, parse_config
from .diagnostics import DiagnosticsReport
from .elliptic import kernel_check, solve_signal, stencil_residual
from .errors import BadConfig, ChemokinError, SolverFailure
from .fields import DensityField, number_density, total_mass
from .kinetic import StepperState, run as kinetic_run
from .limit import eps_study
from .model import PhaseGrid, build_scenario, package_initial, velocity_set
from .oracle import SignalHistory, duhamel_solve

EXIT_OK = 0
EXIT_BAD_CONFIG = 2
EXIT_IO = 3
EXIT_VERIFY = 4


def _out_dir(cfg: RunConfig) -> Path:
    out = os.environ.get("CHEMOKIN_OUT", cfg.run.out_dir)
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _dump_name(t: float) -> str:
    return f"dump_{t:.9g}.chk"


def cmd_run(cfg: RunConfig, restart: str | None = None) -> int:
    grid, spec, initial = build_scenario(cfg)
    state = StepperState.create(grid, spec, initial)
    scenario = cfg.scenario_hash()

    if restart is not None:
        dump = dumpio.read_dump(restart)
        dumpio.check_compatible(dump, grid, scenario)
        # The dump is outside input: a NaN or negative cell is rejected here
        # (bad config), not met later as a solver failure.  mass0 stays the
        # scenario's initial mass (the hash pins it), and the step count and
        # largest defect resume from the dump, so the resumed run reports
        # what the uninterrupted one would.
        state = dc_replace(
            state,
            field=package_initial(DensityField(dump.values, dump.t), grid).p0,
            signal=solve_signal(number_density(dump.values, grid), grid),
            step_count=dump.steps,
            max_mass_defect=dump.max_mass_defect,
        )

    out = _out_dir(cfg)
    report = DiagnosticsReport(initial, spec, grid)

    def write(path: Path, st: StepperState) -> None:
        dumpio.write_dump(path, st.field.values, st.t, grid, spec.epsilon, scenario,
                          steps=st.step_count, max_mass_defect=st.max_mass_defect)

    state, _ = kinetic_run(state, cfg.run.t_end, cfg.run.output_every, report=report,
                           observer=lambda st: write(out / _dump_name(st.t), st))
    write(out / "final.chk", state)
    report.write_csv(out / "diagnostics.csv")

    if report.failed:
        for line in report.failures:
            print(f"FAIL envelope: {line}", file=sys.stderr)
        return EXIT_VERIFY
    print(f"run complete: t = {state.t:g}, steps = {state.step_count}, "
          f"max mass defect = {state.max_mass_defect:.3e}, out = {out}")
    return EXIT_OK


def cmd_study_eps(cfg: RunConfig, eps_list: list[float],
                  t_end: float | None = None) -> int:
    report = eps_study(cfg, eps_list, t_end)
    out = _out_dir(cfg)
    path = out / "study_eps.csv"
    report.write_csv(path)
    finals = report.final_rows()
    print(f"eps study written to {path}")
    for row in finals:
        print(f"  eps = {row.eps:<8g} w1 = {row.w1:.6e}  l1_gap = {row.l1_gap:.6e}")
    print(f"  w1 strictly decreasing: {report.w1_strictly_decreasing()}")
    ratios = ", ".join(f"{r:.2f}" for r in report.l1_gap_ratios())
    print(f"  l1 gap ratios per halving: [{ratios}]")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _check(name: str, ok: bool, detail: str, lines: list[str]) -> bool:
    lines.append(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return ok


def _verify_elliptic(lines: list[str]):
    ok = True
    v, w = velocity_set(1, 2)
    per = PhaseGrid(dim=1, x_nodes=128, x_extent=12.0, x_topology="periodic",
                    velocities=v, weights=w, m_nodes=4, m_max=1.0)
    x = per.x_centers
    n = np.exp(-x ** 2) * (1.2 + np.sin(0.7 * x) ** 2)
    s = solve_signal(n, per)
    res = stencil_residual(s.values, n, per)
    bound = 1e-10 * float(np.abs(n).max())
    ok &= _check("spectral residual", res <= bound,
                 f"{res:.3e} <= {bound:.3e}", lines)

    free = PhaseGrid(dim=1, x_nodes=256, x_extent=8.0, x_topology="free",
                     velocities=v, weights=w, m_nodes=4, m_max=1.0)
    delta = np.zeros(free.x_nodes)
    i0 = free.x_nodes // 2
    delta[i0] = 1.0 / free.dx
    s_free = solve_signal(delta, free)
    err = abs(float(s_free.values[i0]) - 0.5)
    ok &= _check("free-space delta", err <= free.dx,
                 f"|S(x0) - 0.5| = {err:.3e} <= dx = {free.dx:.3e}", lines)

    rep = kernel_check(free)
    for c in rep.checks:
        ok &= _check(f"kernel {c.name}", c.passed,
                     f"value = {c.value:.8g}, expected {c.expected}", lines)
    return ok, rep


def _verify_oracle(lines: list[str]) -> bool:
    from .config import GridConfig, InitialConfig, ModelConfig
    from .kinetic import macro_step
    cfg = RunConfig(
        grid=GridConfig(dim=1, x_nodes=16, x_extent=1.6, v_count=2, m_nodes=16),
        model=ModelConfig(f_family="linear", kappa=0.25, s_ref=0.5,
                          m_minus=0.2, m_plus=1.2, t_family="separable-uniform",
                          lambda0=0.4, beta=0.4, m_c=0.7, delta=0.25, eps=1.0),
        initial=InitialConfig(profile="gaussian", center=0.0, width=0.4, mass=1.0),
        run=RunSettings(t_end=0.4, output_every=0.4),
    )
    grid, spec, initial = build_scenario(cfg)
    state = StepperState.create(grid, spec, initial, freeze_signal=True)
    s_hist = SignalHistory.constant(state.signal.values, grid)
    t_end = cfg.run.t_end
    dt = 2.0 * grid.dx  # unit Courant number for the two-speed velocity set
    for _ in range(int(round(t_end / dt))):
        state = macro_step(state, dt)
    oracle = duhamel_solve(initial.p0, s_hist, spec, grid, t_end,
                           picard_iters=60, n_time=24)
    rel = total_mass(np.abs(state.field.values - oracle.field.values), grid) / initial.mass
    return _check("oracle cross-validation", rel <= 0.05,
                  f"relative L1 gap = {rel:.3e} <= 0.05 at 16x2x16, "
                  f"check sweeps = {oracle.iterations}, fixed-point residual = "
                  f"{oracle.sup_diffs[-1]:.1e}", lines)


def _verify_envelopes(scenario: tuple, run: RunSettings, lines: list[str]) -> bool:
    grid, spec, initial = scenario
    state = StepperState.create(grid, spec, initial)
    report = DiagnosticsReport(initial, spec, grid)
    t_end = min(run.t_end, 1.0)
    state, _ = kinetic_run(state, t_end, run.output_every, report=report)
    ok = _check("envelopes", not report.failed,
                f"min margin = {report.min_margin():.3e} over {len(report.rows)} rows",
                lines)
    drift = state.max_mass_defect
    ok &= _check("mass conservation", drift <= 1e-12 * max(1.0, t_end),
                 f"max relative defect = {drift:.3e}", lines)
    ok &= _check("x-moment control", report.moment_control_ok(),
                 "d/dt of <x>-moment below initial mass on every interval", lines)
    ok &= _check("positivity", float(state.field.values.min()) >= 0.0,
                 f"min p = {float(state.field.values.min()):.3e}", lines)
    return ok


def cmd_verify(cfg: RunConfig) -> int:
    scenario = build_scenario(cfg)  # a bad config fails before any check runs
    lines: list[str] = []
    ok_ell, kernel_report = _verify_elliptic(lines)
    ok = ok_ell
    ok &= _verify_oracle(lines)
    ok &= _verify_envelopes(scenario, cfg.run, lines)
    out = _out_dir(cfg)
    kernel_report.write_csv(out / "kernel_check.csv")
    for line in lines:
        print(line)
    print(f"verify: {'OK' if ok else 'FAILED'} (kernel report at {out / 'kernel_check.csv'})")
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_compare(path_a: str, path_b: str) -> int:
    a = dumpio.read_dump(path_a)
    b = dumpio.read_dump(path_b)
    # Dumps of two scenarios on one grid (say two eps) compare; two grids do not.
    if not a.grid.same_as(b.grid):
        raise BadConfig(f"incomparable dumps: {path_a} and {path_b} differ in grid signature")
    for path, dump in ((path_a, a), (path_b, b)):
        if not np.all(np.isfinite(dump.values)):
            raise BadConfig(f"{path}: dump holds non-finite density values")
    gap = np.abs(a.values - b.values)
    l1 = total_mass(gap, a.grid)
    linf = float(gap.max(initial=0.0))
    print(f"t: {a.t!r} vs {b.t!r}")
    print(f"L1 distance:   {l1!r}")
    print(f"Linf distance: {linf!r}")
    print(f"bitwise equal: {_dump_bytes(a) == _dump_bytes(b)}")
    return EXIT_OK


def _dump_bytes(dump: dumpio.Dump) -> bytes:
    """The time stamp and the payload as CHKIN1 stores them, x outermost."""
    return np.float64(dump.t).tobytes() + np.ascontiguousarray(dump.values).tobytes()


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _parse_eps_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise BadConfig(f"cannot parse eps list {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chemokin",
        description="Kinetic chemotaxis simulator with internal-state adaptation")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="advance a scenario and write dumps + diagnostics")
    p_run.add_argument("config")
    p_run.add_argument("--restart", help="dump file to resume from")

    p_study = sub.add_parser("study-eps", help="eps-family concentration/limit study")
    p_study.add_argument("config")
    p_study.add_argument("--eps", required=True,
                         help="comma-separated, strictly decreasing eps values")
    p_study.add_argument("--t-end", type=float, default=None)

    p_verify = sub.add_parser("verify", help="kernel, oracle and envelope self-checks")
    p_verify.add_argument("config")

    p_cmp = sub.add_parser("compare", help="L1/Linf distance between two dumps")
    p_cmp.add_argument("dump_a")
    p_cmp.add_argument("dump_b")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(parse_config(args.config), restart=args.restart)
        if args.command == "study-eps":
            return cmd_study_eps(parse_config(args.config),
                                 _parse_eps_list(args.eps), args.t_end)
        if args.command == "verify":
            return cmd_verify(parse_config(args.config))
        if args.command == "compare":
            return cmd_compare(args.dump_a, args.dump_b)
        raise BadConfig(f"unknown command {args.command!r}")
    except OSError as exc:
        print(f"io-error: {exc}", file=sys.stderr)
        return EXIT_IO
    except SolverFailure as exc:
        print(f"verification-failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except ChemokinError as exc:
        print(f"bad-config: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG


if __name__ == "__main__":
    sys.exit(main())
