"""Command-line interface: run, study-eps, verify, compare.

Exit codes are stable: 0 success, 2 bad config, 3 I/O trouble,
4 verification failure (a failed check, or a ``SolverFailure`` such as a
negative density or a CFL violation mid-run).  ``CHEMOKIN_OUT`` overrides
the configured output directory.  All outputs are bitwise deterministic
for a fixed config.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace as dc_replace
from pathlib import Path

import numpy as np

from . import dumpio
from .config import RunConfig, RunSettings, output_times, parse_config
from .diagnostics import DiagnosticsReport
from .elliptic import kernel_check, solve_signal, stencil_residual
from .errors import BadConfig, ChemokinError, SolverFailure
from .fields import DensityField, total_mass, vmx
from .kinetic import StepperState, run as kinetic_run
from .limit import eps_study
from .model import InitialData, ModelSpec, PhaseGrid, build_scenario, velocity_set
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


def _check_dump_names(t_start: float, t_end: float, output_every: float) -> None:
    """Refuse a schedule two of whose output instants would share a dump file.

    ``kinetic.run`` reports t_start and every instant ``output_times``
    gives after it; ``_dump_name`` keeps nine significant digits, so two
    instants closer than that would write one file, the later replacing
    the earlier.
    """
    instants = [t_start] + [t for t in output_times(t_start, t_end, output_every)
                            if t > t_start]
    named: dict[str, float] = {}
    for t in instants:
        name = _dump_name(t)
        if name in named:
            raise BadConfig(f"output instants {named[name]!r} and {t!r} would share the "
                            f"dump file {name}; change t_end or output_every")
        named[name] = t


def _first_state(grid: PhaseGrid, spec: ModelSpec, initial: InitialData,
                 restart: str | None, scenario: str) -> StepperState:
    """The state a run starts from: the scenario's, or the dump's on a restart.

    On a restart the ``Dump`` and the resumed initial data end with this
    call; the state keeps only the dump's density.
    """
    if restart is None:
        return StepperState.create(grid, spec, initial)
    dump = dumpio.read_dump(restart)
    dumpio.check_compatible(dump, grid, scenario)
    # The state is built from the dump's density, so its one signal solve
    # reads that density.  mass0 stays the scenario's initial mass (the hash
    # pins it), and the step count and largest defect resume from the dump,
    # so the resumed run reports what the uninterrupted one would.
    resumed = dc_replace(initial, p0=DensityField(dump.values, dump.t))
    return dc_replace(StepperState.create(grid, spec, resumed),
                      step_count=dump.steps, max_mass_defect=dump.max_mass_defect)


def _print_failures(failures: list[str]) -> bool:
    """Print each envelope failure on stderr; whether there was any."""
    for line in failures:
        print(f"FAIL envelope: {line}", file=sys.stderr)
    return bool(failures)


def cmd_run(cfg: RunConfig, restart: str | None = None) -> int:
    """Run a scenario, or resume it from a dump, writing dumps and diagnostics.

    A dump is written at the start and at every output instant, and
    ``final.chk`` is a copy of the last one.  The run holds no density but
    its step's: the report keeps the initial data's scalars, and the first
    state is handed to ``kinetic.run`` with no reference left here, so the
    initial density (which the first state shares) is freed by the first
    step.  A schedule two of whose instants would share a dump name is a
    ``BadConfig`` before the first step.
    """
    grid, spec, initial = build_scenario(cfg)
    scenario = cfg.scenario_hash()
    report = DiagnosticsReport(initial, spec, grid)
    first = [_first_state(grid, spec, initial, restart, scenario)]
    del initial
    _check_dump_names(first[0].t, cfg.run.t_end, cfg.run.output_every)
    out = _out_dir(cfg)

    def write(st: StepperState) -> None:
        dumpio.write_dump(out / _dump_name(st.t), st.field.values, st.t, grid, spec.epsilon,
                          scenario, steps=st.step_count, max_mass_defect=st.max_mass_defect)

    # Popped into the call, so no name here keeps the first density alive
    # while the run steps on from it.  (CPython 3.11 and later hand a call's
    # arguments over to the callee's frame; 3.10 keeps them on the caller's
    # stack until the call returns, and so still holds the first density.)
    state, _ = kinetic_run(first.pop(), cfg.run.t_end, cfg.run.output_every,
                           report=report, observer=write)
    dumpio.copy_dump(out / _dump_name(state.t), out / "final.chk")
    report.write_csv(out / "diagnostics.csv")

    if _print_failures(report.failures):
        return EXIT_VERIFY
    print(f"run complete: t = {state.t:g}, steps = {state.step_count}, "
          f"max mass defect = {state.max_mass_defect:.3e}, out = {out}")
    return EXIT_OK


def cmd_study_eps(cfg: RunConfig, eps_list: list[float]) -> int:
    """Run the eps family over the config's schedule and write ``study_eps.csv``.

    The table is written either way.  A member whose margin fell below its
    envelope is a verification failure, as in ``run``: each failure is
    printed on stderr, and no summary.
    """
    report = eps_study(cfg, eps_list)
    out = _out_dir(cfg)
    path = out / "study_eps.csv"
    report.write_csv(path)
    if _print_failures(report.failures):
        return EXIT_VERIFY
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
    if grid.x_topology == "periodic":
        ok &= _check("mass conservation", drift <= 1e-12 * max(1.0, t_end),
                     f"max relative defect = {drift:.3e}", lines)
    else:
        # A free boundary lets mass out, so the defect is the outflow; the
        # mass must only never grow from one row to the next.
        masses = [row.mass for row in report.rows]
        grew = [(a, b) for a, b in zip(masses, masses[1:]) if b > a * (1.0 + 1e-12)]
        ok &= _check("mass never grows", not grew,
                     f"mass grew from {grew[0][0]!r} to {grew[0][1]!r}" if grew else
                     f"outflow through the free boundary = {drift:.3e} of the initial mass",
                     lines)
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
    gap = np.abs(a.values - b.values)
    l1 = total_mass(gap, a.grid)
    linf = float(gap.max(initial=0.0))
    print(f"t: {a.t!r} vs {b.t!r}")
    print(f"L1 distance:   {l1!r}")
    print(f"Linf distance: {linf!r}")
    print(f"bitwise equal: {_dump_bytes(a) == _dump_bytes(b)}")
    return EXIT_OK


def _dump_bytes(dump: dumpio.Dump) -> tuple[bytes, bytes]:
    """The time stamp and the payload as a dump stores them, in (v, m, *x) order."""
    return np.float64(dump.t).tobytes(), vmx(dump.values).tobytes()


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
            return cmd_study_eps(parse_config(args.config), _parse_eps_list(args.eps))
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
