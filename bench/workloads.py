"""The four benchmark workloads: scenario generation, set-up, solve, checks.

Scenarios are generated from the seed.  Seed 0 reproduces the shipped
``configs/default.cfg`` and ``configs/study.cfg`` (and criterion 3's oracle
parameters) exactly; any other seed jitters only the initial bump's centre
and width, inside ranges where every output check still holds.

Each repetition runs in its own process, forked by ``server.py``.  It times set-up
(``parse_config`` through ``build_scenario`` and ``StepperState.create``),
then the solve through the public entry points only (``chemokin.cli.main``,
``kinetic.macro_step``, ``oracle.duhamel_solve``), then checks the outputs
against the acceptance thresholds and digests them.  The digest is
compared between the repetitions of one run, never against a stored value,
so a scheme change that moves the numbers stays measurable.
"""
from __future__ import annotations

import contextlib
import copy
import csv
import hashlib
import io
import math
import os
import random
from pathlib import Path

import numpy as np

from chemokin import cli, dumpio, kinetic, model, oracle
from chemokin.config import parse_config

from tracing import adaptation_cfl

#: Acceptance thresholds the output checks apply.
MASS_DEFECT_MAX = 1e-12      # criterion 1
ENVELOPE_REL_TOL = 1e-8      # criterion 4
GAP_RATIO_MIN = 1.3          # criterion 7
ORDER_MIN = 0.9              # criterion 3

DEFAULT_SCENARIO = {
    "grid": {"dim": 1, "x_nodes": 128, "x_extent": 16.0, "x_topology": "periodic",
             "v_count": 4, "m_nodes": 96, "m_max_auto": "true"},
    "model": {"F_family": "linear", "kappa": 2.0, "S_ref": 0.2, "m_minus": 0.2,
              "m_plus": 1.2, "T_family": "separable-uniform", "lambda0": 1.0,
              "beta": 0.4, "m_c": 0.7, "delta": 0.25, "eps": 0.1},
    "initial": {"profile": "gaussian", "center": 0.0, "width": 1.2, "mass": 1.0},
    "run": {"t_end": 1.0, "output_every": 0.1, "threads": 1, "out_dir": "out"},
}

STUDY_SCENARIO = copy.deepcopy(DEFAULT_SCENARIO)
STUDY_SCENARIO["grid"]["m_nodes"] = 128
STUDY_SCENARIO["model"]["beta"] = 0.5
STUDY_SCENARIO["run"]["output_every"] = 0.025

# The shipped study also runs eps = 0.025, which alone doubles its cost; three
# halvings keep the 1/eps scaling and the limit checks while one run holds
# several repetitions.
STUDY_EPS = (0.2, 0.1, 0.05)

# Criterion 3's frozen-signal problem (eps = 1, two velocities, m_max 1.7),
# written as a config: exp(-(x/0.4)^2) is the gaussian profile of width
# 0.4/sqrt(2).  Criterion 3 gives the oracle 24 time nodes; 8 move its gaps
# by under 0.1% (its time error is far below the kinetic scheme's) and cut
# its cost ninefold, so one run holds several repetitions.
ORACLE_LEVELS = (32, 64)
ORACLE_T = 0.4
ORACLE_N_TIME = 8
ORACLE_SCENARIO = {
    "grid": {"dim": 1, "x_nodes": 0, "x_extent": 1.6, "x_topology": "periodic",
             "v_count": 2, "m_nodes": 0, "m_max_auto": "true"},
    "model": {"F_family": "linear", "kappa": 0.25, "S_ref": 0.5, "m_minus": 0.2,
              "m_plus": 1.2, "T_family": "separable-uniform", "lambda0": 0.4,
              "beta": 0.4, "m_c": 0.7, "delta": 0.25, "eps": 1.0},
    "initial": {"profile": "gaussian", "center": 0.0, "width": 0.4 / math.sqrt(2.0),
                "mass": 1.0},
    "run": {"t_end": ORACLE_T, "output_every": ORACLE_T, "threads": 1, "out_dir": "out"},
}

# Free-space 2-d run: eps = 3 keeps the adaptation stiffness number
# dt*max|F|/(eps*dm) below 1 (one substep), so turning, transport and the
# Green-convolution signal solve carry most of each step.
FREE_2D_SCENARIO = copy.deepcopy(DEFAULT_SCENARIO)
FREE_2D_SCENARIO["grid"].update(dim=2, x_nodes=64, x_topology="free", v_count=8,
                                m_nodes=16)
FREE_2D_SCENARIO["model"]["eps"] = 3.0
FREE_2D_SCENARIO["run"].update(t_end=2.0, output_every=0.25)


def render(scenario: dict) -> str:
    """Scenario dict as config-file text; floats round-trip through repr."""
    lines = []
    for section, values in scenario.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {value!r}" if isinstance(value, float) else f"{key} = {value}"
                  for key, value in values.items()]
        lines.append("")
    return "\n".join(lines)


def jitter(scenario: dict, seed: int, center_span: float, width_rel: float) -> dict:
    """Copy of the scenario with the bump's centre and width drawn from the seed."""
    out = copy.deepcopy(scenario)
    if seed != 0:
        rng = random.Random(seed)
        out["initial"]["center"] += rng.uniform(-center_span, center_span)
        out["initial"]["width"] *= 1.0 + rng.uniform(-width_rel, width_rel)
    return out


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_cli(argv: list[str], out_dir: Path) -> int:
    """``chemokin.cli.main`` writing into ``out_dir``; its stdout is discarded."""
    os.environ["CHEMOKIN_OUT"] = str(out_dir)
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def schedule_steps(dt_cap: float, t_start: float, t_end: float, output_every: float) -> int:
    """Macro steps ``kinetic.run`` takes from ``t_start``: output instants are
    k*output_every plus t_end, each interval split into the fewest equal
    steps no longer than ``dt_cap``."""
    t, steps, k = t_start, 0, math.floor(t_start / output_every + 1e-9) + 1
    times = []
    while k * output_every < t_end * (1.0 - 1e-12):
        if k * output_every > t:
            times.append(k * output_every)
        k += 1
    times.append(t_end)
    for t_next in times:
        steps += max(1, math.ceil((t_next - t) / dt_cap - 1e-9))
        t = t_next
    return steps


def first_step_cfl(state, output_every: float, eps: float | None = None) -> float:
    """Adaptation stiffness number of the first macro half-step."""
    span = output_every
    dt = span / max(1, math.ceil(span / state.cfl_dt() - 1e-9))
    return adaptation_cfl(state.spec, state.grid, state.signal.values, 0.5 * dt, eps)


def dump_time(path: Path) -> float:
    return float(path.name[len("dump_"):-len(".chk")])


class Workload:
    """One benchmark workload; subclasses fill in the four steps."""

    name = ""
    why = ""
    #: (layer function, comparison, share of traced solve time) it is chosen for.
    purpose: tuple[str, str, float] = ("", "", 0.0)
    center_span = 0.5
    width_rel = 0.1

    def scenarios(self, seed: int) -> dict[str, str]:
        """File name -> config text."""
        raise NotImplementedError

    def setup(self, configs: dict[str, Path]):
        raise NotImplementedError

    def solve(self, ctx, out: Path):
        raise NotImplementedError

    def check(self, ctx, out: Path, solved) -> tuple[list[str], str]:
        """(problems, digest of the final outputs)."""
        raise NotImplementedError

    def macro_steps(self, ctx, solved) -> int:
        raise NotImplementedError

    def provenance(self, ctx) -> dict:
        """Grid shapes, eps list and the first step's adaptation CFL ratio."""
        raise NotImplementedError

    def cell_updates(self, ctx, solved) -> int:
        """Phase-space cells times macro steps (substeps not counted)."""
        return int(np.prod(ctx["state"].grid.field_shape)) * self.macro_steps(ctx, solved)


def _setup_one(path: Path, freeze_signal: bool = False):
    cfg = parse_config(path)
    grid, spec, initial = model.build_scenario(cfg)
    state = kinetic.StepperState.create(grid, spec, initial, freeze_signal=freeze_signal)
    return cfg, state, initial


def _check_dumps(paths: list[Path], mass0: float | None) -> tuple[list[str], list[float]]:
    """Finite, non-negative dumps; mass within the defect bound if ``mass0``."""
    problems, masses = [], []
    for path in paths:
        dump = dumpio.read_dump(path)
        values = dump.values
        if not np.all(np.isfinite(values)):
            problems.append(f"{path.name}: non-finite density")
            continue
        if float(values.min()) < 0.0:
            problems.append(f"{path.name}: min p = {float(values.min()):.3e} < 0")
        cell = (dump.x_extent / dump.x_nodes) ** dump.dim * (dump.m_max / dump.m_nodes)
        mass = float(np.sum(values * dump.weights[:, None]) * cell)
        masses.append(mass)
        if mass0 is not None:
            defect = abs(mass - mass0) / mass0
            if defect > MASS_DEFECT_MAX:
                problems.append(f"{path.name}: mass defect {defect:.3e} > {MASS_DEFECT_MAX:g}")
    return problems, masses


def _dumps_in_order(out: Path) -> list[Path]:
    return sorted(out.glob("dump_*.chk"), key=dump_time) + [out / "final.chk"]


class CliWorkload(Workload):
    """A workload that runs one generated config through ``chemokin.cli.main``."""

    config_name = ""
    scenario: dict = {}

    def scenarios(self, seed):
        scenario = jitter(self.scenario, seed, self.center_span, self.width_rel)
        return {self.config_name: render(scenario)}

    def setup(self, configs):
        path = configs[self.config_name]
        cfg, state, initial = _setup_one(path)
        return {"path": path, "cfg": cfg, "state": state, "initial": initial}

    def macro_steps(self, ctx, solved) -> int:
        run = ctx["cfg"].run
        return schedule_steps(ctx["state"].cfl_dt(), 0.0, run.t_end, run.output_every)

    def provenance(self, ctx):
        state = ctx["state"]
        return {"grid_shape": list(state.grid.field_shape), "eps": [state.spec.epsilon],
                "cfl_ratio_first_step": first_step_cfl(state, ctx["cfg"].run.output_every)}


class KineticDefault(CliWorkload):
    name = "kinetic_default"
    why = ("default.cfg run with dumps and diagnostics, then --restart from the mid-run "
           "dump: adaptation_apply does over 90% of the work; the only workload that "
           "reads dumps back")
    purpose = ("kinetic.adaptation_apply", ">=", 0.8)
    config_name = "default.cfg"
    scenario = DEFAULT_SCENARIO

    def solve(self, ctx, out):
        straight, resumed = out / "straight", out / "restart"
        codes = [run_cli(["run", str(ctx["path"])], straight)]
        dumps = sorted(straight.glob("dump_*.chk"), key=dump_time)
        t_mid = 0.5 * ctx["cfg"].run.t_end
        mid = min(dumps, key=lambda p: abs(dump_time(p) - t_mid))
        codes.append(run_cli(["run", str(ctx["path"]), "--restart", str(mid)], resumed))
        return {"codes": codes, "restart_from": dump_time(mid)}

    def check(self, ctx, out, solved):
        problems = [f"cli exit code {c} (envelope failure or error)"
                    for c in solved["codes"] if c != 0]
        straight, resumed = out / "straight", out / "restart"
        if problems:
            return problems, ""
        dump_problems, _ = _check_dumps(_dumps_in_order(straight), ctx["initial"].mass)
        problems += dump_problems
        if (straight / "final.chk").read_bytes() != (resumed / "final.chk").read_bytes():
            problems.append("restart final.chk differs from the straight-through one")
        return problems, file_digest(straight / "final.chk")

    def macro_steps(self, ctx, solved) -> int:
        run = ctx["cfg"].run
        return super().macro_steps(ctx, solved) + schedule_steps(
            ctx["state"].cfl_dt(), solved["restart_from"], run.t_end, run.output_every)


class EpsStudy(CliWorkload):
    name = "eps_study"
    why = ("study-eps on study.cfg, eps 0.2, 0.1, 0.05: adaptation substeps scale with 1/eps; "
           "also runs the reduced model, concentration metrics and diagnostics at 120 outputs")
    purpose = ("kinetic.adaptation_apply", ">=", 0.8)
    config_name = "study.cfg"
    scenario = STUDY_SCENARIO

    def solve(self, ctx, out):
        eps = ",".join(repr(e) for e in STUDY_EPS)
        return {"codes": [run_cli(["study-eps", str(ctx["path"]), "--eps", eps], out)]}

    def check(self, ctx, out, solved):
        if solved["codes"] != [0]:
            return [f"cli exit code {solved['codes'][0]}"], ""
        path = out / "study_eps.csv"
        with open(path, newline="") as fh:
            rows = [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]
        problems = []
        if not all(math.isfinite(v) for row in rows for v in row.values()):
            problems.append("non-finite value in study_eps.csv")
        t_end = max(row["t"] for row in rows)
        finals = [row for row in rows if row["t"] == t_end]
        if [row["eps"] for row in finals] != list(STUDY_EPS):
            problems.append(f"final rows cover eps {[row['eps'] for row in finals]}")
        w1 = [row["w1"] for row in finals]
        if not all(b < a for a, b in zip(w1, w1[1:])):
            problems.append(f"w1 not strictly decreasing: {w1}")
        gaps = [row["l1_gap"] for row in finals]
        ratios = [a / b if b > 0 else math.inf for a, b in zip(gaps, gaps[1:])]
        if not all(r >= GAP_RATIO_MIN for r in ratios):
            problems.append(f"L1-gap halving ratios {ratios} below {GAP_RATIO_MIN}")
        pbar0 = ctx["initial"].pbar0_sup
        v_measure = ctx["state"].grid.v_measure
        for row in rows:
            if row["env_pbar_margin"] < -ENVELOPE_REL_TOL * (row["env_pbar_margin"] + pbar0) \
                    or row["env_n_margin"] < -ENVELOPE_REL_TOL * (row["env_n_margin"]
                                                                  + v_measure * pbar0):
                problems.append(f"envelope margin below tolerance at eps={row['eps']} "
                                f"t={row['t']}")
                break
        return problems, file_digest(path)

    def macro_steps(self, ctx, solved) -> int:
        return len(STUDY_EPS) * super().macro_steps(ctx, solved)

    def provenance(self, ctx):
        state, every = ctx["state"], ctx["cfg"].run.output_every
        return {"grid_shape": list(state.grid.field_shape), "eps": list(STUDY_EPS),
                "cfl_ratio_first_step": max(first_step_cfl(state, every, eps)
                                            for eps in STUDY_EPS)}


def _oracle_steps(grid) -> int:
    """Macro steps of length 2 dx (unit Courant number for two speeds) to ORACLE_T."""
    return round(ORACLE_T / (2.0 * grid.dx))


class OracleXval(Workload):
    name = "oracle_xval"
    why = ("criterion-3 frozen-signal cross-validation at n=32 and 64: duhamel_solve does "
           "over 95% of the work, adaptation almost none (eps=1, one substep)")
    purpose = ("oracle.duhamel_solve", ">=", 0.9)
    center_span = 0.1

    def scenarios(self, seed):
        base = jitter(ORACLE_SCENARIO, seed, self.center_span, self.width_rel)
        out = {}
        for n in ORACLE_LEVELS:
            scenario = copy.deepcopy(base)
            scenario["grid"].update(x_nodes=n, m_nodes=n)
            out[f"oracle_{n}.cfg"] = render(scenario)
        return out

    def setup(self, configs):
        levels = []
        for n in ORACLE_LEVELS:
            cfg, state, initial = _setup_one(configs[f"oracle_{n}.cfg"], freeze_signal=True)
            levels.append({"n": n, "state": state, "initial": initial})
        return {"levels": levels}

    def solve(self, ctx, out):
        gaps, digest = [], hashlib.sha256()
        for level in ctx["levels"]:
            state, initial = level["state"], level["initial"]
            grid, spec = state.grid, state.spec
            history = oracle.SignalHistory.constant(state.signal.values, grid)
            for _ in range(_oracle_steps(grid)):
                state = kinetic.macro_step(state, 2.0 * grid.dx)
            ref = oracle.duhamel_solve(initial.p0, history, spec, grid, ORACLE_T,
                                       picard_iters=100, n_time=ORACLE_N_TIME)
            gap = float(np.sum(np.abs(state.field.values - ref.field.values)
                               * grid.weights[:, None]) * grid.cell_volume * grid.dm)
            gaps.append(gap / initial.mass)
            digest.update(np.ascontiguousarray(state.field.values).tobytes())
            digest.update(np.ascontiguousarray(ref.field.values).tobytes())
        (out / "oracle_xval.txt").write_text(
            "".join(f"n={n} gap={g!r}\n" for n, g in zip(ORACLE_LEVELS, gaps)))
        return {"gaps": gaps, "digest": digest.hexdigest()}

    def check(self, ctx, out, solved):
        gaps = solved["gaps"]
        if not all(math.isfinite(g) and g > 0 for g in gaps):
            return [f"gaps not finite and positive: {gaps}"], solved["digest"]
        order = math.log2(gaps[0] / gaps[1]) / math.log2(ORACLE_LEVELS[1] / ORACLE_LEVELS[0])
        problems = [] if order >= ORDER_MIN else [f"measured order {order:.3f} < {ORDER_MIN}"]
        return problems, solved["digest"]

    def macro_steps(self, ctx, solved) -> int:
        return sum(_oracle_steps(lv["state"].grid) for lv in ctx["levels"])

    def provenance(self, ctx):
        levels = ctx["levels"]
        return {"grid_shape": [list(lv["state"].grid.field_shape) for lv in levels],
                "eps": [levels[0]["state"].spec.epsilon],
                # The macro step is 2 dx, so each adaptation half-step is dx.
                "cfl_ratio_first_step": max(
                    adaptation_cfl(lv["state"].spec, lv["state"].grid,
                                   lv["state"].signal.values, lv["state"].grid.dx)
                    for lv in levels)}

    def cell_updates(self, ctx, solved) -> int:
        return sum(int(np.prod(lv["state"].grid.field_shape)) * _oracle_steps(lv["state"].grid)
                   for lv in ctx["levels"])


class Free2d(CliWorkload):
    name = "free_2d"
    why = ("dim=2 free-space run, 64^2 x 8 velocities x 16 m nodes, eps=3: turning and "
           "transport outweigh adaptation; set-up tabulates the 2-d Green kernel")
    purpose = ("kinetic.adaptation_apply", "<", 0.5)
    config_name = "free_2d.cfg"
    scenario = FREE_2D_SCENARIO

    def solve(self, ctx, out):
        return {"codes": [run_cli(["run", str(ctx["path"])], out)]}

    def check(self, ctx, out, solved):
        if solved["codes"] != [0]:
            return [f"cli exit code {solved['codes'][0]} (envelope failure or error)"], ""
        problems, masses = _check_dumps(_dumps_in_order(out), None)
        # Free-space boundaries only lose outflow: mass never grows beyond round-off.
        for a, b in zip(masses, masses[1:]):
            if b > a * (1.0 + MASS_DEFECT_MAX):
                problems.append(f"mass grew from {a!r} to {b!r}")
                break
        return problems, file_digest(out / "final.chk")


WORKLOADS = {w.name: w for w in (KineticDefault(), EpsStudy(), OracleXval(), Free2d())}
