"""Fast-adaptation limit: the reduced velocity-jump model and the eps study.

As the adaptation time scale shrinks, the m-distribution collapses onto a
Dirac at the adapted state m0(S), the zero of the adaptation rate, which
both rate families give in closed form (``AdaptationModel.equilibrium``).
The dynamics reduce to the Othmer-Dunbar-Alt velocity-jump model, whose
turning kernel is evaluated at m0(S(x, t)).  That model is the kinetic
model with its m-axis reduced to one cell sitting at m0(S(x)), so it runs
on the kinetic stepper's own parts: a ``StepperState`` on a one-cell
m-grid of unit width, the kinetic transport and turning operator (with
lambda taken at m0 of the lagged signal), the shared step epilogue and
the ``kinetic.run`` scheduler.  The module also quantifies how far a
kinetic solution is from the Dirac profile (Wasserstein-1 width of the
normalized m-marginal), and runs the eps-family experiment tabulating
concentration width and the L1 gap to the reduced solution; the family
shares one scenario, each member swapping its eps into the one spec.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field as dc_field, replace as dc_replace
from pathlib import Path

import numpy as np

from .config import RunConfig, output_times
from .diagnostics import DiagnosticsReport, write_rows_csv
from .elliptic import solve_signal
from .errors import BadConfig, EmptyField
from .fields import DensityField, density_of_pbar, number_density, pbar_of, vmx, x_integral
from .kinetic import (StepperState, TurningTensors, finish_step, run as kinetic_run,
                      transport_apply, turning_apply)
from .model import InitialData, ModelSpec, PhaseGrid, build_scenario


# ---------------------------------------------------------------------------
# Reduced velocity-jump model
# ---------------------------------------------------------------------------

def _adapted_tensors(spec: ModelSpec, grid: PhaseGrid, s: np.ndarray) -> TurningTensors:
    return TurningTensors.build(spec, grid, m=spec.adaptation.equilibrium(s)[None])


def oda_state(grid: PhaseGrid, spec: ModelSpec, initial: InitialData) -> StepperState:
    """The reduced model's initial state on the one-cell m-grid of ``grid``.

    The density is the m-integral of the kinetic initial data, held in one
    m-cell of unit width, so ``pbar_of``, ``number_density`` and
    ``total_mass`` read it unchanged; ``mass0`` is the kinetic run's mass.
    """
    rgrid = dc_replace(grid, m_nodes=1, m_max=1.0)
    p0 = pbar_of(initial.p0.values, grid)[..., None]
    signal = solve_signal(number_density(p0, rgrid), rgrid)
    return StepperState(field=DensityField(p0, initial.p0.t), signal=signal, spec=spec,
                        grid=rgrid, tensors=_adapted_tensors(spec, rgrid, signal.values),
                        mass0=initial.mass)


def oda_step(state: StepperState, dt: float) -> StepperState:
    """One Strang step of the reduced model: half turning, transport, half turning.

    The turning frequency is lambda(m0(S(x))) of the lagged signal; the
    step closes like a kinetic macro step (positivity check, signal
    refresh, mass defect), so the two solvers collapse onto each other
    when the kernel is m-independent.
    """
    grid, spec = state.grid, state.spec
    p = turning_apply(state.field.values, spec, grid, 0.5 * dt, state.tensors)
    p = transport_apply(p, grid, dt)
    p = turning_apply(p, spec, grid, 0.5 * dt, state.tensors)
    state = finish_step(state, p, dt)
    return dc_replace(state, tensors=_adapted_tensors(spec, grid, state.signal.values))


def oda_run(grid: PhaseGrid, spec: ModelSpec, initial: InitialData, t_end: float,
            output_every: float, observer=None) -> StepperState:
    """Advance the reduced model on the same schedule as the kinetic run.

    ``observer(state)`` fires at t_start and at every output instant.
    """
    state = oda_state(grid, spec, initial)
    if observer is not None:
        observer(state)
    state, _ = kinetic_run(state, t_end, output_every, observer=observer, step=oda_step)
    return state


# ---------------------------------------------------------------------------
# Concentration metrics
# ---------------------------------------------------------------------------

def concentration_metrics(p: np.ndarray, s: np.ndarray, spec: ModelSpec,
                          grid: PhaseGrid) -> float:
    """Distance of the normalized m-marginals from the adapted Dirac profile.

    Returns the Wasserstein-1 distance of each spatial cell's normalized
    m-marginal to the Dirac at m0(S(x)) (the first absolute moment about
    it, equivalently the integral of |CDF - step|), mass-weighted over the
    cells above the vacuum floor.
    """
    n_x = number_density(p, grid).reshape(-1)
    total = x_integral(n_x, grid)
    if total <= 0.0:
        raise EmptyField("concentration metrics need positive total mass")
    q = np.ascontiguousarray(vmx(p)).reshape(grid.n_v, -1)
    marginal = (grid.weights @ q).reshape(grid.m_nodes, -1) * grid.dm

    # Some cell holds at least total / N, so the weights below never all vanish.
    included = n_x * grid.cell_volume > 1e-12 * total / n_x.size
    m0x = spec.adaptation.equilibrium(np.asarray(s).reshape(-1))
    norm = marginal / np.where(included, n_x, 1.0)
    w1 = np.einsum("mx,mx->x", norm, np.abs(grid.m_centers[:, None] - m0x))
    weight = np.where(included, n_x, 0.0)
    return float(np.sum(w1 * weight) / np.sum(weight))


# ---------------------------------------------------------------------------
# eps-family study
# ---------------------------------------------------------------------------

@dataclass
class StudyRow:
    eps: float
    t: float
    w1: float
    l1_gap: float
    mass: float
    env_pbar_margin: float
    env_n_margin: float
    tail_moment: float
    xmoment_rate: float


@dataclass
class StudyReport:
    rows: list[StudyRow] = dc_field(default_factory=list)
    t_end: float = 0.0

    def final_rows(self) -> list[StudyRow]:
        return [r for r in self.rows if r.t == self.t_end]

    def w1_strictly_decreasing(self) -> bool:
        w = [r.w1 for r in self.final_rows()]
        return all(b < a for a, b in zip(w, w[1:]))

    def l1_gap_ratios(self) -> list[float]:
        g = [r.l1_gap for r in self.final_rows()]
        return [a / b if b > 0 else np.inf for a, b in zip(g, g[1:])]

    def write_csv(self, path: str | Path) -> None:
        write_rows_csv(path, StudyRow, self.rows)


def _run_one_eps(grid: PhaseGrid, spec: ModelSpec, initial: InitialData, t_end: float,
                 output_every: float, oda_bars: list[np.ndarray]) -> list[StudyRow]:
    """Rows of one member: w1 and the L1 gap observed, the rest from its diagnostics."""
    state = StepperState.create(grid, spec, initial)
    report = DiagnosticsReport(initial, spec, grid)
    w1_gaps: list[tuple[float, float]] = []

    def observer(st: StepperState) -> None:
        p = st.field.values
        gap = x_integral(density_of_pbar(np.abs(pbar_of(p, grid) - oda_bars[len(w1_gaps)]),
                                         grid), grid)
        w1_gaps.append((concentration_metrics(p, st.signal.values, spec, grid), gap))

    kinetic_run(state, t_end, output_every, report=report, observer=observer)
    rates = [0.0] + [float(r) for r in report.x_moment_rates()]
    return [StudyRow(eps=spec.epsilon, t=row.t, w1=w1, l1_gap=gap, mass=row.mass,
                     env_pbar_margin=row.margin_pbar, env_n_margin=row.margin_n,
                     tail_moment=row.tail_moment, xmoment_rate=rate)
            for row, (w1, gap), rate in zip(report.rows, w1_gaps, rates)]


def eps_study(cfg: RunConfig, eps_list: list[float],
              t_end: float | None = None) -> StudyReport:
    """Run the kinetic solver per eps and the reduced model once; tabulate.

    The family is one scenario, the config's, built once and shared by all
    runs; each member swaps only eps into the spec (the certificates, the
    initial data and the reduced model do not depend on it).  Rows hold the
    Wasserstein-1 concentration width, the L1 gap to the reduced solution,
    mass, envelope margins, m-tail moment and <x>-moment rate per output
    time and eps.
    """
    if not eps_list or any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise BadConfig("eps_list must be non-empty and strictly decreasing")
    if not all(map(math.isfinite, eps_list)):
        raise BadConfig(f"eps values must be finite, got {eps_list}")
    t_end = cfg.run.t_end if t_end is None else t_end
    output_times(0.0, t_end, cfg.run.output_every)  # refuse a bad schedule before any run

    grid, spec, initial = build_scenario(cfg)
    specs = [dc_replace(spec, epsilon=eps) for eps in eps_list]
    oda_bars: list[np.ndarray] = []
    oda_run(grid, spec, initial, t_end, cfg.run.output_every,
            observer=lambda st: oda_bars.append(pbar_of(st.field.values, st.grid)))

    def run_one(spec_eps: ModelSpec) -> list[StudyRow]:
        return _run_one_eps(grid, spec_eps, initial, t_end, cfg.run.output_every, oda_bars)

    threads = cfg.run.threads
    with ThreadPoolExecutor(threads) if threads > 1 else nullcontext() as pool:
        members = list((pool.map if pool else map)(run_one, specs))
    return StudyReport(rows=[row for rows in members for row in rows], t_end=t_end)
