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
from dataclasses import dataclass, field as dc_field, replace as dc_replace
from pathlib import Path

import numpy as np

from .config import RunConfig
from .diagnostics import DiagnosticsReport, write_rows_csv
from .elliptic import solve_signal
from .errors import BadConfig, EmptyField
from .fields import DensityField, density_of_pbar, pbar_of, vmx, x_integral
from .kinetic import (StepperState, TurningTensors, finish_step, run as kinetic_run,
                      step_buffers, transport_apply, turning_apply)
from .model import InitialData, ModelSpec, PhaseGrid, build_scenario


# ---------------------------------------------------------------------------
# Reduced velocity-jump model
# ---------------------------------------------------------------------------

def _adapted_tensors(spec: ModelSpec, grid: PhaseGrid, s: np.ndarray) -> TurningTensors:
    return TurningTensors.build(spec, grid, m=spec.adaptation.equilibrium(s))


def oda_state(grid: PhaseGrid, spec: ModelSpec, initial: InitialData) -> StepperState:
    """The reduced model's initial state on the one-cell m-grid of ``grid``.

    The density is the m-integral of the kinetic initial data, held in one
    m-cell of unit width, so ``pbar_of``, ``number_density`` and
    ``total_mass`` read it unchanged; the field carries that m-integral as
    its pbar, which is the density's own buffer, and its one row as its
    band.  ``mass0`` is the kinetic run's mass.
    """
    rgrid = dc_replace(grid, m_nodes=1, m_max=1.0)
    pbar = pbar_of(initial.p0.values, grid)
    signal = solve_signal(density_of_pbar(pbar, rgrid), rgrid)
    return StepperState(field=DensityField(pbar[..., None], initial.p0.t, pbar),
                        signal=signal, spec=spec, grid=rgrid,
                        tensors=_adapted_tensors(spec, rgrid, signal.values),
                        mass0=initial.mass)


def oda_step(state: StepperState, dt: float) -> StepperState:
    """One Strang step of the reduced model: half turning, transport, half turning.

    The turning frequency is lambda(m0(S(x))) of the lagged signal; the
    step closes like a kinetic macro step (positivity check, signal
    refresh, mass defect), so the two solvers collapse onto each other
    when the kernel is m-independent.  Like a macro step, it runs in the
    scratch work buffer and one fresh result, which the new state keeps,
    on the band its field carries: the one m-row.
    """
    grid, spec, band = state.grid, state.spec, state.field.band
    work, result = step_buffers(state.field.values)
    p = turning_apply(state.field.values, state.tensors, 0.5 * dt, out=result, band=band)
    p = transport_apply(p, grid, dt, out=work, band=band)
    p = turning_apply(p, state.tensors, 0.5 * dt, out=result, band=band)
    state = finish_step(state, p, dt, band=band)
    return dc_replace(state, tensors=_adapted_tensors(spec, grid, state.signal.values))


def oda_run(grid: PhaseGrid, spec: ModelSpec, initial: InitialData, t_end: float,
            output_every: float, observer=None) -> StepperState:
    """Advance the reduced model on the same schedule as the kinetic run.

    ``observer(state)`` fires at t_start and at every output instant.
    """
    state, _ = kinetic_run(oda_state(grid, spec, initial), t_end, output_every,
                           observer=observer, step=oda_step)
    return state


# ---------------------------------------------------------------------------
# Concentration metrics
# ---------------------------------------------------------------------------

def concentration_metrics(field: DensityField, s: np.ndarray, spec: ModelSpec,
                          grid: PhaseGrid) -> float:
    """Distance of the normalized m-marginals from the adapted Dirac profile.

    Returns the Wasserstein-1 distance of each spatial cell's normalized
    m-marginal to the Dirac at m0(S(x)) (the first absolute moment about
    it, equivalently the integral of |CDF - step|), mass-weighted over the
    cells above the vacuum floor.  The cells' n comes from the field's
    pbar when it carries one, else from ``pbar_of`` of its values.

    The velocity marginal is one matrix product over every m-row: BLAS
    treats the last few elements of a product apart from the rest, so a
    product over the band alone moves bits of the band's last row unless the
    number of x-cells is a multiple of its block.  Everything after it reads
    only the field's band of m-rows, where the density is not +0.0: the sum
    along m adds the rows in sequence, so +0.0 rows change no bit of
    it.  With one x-cell m is the contiguous axis and every row is read, as
    in ``pbar_of``.
    """
    p = field.values
    n_x = density_of_pbar(pbar_of(p, grid, field.band) if field.pbar is None else field.pbar,
                          grid).reshape(-1)
    total = x_integral(n_x, grid)
    if total <= 0.0:
        raise EmptyField("concentration metrics need positive total mass")
    q = np.ascontiguousarray(vmx(p)).reshape(grid.n_v, -1)
    marginal = (grid.weights @ q).reshape(grid.m_nodes, -1)
    lo, hi = (0, grid.m_nodes) if marginal.shape[1] == 1 else field.band
    marginal = marginal[lo:hi] * grid.dm

    # Some cell holds at least total / N, so the weights below never all vanish.
    included = n_x * grid.cell_volume > 1e-12 * total / n_x.size
    m0x = spec.adaptation.equilibrium(np.asarray(s).reshape(-1))
    norm = marginal / np.where(included, n_x, 1.0)
    w1 = np.einsum("mx,mx->x", norm, np.abs(grid.m_centers[lo:hi, None] - m0x))
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
    """The members' rows, and each member's envelope failures as ``eps = <eps>: <failure>``."""

    rows: list[StudyRow] = dc_field(default_factory=list)
    t_end: float = 0.0
    failures: list[str] = dc_field(default_factory=list)

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


def _run_one_eps(grid: PhaseGrid, spec: ModelSpec, initial: InitialData, output_every: float,
                 oda_bars: list[np.ndarray], study: StudyReport) -> None:
    """Add one member's rows and envelope failures to ``study``.

    w1 and the L1 gap are observed, the rest comes from its diagnostics.
    """
    state = StepperState.create(grid, spec, initial)
    report = DiagnosticsReport(initial, spec, grid)
    w1_gaps: list[tuple[float, float]] = []

    def observer(st: StepperState) -> None:
        pbar = st.field.pbar
        gap = x_integral(density_of_pbar(np.abs(pbar - oda_bars[len(w1_gaps)]), grid), grid)
        w1_gaps.append((concentration_metrics(st.field, st.signal.values, spec, grid), gap))

    kinetic_run(state, study.t_end, output_every, report=report, observer=observer)
    rates = [0.0] + [float(r) for r in report.x_moment_rates()]
    study.rows += [StudyRow(eps=spec.epsilon, t=row.t, w1=w1, l1_gap=gap, mass=row.mass,
                            env_pbar_margin=row.margin_pbar, env_n_margin=row.margin_n,
                            tail_moment=row.tail_moment, xmoment_rate=rate)
                   for row, (w1, gap), rate in zip(report.rows, w1_gaps, rates)]
    study.failures += [f"eps = {spec.epsilon:g}: {line}" for line in report.failures]


def eps_study(cfg: RunConfig, eps_list: list[float]) -> StudyReport:
    """Run the kinetic solver per eps and the reduced model once; tabulate.

    The family is one scenario, the config's, built once and shared by all
    runs, and every run follows the config's schedule to ``[run] t_end``;
    each member swaps only eps into the spec (the certificates, the initial
    data and the reduced model do not depend on it).  Rows hold the
    Wasserstein-1 concentration width, the L1 gap to the reduced solution,
    mass, envelope margins, m-tail moment and <x>-moment rate per output
    time and eps, and the report keeps every member's envelope failures.
    The members run one after another.  Every state the observers see
    carries its pbar (``oda_state``, ``StepperState.create``, the steps).
    """
    if not eps_list or any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise BadConfig("eps_list must be non-empty and strictly decreasing")
    if not all(map(math.isfinite, eps_list)):
        raise BadConfig(f"eps values must be finite, got {eps_list}")
    grid, spec, initial = build_scenario(cfg)
    specs = [dc_replace(spec, epsilon=eps) for eps in eps_list]
    oda_bars: list[np.ndarray] = []
    oda_run(grid, spec, initial, cfg.run.t_end, cfg.run.output_every,
            observer=lambda st: oda_bars.append(st.field.pbar))
    study = StudyReport(t_end=cfg.run.t_end)
    for spec_eps in specs:
        _run_one_eps(grid, spec_eps, initial, cfg.run.output_every, oda_bars, study)
    return study
