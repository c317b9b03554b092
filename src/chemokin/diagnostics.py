"""Norm/moment reductions and bound-envelope monitors.

Every monitored quantity has a proved envelope: the m-integrated density
and the macroscopic density obey the turning-driven Gronwall bound
``sup0 * (1 + 2 Vd C t exp(2 Vd C t))``, the signal inherits unit-mass
Young bounds from the kernel, and the full density picks up an extra
slope_cap/epsilon in its growth rate (``ModelSpec.growth_rate``).
A negative margin beyond round-off slack means the solver (not the bound)
is wrong, so reports carry a FAILED flag.

The integrals are the ones of ``fields`` (mass and x-moment from n, the
m-moments from one m-weighted sum), so a row's mass has the bits of
``total_mass`` and of the stepper's mass bookkeeping, whatever the
density's layout.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, fields as dc_fields
from pathlib import Path

import numpy as np

from .errors import BadConfig
from .fields import density_of_pbar, m_moments, pbar_of, x_integral
from .model import InitialData, ModelSpec, PhaseGrid

#: Relative slack allowed on envelope margins before a run is flagged.
ENVELOPE_TOL = 1e-8


@dataclass
class ReportRow:
    t: float
    mass: float
    p_sup: float
    pbar_sup: float
    n_sup: float
    s_l1: float
    s_sup: float
    x_moment: float
    m_moment: float
    tail_moment: float
    margin_pbar: float = np.inf
    margin_n: float = np.inf
    margin_s_l1: float = np.inf
    margin_s_sup: float = np.inf
    margin_p: float = np.inf


def reduce_norms(p: np.ndarray, s: np.ndarray, grid: PhaseGrid, m_plus: float,
                 t: float, pbar: np.ndarray | None = None) -> ReportRow:
    """One report row of discrete norms and moments (margins left open).

    L1 sums weight cells by dx^dim * w_v * dm; sup norms are plain maxima.
    The tail moment integrates m*p over m > 2*m_plus, the region whose
    initial-moment domination justifies the m-grid truncation.  p is read
    by one m-weighted sum and its maximum; n, mass and x-moment follow from
    pbar, ``pbar_of(p)`` unless the caller passes the one it has (the one a
    field carries, ``DensityField.pbar``).
    """
    if p.shape != grid.field_shape:
        raise BadConfig(f"field shape {p.shape} != grid shape {grid.field_shape}")
    if pbar is None:
        pbar = pbar_of(p, grid)
    n = density_of_pbar(pbar, grid)
    m_moment, tail_moment = m_moments(p, grid, m_tail=2.0 * m_plus)

    return ReportRow(
        t=t,
        mass=x_integral(n, grid),
        p_sup=float(np.max(p, initial=0.0)),
        pbar_sup=float(np.max(pbar, initial=0.0)),
        n_sup=float(np.max(n, initial=0.0)),
        s_l1=x_integral(np.abs(s), grid),
        s_sup=float(np.max(np.abs(s), initial=0.0)),
        x_moment=x_integral(grid.x_weight() * n, grid),
        m_moment=m_moment,
        tail_moment=tail_moment,
    )


def growth_factor(rate: float, t: float) -> float:
    """The Gronwall envelope multiplier 1 + rate*t*exp(rate*t)."""
    with np.errstate(over="ignore"):
        return float(1.0 + rate * t * np.exp(rate * t))


@dataclass(frozen=True)
class InitialScalars:
    """The scalars of ``InitialData`` that the envelopes read, without its density."""

    mass: float
    p0_sup: float
    pbar0_sup: float


def envelope_check(row: ReportRow, initial: InitialData | InitialScalars, spec: ModelSpec,
                   grid: PhaseGrid) -> dict[str, float]:
    """Fill in margins envelope(t) - observed for all monitored bounds.

    Returns each margin's envelope by field name, the scale of its
    relative tolerance (an infinite envelope always passes).
    """
    t = row.t
    vd = grid.v_measure
    env_pbar = initial.pbar0_sup * growth_factor(2.0 * vd * spec.turning_cap, t)
    env_n = vd * env_pbar
    env_p = initial.p0_sup * growth_factor(spec.growth_rate(grid), t)

    row.margin_pbar = env_pbar - row.pbar_sup
    row.margin_n = env_n - row.n_sup
    row.margin_s_l1 = initial.mass - row.s_l1
    row.margin_s_sup = env_n - row.s_sup
    row.margin_p = env_p - row.p_sup
    return {"margin_pbar": env_pbar, "margin_n": env_n, "margin_s_l1": initial.mass,
            "margin_s_sup": env_n, "margin_p": env_p}


class DiagnosticsReport:
    """Time series of monitored rows with envelope pass/fail tracking.

    The report keeps the initial data's scalars (``InitialScalars``), not
    its density, so a report that lives as long as a run does not hold the
    initial density after the first step has replaced it.
    """

    def __init__(self, initial: InitialData, spec: ModelSpec, grid: PhaseGrid):
        self.initial = InitialScalars(initial.mass, initial.p0_sup, initial.pbar0_sup)
        self.spec = spec
        self.grid = grid
        self.rows: list[ReportRow] = []
        self.failures: list[str] = []

    def observe(self, p: np.ndarray, s: np.ndarray, t: float,
                pbar: np.ndarray | None = None) -> ReportRow:
        """Reduce (p, s) at time t to a row, check its margins and keep it.

        ``pbar``, when given, is p's m-integral (``reduce_norms``).
        """
        if self.rows and t <= self.rows[-1].t:
            raise BadConfig(
                f"report rows must be strictly increasing in t: {t} after {self.rows[-1].t}")
        row = reduce_norms(p, s, self.grid, self.spec.m_plus, t, pbar)
        for name, scale in envelope_check(row, self.initial, self.spec, self.grid).items():
            margin = getattr(row, name)
            if np.isfinite(scale) and margin < -ENVELOPE_TOL * abs(scale):
                self.failures.append(
                    f"t={row.t:g}: {name} = {margin:.3e} below -{ENVELOPE_TOL:g} * {scale:.3e}")
        self.rows.append(row)
        return row

    @property
    def failed(self) -> bool:
        return bool(self.failures)

    def min_margin(self) -> float:
        names = [f.name for f in dc_fields(ReportRow) if f.name.startswith("margin_")]
        return float(min((getattr(r, n) for r in self.rows for n in names), default=np.inf))

    def x_moment_rates(self) -> np.ndarray:
        """Forward-difference rates of the <x>-moment between output rows."""
        ts = np.array([r.t for r in self.rows])
        xm = np.array([r.x_moment for r in self.rows])
        if len(ts) < 2:
            return np.zeros(0)
        return np.diff(xm) / np.diff(ts)

    def moment_control_ok(self, tol_rel: float = ENVELOPE_TOL) -> bool:
        """d/dt of the <x>-moment stays below the initial mass on every interval."""
        cap = self.initial.mass * (1.0 + tol_rel)
        rates = self.x_moment_rates()
        return bool(np.all(rates <= cap)) if rates.size else True

    def write_csv(self, path: str | Path) -> None:
        write_rows_csv(path, ReportRow, self.rows)


def write_rows_csv(path: str | Path, row_type: type, rows) -> None:
    """Dataclass rows as CSV: one column per field in declaration order, ``repr`` values."""
    names = [f.name for f in dc_fields(row_type)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for row in rows:
            writer.writerow([repr(getattr(row, name)) for name in names])
