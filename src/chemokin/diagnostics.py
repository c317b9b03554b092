"""Norm/moment reductions and bound-envelope monitors.

Every monitored quantity has a proved envelope: the m-integrated density
and the macroscopic density obey the turning-driven Gronwall bound
``sup0 * (1 + 2 Vd C t exp(2 Vd C t))``, the signal inherits unit-mass
Young bounds from the kernel, and the full density picks up an extra
1/epsilon in its growth coefficient through the adaptation slope cap.
A negative margin beyond round-off slack means the solver (not the bound)
is wrong, so reports carry a FAILED flag.

All reductions use numpy's pairwise summation, so repeated calls on the
same field are bitwise identical.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import BadConfig
from .model import InitialData, ModelSpec, PhaseGrid

#: Relative slack allowed on envelope margins before a run is flagged.
ENVELOPE_TOL = 1e-8

CSV_COLUMNS = (
    "t", "mass", "p_sup", "pbar_sup", "n_sup", "s_l1", "s_sup",
    "x_moment", "m_moment", "tail_moment",
    "margin_pbar", "margin_n", "margin_s_l1", "margin_s_sup", "margin_p",
)


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
                 t: float) -> ReportRow:
    """One report row of discrete norms and moments (margins left open).

    L1 sums weight cells by dx^dim * w_v * dm; sup norms are plain maxima.
    The tail moment integrates m*p over m > 2*m_plus, the region whose
    initial-moment domination justifies the m-grid truncation.
    """
    if p.shape != grid.field_shape:
        raise BadConfig(f"field shape {p.shape} != grid shape {grid.field_shape}")
    measure = grid.cell_volume * grid.dm
    m_c = grid.m_centers
    pbar = np.sum(p, axis=-1) * grid.dm
    n = np.sum(pbar * grid.weights, axis=-1)

    # p*w is formed once.  The tail m_c > 2*m_plus is a suffix, copied
    # tail-major as a boolean index lays it out, so its sum keeps its order.
    pw = p * grid.weights[:, None]
    mass = float(np.sum(pw) * measure)
    tail = np.searchsorted(m_c, 2.0 * m_plus, side="right")
    tail_pw = np.moveaxis(pw[..., tail:], -1, 0).copy()
    tail_pw *= m_c[tail:].reshape((-1,) + (1,) * (p.ndim - 1))
    pw *= m_c   # now p*w*m, for the m-moment

    return ReportRow(
        t=t,
        mass=mass,
        p_sup=float(np.max(p, initial=0.0)),
        pbar_sup=float(np.max(pbar, initial=0.0)),
        n_sup=float(np.max(n, initial=0.0)),
        s_l1=float(np.sum(np.abs(s)) * grid.cell_volume),
        s_sup=float(np.max(np.abs(s), initial=0.0)),
        x_moment=float(np.sum(grid.x_weight() * n) * grid.cell_volume),
        m_moment=float(np.sum(pw) * measure),
        tail_moment=float(np.sum(tail_pw) * measure),
    )


def growth_factor(vd_ct: float, t: float) -> float:
    """The Gronwall envelope multiplier 1 + 2*c*t*exp(2*c*t), c = Vd*C_T."""
    with np.errstate(over="ignore"):
        return float(1.0 + 2.0 * vd_ct * t * np.exp(2.0 * vd_ct * t))


def envelope_check(row: ReportRow, initial: InitialData, spec: ModelSpec,
                   grid: PhaseGrid) -> ReportRow:
    """Fill in margins envelope(t) - observed for all monitored bounds."""
    t = row.t
    vd = grid.v_measure
    vd_ct = vd * spec.turning_cap
    env_pbar = initial.pbar0_sup * growth_factor(vd_ct, t)
    env_n = vd * env_pbar

    gamma = spec.slope_cap / spec.epsilon + 2.0 * vd_ct
    with np.errstate(over="ignore"):
        env_p = initial.p0_sup * float(1.0 + gamma * t * np.exp(gamma * t))

    row.margin_pbar = env_pbar - row.pbar_sup
    row.margin_n = env_n - row.n_sup
    row.margin_s_l1 = initial.mass - row.s_l1
    row.margin_s_sup = env_n - row.s_sup
    row.margin_p = env_p - row.p_sup
    return row


def _margin_scales(row: ReportRow, initial: InitialData) -> dict[str, float]:
    # Scale for the relative tolerance: the observed quantity's envelope
    # baseline; inf envelopes always pass.
    return {
        "margin_pbar": row.margin_pbar + row.pbar_sup,
        "margin_n": row.margin_n + row.n_sup,
        "margin_s_l1": initial.mass,
        "margin_s_sup": row.margin_s_sup + row.s_sup,
        "margin_p": row.margin_p + row.p_sup,
    }


class DiagnosticsReport:
    """Time series of monitored rows with envelope pass/fail tracking."""

    def __init__(self, initial: InitialData, spec: ModelSpec, grid: PhaseGrid,
                 tol_env: float = ENVELOPE_TOL):
        self.initial = initial
        self.spec = spec
        self.grid = grid
        self.tol_env = tol_env
        self.rows: list[ReportRow] = []
        self.failures: list[str] = []

    def observe(self, p: np.ndarray, s: np.ndarray, t: float) -> ReportRow:
        row = reduce_norms(p, s, self.grid, self.spec.m_plus, t)
        envelope_check(row, self.initial, self.spec, self.grid)
        self.append(row)
        return row

    def append(self, row: ReportRow) -> None:
        if self.rows and row.t <= self.rows[-1].t:
            raise BadConfig(
                f"report rows must be strictly increasing in t: {row.t} after {self.rows[-1].t}")
        scales = _margin_scales(row, self.initial)
        for name, scale in scales.items():
            margin = getattr(row, name)
            if np.isfinite(scale) and margin < -self.tol_env * abs(scale):
                self.failures.append(
                    f"t={row.t:g}: {name} = {margin:.3e} below -{self.tol_env:g} * {scale:.3e}")
        self.rows.append(row)

    @property
    def failed(self) -> bool:
        return bool(self.failures)

    def min_margin(self) -> float:
        names = ("margin_pbar", "margin_n", "margin_s_l1", "margin_s_sup", "margin_p")
        vals = [getattr(r, n) for r in self.rows for n in names]
        return float(min(vals)) if vals else np.inf

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
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for row in self.rows:
                writer.writerow([repr(getattr(row, c)) for c in CSV_COLUMNS])
