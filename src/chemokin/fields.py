"""Phase-space layout, the time-stamped containers, and the integrals over them.

A phase-space density is indexed (x, v, m): ``values[..., k, j]`` is the
density in x-cell ``...``, velocity node ``k`` and m-cell ``j``, of shape
``(*x_shape, n_velocities, m_nodes)``.  In memory the solver keeps it
x-innermost, as a C-contiguous (v, m, *x) buffer, and ``values`` is the
(*x, v, m) view of that buffer.  ``vmx`` gives the (v, m, *x) view of any
density and ``xvm`` gives back the (*x, v, m) view; ``in_layout`` copies a
density of any strides into a fresh buffer of this layout.  A dump's
payload is that buffer, byte for byte (``dumpio``).

This module is the one home of the measure dx^dim * w_v * dm.  ``pbar_of``
sums the m axis of the (v, m, *x) buffer and ``density_of_pbar`` takes the
v-sum as one product with the weights.  A density in another layout is
first copied into this one, so every layout gives the same bits.  For a
non-negative density the m-sum of M terms stays within (M - 1) * 2**-53
of the exact sum, relatively (Higham 1993).  Full integrals go through n:
the mass is sum_x n(x) * dx^dim, so the initial mass, the per-step mass
defect and the diagnostics agree bit for bit.  A ``DensityField`` carries
the pbar that the step which made it computed, so a run's outputs read it
instead of summing the density over m again, and the band of m-rows
outside which its density is +0.0, so the next step and the outputs read
only those rows.  Both describe ``values`` as it was built: changing it in
place leaves them stale.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .model import PhaseGrid

@dataclass
class DensityField:
    """Cell density over (x, v, m) at one instant.

    ``values[..., k, j]`` is the density in x-cell ``...``, velocity node
    ``k`` and m-cell ``j``.  Non-negative with finite total mass.  The
    solver's densities are (*x, v, m) views of (v, m, *x) buffers.

    ``pbar`` is ``pbar_of(values)`` when whoever built the field computed
    it (a stepper state, the reduced model's first state and each step
    do), else None.  It is passed along, not cached: a field built from
    another density, as ``dataclasses.replace(state, field=DensityField(...))``
    builds one, has none, and a reader sums that field's values itself.

    ``band`` = (lo, hi) is a band of m-rows outside which ``values`` is
    +0.0.  A step stores the rows its last remap could fill
    (``kinetic.finish_step``); without one, as for initial data, a dump
    read back, the reduced model's one m-cell or a field built from
    another density, it is every row.  ``dataclasses.replace`` keeps it.
    Changing ``values`` in place leaves a carried ``pbar`` or ``band``
    stale.
    """

    values: np.ndarray
    t: float = 0.0
    pbar: np.ndarray | None = None
    band: tuple[int, int] | None = None

    def __post_init__(self):
        if self.band is None:
            self.band = (0, self.values.shape[-1])


@dataclass
class SignalField:
    """Chemical signal over the x-grid, output of the elliptic solve."""

    values: np.ndarray


def vmx(p: np.ndarray) -> np.ndarray:
    """The (v, m, *x) view of a (*x, v, m) density of any strides."""
    d = p.ndim - 2
    return p.transpose(d, d + 1, *range(d))


def xvm(q: np.ndarray) -> np.ndarray:
    """The (*x, v, m) view of a (v, m, *x) array."""
    return q.transpose(*range(2, q.ndim), 0, 1)


def in_layout(p: np.ndarray) -> np.ndarray:
    """A copy of density ``p`` backed by a fresh C-contiguous (v, m, *x) buffer."""
    return xvm(np.array(vmx(p), dtype=float, order="C"))


def pbar_of(p: np.ndarray, grid: PhaseGrid,
            band: tuple[int, int] | None = None) -> np.ndarray:
    """m-integrated density over (x, v): the (*x, v) view of a (v, *x) array.

    Sums the m axis of the (v, m, *x) buffer; a density in another layout
    is copied into one first.  ``band`` = (lo, hi) is the caller's promise
    that p is +0.0 outside m-rows [lo, hi); then only those rows are
    summed.  Row by row, each add over the contiguous x-row, the sum is
    sequential in m, and +0.0 rows change no bit of it.  With one x-cell m
    is the contiguous axis, which numpy sums pairwise, so there every row
    is summed.
    """
    q = np.ascontiguousarray(vmx(p))
    lo, hi = (0, q.shape[1]) if band is None or q[0, 0].size == 1 else band
    pbar = np.sum(q[:, lo:hi], axis=1)
    pbar *= grid.dm
    return pbar.transpose(*range(1, pbar.ndim), 0)


def density_of_pbar(pbar: np.ndarray, grid: PhaseGrid) -> np.ndarray:
    """Macroscopic density n(x), the v-integral of an m-integrated density."""
    return pbar @ grid.weights


def number_density(p: np.ndarray, grid: PhaseGrid) -> np.ndarray:
    """Macroscopic density n(x), the (v, m) integral of p."""
    return density_of_pbar(pbar_of(p, grid), grid)


def x_integral(f: np.ndarray, grid: PhaseGrid) -> float:
    """Integral of a function on the x-grid."""
    return float(np.sum(f) * grid.cell_volume)


def total_mass(p: np.ndarray, grid: PhaseGrid) -> float:
    """Phase-space integral of p, the x-integral of n."""
    return x_integral(number_density(p, grid), grid)


def m_moments(p: np.ndarray, grid: PhaseGrid,
              m_tail: float = np.inf) -> tuple[float, float]:
    """m-moment of p, and its tail over the m-centers above ``m_tail``.

    Each is one m-weighted sum, the m-centers times the (v, m, x) view,
    with no full-size temporary; an empty tail is 0.
    """
    m_c = grid.m_centers
    q = np.ascontiguousarray(vmx(p)).reshape(grid.n_v, grid.m_nodes, -1)
    measure = grid.cell_volume * grid.dm

    def moment(lo: int) -> float:
        return float(np.sum(grid.weights @ np.matmul(m_c[lo:], q[:, lo:])) * measure)

    tail = np.searchsorted(m_c, m_tail, side="right")
    return moment(0), moment(tail) if tail < len(m_c) else 0.0
