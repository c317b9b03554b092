"""Phase-space layout, the time-stamped containers, and the integrals over them.

A phase-space density is indexed (x, v, m): ``values[..., k, j]`` is the
density in x-cell ``...``, velocity node ``k`` and m-cell ``j``, of shape
``(*x_shape, n_velocities, m_nodes)``.  In memory the solver keeps it
x-innermost, as a C-contiguous (v, m, *x) buffer, and ``values`` is the
(*x, v, m) view of that buffer.  ``vmx`` gives the (v, m, *x) view of any
density and ``xvm`` gives back the (*x, v, m) view; ``in_layout`` copies a
density of any strides into a fresh buffer of this layout.  Dumps stay
x-outermost on disk (``dumpio``).

This module is the one home of the measure dx^dim * w_v * dm.  The m-sum
(``pbar_of``) and the v-sum (``number_density``) add in numpy's pairwise
order for a contiguous axis (``pairwise_sum``), one vector operation over
x per add, so n(x) and the signal have the bits an x-outermost layout
gives.  Full integrals go through n: the mass is sum_x n(x) * dx^dim, so
the initial mass, the per-step mass defect and the diagnostics agree bit
for bit; the bytes of ``diagnostics.csv`` pin every summation order here.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .model import PhaseGrid

#: numpy sums contiguous runs of up to this many terms in 8 interleaved
#: partial sums, and splits longer runs in two.
_PAIRWISE_BLOCK = 128


@dataclass
class DensityField:
    """Cell density over (x, v, m) at one instant.

    ``values[..., k, j]`` is the density in x-cell ``...``, velocity node
    ``k`` and m-cell ``j``.  Non-negative with finite total mass.  The
    solver's densities are (*x, v, m) views of (v, m, *x) buffers.
    """

    values: np.ndarray
    t: float = 0.0


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


def pairwise_sum(a: np.ndarray) -> np.ndarray:
    """``np.sum(a, axis=0)`` in the order numpy adds a contiguous axis, for any strides.

    numpy adds a contiguous run of fewer than 8 terms in sequence, a run of
    up to 128 in 8 interleaved partial sums joined as a tree, and splits a
    longer run in two at a multiple of 8; the reduction starts from +0.0.
    Here each step is a vector operation over the other axes: the 8 partial
    sums are one sum over the leading axis of a (k, 8, ...) view, which
    numpy adds row after row.  So a leading axis sums to the bits of a
    contiguous one.
    """
    res = _pairwise(a)
    res += 0.0   # the +0.0 start: a sum of -0.0 terms is +0.0
    return res


def _pairwise(a: np.ndarray) -> np.ndarray:
    n = len(a)
    if n > _PAIRWISE_BLOCK:
        half = n // 2 - n // 2 % 8
        return _pairwise(a[:half]) + _pairwise(a[half:])
    if n < 8:
        res = a[0].copy()
        for row in a[1:]:
            res += row
        return res
    body = n - n % 8
    part = np.sum(a[:body].reshape((body // 8, 8) + a.shape[1:]), axis=0)
    part = part[0::2] + part[1::2]
    part = part[0::2] + part[1::2]
    res = part[0] + part[1]
    for row in a[body:]:
        res += row
    return res


def pbar_of(p: np.ndarray, grid: PhaseGrid) -> np.ndarray:
    """m-integrated density over (x, v): the (*x, v) view of a (v, *x) array."""
    pbar = pairwise_sum(vmx(p).swapaxes(0, 1))
    pbar *= grid.dm
    return pbar.transpose(*range(1, pbar.ndim), 0)


def density_of_pbar(pbar: np.ndarray, grid: PhaseGrid) -> np.ndarray:
    """Macroscopic density n(x), the v-integral of an m-integrated density."""
    w = grid.weights.reshape((-1,) + (1,) * (pbar.ndim - 1))
    return pairwise_sum(pbar.transpose(-1, *range(pbar.ndim - 1)) * w)


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
