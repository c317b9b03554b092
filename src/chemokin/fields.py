"""Phase-space layout, the time-stamped containers, and the integrals over them.

A phase-space density is row-major with the spatial axes outermost, then
the velocity index, then the internal state m innermost: shape
``(*x_shape, n_velocities, m_nodes)``.  ``DensityField`` holds one at an
instant, ``SignalField`` the chemical signal over the x-grid.

This module is the one home of the measure dx^dim * w_v * dm.  Full
integrals sum p*w_v and then scale by (dx^dim * dm), so the initial mass,
the per-step mass defect and the diagnostics agree bit for bit; the
bytes of ``diagnostics.csv`` pin every summation order here.
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
    ``k`` and m-cell ``j``.  Non-negative with finite total mass.
    """

    values: np.ndarray
    t: float = 0.0


@dataclass
class SignalField:
    """Chemical signal over the x-grid, output of the elliptic solve."""

    values: np.ndarray


def pbar_of(p: np.ndarray, grid: PhaseGrid) -> np.ndarray:
    """m-integrated density over (x, v)."""
    return np.sum(p, axis=-1) * grid.dm


def number_density(p: np.ndarray, grid: PhaseGrid) -> np.ndarray:
    """Macroscopic density n(x), the (v, m) integral of p."""
    return np.sum(pbar_of(p, grid) * grid.weights, axis=-1)


def total_mass(p: np.ndarray, grid: PhaseGrid) -> float:
    """Phase-space integral of p."""
    return float(np.sum(p * grid.weights[:, None]) * (grid.cell_volume * grid.dm))


def mass_moments(p: np.ndarray, grid: PhaseGrid,
                 m_tail: float = np.inf) -> tuple[float, float, float]:
    """Mass, m-moment and tail m-moment (over m-centers > ``m_tail``) of p.

    p*w is formed once.  The tail is a suffix of the m-axis, copied
    tail-major as a boolean index lays it out, so its sum keeps the order
    of the plain masked expression; an empty tail is skipped (its sum is 0).
    """
    measure = grid.cell_volume * grid.dm
    m_c = grid.m_centers
    pw = p * grid.weights[:, None]
    mass = float(np.sum(pw) * measure)
    tail_moment = 0.0
    if m_tail < m_c[-1]:
        tail = np.searchsorted(m_c, m_tail, side="right")
        tail_pw = np.moveaxis(pw[..., tail:], -1, 0).copy()
        tail_pw *= m_c[tail:].reshape((-1,) + (1,) * (p.ndim - 1))
        tail_moment = float(np.sum(tail_pw) * measure)
    pw *= m_c   # now p*w*m, for the m-moment
    return mass, float(np.sum(pw) * measure), tail_moment
