"""Time-stamped array containers shared by the solver modules.

Layout convention for phase-space densities: row-major with the spatial
axes outermost, then the velocity index, then the internal-state axis
innermost, i.e. shape ``(*x_shape, n_velocities, m_nodes)``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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
