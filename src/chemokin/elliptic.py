"""Solve the screened Poisson equation -lap(S) + S = n for the signal.

Periodic topology inverts the discrete symbol 1 + (4/dx^2) sin^2(pi k / N)
by FFT, so the residual against the standard second-order stencil is pure
round-off.  Truncated free space convolves with cell averages of the
free-space Green function (exponential kernel in 1-d, a Bessel-type kernel
with a log singularity in 2-d); cell averaging rather than point sampling
is what keeps the discrete kernel mass inside [1 - 1e-6, 1] at desk-scale
resolutions.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np
from scipy import integrate, signal, special

from .errors import BadConfig, NonFiniteInput
from .fields import SignalField
from .model import PhaseGrid

#: Offsets beyond this radius carry < 1e-6 kernel mass in both dimensions.
FULL_MASS_RADIUS = 16.0


# ---------------------------------------------------------------------------
# Green kernel tabulation (free-space mode)
# ---------------------------------------------------------------------------

def _cell_average_1d(centers: np.ndarray, dx: float) -> np.ndarray:
    # Antiderivative of 0.5*exp(-|u|) is sign(u)*0.5*(1 - exp(-|u|)).
    def phi(u):
        return np.sign(u) * 0.5 * (1.0 - np.exp(-np.abs(u)))

    h = 0.5 * dx
    return (phi(centers + h) - phi(centers - h)) / dx


def _origin_cell_average_2d(dx: float) -> float:
    # Integrate K0/(2pi) over the square cell [-h,h]^2 in polar form using
    # int_0^rho K0(r) r dr = 1 - rho*K1(rho); 8-fold symmetry of the square.
    h = 0.5 * dx

    def slice_mass(theta):
        rho = h / np.cos(theta)
        return 1.0 - rho * special.k1(rho)

    val, _ = integrate.quad(slice_mass, 0.0, 0.25 * np.pi, epsabs=1e-14, epsrel=1e-12)
    return (8.0 * val) / (2.0 * np.pi) / dx ** 2


def _cell_average_2d(offs: np.ndarray, dx: float, n_gauss: int = 8) -> np.ndarray:
    """Cell averages of K0(r)/(2pi) on the grid of cell centers offs x offs.

    The cell containing the origin is handled by analytic radial
    integration; all others by tensor Gauss-Legendre quadrature (the
    integrand is smooth away from r = 0).

    A quadrature point (x, y) = (offs[a] + node[i], offs[b] + node[j]) has
    r = sqrt(x^2 + y^2), which depends only on |x| and |y|: squaring is
    exact in sign, and x^2 + y^2 == y^2 + x^2 in IEEE arithmetic.  So K0 is
    evaluated once per pair of distinct |x| values, on the upper triangle
    of a table (in blocks of rows, mirrored below), and the table is
    gathered back into the (a, b, i, j) array that evaluating every point
    would give.  Each entry carries the bits of its direct evaluation, and
    the einsum sums the same array in the same order, so the averages are
    bitwise those of the point-by-point tabulation.
    """
    nodes, wts = np.polynomial.legendre.leggauss(n_gauss)
    nodes = 0.5 * dx * nodes
    wts = 0.5 * wts  # scaled so the 1-d weights sum to 1/2 * 2 = 1

    ax, inv = np.unique(np.abs(offs[:, None] + nodes), return_inverse=True)
    sq = ax ** 2
    tab = np.empty((ax.size, ax.size))
    for lo in range(0, ax.size, 64):
        hi = lo + 64
        r = np.sqrt(sq[lo:hi, None] + sq[lo:])
        tab[lo:hi, lo:] = np.where(r > 0, special.k0(np.where(r > 0, r, 1.0)), 0.0) / (2.0 * np.pi)
        tab[hi:, lo:hi] = tab[lo:hi, hi:].T

    inv = inv.reshape(offs.size, n_gauss)
    vals = tab[inv[:, None, :, None], inv[None, :, None, :]]
    avg = np.einsum("abij,i,j->ab", vals, wts, wts)

    i0 = np.argmin(np.abs(offs))
    if abs(offs[i0]) < 0.5 * dx:
        avg[i0, i0] = _origin_cell_average_2d(dx)
    return avg


@dataclass
class GreenKernel:
    """Cell-averaged free-space kernel of (-lap + 1) on a uniform grid.

    ``values`` holds averages at integer cell offsets from the origin,
    covering [-n_offsets, n_offsets] per axis.  Non-negative by
    construction; its discrete mass approaches 1 from below as the
    truncation radius grows.
    """

    dim: int
    dx: float
    n_offsets: int
    values: np.ndarray = dc_field(repr=False, default=None)

    def __post_init__(self) -> None:
        if self.values is None:
            offs = np.arange(-self.n_offsets, self.n_offsets + 1) * self.dx
            if self.dim == 1:
                self.values = _cell_average_1d(offs, self.dx)
            elif self.dim == 2:
                self.values = _cell_average_2d(offs, self.dx)
            else:
                raise BadConfig(f"Green kernel supports dim 1 or 2, got {self.dim}")

    @property
    def radius(self) -> float:
        return self.n_offsets * self.dx

    @property
    def mass(self) -> float:
        return float(np.sum(self.values) * self.dx ** self.dim)

    @property
    def min_value(self) -> float:
        return float(self.values.min())


_KERNEL_CACHE: dict[tuple[int, float, int], GreenKernel] = {}


def green_kernel(dim: int, dx: float, n_offsets: int) -> GreenKernel:
    key = (dim, dx, n_offsets)
    if key not in _KERNEL_CACHE:
        _KERNEL_CACHE[key] = GreenKernel(dim=dim, dx=dx, n_offsets=n_offsets)
    return _KERNEL_CACHE[key]


# ---------------------------------------------------------------------------
# Signal solve
# ---------------------------------------------------------------------------

def _spectral_symbol(n: int, dx: float) -> np.ndarray:
    k = np.arange(n // 2 + 1)
    return (4.0 / dx ** 2) * np.sin(np.pi * k / n) ** 2


def solve_signal(n: np.ndarray, grid: PhaseGrid) -> SignalField:
    """Signal field solving the screened Poisson balance for density n.

    Periodic grids invert the discrete symbol exactly, so the 3/5-point
    stencil residual is round-off and the spatial integral of S equals the
    integral of n.  Free-space grids convolve with the cell-averaged
    kernel, which gives S >= 0 for n >= 0 and the Young bounds
    ||S||_q <= ||n||_q for q in {1, inf}.
    """
    n = np.asarray(n, dtype=float)
    if n.shape != grid.x_shape:
        raise BadConfig(f"density shape {n.shape} != spatial grid {grid.x_shape}")
    if not np.all(np.isfinite(n)):
        raise NonFiniteInput("signal solve received a non-finite density")

    if grid.x_topology == "periodic":
        if grid.dim == 1:
            sym = 1.0 + _spectral_symbol(grid.x_nodes, grid.dx)
            s = np.fft.irfft(np.fft.rfft(n) / sym, n=grid.x_nodes)
        else:
            nx = grid.x_nodes
            full = (4.0 / grid.dx ** 2) * np.sin(np.pi * np.arange(nx) / nx) ** 2
            half = _spectral_symbol(nx, grid.dx)
            sym = 1.0 + full[:, None] + half[None, :]
            s = np.fft.irfft2(np.fft.rfft2(n) / sym, s=(nx, nx))
    else:
        kern = green_kernel(grid.dim, grid.dx, grid.x_nodes - 1)
        if grid.dim == 1:
            s = np.convolve(n, kern.values, mode="valid") * grid.dx
        else:
            s = signal.fftconvolve(n, kern.values, mode="same") * grid.dx ** 2

    return SignalField(values=s)


def stencil_residual(s: np.ndarray, n: np.ndarray, grid: PhaseGrid) -> float:
    """Max-norm of -lap_h(S) + S - n with the periodic 3/5-point stencil."""
    lap = np.zeros_like(s)
    for axis in range(grid.dim):
        lap += (np.roll(s, 1, axis=axis) - 2.0 * s + np.roll(s, -1, axis=axis)) / grid.dx ** 2
    return float(np.max(np.abs(-lap + s - n)))


# ---------------------------------------------------------------------------
# Kernel property report
# ---------------------------------------------------------------------------

@dataclass
class KernelCheck:
    name: str
    value: float
    expected: str
    passed: bool


@dataclass
class KernelReport:
    """Discrete facts about the tabulated kernel vs. its known properties."""

    dim: int
    dx: float
    radius: float
    checks: list[KernelCheck]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def write_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["name", "value", "expected", "passed"])
            for c in self.checks:
                writer.writerow([c.name, repr(c.value), c.expected, int(c.passed)])


def kernel_check(grid: PhaseGrid, radius: float | None = None) -> KernelReport:
    """Tabulate the free-space kernel and compare against its invariants.

    Reports the discrete mass, minimum, total variation (1-d) and the
    weighted tail integrals that the concentration estimates lean on.
    """
    if grid.x_topology != "free":
        raise BadConfig("kernel_check requires free-space topology")
    radius = radius if radius is not None else max(FULL_MASS_RADIUS, grid.x_extent)
    n_off = int(np.ceil(radius / grid.dx))
    kern = green_kernel(grid.dim, grid.dx, n_off)
    meas = grid.dx ** grid.dim

    checks = [
        KernelCheck("mass", kern.mass, "in [1 - 1e-6, 1]",
                    1.0 - 1e-6 <= kern.mass <= 1.0),
        KernelCheck("min_value", kern.min_value, ">= 0", kern.min_value >= 0.0),
    ]

    if grid.dim == 1:
        offs = np.arange(-n_off, n_off + 1) * grid.dx
        tv = float(np.sum(np.abs(np.diff(kern.values))))
        expect = 1.0 - np.exp(-kern.radius)
        checks.append(KernelCheck(
            "grad_l1", tv, f"~ {expect:.6f} (within 5 dx)",
            abs(tv - expect) <= 5.0 * grid.dx))
        r = np.abs(offs)
    else:
        offs = np.arange(-n_off, n_off + 1) * grid.dx
        ox, oy = np.meshgrid(offs, offs, indexing="ij")
        r = np.sqrt(ox ** 2 + oy ** 2)

    for alpha, beta in ((2.0 / grid.dim, 2.0), (1.0, 1.0)):
        tail = (r > 1.0)
        val = float(np.sum((r[tail] ** alpha) * (kern.values[tail] ** beta)) * meas)
        checks.append(KernelCheck(
            f"tail_a{alpha:g}_b{beta:g}", val, "finite", np.isfinite(val)))

    return KernelReport(dim=grid.dim, dx=grid.dx, radius=kern.radius, checks=checks)
