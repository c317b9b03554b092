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
import functools
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import fft, special

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


#: QUADPACK's dqk21 rule on [-1, 1] (Piessens et al., QUADPACK, 1983): the
#: non-negative 21-point Kronrod abscissae, largest first (the odd entries
#: are the 10-point Gauss nodes), and their Kronrod weights.
_XGK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
        0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
        0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
        0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
        0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
        0.0)
_WGK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
        0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
        0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
        0.123491976262065851077208015236767, 0.134709217311473325928054001771707,
        0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
        0.149445554002916905664936468389821)


def _gauss_kronrod_21(f, a: float, b: float) -> float:
    """The 21-point Gauss-Kronrod sum of scalar ``f`` over [a, b].

    Summed in dqk21's order: the centre, the Gauss pairs, then the
    Kronrod-only pairs.  Where ``scipy.integrate.quad`` accepts its first
    pass, which is this rule, the two agree bit for bit.
    """
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    resk = _WGK[10] * f(c)
    for j in (1, 3, 5, 7, 9, 0, 2, 4, 6, 8):
        x = h * _XGK[j]
        resk += _WGK[j] * (f(c - x) + f(c + x))
    return resk * h


def _origin_cell_average_2d(dx: float) -> float:
    """Average of K0/(2pi) over the origin cell [-h, h]^2, h = dx/2.

    In polar form the radial integral has the closed form
    int_0^rho K0(r) r dr = 1 - rho*K1(rho), so by the square's 8-fold
    symmetry the cell mass is 8/(2pi) times one octant's angular integral
    of 1 - rho*K1(rho), rho = h/cos(theta), taken with the fixed 21-point
    Gauss-Kronrod rule (``_gauss_kronrod_21``); the integrand is smooth on
    [0, pi/4].
    """
    h = 0.5 * dx

    def slice_mass(theta):
        rho = h / np.cos(theta)
        return 1.0 - rho * special.k1(rho)

    val = _gauss_kronrod_21(slice_mass, 0.0, 0.25 * np.pi)
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


@functools.cache
def green_kernel(dim: int, dx: float, n_offsets: int) -> np.ndarray:
    """Cell-averaged free-space kernel of (-lap + 1) on a uniform grid.

    Averages at integer cell offsets [-n_offsets, n_offsets] per axis,
    tabulated once per argument; every caller shares the one read-only
    table.  Non-negative by construction; its discrete mass approaches 1
    from below as the truncation radius grows.
    """
    if dim not in (1, 2):
        raise BadConfig(f"Green kernel supports dim 1 or 2, got {dim}")
    offs = np.arange(-n_offsets, n_offsets + 1) * dx
    table = (_cell_average_1d if dim == 1 else _cell_average_2d)(offs, dx)
    table.flags.writeable = False
    return table


@functools.cache
def green_spectrum(dx: float, x_nodes: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Real-FFT spectrum of the 2-d Green kernel for an x_nodes^2 grid, and its shape.

    The kernel is ``green_kernel(2, dx, x_nodes - 1)``, zero-padded to the
    shape ``scipy.signal.fftconvolve`` picks for it against an x_nodes^2
    density: ``next_fast_len(x_nodes + (2 x_nodes - 1) - 1)`` per axis.
    Transformed once per argument; every caller shares the one read-only
    spectrum.
    """
    kern = green_kernel(2, dx, x_nodes - 1)
    shape = (fft.next_fast_len(3 * x_nodes - 2, real=True),) * 2
    spectrum = fft.rfftn(kern, shape)
    spectrum.flags.writeable = False
    return spectrum, shape


# ---------------------------------------------------------------------------
# Signal solve
# ---------------------------------------------------------------------------

def solve_signal(n: np.ndarray, grid: PhaseGrid) -> SignalField:
    """Signal field solving the screened Poisson balance for density n.

    Periodic grids invert the discrete symbol exactly, so the 3/5-point
    stencil residual is round-off and the spatial integral of S equals the
    integral of n.  Free-space grids convolve with the cell-averaged
    kernel, which gives S >= 0 for n >= 0 and the Young bounds
    ||S||_q <= ||n||_q for q in {1, inf}.  In 2-d the product with the
    cached kernel spectrum (``green_spectrum``), inverted and cut to its
    centred x_nodes^2 block, gives the bits of
    ``scipy.signal.fftconvolve(n, kernel, "same")``.
    """
    n = np.asarray(n, dtype=float)
    if n.shape != grid.x_shape:
        raise BadConfig(f"density shape {n.shape} != spatial grid {grid.x_shape}")
    if not np.all(np.isfinite(n)):
        raise NonFiniteInput("signal solve received a non-finite density")

    if grid.x_topology == "periodic":
        nx = grid.x_nodes
        full = (4.0 / grid.dx ** 2) * np.sin(np.pi * np.arange(nx) / nx) ** 2
        half = full[:nx // 2 + 1]  # the last axis keeps only rfftn's half spectrum
        sym = 1.0 + half if grid.dim == 1 else 1.0 + full[:, None] + half
        axes = range(grid.dim)
        s = np.fft.irfftn(np.fft.rfftn(n, axes=axes) / sym, s=n.shape, axes=axes)
    else:
        nx = grid.x_nodes
        if grid.dim == 1:
            s = np.convolve(n, green_kernel(1, grid.dx, nx - 1), mode="valid") * grid.dx
        else:
            spectrum, shape = green_spectrum(grid.dx, nx)
            full = fft.irfftn(fft.rfftn(n, shape) * spectrum, shape)
            s = full[nx - 1:2 * nx - 1, nx - 1:2 * nx - 1] * grid.dx ** 2

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


def kernel_check(grid: PhaseGrid) -> KernelReport:
    """Tabulate the free-space kernel and compare against its invariants.

    The table reaches max(FULL_MASS_RADIUS, x_extent).  Reports the
    discrete mass, minimum, total variation (1-d) and the weighted tail
    integrals that the concentration estimates lean on.
    """
    if grid.x_topology != "free":
        raise BadConfig("kernel_check requires free-space topology")
    n_off = int(np.ceil(max(FULL_MASS_RADIUS, grid.x_extent) / grid.dx))
    kern = green_kernel(grid.dim, grid.dx, n_off)
    meas = grid.dx ** grid.dim
    radius = n_off * grid.dx
    mass, low = float(np.sum(kern) * meas), float(kern.min())

    checks = [
        KernelCheck("mass", mass, "in [1 - 1e-6, 1]", 1.0 - 1e-6 <= mass <= 1.0),
        KernelCheck("min_value", low, ">= 0", low >= 0.0),
    ]

    offs = np.arange(-n_off, n_off + 1) * grid.dx
    if grid.dim == 1:
        tv = float(np.sum(np.abs(np.diff(kern))))
        expect = 1.0 - np.exp(-radius)
        checks.append(KernelCheck(
            "grad_l1", tv, f"~ {expect:.6f} (within 5 dx)",
            abs(tv - expect) <= 5.0 * grid.dx))
        r = np.abs(offs)
    else:
        ox, oy = np.meshgrid(offs, offs, indexing="ij")
        r = np.sqrt(ox ** 2 + oy ** 2)

    for alpha, beta in ((2.0 / grid.dim, 2.0), (1.0, 1.0)):
        tail = (r > 1.0)
        val = float(np.sum((r[tail] ** alpha) * (kern[tail] ** beta)) * meas)
        checks.append(KernelCheck(
            f"tail_a{alpha:g}_b{beta:g}", val, "finite", np.isfinite(val)))

    return KernelReport(dim=grid.dim, dx=grid.dx, radius=radius, checks=checks)
