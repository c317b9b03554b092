"""Solve the screened Poisson equation -lap(S) + S = n for the signal.

Periodic topology inverts the discrete symbol 1 + (4/dx^2) sin^2(pi k / N)
by FFT, so the residual against the standard second-order stencil is pure
round-off.  Truncated free space convolves with cell averages of the
free-space Green function (exponential kernel in 1-d, K0(|x|)/(2 pi) with
a log singularity in 2-d); cell averaging rather than point sampling is
what keeps the discrete kernel mass inside [1 - 1e-6, 1] at desk-scale
resolutions.

numpy is the only dependency: K0 and K1 are Chebyshev expansions
(``_k0``, ``_k1``) and every FFT is ``numpy.fft``.  ``numpy.fft`` and
``numpy.polynomial.legendre``, which numpy would load lazily, are imported
here, so a process that has imported the package pays no import in its
first solve.
"""
from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy import fft
from numpy.polynomial import chebyshev, legendre

from .errors import BadConfig, NonFiniteInput
from .fields import SignalField
from .model import PhaseGrid

#: Offsets beyond this radius carry < 1e-6 kernel mass in both dimensions.
FULL_MASS_RADIUS = 16.0


# ---------------------------------------------------------------------------
# Modified Bessel functions K0 and K1
# ---------------------------------------------------------------------------

# Chebyshev expansions in the style of Moshier's Cephes (Methods and Programs
# for Mathematical Functions, 1989).  For x > 2, e^x sqrt(x) K_nu(x) is
# expanded in u = 4/x - 1; for x <= 2, the part of x^nu K_nu(x) left after
# the logarithmic term, x^nu (K_nu(x) + (-1)^nu log(x/2) I_nu(x)), in
# t = x^2/2 - 1.  Each coefficient was computed with mpmath at 40 digits as
# c_k = (2 - [k = 0]) / N * sum_j f(cos th_j) cos(k th_j), th_j = pi (j + 1/2) / N,
# N = 80, and each series stops at its last |c_k| >= 1e-19.
#
# The series are turned into power form once, here, and evaluated by
# Horner's rule: two array passes a term, against three for Clenshaw's
# recurrence.  On [-1, 1] that costs no accuracy: each power-form list's
# absolute sum is at most 1.5, within 1.2 times its Chebyshev list's, and
# against 30-digit mpmath on [1e-4, 50] K0 errs by <= 8.9e-16 relative and
# K1 by <= 7.8e-16 (scipy.special: 1.2e-15 and 1.0e-15).
def _power_form(cheb: tuple[float, ...]) -> tuple[float, ...]:
    return tuple(chebyshev.cheb2poly(cheb).tolist())


_K0_FAR = _power_form((
    1.2201515410329777e+00, -3.1448101311964502e-02, 1.5698838857300533e-03,
    -1.2849549581627802e-04, 1.3949813718876500e-05, -1.8317555227191195e-06,
    2.7668136394450149e-07, -4.6604898976879478e-08, 8.5740340174142253e-09,
    -1.6975345093890614e-09, 3.5773972814003283e-10, -7.9574892444773965e-11,
    1.8559491149549264e-11, -4.5145978833745193e-12, 1.1403405882073441e-12,
    -2.9800969231481784e-13, 8.0328907750683746e-14, -2.2275133267462965e-14,
    6.3400764762766461e-15, -1.8485933779209071e-15, 5.5120559994043335e-16,
    -1.6782311257549006e-16, 5.2103917776435543e-17, -1.6475805939842632e-17,
    5.3004337711773354e-18, -1.7331712005821001e-18, 5.7551092028827291e-19,
    -1.9390956053183555e-19))
_K1_FAR = _power_form((
    1.3603130952422213e+00, 1.0392373657681724e-01, -2.8578168596227792e-03,
    1.9521551847135162e-04, -1.9361979741660830e-05, 2.4064849478372170e-06,
    -3.5019606030878126e-07, 5.7410841254500495e-08, -1.0345762465678097e-08,
    2.0150497551970347e-09, -4.1903547593419254e-10, 9.2183151876053146e-11,
    -2.1299678384277909e-11, 5.1396396734823432e-12, -1.2891739609498229e-12,
    3.3484196660522431e-13, -8.9767051820101463e-14, 2.4771544242195988e-14,
    -7.0198370892147685e-15, 2.0387031662398610e-15, -6.0570472706430177e-16,
    1.8380935752430455e-16, -5.6894628491936484e-17, 1.7940510478863572e-17,
    -5.7567444820733025e-18, 1.8778651901623268e-18, -6.2216452873526096e-19,
    2.0919125269831136e-19))
_K0_NEAR = _power_form((
    -2.6766369661695139e-01, 3.4428989992462850e-01, 3.5979936515361501e-02,
    1.2646154114469260e-03, 2.2862121031194519e-05, 2.5347910790261494e-07,
    1.9045163772202091e-09, 1.0349695257633625e-11, 4.2598161427910826e-14,
    1.3744654358807508e-16, 3.5708965285083736e-19))
_K1_NEAR = _power_form((
    7.6265011366947388e-01, -3.5315596077654487e-01, -1.2261118082265715e-01,
    -6.9757238596398641e-03, -1.7302889575130520e-04, -2.4334061415659684e-06,
    -2.2133876307347260e-08, -1.4114883926335278e-10, -6.6669016941993295e-13,
    -2.4274498505193660e-15, -7.0238634793862882e-18))
#: Power series of I0(x) and 2 I1(x) / x in y = x^2/4, to y^13 (y <= 1 for x <= 2).
_I0_SERIES = tuple(1.0 / math.factorial(k) ** 2 for k in range(14))
_I1_SERIES = tuple(1.0 / (math.factorial(k) * math.factorial(k + 1)) for k in range(14))


def _horner(coeffs: tuple[float, ...], y: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] y^k."""
    acc = np.full_like(y, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc *= y
        acc += c
    return acc


def _bessel_k(x, far: tuple[float, ...], near):
    """K_nu at x > 0 from its x > 2 series ``far`` and its x <= 2 form ``near``.

    Each element's value depends on that element alone, whatever the shape
    of ``x``: the far and near cells are gathered into 1-d arrays and
    evaluated apart.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    is_far = x > 2.0
    xf = x[is_far]
    out[is_far] = _horner(far, 4.0 / xf - 1.0) * (np.exp(-xf) / np.sqrt(xf))
    is_near = ~is_far
    if is_near.any():
        out[is_near] = near(x[is_near])
    return out


def _k0_near(x: np.ndarray) -> np.ndarray:
    y = 0.25 * x * x
    return _horner(_K0_NEAR, 2.0 * y - 1.0) - np.log(0.5 * x) * _horner(_I0_SERIES, y)


def _k1_near(x: np.ndarray) -> np.ndarray:
    y = 0.25 * x * x
    i1 = 0.5 * x * _horner(_I1_SERIES, y)
    return _horner(_K1_NEAR, 2.0 * y - 1.0) / x + np.log(0.5 * x) * i1


def _k0(x) -> np.ndarray:
    """The modified Bessel function K0, elementwise, for x > 0."""
    return _bessel_k(x, _K0_FAR, _k0_near)


def _k1(x) -> np.ndarray:
    """The modified Bessel function K1, elementwise, for x > 0."""
    return _bessel_k(x, _K1_FAR, _k1_near)


def _next_fast_len(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n: ``scipy.fft.next_fast_len(n, real=True)``."""
    best, p5 = 2 ** (n - 1).bit_length(), 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            quotient = -(-n // p35)  # ceil(n / p35)
            best = min(best, p35 * 2 ** (quotient - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


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
    """The 21-point Gauss-Kronrod sum of elementwise ``f`` over [a, b].

    ``f`` is called once, on all 21 abscissae, and the values are summed in
    dqk21's order: the centre, the Gauss pairs, then the Kronrod-only
    pairs.  Where ``scipy.integrate.quad`` accepts its first pass, which is
    this rule, the two agree bit for bit on the same integrand.
    """
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    x = h * np.array(_XGK[:10])
    fx = f(np.concatenate(([c], c - x, c + x))).tolist()
    resk = _WGK[10] * fx[0]
    for j in (1, 3, 5, 7, 9, 0, 2, 4, 6, 8):
        resk += _WGK[j] * (fx[1 + j] + fx[11 + j])
    return resk * h


def _origin_cell_average_2d(dx: float) -> float:
    """Average of K0/(2pi) over the origin cell [-h, h]^2, h = dx/2.

    In polar form the radial integral has the closed form
    int_0^rho K0(r) r dr = 1 - rho*K1(rho), so by the square's 8-fold
    symmetry the cell mass is 8/(2pi) times one octant's angular integral
    of 1 - rho*K1(rho), rho = h/cos(theta), taken with the fixed 21-point
    Gauss-Kronrod rule (``_gauss_kronrod_21``) and the package's ``_k1``;
    the integrand is smooth on [0, pi/4].
    """
    h = 0.5 * dx

    def slice_mass(theta):
        rho = h / np.cos(theta)
        return 1.0 - rho * _k1(rho)

    val = _gauss_kronrod_21(slice_mass, 0.0, 0.25 * np.pi)
    return (8.0 * val) / (2.0 * np.pi) / dx ** 2


#: Rows of cell averages gathered and summed at a time (``_cell_average_2d``).
AVERAGE_BLOCK = 16


def _cell_average_2d(offs: np.ndarray, dx: float, n_gauss: int = 8) -> np.ndarray:
    """Cell averages of K0(r)/(2pi) on the grid of cell centers offs x offs.

    The cell containing the origin is handled by analytic radial
    integration; all others by tensor Gauss-Legendre quadrature (the
    integrand is smooth away from r = 0).

    A quadrature point (x, y) = (offs[a] + node[i], offs[b] + node[j]) has
    r = sqrt(x^2 + y^2), which depends only on |x| and |y|: squaring is
    exact in sign, and x^2 + y^2 == y^2 + x^2 in IEEE arithmetic.  So K0 is
    evaluated once per pair of distinct |x| values, on the upper triangle
    of a table (32 rows at a time, mirrored below), and the table is
    gathered back into the (a, b, i, j) values that evaluating every point
    would give, ``AVERAGE_BLOCK`` rows a at a time, each block summed by
    its own einsum.  Each entry carries the bits of its direct evaluation,
    and every average sums the same values in the same order, so the
    averages are bitwise those of the point-by-point tabulation.

    Memory: the table plus one block's temporaries.  A block holds
    AVERAGE_BLOCK * offs.size * n_gauss^2 values (1 MiB at offs.size = 127,
    n_gauss = 8); the whole (a, b, i, j) array would hold 7.9 MiB.
    """
    nodes, wts = legendre.leggauss(n_gauss)
    nodes = 0.5 * dx * nodes
    wts = 0.5 * wts  # scaled so the 1-d weights sum to 1/2 * 2 = 1

    ax, inv = np.unique(np.abs(offs[:, None] + nodes), return_inverse=True)
    sq = ax ** 2
    tab = np.empty((ax.size, ax.size))
    for lo in range(0, ax.size, 32):
        hi = lo + 32
        r = np.sqrt(sq[lo:hi, None] + sq[lo:])
        tab[lo:hi, lo:] = np.where(r > 0, _k0(np.where(r > 0, r, 1.0)), 0.0) / (2.0 * np.pi)
        tab[hi:, lo:hi] = tab[lo:hi, hi:].T

    inv = inv.reshape(offs.size, n_gauss)
    avg = np.empty((offs.size, offs.size))
    for lo in range(0, offs.size, AVERAGE_BLOCK):
        rows = inv[lo:lo + AVERAGE_BLOCK, None, :, None]
        avg[lo:lo + AVERAGE_BLOCK] = np.einsum(
            "abij,i,j->ab", tab[rows, inv[None, :, None, :]], wts, wts)

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
    density: the smallest 5-smooth length >= x_nodes + (2 x_nodes - 1) - 1
    per axis (``_next_fast_len``).  ``numpy.fft.rfftn`` gives the bits of
    ``scipy.fft.rfftn`` here.  Transformed once per argument; every caller
    shares the one read-only spectrum.
    """
    kern = green_kernel(2, dx, x_nodes - 1)
    shape = (_next_fast_len(3 * x_nodes - 2),) * 2
    spectrum = fft.rfftn(kern, shape, axes=(0, 1))
    spectrum.flags.writeable = False
    return spectrum, shape


@functools.cache
def periodic_symbol(dx: float, x_nodes: int, dim: int) -> np.ndarray:
    """Fourier symbol of (-lap_h + 1), the 3/5-point stencil, on a periodic grid.

    On ``numpy.fft.rfftn``'s half spectrum: 1 + sum over axes of
    (4/dx^2) sin^2(pi k/x_nodes), the last axis cut to x_nodes//2 + 1
    wavenumbers.  Computed once per argument; every caller shares the one
    read-only array.
    """
    full = (4.0 / dx ** 2) * np.sin(np.pi * np.arange(x_nodes) / x_nodes) ** 2
    half = full[:x_nodes // 2 + 1]
    sym = 1.0 + half if dim == 1 else 1.0 + full[:, None] + half
    sym.flags.writeable = False
    return sym


# ---------------------------------------------------------------------------
# Signal solve
# ---------------------------------------------------------------------------

def solve_signal(n: np.ndarray, grid: PhaseGrid) -> SignalField:
    """Signal field solving the screened Poisson balance for density n.

    Periodic grids invert the cached discrete symbol (``periodic_symbol``)
    exactly, so the 3/5-point stencil residual is round-off and the
    spatial integral of S equals the integral of n.  Free-space grids
    convolve with the cell-averaged kernel, which gives S >= 0 for n >= 0
    and the Young bounds
    ||S||_q <= ||n||_q for q in {1, inf}.  In 2-d the product with the
    cached kernel spectrum (``green_spectrum``), inverted and cut to its
    centred x_nodes^2 block, gives the bits of
    ``scipy.signal.fftconvolve(n, kernel, "same")``: the inverse is
    ``numpy.fft.irfftn`` unscaled (``norm="forward"``), then times 1/size,
    which is how ``scipy.fft`` scales it.
    """
    n = np.asarray(n, dtype=float)
    if n.shape != grid.x_shape:
        raise BadConfig(f"density shape {n.shape} != spatial grid {grid.x_shape}")
    if not np.all(np.isfinite(n)):
        raise NonFiniteInput("signal solve received a non-finite density")

    if grid.x_topology == "periodic":
        sym = periodic_symbol(grid.dx, grid.x_nodes, grid.dim)
        axes = range(grid.dim)
        s = np.fft.irfftn(np.fft.rfftn(n, axes=axes) / sym, s=n.shape, axes=axes)
    else:
        nx = grid.x_nodes
        if grid.dim == 1:
            s = np.convolve(n, green_kernel(1, grid.dx, nx - 1), mode="valid") * grid.dx
        else:
            spectrum, shape = green_spectrum(grid.dx, nx)
            full = fft.irfftn(fft.rfftn(n, shape, axes=(0, 1)) * spectrum, shape,
                              axes=(0, 1), norm="forward")
            block = full[nx - 1:2 * nx - 1, nx - 1:2 * nx - 1]
            s = block * (1.0 / (shape[0] * shape[1])) * grid.dx ** 2

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
