"""Signal solver fidelity: spectral residual, kernel properties, Young bounds."""
import numpy as np
import pytest
from scipy import fft, integrate, signal, special

from chemokin.elliptic import (_cell_average_2d, _gauss_kronrod_21, _k0, _k1, _next_fast_len,
                               _origin_cell_average_2d, green_kernel, green_spectrum,
                               kernel_check, periodic_symbol, solve_signal,
                               stencil_residual)
from chemokin.errors import BadConfig, NonFiniteInput
from chemokin.model import PhaseGrid, velocity_set


def make_grid(dim=1, n=128, extent=16.0, topology="periodic"):
    v, w = velocity_set(dim, 2 if dim == 1 else 4)
    return PhaseGrid(dim=dim, x_nodes=n, x_extent=extent, x_topology=topology,
                     velocities=v, weights=w, m_nodes=4, m_max=1.0)


def test_constant_density_gives_constant_signal():
    grid = make_grid()
    s = solve_signal(np.full(grid.x_nodes, 0.7), grid)
    assert np.allclose(s.values, 0.7, atol=1e-14)


def test_periodic_residual_is_roundoff():
    grid = make_grid(n=192, extent=12.0)
    rng = np.random.default_rng(3)
    x = grid.x_centers
    n = np.exp(-0.5 * x ** 2) * (1.0 + 0.3 * np.sin(x)) + 0.1 * rng.random(x.size)
    s = solve_signal(n, grid)
    assert stencil_residual(s.values, n, grid) <= 1e-10 * np.abs(n).max()
    # integral identity: the discrete Laplacian integrates to zero
    assert np.sum(s.values) * grid.dx == pytest.approx(np.sum(n) * grid.dx, rel=1e-13)


def test_periodic_residual_is_roundoff_2d():
    grid = make_grid(dim=2, n=24, extent=6.0)
    xx, yy = np.meshgrid(grid.x_centers, grid.x_centers, indexing="ij")
    n = np.exp(-(xx ** 2 + yy ** 2)) + 0.2
    s = solve_signal(n, grid)
    assert stencil_residual(s.values, n, grid) <= 1e-10 * np.abs(n).max()


def test_free_space_delta_reproduces_half_exponential():
    grid = make_grid(n=256, extent=8.0, topology="free")
    i0 = grid.x_nodes // 2
    n = np.zeros(grid.x_nodes)
    n[i0] = 1.0 / grid.dx  # unit-mass discrete delta
    s = solve_signal(n, grid)
    assert abs(s.values[i0] - 0.5) <= grid.dx
    x0 = grid.x_centers[i0]
    exact = 0.5 * np.exp(-np.abs(grid.x_centers - x0))
    assert np.max(np.abs(s.values - exact)) <= grid.dx


def test_free_space_matches_direct_summation():
    # Brute-force oracle: O(N^2) double loop over the same cell-averaged kernel.
    grid = make_grid(n=40, extent=5.0, topology="free")
    rng = np.random.default_rng(11)
    n = rng.random(grid.x_nodes)
    s = solve_signal(n, grid).values
    kern = green_kernel(1, grid.dx, grid.x_nodes - 1)
    direct = np.zeros(grid.x_nodes)
    for i in range(grid.x_nodes):
        for j in range(grid.x_nodes):
            direct[i] += kern[i - j + grid.x_nodes - 1] * n[j] * grid.dx
    assert np.allclose(s, direct, rtol=0, atol=1e-14)


def test_young_bounds():
    rng = np.random.default_rng(5)
    for topology in ("periodic", "free"):
        grid = make_grid(n=96, extent=12.0, topology=topology)
        n = rng.random(grid.x_nodes) * np.exp(-0.2 * grid.x_centers ** 2)
        s = solve_signal(n, grid).values
        l1_n = np.sum(np.abs(n)) * grid.dx
        l1_s = np.sum(np.abs(s)) * grid.dx
        if topology == "periodic":
            assert l1_s == pytest.approx(l1_n, rel=1e-12)
        else:
            assert l1_s <= l1_n * (1 + 1e-12)
        assert np.max(np.abs(s)) <= np.max(np.abs(n)) * (1 + 1e-12)
        assert s.min() >= -1e-12 * max(1.0, np.abs(n).max())


def test_linearity():
    grid = make_grid(n=64, extent=8.0)
    rng = np.random.default_rng(9)
    n1, n2 = rng.random(64), rng.random(64)
    a, b = 1.7, -0.4
    combo = solve_signal(a * n1 + b * n2, grid).values
    parts = a * solve_signal(n1, grid).values + b * solve_signal(n2, grid).values
    assert np.allclose(combo, parts, atol=1e-14)


def test_symmetry_about_center():
    grid = make_grid(n=64, extent=8.0, topology="free")
    n = np.exp(-grid.x_centers ** 2)
    assert np.allclose(n, n[::-1])  # even node count: centers mirror exactly
    s = solve_signal(n, grid).values
    assert np.allclose(s, s[::-1], atol=1e-13)


def test_non_finite_density_rejected():
    grid = make_grid(n=16, extent=4.0)
    n = np.ones(16)
    n[3] = np.nan
    with pytest.raises(NonFiniteInput):
        solve_signal(n, grid)


# -- kernel properties ---------------------------------------------------------

def test_kernel_check_1d():
    grid = make_grid(n=256, extent=8.0, topology="free")
    rep = kernel_check(grid)
    by_name = {c.name: c for c in rep.checks}
    assert 1.0 - 1e-6 <= by_name["mass"].value <= 1.0
    assert by_name["min_value"].value >= 0.0
    # Independent oracle for the derivative's L1 norm: trapezoid quadrature
    # of |d/dx (0.5 exp(-|x|))| = 0.5 exp(-|x|) over the same truncation.
    xs = np.linspace(-rep.radius, rep.radius, 20001)
    oracle = np.trapezoid(0.5 * np.exp(-np.abs(xs)), xs)
    assert by_name["grad_l1"].value == pytest.approx(oracle, abs=5 * grid.dx)
    assert rep.passed


@pytest.mark.parametrize("n, extent", [(16, 8.0), (40, 20.0)])
def test_kernel_check_2d(n, extent):
    # The table reaches max(FULL_MASS_RADIUS, x_extent); 2-d reports carry
    # no total-variation row.
    grid = make_grid(dim=2, n=n, extent=extent, topology="free")
    rep = kernel_check(grid)
    by_name = {c.name: c for c in rep.checks}
    assert list(by_name) == ["mass", "min_value", "tail_a1_b2", "tail_a1_b1"]
    assert 1.0 - 1e-6 <= by_name["mass"].value <= 1.0
    assert by_name["min_value"].value >= 0.0
    assert all(np.isfinite(by_name[name].value) for name in ("tail_a1_b2", "tail_a1_b1"))
    n_off = int(np.ceil(max(16.0, extent) / grid.dx))
    assert rep.radius == n_off * grid.dx == max(16.0, extent)
    assert (rep.dim, rep.dx) == (2, grid.dx)
    assert rep.passed


def test_kernel_check_requires_free_space():
    with pytest.raises(BadConfig):
        kernel_check(make_grid(topology="periodic"))


def test_kernel_check_csv(tmp_path):
    grid = make_grid(n=128, extent=8.0, topology="free")
    rep = kernel_check(grid)
    path = tmp_path / "kernel.csv"
    rep.write_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "name,value,expected,passed"


def test_kernel_2d_mass_and_pointwise_values():
    from scipy.special import k0
    kern = green_kernel(2, 0.25, 66)  # radius 16.5
    assert kern.min() >= 0.0
    assert 1.0 - 1e-6 <= np.sum(kern) * 0.25 ** 2 <= 1.0
    # Away from the origin the kernel solves (-lap + 1) G = 0, so the
    # midpoint cell average is point * (1 + dx^2/24) to leading order.
    c = 66
    for di, dj in ((8, 0), (5, 5), (0, 12)):
        r = 0.25 * np.hypot(di, dj)
        point = k0(r) / (2 * np.pi)
        corrected = point * (1.0 + 0.25 ** 2 / 24.0)
        assert kern[c + di, c + dj] == pytest.approx(corrected, rel=2e-4)


def test_bessel_k0_k1_match_scipy():
    # 2400 points over [1e-4, 50], plus 2 (the switch between the two
    # series) and its neighbouring floats.
    x = np.concatenate([np.geomspace(1e-4, 50.0, 2000), np.linspace(1.5, 2.5, 400),
                        [np.nextafter(2.0, 0.0), 2.0, np.nextafter(2.0, 3.0)]])
    for ours, ref in ((_k0, special.k0), (_k1, special.k1)):
        assert np.max(np.abs(ours(x) / ref(x) - 1.0)) <= 3e-15
        # Each element's value is independent of the array it sits in.
        assert [ours(v) for v in x[::50].tolist()] == ours(x[::50]).tolist()


def test_next_fast_len_equals_scipy():
    assert [_next_fast_len(n) for n in range(1, 4097)] == [
        fft.next_fast_len(n, real=True) for n in range(1, 4097)]


def brute_force_cell_average_2d(offs, dx, n_gauss):
    """Reference tabulation: K0/(2pi) at every Gauss point of every cell."""
    nodes, wts = np.polynomial.legendre.leggauss(n_gauss)
    nodes = 0.5 * dx * nodes
    wts = 0.5 * wts
    xx = offs[:, None, None, None] + nodes[None, None, :, None]
    yy = offs[None, :, None, None] + nodes[None, None, None, :]
    r = np.sqrt(xx ** 2 + yy ** 2)
    vals = np.where(r > 0, _k0(np.where(r > 0, r, 1.0)), 0.0) / (2.0 * np.pi)
    avg = np.einsum("abij,i,j->ab", vals, wts, wts)
    i0 = np.argmin(np.abs(offs))
    if abs(offs[i0]) < 0.5 * dx:
        avg[i0, i0] = _origin_cell_average_2d(dx)
    return avg


@pytest.mark.parametrize("n_gauss", [4, 8])
@pytest.mark.parametrize("dx, n_offsets", [(0.25, 63), (0.5, 32), (1.0 / 3.0, 47)])
def test_kernel_2d_table_equals_brute_force_bitwise(dx, n_offsets, n_gauss):
    # K0 is evaluated once per distinct (|x|, |y|) pair; the table must be
    # bit for bit the point-by-point one, origin cell included.
    offs = np.arange(-n_offsets, n_offsets + 1) * dx
    ref = brute_force_cell_average_2d(offs, dx, n_gauss)
    assert np.array_equal(_cell_average_2d(offs, dx, n_gauss), ref)
    if n_gauss == 8:
        assert np.array_equal(green_kernel(2, dx, n_offsets), ref)


@pytest.mark.parametrize("n_gauss", [4, 8])
def test_kernel_2d_table_equals_brute_force_without_origin_cell(n_gauss):
    # Even width: the cell centres straddle the origin, so no cell holds it.
    dx = 0.25
    offs = (np.arange(-20, 20) + 0.5) * dx
    ref = brute_force_cell_average_2d(offs, dx, n_gauss)
    assert np.all(np.abs(offs) >= 0.5 * dx)
    assert np.array_equal(_cell_average_2d(offs, dx, n_gauss), ref)


def test_kernel_2d_table_peak_stays_below_one_free_2d_density():
    # The (a, b, i, j) quadrature values are gathered a block of rows at a
    # time: free_2d's table (n_offsets = 63) peaks below one 64^2 x 8 x 16
    # density, where the whole array alone is 127^2 * 8^2 doubles (7.9 MiB).
    import tracemalloc
    dx = 0.25
    offs = np.arange(-63, 64) * dx
    tracemalloc.start()
    try:
        _cell_average_2d(offs, dx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 64 * 8 * 16 * 8, peak / 2 ** 20


def test_gauss_kronrod_21_is_exact_to_degree_31():
    # 21 Kronrod nodes integrate polynomials of degree 3 * 10 + 1 exactly.
    for deg in (0, 1, 7, 20, 31):
        assert _gauss_kronrod_21(lambda t: t ** deg, 0.0, 1.0) == pytest.approx(
            1.0 / (deg + 1), rel=1e-14)
    assert _gauss_kronrod_21(np.cos, -1.0, 2.0) == pytest.approx(np.sin(2.0) + np.sin(1.0),
                                                                 rel=1e-15)


def test_origin_cell_rule_equals_quad_bitwise():
    # scipy's quad accepts its first pass, dqk21, on the origin cell's
    # octant integral at every tested dx; the fixed rule, which evaluates
    # its 21 nodes in one call, gives its bits on the package's K1, and so
    # does the cell average built on it.
    for dx in [*np.linspace(0.01, 4.0, 407), 0.25, 0.125, 0.0625]:
        h = 0.5 * dx

        def slice_mass(theta):
            rho = h / np.cos(theta)
            return 1.0 - rho * _k1(rho)

        ref, _ = integrate.quad(slice_mass, 0.0, 0.25 * np.pi, epsabs=1e-14, epsrel=1e-12)
        assert _gauss_kronrod_21(slice_mass, 0.0, 0.25 * np.pi) == ref, dx
        assert _origin_cell_average_2d(dx) == (8.0 * ref) / (2.0 * np.pi) / dx ** 2, dx


def test_free_space_solve_2d_young():
    grid = make_grid(dim=2, n=24, extent=6.0, topology="free")
    xx, yy = np.meshgrid(grid.x_centers, grid.x_centers, indexing="ij")
    n = np.exp(-(xx ** 2 + yy ** 2))
    s = solve_signal(n, grid).values
    assert np.sum(np.abs(s)) * grid.dx ** 2 <= np.sum(n) * grid.dx ** 2
    assert s.min() >= -1e-12


@pytest.mark.parametrize("n, extent", [(1, 2.0), (24, 6.0), (33, 12.8), (64, 12.8)])
def test_free_space_solve_2d_equals_fftconvolve_bitwise(n, extent):
    # The cached kernel spectrum gives the bits of scipy's "same" convolution,
    # and is transformed once per grid.
    grid = make_grid(dim=2, n=n, extent=extent, topology="free")
    kern = green_kernel(2, grid.dx, n - 1)
    rng = np.random.default_rng(n)
    green_spectrum.cache_clear()
    for _ in range(3):
        dens = rng.random(grid.x_shape) * rng.uniform(0.0, 50.0)
        expected = signal.fftconvolve(dens, kern, mode="same") * grid.dx ** 2
        assert solve_signal(dens, grid).values.tobytes() == expected.tobytes()
    info = green_spectrum.cache_info()
    assert (info.misses, info.hits) == (1, 2)


@pytest.mark.parametrize("dim, n", [(1, 1), (1, 128), (1, 33), (2, 24), (2, 17)])
def test_periodic_solve_reads_its_cached_symbol_bitwise(dim, n):
    # The symbol is built once per grid, read-only, and the solve gives the
    # bits of one that builds it on every call.
    grid = make_grid(dim=dim, n=n, extent=6.0)
    full = (4.0 / grid.dx ** 2) * np.sin(np.pi * np.arange(n) / n) ** 2
    half = full[:n // 2 + 1]
    sym = 1.0 + half if dim == 1 else 1.0 + full[:, None] + half
    rng = np.random.default_rng(n)
    periodic_symbol.cache_clear()
    for _ in range(3):
        dens = rng.random(grid.x_shape) * rng.uniform(0.0, 50.0)
        axes = range(dim)
        expected = np.fft.irfftn(np.fft.rfftn(dens, axes=axes) / sym, s=dens.shape, axes=axes)
        assert solve_signal(dens, grid).values.tobytes() == expected.tobytes()
    info = periodic_symbol.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    assert not periodic_symbol(grid.dx, n, dim).flags.writeable
