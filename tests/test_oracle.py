"""Backward characteristics and the Picard fixed point vs. independent oracles."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chemokin import oracle
from chemokin.errors import BadConfig, NoContraction, SolverFailure
from chemokin.fields import DensityField, total_mass
from chemokin.kinetic import StepperState, macro_step
from chemokin.model import (AdaptationModel, ModelSpec, PhaseGrid, TurningModel,
                            package_initial, velocity_set)
from chemokin.oracle import (_M_GHOSTS, SignalHistory, _as_sources, _characteristics,
                             _interp_xm, _march, _pullback, _rk4_backward, _stencil, _sweep,
                             duhamel_solve)


def make_setup(nx=16, nm=16, extent=4.0, kappa=1.0, lambda0=0.5, eps=1.0,
               t_family="constant", nv=2, topology="periodic", f_family="linear"):
    v, w = velocity_set(1, nv)
    grid = PhaseGrid(dim=1, x_nodes=nx, x_extent=extent, x_topology=topology,
                     velocities=v, weights=w, m_nodes=nm, m_max=1.7)
    spec = ModelSpec(
        adaptation=AdaptationModel(kind=f_family, kappa=kappa, s_ref=0.5,
                                   m_minus=0.2, m_plus=1.2),
        turning=TurningModel(kind=t_family, lambda0=lambda0, beta=0.4,
                             m_c=0.7, delta=0.25),
        epsilon=eps)
    spec.validate_on(grid)
    return grid, spec


# -- backward characteristics ---------------------------------------------------

def backtrace(m_end, x_end, v, t, hist, spec, n_intervals=16, substeps=4):
    """Internal state along the backward characteristic ending at t, on a uniform s grid.

    The lag table holds the state at lags t - s, so it is read in reverse.
    """
    s_grid = np.linspace(0.0, t, n_intervals + 1)
    lag_states = _rk4_backward(np.float64(m_end), np.float64(x_end), v, s_grid, hist, spec,
                               substeps=substeps)
    return s_grid, lag_states[::-1]


def leaves_m_range(path, grid):
    return bool(path.min() < 0.0 or path.max() > grid.m_max)


def test_backtrace_stationary_at_adapted_state():
    grid, spec = make_setup()
    s_val = 0.5
    hist = SignalHistory.constant(np.full(grid.x_nodes, s_val), grid)
    m0 = float(spec.adaptation.equilibrium(s_val))
    _, path = backtrace(m0, 0.3, float(grid.velocities[1, 0]), 1.0, hist, spec)
    assert np.allclose(path, m0, atol=1e-12)


def test_backtrace_matches_linear_relaxation_closed_form():
    grid, spec = make_setup(kappa=1.3, eps=0.7)
    s_val = 0.8
    hist = SignalHistory.constant(np.full(grid.x_nodes, s_val), grid)
    m0 = float(spec.adaptation.equilibrium(s_val))
    m_end, t = 0.9, 0.6
    s, path = backtrace(m_end, 0.0, float(grid.velocities[0, 0]), t, hist, spec)
    # relaxation toward m0 forward in time departs from m0 backward in time
    exact = m0 + (m_end - m0) * np.exp(1.3 * (t - s) / 0.7)
    assert np.max(np.abs(path - exact)) <= 1e-8


def test_backtrace_zero_velocity_stationary_position():
    # With v = 0 the path reads the signal at its end point only, so on a
    # signal that varies in x it relaxes toward that point's adapted state.
    grid, spec = make_setup()
    x = grid.x_centers
    hist = SignalHistory.constant(0.3 + 0.5 * np.exp(-x ** 2), grid)
    i = 5
    m0 = float(spec.adaptation.equilibrium(hist.values[i]))
    _, path = backtrace(0.9, x[i], 0.0, 0.5, hist, spec)
    exact0 = m0 + (0.9 - m0) * np.exp(1.0 * 0.5)
    assert path[0] == pytest.approx(exact0, abs=1e-8)


def test_backtrace_leaves_m_range():
    grid, spec = make_setup(kappa=2.0)
    hist = SignalHistory.constant(np.full(grid.x_nodes, 0.5), grid)
    # backward flow expands away from the root: exp(kappa t) * 0.5 >> m_max
    _, path = backtrace(1.2, 0.0, float(grid.velocities[0, 0]), 2.0, hist, spec)
    assert leaves_m_range(path, grid)
    _, inside = backtrace(1.2, 0.0, float(grid.velocities[0, 0]), 0.1, hist, spec)
    assert not leaves_m_range(inside, grid)


def rk4_backward_per_path(m_end, x_end, v, s_grid, s_hist, spec, substeps):
    """Reference: one backward RK4 path ending at s_grid[-1], stepped alone."""
    eps = spec.epsilon
    t_end = s_grid[-1]

    def rhs(m, s):
        x_s = x_end - v * (t_end - s)
        return spec.adaptation.rate(m, s_hist.eval(x_s)) / eps

    out = np.empty((s_grid.size,) + np.shape(m_end))
    out[-1] = m_end
    m = np.asarray(m_end, dtype=float)
    for idx in range(s_grid.size - 1, 0, -1):
        h = (s_grid[idx - 1] - s_grid[idx]) / substeps
        s = s_grid[idx]
        for _ in range(substeps):
            k1 = rhs(m, s)
            k2 = rhs(m + 0.5 * h * k1, s + 0.5 * h)
            k3 = rhs(m + 0.5 * h * k2, s + 0.5 * h)
            k4 = rhs(m + h * k3, s + h)
            m = m + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            s += h
        out[idx - 1] = m
    return out


@pytest.mark.parametrize("f_family", ["linear", "cubic"])
@pytest.mark.parametrize("topology", ["periodic", "free"])
def test_lag_tables_match_per_path_rk4(f_family, topology):
    # A signal varying in x, so every path reads its own values.  Frozen in
    # time, the path ending at node l, read at node l - d, is the lag-d path.
    grid, spec = make_setup(nx=12, nm=10, kappa=0.5, eps=0.8, topology=topology,
                            f_family=f_family, t_family="separable-uniform", nv=4)
    x = grid.x_centers
    hist = SignalHistory.constant(0.3 + 0.4 * np.exp(-x ** 2) + 0.1 * np.sin(x), grid)
    t, n_time, substeps = 0.4, 7, 3
    taus = np.linspace(0.0, t, n_time + 1)
    ch = _characteristics(hist, spec, grid, t, n_time, substeps)
    vx = grid.velocities[:, 0]
    m_ends = np.broadcast_to(grid.m_centers, (grid.n_v, grid.x_nodes, grid.m_nodes))
    states = _rk4_backward(m_ends, x[:, None], vx[:, None, None], taus, hist, spec, substeps)
    m_end = np.ones((grid.x_nodes, 1)) * grid.m_centers[None, :]
    col_norm = grid.weights @ spec.turning.kernel_matrix(grid)

    def rel(a, b):
        return np.max(np.abs(a - b)) / np.max(np.abs(b))

    for k, v in enumerate(vx):
        for l in range(n_time + 1):
            ref = rk4_backward_per_path(m_end, x[:, None], v, taus[:l + 1], hist, spec,
                                        substeps)
            for d in range(l + 1):
                m_ref = ref[l - d]
                s_ref = hist.eval(x - v * (taus[l] - taus[l - d]))[:, None]
                lam = spec.turning.frequency(m_ref)
                loss = spec.adaptation.rate_m(m_ref, s_ref) / spec.epsilon + lam * col_norm[k]
                assert rel(states[d, k], m_ref) <= 1e-14, (k, l, d)
                assert rel(ch.lam[d, k], lam) <= 1e-14, (k, l, d)
                assert rel(ch.loss[d, k], loss) <= 1e-14, (k, l, d)


# -- Duhamel / Picard -----------------------------------------------------------

def test_no_contraction_guard():
    grid, spec = make_setup(kappa=2.0, lambda0=1.0)
    hist = SignalHistory.constant(np.zeros(grid.x_nodes), grid)
    p0 = DensityField(np.ones(grid.field_shape))
    t_bad = 1.1 / spec.growth_rate(grid)
    with pytest.raises(NoContraction):
        duhamel_solve(p0, hist, spec, grid, t_bad, picard_iters=3)


def test_uncertified_spec_is_refused():
    # The guard StepperState.create uses too: caps left at 0.0 certify nothing.
    from dataclasses import replace
    grid, spec = make_setup()
    hist = SignalHistory.constant(np.zeros(grid.x_nodes), grid)
    p0 = DensityField(np.ones(grid.field_shape))
    for caps in ({"turning_cap": 0.0}, {"slope_cap": 0.0}):
        with pytest.raises(BadConfig, match="validated"):
            duhamel_solve(p0, hist, replace(spec, **caps), grid, 0.1, picard_iters=1)


@pytest.mark.parametrize("n_time", [0, -1])
def test_unresolved_oracle_is_a_bad_config(n_time):
    # With no time interval there is no quadrature: refused, not run.
    grid, spec = make_setup()
    hist = SignalHistory.constant(np.full(grid.x_nodes, 0.5), grid)
    p0 = DensityField(np.ones(grid.field_shape))
    t = 0.3 / spec.growth_rate(grid)
    with pytest.raises(BadConfig, match="n_time >= 1"):
        duhamel_solve(p0, hist, spec, grid, t, picard_iters=1, n_time=n_time)


def picard_iterates(p0, hist, spec, grid, t, iters, n_time, rk_substeps=4, tol=None):
    """Picard sweeps from the pull-back: the pull-back, then each iterate after it.

    With ``tol`` the sweeps stop once one moves the field by at most tol in
    sup norm.
    """
    ch = _characteristics(hist, spec, grid, t, n_time, rk_substeps)
    pullback = _pullback(ch, p0)
    iterates = [pullback]
    for _ in range(iters):
        iterates.append(_sweep(ch, pullback, iterates[-1]))
        if tol is not None and np.abs(iterates[-1] - iterates[-2]).max() <= tol:
            break
    return iterates


def test_zero_iterations_is_pure_pullback():
    # Vanishing rates: the pull-back is a plain translate by v*t.
    grid, spec = make_setup(nx=16, nm=8, kappa=1e-12, lambda0=0.5)
    hist = SignalHistory.constant(np.full(grid.x_nodes, 0.5), grid)
    rng = np.random.default_rng(2)
    p0 = rng.random(grid.field_shape)
    t = 2.0 * grid.dx  # v = +-0.5: exactly one cell each way
    (pullback,) = picard_iterates(p0, hist, spec, grid, t, iters=0, n_time=32)
    expected = np.empty_like(p0)
    expected[:, 0, :] = np.roll(p0[:, 0, :], -1, axis=0)
    expected[:, 1, :] = np.roll(p0[:, 1, :], 1, axis=0)
    assert np.max(np.abs(pullback[-1] - expected)) <= 1e-8


def _cubic_w(frac):
    return (-frac * (frac - 1) * (frac - 2) / 6.0,
            (frac + 1) * (frac - 1) * (frac - 2) / 2.0,
            -(frac + 1) * frac * (frac - 2) / 2.0,
            (frac + 1) * frac * (frac - 1) / 6.0)


def _scalar_interp(field, xq, mq, grid):
    # cubic Lagrange; periodic in x, or zero x-ghosts on a free grid; zero
    # ghosts in m (mirrors the oracle)
    u = (xq + 0.5 * grid.x_extent) / grid.dx - 0.5
    i0 = int(np.floor(u))
    wx = _cubic_w(u - i0)
    wj = mq / grid.dm - 0.5
    j0 = int(np.floor(wj))
    wm = _cubic_w(wj - j0)
    total = 0.0
    for a in range(4):
        i = i0 + a - 1
        if grid.x_topology == "periodic":
            i %= grid.x_nodes
        elif not 0 <= i < grid.x_nodes:
            continue
        row = 0.0
        for b in range(4):
            j = j0 + b - 1
            if 0 <= j < grid.m_nodes:
                row += wm[b] * field[i, j]
        total += wx[a] * row
    return total


def _scalar_s(s_field, xq, grid):
    # linear in x; periodic, or clamped to the end values on a free grid
    u = (xq + 0.5 * grid.x_extent) / grid.dx - 0.5
    if grid.x_topology == "free":
        u = min(max(u, 0.0), grid.x_nodes - 1.0)
        i0 = min(int(np.floor(u)), grid.x_nodes - 2)
        fx = u - i0
        return (1 - fx) * s_field[i0] + fx * s_field[i0 + 1]
    i0 = int(np.floor(u))
    fx = u - i0
    i0 %= grid.x_nodes
    return (1 - fx) * s_field[i0] + fx * s_field[(i0 + 1) % grid.x_nodes]


def brute_force_map(p0, s_field, spec, grid, t, n_time, rk_substeps):
    """Nested-loop mirror of the Picard map on a frozen signal.

    Returns the pull-back of p0 at every node, (n_time+1, nx, nv, nm), and
    the map taking a field at every node to the pull-back plus the
    trapezoid quadrature of its integrand.
    """
    nx, nv, nm = grid.x_nodes, grid.n_v, grid.m_nodes
    taus = np.linspace(0.0, t, n_time + 1)
    dtau = t / n_time
    eps = spec.epsilon
    kernel = spec.turning.kernel_matrix(grid)
    w = grid.weights
    col = w @ kernel

    def rate(m, x, s):
        return float(spec.adaptation.rate(m, _scalar_s(s_field, x, grid))) / eps

    def back_m(m_end, x_end, v, l_end):
        # RK4 along taus[0..l_end], rk_substeps stages per interval
        ms = np.empty(l_end + 1)
        ms[l_end] = m_end
        m = m_end
        for idx in range(l_end, 0, -1):
            h = (taus[idx - 1] - taus[idx]) / rk_substeps
            s = taus[idx]
            for _ in range(rk_substeps):
                def f(mm, ss):
                    return rate(mm, x_end - v * (taus[l_end] - ss), ss)
                k1 = f(m, s)
                k2 = f(m + 0.5 * h * k1, s + 0.5 * h)
                k3 = f(m + 0.5 * h * k2, s + 0.5 * h)
                k4 = f(m + h * k3, s + h)
                m = m + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
                s += h
            ms[idx - 1] = m
        return ms

    pullback = np.empty((n_time + 1, nx, nv, nm))
    paths = {}
    for l in range(n_time + 1):
        for i in range(nx):
            for k in range(nv):
                v = float(grid.velocities[k, 0])
                for j in range(nm):
                    ms = back_m(grid.m_centers[j], grid.x_centers[i], v, l)
                    paths[(l, i, k, j)] = ms
                    x0 = grid.x_centers[i] - v * taus[l]
                    pullback[l, i, k, j] = _scalar_interp(p0[:, k, :], x0, ms[0], grid)

    def apply(field):
        nxt = pullback.copy()
        for l in range(1, n_time + 1):
            for i in range(nx):
                for k in range(nv):
                    v = float(grid.velocities[k, 0])
                    for lp in range(l + 1):
                        acc = np.zeros(nm)
                        x_lp = grid.x_centers[i] - v * (taus[l] - taus[lp])
                        for j in range(nm):
                            m_lp = paths[(l, i, k, j)][lp]
                            lam = float(spec.turning.frequency(m_lp))
                            slope = float(spec.adaptation.rate_m(
                                m_lp, _scalar_s(s_field, x_lp, grid)))
                            own = _scalar_interp(field[lp][:, k, :], x_lp, m_lp, grid)
                            gain = 0.0
                            for kk in range(nv):
                                gain += kernel[k, kk] * w[kk] * _scalar_interp(
                                    field[lp][:, kk, :], x_lp, m_lp, grid)
                            acc[j] = (-slope / eps) * own + lam * (gain - col[k] * own)
                        weight = dtau if 0 < lp < l else 0.5 * dtau
                        nxt[l, i, k, :] += weight * acc
        return nxt

    return pullback, apply


def brute_force_duhamel(p0, s_field, spec, grid, t, iters, n_time, rk_substeps):
    """``iters`` mirrored Picard sweeps from the pull-back, at the final node."""
    cur, apply = brute_force_map(p0, s_field, spec, grid, t, n_time, rk_substeps)
    for _ in range(iters):
        cur = apply(cur)
    return cur[n_time]


def test_duhamel_matches_brute_force_quadrature():
    grid, spec = make_setup(nx=4, nm=4, extent=2.0, kappa=1.0, lambda0=0.5)
    x = grid.x_centers
    s_field = 0.3 + 0.2 * np.cos(2 * np.pi * x / grid.x_extent)
    hist = SignalHistory.constant(s_field, grid)
    rng = np.random.default_rng(9)
    p0 = rng.random(grid.field_shape)
    t, n_time, iters = 0.3, 4, 4
    swept = picard_iterates(p0, hist, spec, grid, t, iters, n_time, rk_substeps=2)[-1]
    brute = brute_force_duhamel(p0, s_field, spec, grid, t, iters, n_time,
                                rk_substeps=2)
    assert np.max(np.abs(swept[-1] - brute)) <= 1e-10


def test_duhamel_matches_brute_force_quadrature_free_grid():
    # Free grid: x-stencils near the ends read zero ghosts.  kappa = 2 sends
    # the outer m-nodes' characteristics out of [0, m_max] within t, so the
    # zero m-ghosts are read too.
    grid, spec = make_setup(nx=4, nm=4, extent=2.0, kappa=2.0, lambda0=0.5,
                            topology="free")
    x = grid.x_centers
    s_field = 0.3 + 0.4 * np.exp(-x ** 2)
    hist = SignalHistory.constant(s_field, grid)
    t, n_time, iters = 0.3, 4, 4
    for j in (0, grid.m_nodes - 1):
        _, path = backtrace(grid.m_centers[j], x[0], float(grid.velocities[0, 0]), t,
                            hist, spec)
        assert leaves_m_range(path, grid)
    rng = np.random.default_rng(11)
    p0 = rng.random(grid.field_shape)
    swept = picard_iterates(p0, hist, spec, grid, t, iters, n_time, rk_substeps=2)[-1]
    brute = brute_force_duhamel(p0, s_field, spec, grid, t, iters, n_time,
                                rk_substeps=2)
    assert np.max(np.abs(swept[-1] - brute)) <= 1e-10


@st.composite
def march_cases(draw):
    topology = draw(st.sampled_from(["periodic", "free"]))
    f_family = draw(st.sampled_from(["linear", "cubic"]))
    t_family = draw(st.sampled_from(["constant", "separable-uniform"]))
    grid, spec = make_setup(nx=draw(st.integers(3, 5)), nm=draw(st.integers(2, 4)),
                            extent=2.0, kappa=draw(st.sampled_from([0.5, 1.0])),
                            lambda0=draw(st.sampled_from([0.3, 0.8])), t_family=t_family,
                            nv=draw(st.integers(1, 4)), topology=topology,
                            f_family=f_family)
    return grid, spec, draw(st.integers(1, 4)), draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=24, deadline=None, derandomize=True)
@given(march_cases())
def test_march_is_a_fixed_point_of_the_brute_force_map(case):
    # n_time intervals give 2-5 time nodes; one application of the
    # independent nested-loop map must leave the marched field in place.
    grid, spec, n_time, seed = case
    rng = np.random.default_rng(seed)
    s_field = 0.2 + 0.6 * rng.random(grid.x_nodes)
    p0 = rng.random(grid.field_shape)
    t = 0.25
    ch = _characteristics(SignalHistory.constant(s_field, grid), spec, grid, t, n_time, 2)
    marched, _ = _march(ch, p0, check=False)
    _, apply = brute_force_map(p0, s_field, spec, grid, t, n_time, rk_substeps=2)
    assert np.max(np.abs(apply(marched) - marched)) <= 1e-12 * np.abs(marched).max()


@settings(max_examples=24, deadline=None, derandomize=True)
@given(march_cases())
def test_march_check_residual_equals_one_picard_sweep_bitwise(case):
    # The march checks each node against its Picard row as it goes, reusing
    # its own integrands; the sup of those row gaps must be the sup-norm move
    # of one whole sweep of the marched field, to the bit.
    grid, spec, n_time, seed = case
    rng = np.random.default_rng(seed)
    hist = SignalHistory.constant(0.2 + 0.6 * rng.random(grid.x_nodes), grid)
    ch = _characteristics(hist, spec, grid, 0.25, n_time, 2)
    p0 = rng.random(grid.field_shape)
    pullback = _pullback(ch, p0)
    marched, residual = _march(ch, p0, check=True)
    unchecked, none = _march(ch, p0, check=False)
    assert none is None and np.array_equal(marched, unchecked)
    assert residual == np.abs(_sweep(ch, pullback, marched) - marched).max()


def oracle_case():
    grid, spec = make_setup(nx=8, nm=8, kappa=0.8, lambda0=0.4)
    hist = SignalHistory.constant(0.3 + 0.2 * np.cos(grid.x_centers), grid)
    p0 = DensityField(np.random.default_rng(5).random(grid.field_shape))
    return p0, hist, spec, grid, 0.3 / spec.growth_rate(grid)


def test_residual_sweep_rejects_an_unsolved_march(monkeypatch):
    p0, hist, spec, grid, t = oracle_case()
    res = duhamel_solve(p0, hist, spec, grid, t, picard_iters=1, n_time=6)
    assert res.iterations == 1 and res.sup_diffs[0] <= 1e-10
    # A node solve that returns its right-hand side leaves every node short
    # of its lag-0 term, which the check evaluates from the node itself.
    monkeypatch.setattr(oracle, "_solve_node", lambda inv, rhs: rhs)
    with pytest.raises(SolverFailure, match="residual"):
        duhamel_solve(p0, hist, spec, grid, t, picard_iters=1, n_time=6)
    # picard_iters = 0 runs no check.
    assert duhamel_solve(p0, hist, spec, grid, t, picard_iters=0, n_time=6).iterations == 0


def test_residual_check_rejects_a_non_finite_march(monkeypatch):
    # A NaN residual compares false with tol, and must fail all the same.
    p0, hist, spec, grid, t = oracle_case()
    monkeypatch.setattr(oracle, "_solve_node", lambda inv, rhs: np.full_like(rhs, np.nan))
    with pytest.raises(SolverFailure, match="residual nan"):
        duhamel_solve(p0, hist, spec, grid, t, picard_iters=1, n_time=6)


def test_residual_check_rejects_a_march_that_drops_a_term(monkeypatch):
    # The check keeps its own loop over l' = 0..l: a term the march never
    # evaluated is evaluated by the check, and its absence shows.
    p0, hist, spec, grid, t = oracle_case()
    real = oracle._march_terms

    def drop_last(ch, src, l):
        return {lp: term for lp, term in real(ch, src, l).items() if lp != l - 1}

    monkeypatch.setattr(oracle, "_march_terms", drop_last)
    with pytest.raises(SolverFailure, match="residual"):
        duhamel_solve(p0, hist, spec, grid, t, picard_iters=1, n_time=6)


def test_check_rejects_a_source_row_that_differs_from_its_node(monkeypatch):
    # Node l - 1's row is scaled once node l has read it, so later nodes read
    # a table that is not the marched field.  The row check reuses those
    # terms and cannot see it; the comparison of each row with its node does.
    p0, hist, spec, grid, t = oracle_case()
    real = oracle._march_terms

    def stale(ch, src, l):
        terms = real(ch, src, l)
        src[l - 1, ..., _M_GHOSTS:-_M_GHOSTS] *= 2.0
        return terms

    monkeypatch.setattr(oracle, "_march_terms", stale)
    with pytest.raises(SolverFailure, match="source table row"):
        duhamel_solve(p0, hist, spec, grid, t, picard_iters=1, n_time=6)


def test_check_evaluates_only_the_lag_zero_terms(monkeypatch):
    # The march evaluates n(n+1)/2 integrands; the check adds the n lag-0
    # terms of the nodes it checks, and with picard_iters = 0 nothing.
    p0, hist, spec, grid, t = oracle_case()
    lags = []
    real = oracle._Characteristics.integrand

    def counted(ch, src, l, lp):
        lags.append(l - lp)
        return real(ch, src, l, lp)

    monkeypatch.setattr(oracle._Characteristics, "integrand", counted)
    n_time = 8
    duhamel_solve(p0, hist, spec, grid, t, picard_iters=0, n_time=n_time)
    assert len(lags) == n_time * (n_time + 1) // 2 and 0 not in lags
    lags.clear()
    duhamel_solve(p0, hist, spec, grid, t, picard_iters=1, n_time=n_time)
    assert len(lags) == n_time * (n_time + 3) // 2 and lags.count(0) == n_time


@st.composite
def gather_cases(draw):
    nx = draw(st.integers(4, 12))
    nm = draw(st.integers(1, 9))
    topology = draw(st.sampled_from(["periodic", "free"]))
    v, w = velocity_set(1, draw(st.integers(1, 4)))
    grid = PhaseGrid(dim=1, x_nodes=nx, x_extent=draw(st.sampled_from([1.6, 2.0, 3.0])),
                     x_topology=topology, velocities=v, weights=w, m_nodes=nm,
                     m_max=1.7)
    # One shift per characteristic slice, as v * (tau_l - tau_l'): whole
    # cells put u within ulps of an integer, where floor may differ by cell.
    n_slices = draw(st.integers(1, 3))
    cells = st.integers(-5, 5).map(lambda c: c * grid.dx)
    speeds = st.sampled_from([-0.75, -0.5, 0.5, 0.75])
    taus = np.linspace(0.0, 2.0 * grid.dx, 5)
    as_flow = st.builds(lambda vx, l, lp: vx * (taus[l] - taus[lp]), speeds,
                        st.integers(0, 4), st.integers(0, 4))
    shifts = draw(st.lists(st.one_of(cells, as_flow,
                                     st.floats(-3.0 * grid.dx, 3.0 * grid.dx)),
                           min_size=n_slices, max_size=n_slices))
    return grid, np.array(shifts), draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(gather_cases())
def test_shared_stencil_gather_matches_scalar_reference(case):
    grid, shifts, seed = case
    rng = np.random.default_rng(seed)
    nx, nv, nm = grid.x_nodes, grid.n_v, grid.m_nodes
    field = rng.random((nx, nv, nm))
    xq = grid.x_centers[None, :] - shifts[:, None]
    # m queries from well below 0 to well above m_max
    mq = rng.uniform(-0.6, 1.6, (len(shifts), nx, nm)) * grid.m_max
    mq[..., ::3] = np.round(mq[..., ::3] / grid.dm) * grid.dm  # on cell edges
    got = _interp_xm(_as_sources(field), _stencil(xq, mq, grid))
    assert got.shape == (nv, len(shifts), nx, nm)
    for b in range(len(shifts)):
        for i in range(nx):
            for k in range(nv):
                want = [_scalar_interp(field[:, k, :], xq[b, i], mq[b, i, j], grid)
                        for j in range(nm)]
                assert np.max(np.abs(got[k, b, i] - want)) <= 1e-13 * np.abs(field).max()


def test_picard_contraction_ratio():
    grid, spec = make_setup(nx=16, nm=16, kappa=0.8, lambda0=0.4)
    hist = SignalHistory.constant(np.full(grid.x_nodes, 0.4), grid)
    rng = np.random.default_rng(4)
    p0 = rng.random(grid.field_shape)
    t = 0.45 / spec.growth_rate(grid)
    iterates = picard_iterates(p0, hist, spec, grid, t, iters=25, n_time=24, tol=1e-10)
    cell = grid.cell_volume * grid.dm
    l1_diffs = [float(np.einsum("lxvm,v->l", np.abs(b - a), grid.weights).max()) * cell
                for a, b in zip(iterates, iterates[1:])]
    bound = t * spec.growth_rate(grid)
    diffs = [d for d in l1_diffs if d > 1e-13]
    ratios = [b / a for a, b in zip(diffs, diffs[1:])]
    assert ratios, "expected at least two meaningful Picard sweeps"
    assert all(r <= bound * 1.15 for r in ratios), (bound, ratios)


def test_kinetic_agrees_with_oracle_small_scale():
    grid, spec = make_setup(nx=32, nm=32, extent=1.6, kappa=0.25, lambda0=0.4,
                            t_family="separable-uniform")
    x = grid.x_centers
    p0 = (np.exp(-(x / 0.4) ** 2)[:, None, None]
          * np.exp(-0.5 * ((grid.m_centers - 0.8) / 0.22) ** 2)[None, None, :]
          * np.ones((1, grid.n_v, 1)))
    init = package_initial(DensityField(p0.copy()), grid)
    state = StepperState.create(grid, spec, init, freeze_signal=True)
    hist = SignalHistory.constant(state.signal.values, grid)
    t = 0.4
    dt = 2 * grid.dx
    for _ in range(int(round(t / dt))):
        state = macro_step(state, dt)
    res = duhamel_solve(init.p0, hist, spec, grid, t, picard_iters=60, n_time=24)
    gap = float(np.sum(np.abs(state.field.values - res.field.values)
                       * grid.weights[:, None]) * grid.cell_volume * grid.dm)
    assert gap / init.mass <= 0.05
    # the oracle conserves mass like the scheme does
    assert total_mass(res.field.values, grid) == pytest.approx(init.mass, rel=0.02)
