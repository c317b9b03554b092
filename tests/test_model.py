"""Scenario construction, coefficient families and their certified bounds."""
import numpy as np
import pytest

from chemokin.config import GridConfig, RunConfig
from chemokin.errors import AssumptionViolation, BadConfig
from chemokin.model import (AdaptationModel, ModelSpec, PhaseGrid, TurningModel,
                            build_scenario, package_initial, velocity_set)
from chemokin.fields import DensityField


def turning_rate(spec, grid, to_idx, from_idx, m):
    """Reference T(v_to, v_from, m) = lambda(m) * K(v_to, v_from) on the grid."""
    return spec.turning.frequency(m) * spec.turning.kernel_matrix(grid)[to_idx, from_idx]


def turning_tensor(spec, grid):
    """Reference T[k, k', j] = T(v_k, v_k', m_j) at the m-cell centers."""
    lam = spec.turning.frequency(grid.m_centers)
    return spec.turning.kernel_matrix(grid)[:, :, None] * lam[None, None, :]


def small_config(**model_kw) -> RunConfig:
    cfg = RunConfig()
    cfg.grid = GridConfig(x_nodes=32, x_extent=8.0, v_count=4, m_nodes=24)
    for key, val in model_kw.items():
        setattr(cfg.model, key, val)
    return cfg


# -- velocity sets -----------------------------------------------------------

def test_velocity_set_1d_symmetric_midpoints():
    v, w = velocity_set(1, 6)
    assert np.allclose(np.sort(v.ravel()), -np.sort(-v.ravel())[::-1])
    assert np.all(w > 0)
    assert np.isclose(w.sum(), 2.0)          # measure of [-1, 1]
    assert abs(float(v.ravel() @ w)) < 1e-15  # first moment cancels


@pytest.mark.parametrize("dim", [1, 2])
def test_velocity_set_without_velocities_is_a_bad_config(dim):
    with pytest.raises(BadConfig):
        velocity_set(dim, 0)


@pytest.mark.parametrize("bad", [
    dict(dim=3, velocities=np.zeros((2, 3))), dict(dim=0, velocities=np.zeros((2, 0))),
    dict(x_extent=np.nan), dict(x_extent=np.inf), dict(m_max=np.nan), dict(m_max=np.inf),
    dict(velocities=[[0.5], [np.nan]]), dict(weights=[np.inf, 1.0]),
    dict(weights=[np.nan, 1.0]), dict(velocities=np.zeros((0, 1)), weights=[]),
], ids=["dim-3", "dim-0", "x_extent-nan", "x_extent-inf", "m_max-nan", "m_max-inf",
        "v-nan", "w-inf", "w-nan", "no-velocities"])
def test_phase_grid_rejects_what_no_run_can_use(bad):
    # Each case edits a valid 1-d grid in one respect.
    kw = dict(dim=1, x_nodes=8, x_extent=4.0, x_topology="periodic",
              velocities=[[-0.5], [0.5]], weights=[1.0, 1.0], m_nodes=4, m_max=1.0)
    with pytest.raises(BadConfig):
        PhaseGrid(**(kw | bad))


def test_velocity_set_2d_unit_circle():
    v, w = velocity_set(2, 8)
    assert np.allclose(np.linalg.norm(v, axis=1), 1.0)
    assert np.isclose(w.sum(), 2.0 * np.pi)
    assert np.allclose(w @ v, 0.0, atol=1e-14)


# -- build_scenario accept/reject cases --------------------------------------

def test_constant_kernel_accepted():
    # Constant T = lambda0 / V_d is trivially bounded by its certificate.
    cfg = small_config(t_family="constant", lambda0=1.5)
    grid, spec, _ = build_scenario(cfg)
    assert spec.turning_cap == pytest.approx(1.5 / grid.v_measure)
    t_val = turning_rate(spec, grid, 0, 1, 0.3)
    assert 0 < t_val <= spec.turning_cap


def test_linear_family_sign_structure_accepted():
    cfg = small_config(f_family="linear")
    grid, spec, _ = build_scenario(cfg)
    # root of the linear family is the equilibrium map itself
    for s in (0.1, 0.5, 2.0):
        root = float(spec.adaptation.equilibrium(s))
        assert spec.m_minus < root < spec.m_plus
        assert spec.adaptation_rate(root, s) == 0.0


def test_negative_turning_frequency_rejected():
    # Oracle: sweep lambda(m) directly and confirm it dips negative.
    cfg = small_config(t_family="separable-uniform", beta=-1.5, m_c=0.85, delta=0.2)
    turning = TurningModel(kind="separable-uniform", lambda0=1.0, beta=-1.5,
                           m_c=0.85, delta=0.2)
    m_grid = np.linspace(0.0, 1.7, 200)
    assert np.min(turning.frequency(m_grid)) < 0.0
    with pytest.raises(AssumptionViolation, match="positive"):
        build_scenario(cfg)


def test_m_max_below_m_plus_rejected():
    cfg = small_config()
    cfg.grid.m_max = cfg.model.m_plus - 0.1
    with pytest.raises(AssumptionViolation, match="m_max"):
        build_scenario(cfg)


def test_unknown_families_rejected():
    with pytest.raises(BadConfig):
        AdaptationModel(kind="quartic", kappa=1.0, s_ref=1.0, m_minus=0.2, m_plus=1.0)
    with pytest.raises(BadConfig):
        TurningModel(kind="mystery", lambda0=1.0)
    cfg = small_config()
    cfg.model.kappa = -1.0
    with pytest.raises(BadConfig):
        build_scenario(cfg)


@pytest.mark.parametrize("name", ["kappa", "s_ref", "lambda0", "delta", "epsilon"])
def test_nan_model_parameter_rejected(name):
    # Built through the Python API, so no config check runs first.
    adaptation = dict(kind="linear", kappa=1.0, s_ref=0.5, m_minus=0.2, m_plus=1.2)
    turning = dict(kind="separable-uniform", lambda0=0.5, beta=0.4, m_c=0.7, delta=0.25)
    for params in (adaptation, turning):
        if name in params:
            params[name] = float("nan")
    with pytest.raises(BadConfig):
        ModelSpec(adaptation=AdaptationModel(**adaptation), turning=TurningModel(**turning),
                  epsilon=float("nan") if name == "epsilon" else 0.5)


@pytest.mark.parametrize("name", ["beta", "m_c"])
def test_nan_turning_shape_fails_the_sweep(name):
    cfg = small_config(t_family="separable-uniform", **{name: float("nan")})
    with pytest.raises(AssumptionViolation, match="turning frequency"):
        ModelSpec.from_config(cfg).validate_on(PhaseGrid.from_config(cfg, m_max=1.7))


# -- coefficient evaluation ---------------------------------------------------

def test_rate_vanishes_at_equilibrium():
    adapt = AdaptationModel(kind="linear", kappa=2.0, s_ref=0.5, m_minus=0.2, m_plus=1.2)
    s = 0.8
    m0 = float(adapt.equilibrium(s))
    assert adapt.rate(m0, s) == 0.0


def test_uniform_turning_rate_independent_of_arguments():
    cfg = small_config(t_family="constant", lambda0=2.0)
    grid, spec, _ = build_scenario(cfg)
    vals = {turning_rate(spec, grid, i, j, m)
            for i in range(grid.n_v) for j in range(grid.n_v)
            for m in (0.0, 0.5, 1.5)}
    assert len({round(v, 15) for v in vals}) == 1
    assert vals.pop() == pytest.approx(2.0 / grid.v_measure)


def test_cubic_rate_signs_around_root():
    # Direct arithmetic oracle: kappa * (m0 - m)^3 flips sign across the root.
    adapt = AdaptationModel(kind="cubic", kappa=1.7, s_ref=0.5, m_minus=0.2, m_plus=1.2)
    s, h = 0.6, 0.05
    m0 = float(adapt.equilibrium(s))
    expected_below = 1.7 * (m0 - (m0 - h)) ** 3
    expected_above = 1.7 * (m0 - (m0 + h)) ** 3
    assert adapt.rate(m0 - h, s) == pytest.approx(expected_below)
    assert adapt.rate(m0 + h, s) == pytest.approx(expected_above)
    assert adapt.rate(m0 - h, s) > 0 > adapt.rate(m0 + h, s)


def test_equilibrium_monotone_in_signal():
    for kind in ("linear", "cubic"):
        adapt = AdaptationModel(kind=kind, kappa=1.0, s_ref=0.3, m_minus=0.2, m_plus=1.2)
        s = np.linspace(0.0, 25.0, 400)
        roots = adapt.equilibrium(s)
        assert np.all(np.diff(roots) >= 0)
        assert np.all(roots > adapt.m_minus)
        assert np.all(roots < adapt.m_plus)


def test_slope_certificate_holds_on_sweep():
    rng = np.random.default_rng(7)
    for kind in ("linear", "cubic"):
        cfg = small_config(f_family=kind)
        grid, spec, _ = build_scenario(cfg)
        m = rng.uniform(0.0, grid.m_max, 300)
        s = rng.uniform(0.0, spec.s_sample_cap, 300)
        h = 1e-6
        fd = (spec.adaptation_rate(m + h, s) - spec.adaptation_rate(m - h, s)) / (2 * h)
        assert np.all(np.abs(fd) <= spec.slope_cap * (1 + 1e-6))


def test_turning_sweep_positive_and_bounded():
    for family in ("constant", "separable-uniform", "separable-angle"):
        cfg = small_config(t_family=family)
        grid, spec, _ = build_scenario(cfg)
        tensor = turning_tensor(spec, grid)
        assert np.all(tensor > 0)
        assert np.all(tensor <= spec.turning_cap * (1 + 1e-12))


def test_angle_kernel_normalized_on_symmetric_sets():
    for dim, nv in ((1, 4), (2, 8)):
        v, w = velocity_set(dim, nv)
        grid = PhaseGrid(dim=dim, x_nodes=8, x_extent=4.0, x_topology="periodic",
                         velocities=v, weights=w, m_nodes=8, m_max=1.7)
        ker = TurningModel(kind="separable-angle", lambda0=1.0).kernel_matrix(grid)
        col_sums = w @ ker
        assert np.allclose(col_sums, 1.0, atol=1e-13)


# -- initial data -------------------------------------------------------------

def test_initial_metadata_consistency():
    cfg = small_config()
    grid, spec, init = build_scenario(cfg)
    assert init.mass == pytest.approx(cfg.initial.mass, rel=1e-12)
    assert init.p0_sup > 0 and init.pbar0_sup > 0
    assert np.isfinite(init.m_moment)
    assert np.all(init.p0.values >= 0)


def test_negative_initial_density_rejected():
    cfg = small_config()
    grid, spec, _ = build_scenario(cfg)
    bad = np.ones(grid.field_shape)
    bad[0, 0, 0] = -1e-9
    with pytest.raises(AssumptionViolation, match="non-negative"):
        package_initial(DensityField(bad), grid)


@pytest.mark.parametrize("key, value", [("width", -1.2), ("width", 0.0), ("mass", -1.0),
                                        ("mass", 0.0)])
def test_non_positive_initial_width_or_mass_is_bad_config(key, value):
    # Built through the Python API, so no config parser checks it first.
    cfg = small_config()
    setattr(cfg.initial, key, value)
    with pytest.raises(BadConfig, match=key):
        build_scenario(cfg)


def test_profiles_cover_all_kinds():
    for profile in ("gaussian", "two-bumps", "uniform"):
        cfg = small_config()
        cfg.initial.profile = profile
        _, _, init = build_scenario(cfg)
        assert init.mass == pytest.approx(1.0, rel=1e-12)


def test_two_dimensional_scenario_builds():
    cfg = small_config()
    cfg.grid.dim = 2
    cfg.grid.x_nodes = 12
    cfg.grid.v_count = 6
    grid, spec, init = build_scenario(cfg)
    assert grid.field_shape == (12, 12, 6, 24)
    assert init.mass == pytest.approx(1.0, rel=1e-12)
