"""Adapted state, reduced velocity-jump model, concentration metrics, study."""
from dataclasses import replace as dc_replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chemokin.config import GridConfig, RunConfig, parse_config
from chemokin.errors import AssumptionViolation, BadConfig, EmptyField, PositivityError
from chemokin.fields import DensityField, pbar_of, total_mass, x_integral
from chemokin.kinetic import StepperState, run as kinetic_run
from chemokin.limit import concentration_metrics, eps_study, oda_run, oda_state, oda_step
from chemokin.model import AdaptationModel, build_scenario, package_initial

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

def scenario(**overrides):
    cfg = RunConfig()
    cfg.grid = GridConfig(x_nodes=32, x_extent=8.0, v_count=4, m_nodes=32)
    for key, val in overrides.items():
        for section in (cfg.grid, cfg.model, cfg.initial, cfg.run):
            if hasattr(section, key):
                setattr(section, key, val)
                break
        else:
            raise KeyError(key)
    return cfg, *build_scenario(cfg)


# -- adapted state ---------------------------------------------------------------

@settings(max_examples=60, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["linear", "cubic"]), kappa=st.floats(0.05, 20.0),
       s_ref=st.floats(0.01, 5.0), m_minus=st.floats(0.01, 2.0),
       span=st.floats(0.05, 3.0), s=st.floats(0.0, 20.0))
def test_equilibrium_is_the_sign_change_of_the_rate(kind, kappa, s_ref, m_minus, span, s):
    # The closed-form adapted state is the unique zero of the rate inside
    # (m_minus, m_plus): the rate is positive below it and negative above
    # it, down to a hair's width on either side, for both families.
    adapt = AdaptationModel(kind=kind, kappa=kappa, s_ref=s_ref,
                            m_minus=m_minus, m_plus=m_minus + span)
    m0 = float(adapt.equilibrium(s))
    assert adapt.m_minus < m0 < adapt.m_plus
    assert adapt.rate(m0, s) == 0.0
    h = 1e-9 * span
    for below in (adapt.m_minus, m0 - h):
        assert adapt.rate(below, s) > 0.0
    for above in (m0 + h, adapt.m_plus):
        assert adapt.rate(above, s) < 0.0



def bisect_rate_root(adapt, s, tol=1e-15):
    """Reference root of the adaptation rate in (m_minus, m_plus) by bisection."""
    lo, hi = adapt.m_minus, adapt.m_plus
    assert adapt.rate(lo, s) > 0.0 > adapt.rate(hi, s)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if adapt.rate(mid, s) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_m_zero_linear_equals_equilibrium_map():
    # The reduced model's adapted state is the closed-form map; it matches
    # an independent bisection of the linear rate.
    cfg, grid, spec, init = scenario(f_family="linear")
    for s in (0.05, 0.4, 1.3, 7.0):
        m0 = float(spec.adaptation.equilibrium(s))
        assert m0 == pytest.approx(bisect_rate_root(spec.adaptation, s), abs=1e-12)


def test_m_zero_cubic_same_root_despite_flat_derivative():
    # The cubic rate has a vanishing derivative at its root; the bisection
    # still lands on the same closed-form adapted state.
    cfg, grid, spec, init = scenario(f_family="cubic")
    for s in (0.1, 0.6, 2.5):
        m0 = float(spec.adaptation.equilibrium(s))
        assert m0 == pytest.approx(bisect_rate_root(spec.adaptation, s), abs=1e-12)


def test_m_zero_at_zero_signal_strictly_inside():
    cfg, grid, spec, init = scenario()
    root = float(spec.adaptation.equilibrium(0.0))
    assert spec.m_minus < root < spec.m_plus


def test_m_zero_no_sign_change():
    # A rate without a sign change in (m_minus, m_plus) has no adapted
    # state; the build-time certificate refuses it.
    class AlwaysPositive(AdaptationModel):
        def rate(self, m, s):
            return np.ones_like(np.asarray(m, dtype=float))

    cfg, grid, spec, init = scenario()
    a = spec.adaptation
    bad = dc_replace(spec, adaptation=AlwaysPositive(
        kind=a.kind, kappa=a.kappa, s_ref=a.s_ref, m_minus=a.m_minus, m_plus=a.m_plus))
    with pytest.raises(AssumptionViolation, match="sign structure"):
        bad.validate_on(grid)

# -- reduced model ----------------------------------------------------------------

@st.composite
def m_independent_cases(draw):
    """Small scenarios whose turning frequency does not depend on m."""
    dim = draw(st.sampled_from([1, 2]))
    cfg = RunConfig()
    cfg.grid = GridConfig(
        dim=dim,
        x_nodes=draw(st.integers(12, 32) if dim == 1 else st.integers(6, 12)),
        x_extent=draw(st.floats(4.0, 10.0)),
        x_topology=draw(st.sampled_from(["periodic", "free"])),
        v_count=draw(st.sampled_from([2, 4] if dim == 1 else [4, 6, 8])),
        m_nodes=draw(st.integers(8, 24)))
    if draw(st.booleans()):
        cfg.model.t_family = "constant"
    else:
        cfg.model.t_family, cfg.model.beta = "separable-uniform", 0.0
    cfg.model.f_family = draw(st.sampled_from(["linear", "cubic"]))
    cfg.model.eps = draw(st.sampled_from([1.0, 0.2, 0.05]))
    cfg.initial.width = draw(st.floats(0.6, 1.2))
    return cfg


@settings(max_examples=40, deadline=None, derandomize=True)
@given(m_independent_cases())
def test_oda_matches_kinetic_when_kernel_m_independent(cfg):
    # With lambda independent of m the m-integral of the kinetic model
    # solves the reduced model, on any grid, in 1-d and 2-d.
    grid, spec, init = build_scenario(cfg)
    kin = StepperState.create(grid, spec, init)
    kin, _ = kinetic_run(kin, 0.3, 0.1)
    oda = oda_run(grid, spec, init, 0.3, 0.1)
    oda_bar = pbar_of(oda.field.values, oda.grid)
    gap = float(np.sum(np.abs(pbar_of(kin.field.values, grid) - oda_bar)
                       * grid.weights) * grid.cell_volume)
    assert gap / init.mass <= 1e-12
    kin_mass = total_mass(kin.field.values, grid)
    assert total_mass(oda.field.values, oda.grid) == pytest.approx(kin_mass, rel=1e-12)
    assert oda.field.values.min() >= 0.0


def test_oda_uniform_relaxation_closed_form():
    # 2-velocity linear ODE oracle: deviations from the velocity average
    # decay like exp(-lambda0 t) under a constant uniform kernel.
    cfg = RunConfig()
    cfg.grid = GridConfig(x_nodes=8, x_extent=4.0, v_count=2, m_nodes=16)
    cfg.model.t_family = "constant"
    cfg.model.lambda0 = 1.0
    cfg.initial.profile = "uniform"
    grid, spec, init = build_scenario(cfg)
    oda = oda_state(grid, spec, init)
    # skew the velocity distribution, keeping x-uniformity
    pbar = oda.field.values[..., 0]
    pbar[:, 0] *= 1.5
    pbar[:, 1] *= 0.5
    dev0 = pbar[0, 0] - pbar[0].mean()
    t_end, dt = 0.5, 0.005
    n = int(round(t_end / dt))
    state = oda
    for _ in range(n):
        state = oda_step(state, dt)
    dev = state.field.values[0, 0, 0] - state.field.values[0, :, 0].mean()
    exact = dev0 * np.exp(-1.0 * t_end)
    assert dev == pytest.approx(exact, rel=5e-3)


def test_oda_mass_conserved_over_100_steps():
    cfg, grid, spec, init = scenario()
    state = oda_state(grid, spec, init)
    m0 = total_mass(state.field.values, state.grid)
    for _ in range(100):
        state = oda_step(state, 0.05)
    m1 = total_mass(state.field.values, state.grid)
    assert abs(m1 - m0) / m0 <= 1e-12
    assert state.field.values.min() >= 0.0


def test_oda_step_rejects_nan_density():
    # A non-finite cell is a solver failure caught by the step's own
    # positivity check, before the signal solve sees it.
    cfg, grid, spec, init = scenario()
    state = oda_state(grid, spec, init)
    state.field.values[3, 1, 0] = np.nan
    with pytest.raises(PositivityError, match="non-finite"):
        oda_step(state, 0.05)


# -- concentration metrics ---------------------------------------------------------

def s_for_root(spec, m_target):
    """Invert the equilibrium map: the signal whose adapted state is m_target."""
    span = spec.m_plus - spec.m_minus
    return spec.adaptation.s_ref * (m_target - spec.m_minus) / (span - (m_target - spec.m_minus))


def cdf_step_distance(masses, centers, m0, m_max, n_quad=200001):
    """Oracle: integral of |CDF - step(m - m0)| over [0, m_max]."""
    total = masses.sum()
    mq = np.linspace(0.0, m_max, n_quad)
    cdf = np.array([masses[centers <= m].sum() for m in mq]) / total
    step = (mq >= m0).astype(float)
    return np.trapezoid(np.abs(cdf - step), mq)


def test_w1_single_cell_within_dm():
    cfg, grid, spec, init = scenario()
    m_target = grid.m_centers[12] + 0.3 * grid.dm
    s_val = s_for_root(spec, m_target)
    p = np.zeros(grid.field_shape)
    p[:, :, 12] = 1.0
    w1 = concentration_metrics(DensityField(p), np.full(grid.x_shape, s_val), spec, grid)
    assert w1 <= grid.dm


def test_w1_symmetric_two_cell_split_equals_offset():
    cfg, grid, spec, init = scenario()
    j_lo, j_hi = 10, 16
    m0 = 0.5 * (grid.m_centers[j_lo] + grid.m_centers[j_hi])
    h = 0.5 * (grid.m_centers[j_hi] - grid.m_centers[j_lo])
    s_val = s_for_root(spec, m0)
    assert float(spec.adaptation.equilibrium(s_val)) == pytest.approx(m0, abs=1e-10)
    p = np.zeros(grid.field_shape)
    p[:, :, j_lo] = 1.0
    p[:, :, j_hi] = 1.0
    w1 = concentration_metrics(DensityField(p), np.full(grid.x_shape, s_val), spec, grid)
    assert w1 == pytest.approx(h, rel=1e-10)
    # cross-check against the CDF-step integral oracle
    masses = np.zeros(grid.m_nodes)
    masses[j_lo] = masses[j_hi] = 1.0
    oracle = cdf_step_distance(masses, grid.m_centers, m0, grid.m_max)
    assert w1 == pytest.approx(oracle, rel=1e-4)


def test_w1_uniform_marginal_closed_form():
    cfg, grid, spec, init = scenario()
    m0 = 0.62
    s_val = s_for_root(spec, m0)
    p = np.ones(grid.field_shape)
    w1 = concentration_metrics(DensityField(p), np.full(grid.x_shape, s_val), spec, grid)
    masses = np.ones(grid.m_nodes)
    oracle = cdf_step_distance(masses, grid.m_centers,
                               float(spec.adaptation.equilibrium(s_val)), grid.m_max)
    assert w1 == pytest.approx(oracle, rel=1e-3)


def test_concentration_empty_field_raises():
    cfg, grid, spec, init = scenario()
    with pytest.raises(EmptyField):
        concentration_metrics(DensityField(np.zeros(grid.field_shape)), np.zeros(grid.x_shape),
                              spec, grid)


def test_vacuum_cells_excluded():
    cfg, grid, spec, init = scenario()
    p = np.zeros(grid.field_shape)
    p[0, :, 10] = 1.0  # all mass in one x-cell
    w1 = concentration_metrics(DensityField(p), np.full(grid.x_shape, 0.4), spec, grid)
    # The empty cells carry no weight: the width is that one cell's own.
    m0 = float(spec.adaptation.equilibrium(0.4))
    assert w1 == pytest.approx(abs(grid.m_centers[10] - m0), rel=1e-12)


# -- eps study ----------------------------------------------------------------------

def test_eps_study_singleton_well_formed(tmp_path):
    cfg = RunConfig()
    cfg.grid = GridConfig(x_nodes=24, x_extent=8.0, v_count=2, m_nodes=24)
    cfg.run.t_end = 0.2
    cfg.run.output_every = 0.1
    report = eps_study(cfg, [0.2])
    assert report.t_end == 0.2
    assert len(report.rows) == 3  # t = 0, 0.1, 0.2
    assert all(r.eps == 0.2 for r in report.rows)
    assert report.w1_strictly_decreasing() in (True, False)
    path = tmp_path / "study.csv"
    report.write_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "eps,t,w1,l1_gap,mass,env_pbar_margin,env_n_margin,tail_moment,xmoment_rate"


def test_eps_study_requires_decreasing_list():
    cfg = RunConfig()
    with pytest.raises(BadConfig):
        eps_study(cfg, [0.1, 0.2])


@pytest.mark.parametrize("last", [0.0, -0.1])
def test_eps_study_rejects_non_positive_member(last):
    # The scenario is built once; each member's spec still refuses a
    # non-positive eps, before any member runs.
    with pytest.raises(BadConfig, match="epsilon must be positive"):
        eps_study(RunConfig(), [0.1, last])


def test_vanishing_eps_keeps_step_count_mass_and_positivity():
    # The adaptation remap follows the exact flow, so eps = 1e-9 costs no
    # extra steps and stays conservative and positive (asymptotic preservation).
    cfg = parse_config(CONFIG_DIR / "study.cfg")
    grid, spec, init = build_scenario(cfg)
    runs = {}
    for eps in (1.0, 1e-9):
        mins = []
        state = StepperState.create(grid, dc_replace(spec, epsilon=eps), init)
        state, _ = kinetic_run(state, cfg.run.t_end, cfg.run.output_every,
                               observer=lambda st: mins.append(float(st.field.values.min())))
        runs[eps] = (state.step_count, state.max_mass_defect, min(mins))
    assert runs[1e-9][0] == runs[1.0][0]
    assert runs[1e-9][1] <= 1e-12
    assert runs[1e-9][2] >= 0.0


def test_distance_to_vanishing_eps_limit_falls_at_every_halving():
    # The scheme's own fast-adaptation limit is its eps = 1e-9 run.  On
    # study.cfg the final pbar approaches it at every halving of eps from
    # 0.2 down to 0.003125, by a ratio of at least 1.3 each time.
    cfg = parse_config(CONFIG_DIR / "study.cfg")
    grid, spec, init = build_scenario(cfg)
    ladder = [0.2 / 2 ** k for k in range(7)]
    final = {}
    for eps in ladder + [1e-9]:
        state = StepperState.create(grid, dc_replace(spec, epsilon=eps), init)
        state, _ = kinetic_run(state, cfg.run.t_end, cfg.run.output_every)
        final[eps] = (state.step_count, pbar_of(state.field.values, grid))
    limit_steps, limit_bar = final[1e-9]
    gaps = [float(np.sum(np.abs(final[eps][1] - limit_bar) * grid.weights) * grid.cell_volume)
            for eps in ladder]
    assert all(final[eps][0] == limit_steps for eps in ladder)
    assert all(a >= 1.3 * b > 0.0 for a, b in zip(gaps, gaps[1:])), gaps


def test_distance_to_vanishing_eps_limit_falls_at_every_halving_in_2d():
    # The paper's setting is d-dimensional.  On study.cfg's model over a 32^2
    # periodic grid (x_extent 8, 8 velocities, 32 m-nodes), the final pbar
    # approaches the scheme's own eps = 1e-9 run by a ratio of at least 1.3
    # at every halving of eps from 0.2 to 0.025 (measured 1.63, 1.62, 1.95),
    # and the concentration width w1 falls strictly.
    base = parse_config(CONFIG_DIR / "study.cfg")
    cfg = dc_replace(base, grid=dc_replace(base.grid, dim=2, x_nodes=32, x_extent=8.0,
                                           v_count=8, m_nodes=32))
    grid, spec, init = build_scenario(cfg)
    ladder = [0.2, 0.1, 0.05, 0.025]
    final = {}
    for eps in ladder + [1e-9]:
        state = StepperState.create(grid, dc_replace(spec, epsilon=eps), init)
        state, _ = kinetic_run(state, cfg.run.t_end, cfg.run.output_every)
        final[eps] = (pbar_of(state.field.values, grid),
                      concentration_metrics(state.field, state.signal.values, spec, grid))
    limit_bar = final[1e-9][0]
    gaps = [float(np.sum(np.abs(final[eps][0] - limit_bar) @ grid.weights) * grid.cell_volume)
            for eps in ladder]
    w1 = [final[eps][1] for eps in ladder]
    assert all(a >= 1.3 * b > 0.0 for a, b in zip(gaps, gaps[1:])), gaps
    assert all(b < a for a, b in zip(w1, w1[1:])), w1


def test_cubic_family_concentrates_at_the_cube_root_rate():
    # The cubic rate kappa*(m0 - m)^3 has a flat root: balancing the
    # adaptation lag kappa*g^3 against eps*|dm0/dt| along a path gives a
    # width g ~ eps^(1/3) (Erban & Othmer, SIAM J. Appl. Math. 65, 2004).
    # On study.cfg from eps = 0.2 to 0.0125 the cubic w1 stays above 3 dm,
    # so the grid does not set it, and its slope per halving,
    # log2(w1(eps) / w1(eps/2)), lies in [0.2, 0.4] (measured 0.23, 0.28,
    # 0.32, 0.35).  The linear family concentrates faster on the same grid
    # (0.45, 0.40 at the first two halvings, then its w1 meets the dm
    # floor).  The cubic L1 gap to the reduced model falls only 1.04-1.07
    # per halving, so criterion 7 does not certify this family.
    base = parse_config(CONFIG_DIR / "study.cfg")
    ladder = [0.2, 0.1, 0.05, 0.025, 0.0125]
    slopes = {}
    for family in ("cubic", "linear"):
        cfg = dc_replace(base, model=dc_replace(base.model, f_family=family))
        grid, spec, init = build_scenario(cfg)
        w1 = []
        for eps in ladder:
            state = StepperState.create(grid, dc_replace(spec, epsilon=eps), init)
            state, _ = kinetic_run(state, cfg.run.t_end, cfg.run.output_every)
            w1.append(concentration_metrics(state.field, state.signal.values, spec, grid))
        if family == "cubic":
            assert min(w1) >= 3 * grid.dm, w1
        slopes[family] = [np.log2(a / b) for a, b in zip(w1, w1[1:])]
    assert all(0.2 <= k <= 0.4 for k in slopes["cubic"]), slopes
    assert all(lin >= cub + 0.1 for lin, cub in zip(slopes["linear"][:2], slopes["cubic"])), slopes


def test_signal_converges_strongly_to_the_reduced_model():
    # The chemical potential converges strongly as eps -> 0: on study.cfg at
    # t = 1, the L1 distance of S_eps to the reduced (ODA) model's signal
    # falls by a ratio of at least 1.3 at every halving of eps, 0.2 to 0.025.
    cfg = parse_config(CONFIG_DIR / "study.cfg")
    grid, spec, init = build_scenario(cfg)
    oda = oda_run(grid, spec, init, cfg.run.t_end, cfg.run.output_every)
    gaps = []
    for eps in (0.2, 0.1, 0.05, 0.025):
        state = StepperState.create(grid, dc_replace(spec, epsilon=eps), init)
        state, _ = kinetic_run(state, cfg.run.t_end, cfg.run.output_every)
        gaps.append(x_integral(np.abs(state.signal.values - oda.signal.values), grid))
    assert all(a >= 1.3 * b > 0.0 for a, b in zip(gaps, gaps[1:])), gaps


def test_vanishing_eps_gap_to_oda_is_first_order_under_joint_refinement():
    # On study.cfg at t = 1 and eps = 1e-9, the L1 distance of pbar to the
    # reduced (ODA) model falls at first order when x and m are refined
    # together, 128 / 256 / 512 nodes, with dt at the CFL bound (one output).
    base = parse_config(CONFIG_DIR / "study.cfg")
    gaps = []
    for nodes in (128, 256, 512):
        cfg = dc_replace(base, grid=dc_replace(base.grid, x_nodes=nodes, m_nodes=nodes),
                         model=dc_replace(base.model, eps=1e-9))
        grid, spec, init = build_scenario(cfg)
        state, _ = kinetic_run(StepperState.create(grid, spec, init), 1.0, 1.0)
        oda = oda_run(grid, spec, init, 1.0, 1.0)
        gap = np.abs(pbar_of(state.field.values, grid) - pbar_of(oda.field.values, oda.grid))
        gaps.append(float(np.sum(gap * grid.weights) * grid.cell_volume))
    orders = [float(np.log2(a / b)) for a, b in zip(gaps, gaps[1:])]
    assert all(order >= 0.9 for order in orders), (gaps, orders)


def test_tail_moment_never_exceeds_initial_m_moment():
    # Nontrivial tail: mic truncation far above 2*m_plus and a uniform
    # m-slab putting real mass beyond it.
    cfg = RunConfig()
    cfg.grid = GridConfig(x_nodes=24, x_extent=6.0, v_count=2, m_nodes=48,
                          m_max=3.0)
    cfg.model.m_minus, cfg.model.m_plus = 0.2, 0.9
    grid, spec, _ = build_scenario(cfg)
    x = grid.x_centers
    values = (np.exp(-0.5 * (x / 1.0) ** 2)[:, None, None]
              * np.ones((1, grid.n_v, grid.m_nodes)))
    init = package_initial(DensityField(values), grid)
    from chemokin.diagnostics import DiagnosticsReport
    state = StepperState.create(grid, spec, init)
    report = DiagnosticsReport(init, spec, grid)
    state, report = kinetic_run(state, 0.6, 0.1, report=report)
    tails = [r.tail_moment for r in report.rows]
    assert tails[0] > 0.0  # the slab really loads the tail region
    assert all(t <= init.m_moment * (1 + 1e-12) for t in tails)
    assert all(b <= a * (1 + 1e-12) for a, b in zip(tails, tails[1:]))
