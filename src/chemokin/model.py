"""Domain types: phase-space grid, model coefficient families, initial data.

The grid discretizes (x, v, m): a uniform periodic or truncated x-grid in
one or two dimensions, a symmetric discrete velocity set with positive
quadrature weights, and a uniform truncation [0, m_max] of the internal
state.  Model coefficients come in small parametric families (an
adaptation rate with a unique zero m0(S) strictly inside (m_minus, m_plus),
a positive and uniformly bounded turning kernel), and every constructed
spec is swept over the grid to certify those structural properties before
any stepping happens.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields as dc_fields

import numpy as np

from .config import RunConfig
from .errors import AssumptionViolation, BadConfig
from .fields import (DensityField, density_of_pbar, m_moments, pbar_of, total_mass,
                     x_integral, xvm)

#: Relative clamp keeping the adapted state strictly inside (m_minus, m_plus).
EQUILIBRIUM_CLAMP = 1e-6

#: Cap on the linear flow's exponent kappa*dt/eps.  exp(700) is below the
#: float maximum, and any gap above m_max*exp(-700) is pulled back out of
#: [0, m_max] already, so the cap only keeps eps -> 0 finite.
FLOW_EXPONENT_CAP = 700.0

#: Anisotropy a of the ``separable-angle`` turning kernel (1 + a*cos)/V_d.
ANGLE_ANISOTROPY = 0.5

#: Signal levels in [0, s_sample_cap] at which ``validate_on`` sweeps the rate.
S_SAMPLES = 33


# ---------------------------------------------------------------------------
# Phase-space grid
# ---------------------------------------------------------------------------

def velocity_set(dim: int, v_count: int) -> tuple[np.ndarray, np.ndarray]:
    """Discrete velocity nodes and quadrature weights.

    dim=1: midpoints of a uniform subdivision of [-1, 1] (symmetric pairs,
    weights summing to 2).  dim=2: ``v_count`` equispaced unit directions
    (cos, sin) of 2*pi*k/v_count with weights 2*pi/v_count; a component
    that is zero in exact arithmetic (at a quarter turn) is exactly 0.0, so
    an axis direction moves on one axis only.  Symmetry makes the discrete
    first moment of the velocity set vanish, which the turning operator's
    exact mass cancellation relies on.
    """
    if v_count < 1:
        raise BadConfig(f"v_count must be positive, got {v_count}")
    if dim == 1:
        dv = 2.0 / v_count
        v = (-1.0 + (np.arange(v_count) + 0.5) * dv)[:, None]
        w = np.full(v_count, dv)
    elif dim == 2:
        k = np.arange(v_count)
        theta = 2.0 * np.pi * k / v_count
        v = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        v[(4 * k) % (2 * v_count) == v_count, 0] = 0.0  # cos at an odd quarter turn
        v[(2 * k) % v_count == 0, 1] = 0.0  # sin at a whole half turn
        w = np.full(v_count, 2.0 * np.pi / v_count)
    else:
        raise BadConfig(f"dim must be 1 or 2, got {dim}")
    return v, w


@dataclass
class PhaseGrid:
    """Discretization of (x, v, m).

    x-cells are centered on [-L/2, L/2) per axis so that the coordinate
    weight <x> = sqrt(1 + |x|^2) stays continuous across the periodic seam.
    """

    dim: int
    x_nodes: int
    x_extent: float
    x_topology: str
    velocities: np.ndarray  # (n_v, dim)
    weights: np.ndarray     # (n_v,)
    m_nodes: int
    m_max: float

    def __post_init__(self) -> None:
        if self.dim not in (1, 2):
            raise BadConfig(f"dim must be 1 or 2, got {self.dim}")
        if self.x_topology not in ("periodic", "free"):
            raise BadConfig(f"unknown x_topology {self.x_topology!r}")
        # Written as "not 0 < x < inf" so that NaN fails too.
        if not (0.0 < self.x_extent < math.inf and 0.0 < self.m_max < math.inf):
            raise BadConfig(f"x_extent and m_max must be finite and positive, got "
                            f"{self.x_extent} and {self.m_max}")
        self.weights = np.asarray(self.weights, dtype=float)
        v = np.asarray(self.velocities, dtype=float)
        self.velocities = v.reshape(-1, 1) if v.ndim == 1 else v
        if min(self.x_nodes, self.m_nodes, self.weights.size) < 1:
            raise BadConfig(f"grid sizes must be at least 1, got x_nodes = {self.x_nodes}, "
                            f"n_v = {self.weights.size}, m_nodes = {self.m_nodes}")
        if self.velocities.shape != (self.weights.size, self.dim):
            raise BadConfig(
                f"velocity array shape {self.velocities.shape} != (n_v, dim)")
        if not (np.all(np.isfinite(self.velocities)) and np.all(np.isfinite(self.weights))):
            raise BadConfig("velocities and weights must be finite")
        if np.any(self.weights <= 0):
            raise AssumptionViolation(
                f"velocity weights must be positive, min w = {self.weights.min()}")

    # -- derived quantities -------------------------------------------------

    @property
    def dx(self) -> float:
        return self.x_extent / self.x_nodes

    @property
    def dm(self) -> float:
        return self.m_max / self.m_nodes

    @property
    def n_v(self) -> int:
        return self.velocities.shape[0]

    @property
    def v_measure(self) -> float:
        """Discrete measure of the velocity space, sum of the weights."""
        return float(np.sum(self.weights))

    @property
    def x_shape(self) -> tuple[int, ...]:
        return (self.x_nodes,) * self.dim

    @property
    def field_shape(self) -> tuple[int, ...]:
        return self.x_shape + (self.n_v, self.m_nodes)

    @property
    def x_centers(self) -> np.ndarray:
        return -0.5 * self.x_extent + (np.arange(self.x_nodes) + 0.5) * self.dx

    @property
    def m_centers(self) -> np.ndarray:
        return (np.arange(self.m_nodes) + 0.5) * self.dm

    @property
    def m_edges(self) -> np.ndarray:
        return np.arange(self.m_nodes + 1) * self.dm

    @property
    def cell_volume(self) -> float:
        """Spatial cell volume dx^dim (velocity weight excluded)."""
        return self.dx ** self.dim

    @property
    def max_speed(self) -> float:
        """Largest per-axis speed max_k,i |v_k,i|, the transport CFL speed."""
        return float(np.max(np.abs(self.velocities)))

    def same_as(self, other: "PhaseGrid") -> bool:
        """Whether ``other`` has this grid's signature: every field, node and weight."""
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in dc_fields(self))

    def x_weight(self) -> np.ndarray:
        """<x> = sqrt(1 + |x|^2) on the spatial grid."""
        if self.dim == 1:
            return np.sqrt(1.0 + self.x_centers ** 2)
        xc = self.x_centers
        xx, yy = np.meshgrid(xc, xc, indexing="ij")
        return np.sqrt(1.0 + xx ** 2 + yy ** 2)

    @classmethod
    def from_config(cls, cfg: RunConfig, m_max: float) -> "PhaseGrid":
        v, w = velocity_set(cfg.grid.dim, cfg.grid.v_count)
        return cls(
            dim=cfg.grid.dim,
            x_nodes=cfg.grid.x_nodes,
            x_extent=cfg.grid.x_extent,
            x_topology=cfg.grid.x_topology,
            velocities=v,
            weights=w,
            m_nodes=cfg.grid.m_nodes,
            m_max=m_max,
        )


# ---------------------------------------------------------------------------
# Adaptation rate family
# ---------------------------------------------------------------------------

@dataclass
class AdaptationModel:
    """Drift of the internal state, zero at the adapted level m0(S).

    Supported kinds: ``linear`` rate = kappa*(m0(S) - m) and ``cubic``
    rate = kappa*(m0(S) - m)**3, with m0(S) = m_minus +
    (m_plus - m_minus)*S/(s_ref + S) clamped strictly inside
    (m_minus, m_plus).  The cubic kind has a flat (vanishing-derivative)
    root.
    """

    kind: str
    kappa: float
    s_ref: float
    m_minus: float
    m_plus: float

    def __post_init__(self) -> None:
        if self.kind not in ("linear", "cubic"):
            raise BadConfig(f"unknown adaptation family {self.kind!r}")
        # "not x > 0" also rejects NaN, which passes every "<= 0" test.
        if not (self.kappa > 0 and self.s_ref > 0):
            raise BadConfig(f"need kappa, S_ref > 0, got {self.kappa} and {self.s_ref}")
        if not 0 < self.m_minus < self.m_plus:
            raise BadConfig(f"need 0 < m_minus < m_plus, got {self.m_minus} and {self.m_plus}")

    def equilibrium(self, s):
        """Adapted internal state m0(S), clamped inside (m_minus, m_plus)."""
        span = self.m_plus - self.m_minus
        raw = self.m_minus + span * s / (self.s_ref + s)
        pad = EQUILIBRIUM_CLAMP * span
        return np.clip(raw, self.m_minus + pad, self.m_plus - pad)

    def rate(self, m, s):
        """Adaptation rate at internal state m and signal level S."""
        gap = self.equilibrium(s) - m
        if self.kind == "linear":
            return self.kappa * gap
        return self.kappa * gap ** 3

    def pull_back(self, m, s, tau):
        """Start point of the path dm/dt = rate(m, S) that reaches m after time tau.

        ``tau`` is the rescaled time dt/eps.  The gap g = m - m0(S) follows
        g*exp(kappa*tau) (linear) or g/sqrt(1 - 2*kappa*g**2*tau) (cubic);
        a cubic path whose radicand is <= 0 comes from infinity and returns
        +-inf.  The linear exponent is capped at FLOW_EXPONENT_CAP so the
        eps -> 0 limit stays finite.
        """
        m0 = self.equilibrium(s)
        gap = np.asarray(m, dtype=float) - m0
        if self.kind == "linear":
            return m0 + gap * math.exp(min(self.kappa * tau, FLOW_EXPONENT_CAP))
        radicand = 1.0 - 2.0 * self.kappa * tau * gap ** 2
        escaped = radicand <= 0.0
        foot = m0 + gap / np.sqrt(np.where(escaped, 1.0, radicand))
        return np.where(escaped, np.copysign(np.inf, gap), foot)

    def rate_m(self, m, s):
        """Analytic derivative of the rate with respect to m."""
        if self.kind == "linear":
            return -self.kappa * np.ones_like(np.asarray(m, dtype=float) + np.asarray(s, dtype=float))
        gap = self.equilibrium(s) - m
        return -3.0 * self.kappa * gap ** 2

    def slope_cap(self, m_max: float) -> float:
        """Uniform bound on |d rate/dm| over [0, m_max] and all S >= 0."""
        if self.kind == "linear":
            return self.kappa
        reach = max(self.m_plus, m_max - self.m_minus)
        return 3.0 * self.kappa * reach ** 2


# ---------------------------------------------------------------------------
# Turning kernel family
# ---------------------------------------------------------------------------

@dataclass
class TurningModel:
    """Velocity-jump rate density T(v, v', m) = frequency(m) * kernel(v, v').

    ``constant``: frequency lambda0, uniform kernel 1/V_d.
    ``separable-uniform``: frequency lambda0*(1 + beta*tanh((m_c - m)/delta)),
    uniform kernel.
    ``separable-angle``: same frequency, kernel (1 + a*cos(angle))/V_d with
    the fixed anisotropy a = ``ANGLE_ANISOTROPY`` (kept out of the config
    schema; the kernel normalizes exactly on symmetric velocity sets).
    """

    kind: str
    lambda0: float
    beta: float = 0.0
    m_c: float = 0.0
    delta: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("constant", "separable-uniform", "separable-angle"):
            raise BadConfig(f"unknown turning family {self.kind!r}")
        if not (self.lambda0 > 0 and self.delta > 0):
            raise BadConfig(f"need lambda0, delta > 0, got {self.lambda0} and {self.delta}")

    def frequency(self, m):
        """Turning frequency lambda(m)."""
        if self.kind == "constant":
            return self.lambda0 * np.ones_like(np.asarray(m, dtype=float))
        return self.lambda0 * (1.0 + self.beta * np.tanh((self.m_c - m) / self.delta))

    def frequency_bound(self, m_max: float) -> float:
        """Exact sup of lambda over [0, m_max] (tanh is monotone in m)."""
        if self.kind == "constant":
            return self.lambda0
        return float(max(self.frequency(0.0), self.frequency(m_max)))

    def kernel_matrix(self, grid: PhaseGrid) -> np.ndarray:
        """K[k, k'] for the grid's velocity set; rows indexed by the new v."""
        n, vd = grid.n_v, grid.v_measure
        if self.kind in ("constant", "separable-uniform"):
            return np.full((n, n), 1.0 / vd)
        v = grid.velocities
        norms = np.sqrt(np.sum(v ** 2, axis=1))
        dots = v @ v.T
        denom = np.outer(norms, norms)
        with np.errstate(invalid="ignore", divide="ignore"):
            cos = np.where(denom > 0, dots / np.where(denom > 0, denom, 1.0), 0.0)
        return (1.0 + ANGLE_ANISOTROPY * cos) / vd

    def kernel_bound(self, grid: PhaseGrid) -> float:
        if self.kind in ("constant", "separable-uniform"):
            return 1.0 / grid.v_measure
        return (1.0 + ANGLE_ANISOTROPY) / grid.v_measure


# ---------------------------------------------------------------------------
# Model spec with certified bounds
# ---------------------------------------------------------------------------

@dataclass
class ModelSpec:
    """Coefficient functions plus the bound certificates the estimates use.

    ``turning_cap`` bounds T uniformly, ``slope_cap`` bounds |d rate/dm|
    over the reachable signal range, and (m_minus, m_plus) bracket the
    adapted state.  ``validate_on(grid)`` sweeps the grid to certify all of
    them; construction through ``build_scenario`` always does.
    """

    adaptation: AdaptationModel
    turning: TurningModel
    epsilon: float
    turning_cap: float = field(default=0.0)
    slope_cap: float = field(default=0.0)
    s_sample_cap: float = field(default=10.0)

    def __post_init__(self) -> None:
        if not self.epsilon > 0:
            raise BadConfig(f"epsilon must be positive, got {self.epsilon}")

    @property
    def m_minus(self) -> float:
        return self.adaptation.m_minus

    @property
    def m_plus(self) -> float:
        return self.adaptation.m_plus

    def adaptation_rate(self, m, s):
        return self.adaptation.rate(m, s)

    @property
    def certified(self) -> bool:
        """Whether ``validate_on`` has set the caps; both stay 0.0 until it does."""
        return self.turning_cap > 0 and self.slope_cap > 0

    def growth_rate(self, grid: PhaseGrid) -> float:
        """Gronwall rate of the full density, slope_cap/eps + 2 V_d turning_cap.

        It bounds the growth of sup p (``diagnostics.envelope_check``) and is
        the Lipschitz rate of the oracle's Picard map, which contracts on
        horizons t with t * rate < 1.
        """
        return self.slope_cap / self.epsilon + 2.0 * grid.v_measure * self.turning_cap

    def validate_on(self, grid: PhaseGrid) -> None:
        """Certify kernel positivity/boundedness and the rate sign structure.

        Raises AssumptionViolation naming the failed inequality and the
        grid point where it fails.
        """
        if grid.m_max <= self.m_plus:
            raise AssumptionViolation(
                f"m truncation m_max = {grid.m_max} must exceed m_plus = {self.m_plus} "
                "so the boundary flux at m_max points inward")

        # Turning kernel sweep over (v, v') x m (centers and edges).
        m_all = np.concatenate([grid.m_centers, grid.m_edges])
        lam = self.turning.frequency(m_all)
        if not np.all(lam > 0):   # a NaN beta or m_c fails here too
            j = int(np.argmin(lam))
            raise AssumptionViolation(
                f"turning frequency must be positive: lambda(m={m_all[j]:.6g}) = {lam[j]:.6g}")
        ker = self.turning.kernel_matrix(grid)
        if np.any(ker <= 0):
            k, kp = np.unravel_index(int(np.argmin(ker)), ker.shape)
            raise AssumptionViolation(
                f"turning kernel must be positive: K(v_{k}, v_{kp}) = {ker[k, kp]:.6g}")
        cap = self.turning.frequency_bound(grid.m_max) * self.turning.kernel_bound(grid)
        t_max = float(lam.max() * ker.max())
        if t_max > cap * (1.0 + 1e-12):
            raise AssumptionViolation(
                f"turning kernel exceeds its certificate: max T = {t_max} > {cap}")
        self.turning_cap = cap

        # Adaptation rate sign structure over one table of sampled (m, S):
        # the first failing S in sample order is reported, with the first
        # failing m there.
        s_samples = np.linspace(0.0, self.s_sample_cap, S_SAMPLES)
        m_c = grid.m_centers
        mm, ss = np.meshgrid(m_c, s_samples, indexing="ij")
        roots = self.adaptation.equilibrium(s_samples)
        rate = self.adaptation.rate(mm, ss)
        bad_root = ~((self.m_minus < roots) & (roots < self.m_plus))
        bad_sign = ((mm < roots) & (rate <= 0)) | ((mm > roots) & (rate >= 0))
        failed = bad_root | bad_sign.any(axis=0)
        if failed.any():
            i = int(np.argmax(failed))
            s, root = s_samples[i], float(roots[i])
            if bad_root[i]:
                raise AssumptionViolation(
                    f"adapted state must lie strictly inside ({self.m_minus}, {self.m_plus}): "
                    f"m0({s:.6g}) = {root}")
            j = int(np.argmax(bad_sign[:, i]))
            raise AssumptionViolation(
                f"adaptation rate breaks its sign structure at m = {m_c[j]:.6g}, "
                f"S = {s:.6g}: rate = {rate[j, i]:.6g}, m0 = {root:.6g}")

        # Slope certificate, checked by centered finite differences.
        cap_pi = self.adaptation.slope_cap(grid.m_max)
        h = 1e-6 * grid.m_max
        fd = (self.adaptation.rate(mm + h, ss) - self.adaptation.rate(mm - h, ss)) / (2 * h)
        fd_max = float(np.abs(fd).max())
        if fd_max > cap_pi * (1.0 + 1e-6):
            raise AssumptionViolation(
                f"adaptation slope exceeds its certificate: |d rate/dm| = {fd_max} > {cap_pi}")
        self.slope_cap = cap_pi

    @classmethod
    def from_config(cls, cfg: RunConfig) -> "ModelSpec":
        m = cfg.model
        adaptation = AdaptationModel(
            kind=m.f_family, kappa=m.kappa, s_ref=m.s_ref,
            m_minus=m.m_minus, m_plus=m.m_plus)
        turning = TurningModel(
            kind=m.t_family, lambda0=m.lambda0, beta=m.beta, m_c=m.m_c, delta=m.delta)
        s_cap = max(10.0 * m.s_ref, 2.0 * cfg.initial.mass, 1.0)
        return cls(adaptation=adaptation, turning=turning, epsilon=m.eps,
                   s_sample_cap=s_cap)


# ---------------------------------------------------------------------------
# Initial data
# ---------------------------------------------------------------------------

@dataclass
class InitialData:
    """Initial density plus the scalar metadata the bound monitors need."""

    p0: DensityField
    mass: float
    m_moment: float
    p0_sup: float
    pbar0_sup: float


def _x_profile(grid: PhaseGrid, profile: str, center: float, width: float) -> np.ndarray:
    xc = grid.x_centers

    def bump(c: float) -> np.ndarray:
        if grid.dim == 1:
            return np.exp(-0.5 * ((xc - c) / width) ** 2)
        xx, yy = np.meshgrid(xc, xc, indexing="ij")
        return np.exp(-0.5 * (((xx - c) ** 2 + (yy - c) ** 2) / width ** 2))

    if profile == "uniform":
        return np.ones(grid.x_shape)
    if profile == "gaussian":
        return bump(center)
    if profile == "two-bumps":
        off = 0.25 * grid.x_extent
        return bump(center - off) + bump(center + off)
    raise BadConfig(f"unknown initial profile {profile!r}")


def build_initial(cfg: RunConfig, grid: PhaseGrid, spec: ModelSpec) -> InitialData:
    """Construct the initial density for a validated scenario.

    Shape: x-profile from the config, isotropic in v, and a fixed Gaussian
    m-profile centered mid-way between m_minus and m_plus (width one sixth
    of the gap) so the adaptation dynamics start visibly un-adapted.
    Normalized to the requested total mass.  Built in the solver's
    (v, m, *x) layout, every cell the product hm(m) * gx(x).  A width or
    mass that is not positive is a ``BadConfig``.
    """
    ini = cfg.initial
    if not ini.width > 0:  # the profile squares it, so a negative one would pass
        raise BadConfig(f"[initial] width must be positive, got {ini.width}")
    if not ini.mass > 0:
        raise BadConfig(f"[initial] mass must be positive, got {ini.mass}")
    gx = _x_profile(grid, ini.profile, ini.center, ini.width)
    m_mid = 0.5 * (spec.m_minus + spec.m_plus)
    m_sig = (spec.m_plus - spec.m_minus) / 6.0
    hm = np.exp(-0.5 * ((grid.m_centers - m_mid) / m_sig) ** 2)

    buf = np.empty((grid.n_v, grid.m_nodes) + grid.x_shape)
    buf[...] = hm.reshape((-1,) + (1,) * grid.dim) * gx
    values = xvm(buf)
    raw_mass = total_mass(values, grid)
    if raw_mass <= 0 or not math.isfinite(raw_mass):
        raise AssumptionViolation(f"initial profile has non-positive mass {raw_mass}")
    values *= ini.mass / raw_mass

    return package_initial(DensityField(values, t=0.0), grid)


def package_initial(p0: DensityField, grid: PhaseGrid) -> InitialData:
    """Validate a density as initial data and record its metadata.

    Mass and pbar0_sup come from one pbar pass, the m-moment from one
    m-weighted sum.
    """
    v = p0.values
    if v.shape != grid.field_shape:
        raise BadConfig(f"initial field shape {v.shape} != grid shape {grid.field_shape}")
    low, high = float(v.min()), float(v.max())
    if not (math.isfinite(low) and math.isfinite(high)):
        raise AssumptionViolation("initial density contains non-finite values")
    if low < 0:
        idx = np.unravel_index(int(np.argmin(v)), v.shape)
        raise AssumptionViolation(
            f"initial density must be non-negative: p0{idx} = {v[idx]:.6g}")

    pbar = pbar_of(v, grid)
    return InitialData(
        p0=p0,
        mass=x_integral(density_of_pbar(pbar, grid), grid),
        m_moment=m_moments(v, grid)[0],
        p0_sup=high,
        pbar0_sup=float(pbar.max(initial=0.0)),
    )


def auto_m_max(m_minus: float, m_plus: float) -> float:
    """Default m truncation: half an (m_minus, m_plus) gap above m_plus."""
    return m_plus + 0.5 * (m_plus - m_minus)


def build_scenario(cfg: RunConfig) -> tuple[PhaseGrid, ModelSpec, InitialData]:
    """Realize a config as validated (grid, spec, initial-data) objects.

    All type invariants are swept here; any violation aborts construction
    with BadConfig or AssumptionViolation.
    """
    m_max = cfg.grid.m_max if cfg.grid.m_max is not None \
        else auto_m_max(cfg.model.m_minus, cfg.model.m_plus)
    spec = ModelSpec.from_config(cfg)
    grid = PhaseGrid.from_config(cfg, m_max=m_max)
    spec.validate_on(grid)
    initial = build_initial(cfg, grid, spec)
    return grid, spec, initial
