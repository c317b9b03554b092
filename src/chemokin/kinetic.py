"""Advance the phase-space density by operator splitting.

One macro step is Strang-ordered with the stiff internal-state term
outermost: half adaptation, half turning, full transport, half turning,
half adaptation, then a signal refresh.  The signal is frozen within the
step, so the adaptation drift dm/dt = F(m, S(x))/eps has a closed-form
flow, and the adaptation half steps are one conservative remap along it:
no eps-CFL, and a cost independent of eps.  Both half steps share the
frozen signal and dt/2, so one plan (``adaptation_plan``: the feet of the
m-edges) serves both, and the remap runs in the density's own (x, v, m)
layout without transposing it.  Turning and transport are explicit and
written in non-negative-coefficient form, so positivity is preserved
under their CFL bounds.  Every sub-operation conserves the
discrete mass up to round-off (periodic transport telescopes, the turning
integrand is antisymmetric under swapping the two velocities, and the
remap's cell masses telescope to the full m-integral because the
adaptation rate points inward at both ends of the truncated m-interval).
The step epilogue (``finish_step``) and the output scheduler (``run``)
also serve the reduced model of ``limit``, a state on one m-cell.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .diagnostics import DiagnosticsReport
from .elliptic import solve_signal
from .errors import BadConfig, CflViolation, PositivityError, SpecViolation
from .fields import DensityField, SignalField
from .model import InitialData, ModelSpec, PhaseGrid

#: Relative slack when comparing a step against its CFL bound.
CFL_SLACK = 1e-9
#: Density elements (128 KiB) remapped per block of x-cells, so the
#: adaptation remap's temporaries stay in cache.
REMAP_BLOCK = 1 << 14


def pbar_of(p: np.ndarray, grid: PhaseGrid) -> np.ndarray:
    """m-integrated density over (x, v)."""
    return np.sum(p, axis=-1) * grid.dm


def number_density(p: np.ndarray, grid: PhaseGrid) -> np.ndarray:
    """Macroscopic density n(x), the (v, m) integral of p."""
    return np.sum(pbar_of(p, grid) * grid.weights, axis=-1)


def total_mass(p: np.ndarray, grid: PhaseGrid) -> float:
    return float(np.sum(p * grid.weights[:, None]) * grid.cell_volume * grid.dm)


# ---------------------------------------------------------------------------
# Turning
# ---------------------------------------------------------------------------

@dataclass
class TurningTensors:
    """Precomputed quadrature arrays for the separable turning operator.

    Every turning family is T(v, v', m) = lambda(m) * K(v, v'), so
    ``gain[k, k'] = w_k' * K(v_k, v_k')`` is one (V, V) matrix scaled by
    ``freq = lambda(m)``, and ``loss[k, ...] = freq * sum_k' w_k' *
    K(v_k', v_k)``.  One explicit Euler update is
    p <- p*(1 - dt*loss) + dt*freq*(gain @ p).
    """

    gain: np.ndarray
    freq: np.ndarray
    loss: np.ndarray

    @property
    def max_loss(self) -> float:
        return float(self.loss.max())

    @classmethod
    def build(cls, spec: ModelSpec, grid: PhaseGrid,
              m: np.ndarray | None = None) -> "TurningTensors":
        """Tensors with lambda evaluated at ``m``.

        The default, the m-cell centers, gives ``freq`` shape (M,) and
        ``loss`` shape (V, M).  Any ``m`` that broadcasts against the
        density's trailing (V, M) axes works: the reduced model passes
        m0(S(x))[..., None, None] for its single m-cell.
        """
        m = grid.m_centers if m is None else m
        ker = spec.turning.kernel_matrix(grid)
        w = grid.weights
        freq = np.asarray(spec.turning.frequency(m), dtype=float)
        return cls(gain=ker * w[None, :], freq=freq, loss=(w @ ker)[:, None] * freq)


def turning_apply(p: np.ndarray, spec: ModelSpec, grid: PhaseGrid, dt: float,
                  tensors: TurningTensors | None = None) -> np.ndarray:
    """One explicit Euler step of the velocity-jump operator.

    Positivity needs dt below the inverse of the largest total outflux
    rate (at most V_d * turning_cap).
    """
    tensors = tensors or TurningTensors.build(spec, grid)
    if dt * tensors.max_loss > 1.0 + CFL_SLACK:
        raise CflViolation(
            f"turning step dt = {dt} exceeds positivity bound {1.0 / tensors.max_loss}")
    out = np.matmul(tensors.gain, p)
    out *= dt * tensors.freq
    out += p * (1.0 - dt * tensors.loss)
    return out


# ---------------------------------------------------------------------------
# Transport
# ---------------------------------------------------------------------------

def _upwind_shift(arr: np.ndarray, axis: int, sign: int, periodic: bool) -> np.ndarray:
    """Neighbor values entering a cell for flow direction ``sign`` on ``axis``."""
    out = np.roll(arr, sign, axis=axis)
    if not periodic:
        sl = [slice(None)] * arr.ndim
        sl[axis] = 0 if sign > 0 else -1
        out[tuple(sl)] = 0.0
    return out


def transport_apply(p: np.ndarray, grid: PhaseGrid, dt: float) -> np.ndarray:
    """First-order upwind x-transport, one step for every velocity node.

    Mass is conserved exactly on periodic grids; truncated grids lose only
    outflow through the boundary.  Positivity holds for per-axis Courant
    numbers summing to at most one.
    """
    periodic = grid.x_topology == "periodic"
    out = np.empty_like(p)
    for k in range(grid.n_v):
        slab = p[..., k, :]
        courants = grid.velocities[k] * dt / grid.dx
        if np.sum(np.abs(courants)) > 1.0 + CFL_SLACK:
            raise CflViolation(
                f"transport step dt = {dt} exceeds dx/|v| for velocity node {k}")
        stay = 1.0
        acc = np.zeros_like(slab)
        for axis, c in enumerate(courants):
            if c == 0.0:
                continue
            cmag = min(abs(float(c)), 1.0)
            stay -= cmag
            acc += cmag * _upwind_shift(slab, axis, 1 if c > 0 else -1, periodic)
        out[..., k, :] = max(stay, 0.0) * slab + acc
    return out


# ---------------------------------------------------------------------------
# Stiff adaptation in m
# ---------------------------------------------------------------------------

def adaptation_feet(s: np.ndarray, spec: ModelSpec, grid: PhaseGrid,
                    dt: float) -> np.ndarray:
    """m-edges pulled back over dt along the exact flow, clipped to [0, m_max].

    Shape ``x_shape + (m_nodes + 1,)``, non-decreasing along the last axis
    bit for bit (``np.maximum.accumulate`` repairs any rounding inversion
    of the monotone exact flow).
    """
    s = np.asarray(s, dtype=float)[..., None]
    feet = spec.adaptation.pull_back(grid.m_edges, s, dt / spec.epsilon)
    np.clip(feet, 0.0, grid.m_max, out=feet)
    return np.maximum.accumulate(feet, axis=-1)


@dataclass(frozen=True)
class AdaptationPlan:
    """Where the feet of one adaptation step fall, shared by its two uses.

    ``idx`` and ``frac`` (shape (X, M+1)) locate each foot as cell index
    plus fraction of a cell.  The remap runs over blocks of
    ``len(offsets)`` x-cells; ``offsets`` (shape (block, V, 1)) holds the
    block-local flat start ((x - lo)*V + v)*M of every (x, v) column.
    Nothing of shape (X, V, M+1) is kept: each block builds its own gather
    indices.
    """

    idx: np.ndarray
    frac: np.ndarray
    offsets: np.ndarray


def adaptation_plan(s: np.ndarray, spec: ModelSpec, grid: PhaseGrid,
                    dt: float) -> AdaptationPlan:
    """Check the rate's sign at the m-truncation and locate the feet over dt.

    Depends only on the frozen signal and dt, so one plan serves both
    adaptation half steps of a macro step.
    """
    f_ends = np.asarray(spec.adaptation_rate(np.array([0.0, grid.m_max]),
                                             np.asarray(s)[..., None]))
    if np.any(f_ends[..., 1] >= 0.0):
        raise SpecViolation(
            "adaptation rate is non-negative at m_max; the m-truncation is too small "
            f"(max rate at m_max = {float(f_ends[..., 1].max()):.6g})")
    if np.any(f_ends[..., 0] <= 0.0):
        raise SpecViolation("adaptation rate is non-positive at m = 0")

    n_x, n_v, n_m = int(np.prod(grid.x_shape)), grid.n_v, grid.m_nodes
    u = adaptation_feet(s, spec, grid, dt).reshape(n_x, n_m + 1) / grid.dm
    idx = np.minimum(np.floor(u), n_m - 1).astype(np.intp)
    frac = np.minimum(u - idx, 1.0)
    step = min(n_x, max(1, REMAP_BLOCK // (n_v * n_m)))
    offsets = np.arange(0, step * n_v * n_m, n_m, dtype=np.intp).reshape(step, n_v, 1)
    return AdaptationPlan(idx=idx, frac=frac, offsets=offsets)


def adaptation_apply(p: np.ndarray, s: np.ndarray, spec: ModelSpec, grid: PhaseGrid,
                     dt: float, plan: AdaptationPlan | None = None) -> np.ndarray:
    """Conservative semi-Lagrangian remap of the m-drift term over dt.

    The signal is frozen over the step, so dm/dt = F(m, S(x))/eps has a
    closed-form flow (``AdaptationModel.pull_back``).  The mass of a new
    cell [e_i, e_i+1] is the old mass between the feet of its edges: the
    per-(x, v) exclusive prefix sum C of p, interpolated linearly inside a
    cell as C(foot) = cum[i] + frac*p[i], differenced between feet.  With
    F > 0 at m = 0 and F < 0 at m_max the end feet clip to 0 and m_max, so
    the differences telescope to the full m-integral.  Positivity holds in
    floating point, not only in exact arithmetic: the feet are
    non-decreasing, ``frac`` lies in [0, 1], and the sequential prefix sum
    gives cum[i] + frac*p[i] <= cum[i+1], so C is non-decreasing at the
    feet.  The cost is independent of eps and there is no eps-CFL.

    ``plan`` is ``adaptation_plan(s, spec, grid, dt)``, built here when not
    given; ``macro_step`` builds one per step for both half steps.  The
    remap works in the density's own (x, v, m) layout, a block of x-cells
    at a time: prefix sums run along the contiguous m axis, and every
    (x, v) column gathers at its feet through flat block-local indices.
    """
    if plan is None:
        plan = adaptation_plan(s, spec, grid, dt)
    idx, frac, step = plan.idx, plan.frac, len(plan.offsets)
    n_x = idx.shape[0]
    flat = p.reshape(n_x, grid.n_v, grid.m_nodes)
    out = np.empty_like(flat)
    for lo in range(0, n_x, step):
        block = flat[lo:lo + step]
        hi = lo + block.shape[0]
        cum = np.empty_like(block)
        cum[..., 0] = 0.0
        np.cumsum(block[..., :-1], axis=-1, out=cum[..., 1:])
        at = idx[lo:hi, None, :] + plan.offsets[:hi - lo]  # (x, v, edge)
        at_feet = np.take(cum, at)
        gathered = np.take(block, at)
        gathered *= frac[lo:hi, None, :]
        at_feet += gathered
        np.subtract(at_feet[..., 1:], at_feet[..., :-1], out=out[lo:hi])
    return out.reshape(p.shape)


# ---------------------------------------------------------------------------
# Macro stepping
# ---------------------------------------------------------------------------

@dataclass
class StepperState:
    """Full solver state: density, lagged signal, model, grid, counters."""

    field: DensityField
    signal: SignalField
    spec: ModelSpec
    grid: PhaseGrid
    tensors: TurningTensors
    mass0: float
    step_count: int = 0
    max_mass_defect: float = 0.0
    freeze_signal: bool = False

    @property
    def t(self) -> float:
        return self.field.t

    @classmethod
    def create(cls, grid: PhaseGrid, spec: ModelSpec, initial: InitialData,
               freeze_signal: bool = False) -> "StepperState":
        p0 = initial.p0
        signal = solve_signal(number_density(p0.values, grid), grid)
        return cls(
            field=DensityField(p0.values.copy(), p0.t),
            signal=signal,
            spec=spec,
            grid=grid,
            tensors=TurningTensors.build(spec, grid),
            mass0=initial.mass,
            freeze_signal=freeze_signal,
        )

    def cfl_dt(self) -> float:
        """Largest macro step compatible with transport and turning CFLs."""
        dt_x = self.grid.dx / self.grid.max_speed if self.grid.max_speed > 0 else np.inf
        dt_turn = 1.0 / (self.grid.v_measure * self.spec.turning_cap)
        return min(dt_x, dt_turn)


def macro_step(state: StepperState, dt: float) -> StepperState:
    """One Strang-split macro step; returns a new state.

    The signal is frozen over the step and refreshed from the updated
    density afterwards (unless the state freezes it for oracle runs).
    """
    if dt <= 0:
        raise BadConfig(f"macro step dt must be positive, got {dt}")
    grid, spec = state.grid, state.spec
    s = state.signal.values

    plan = adaptation_plan(s, spec, grid, 0.5 * dt)
    p = adaptation_apply(state.field.values, s, spec, grid, 0.5 * dt, plan)
    p = turning_apply(p, spec, grid, 0.5 * dt, state.tensors)
    p = transport_apply(p, grid, dt)
    p = turning_apply(p, spec, grid, 0.5 * dt, state.tensors)
    p = adaptation_apply(p, s, spec, grid, 0.5 * dt, plan)
    return finish_step(state, p, dt)


def finish_step(state: StepperState, p: np.ndarray, dt: float) -> StepperState:
    """Close a step that produced density ``p``: check, refresh, account.

    Positivity is asserted on the result: a negative or NaN cell is a
    scheme bug, never something to clip.  The signal is then re-solved
    from ``p`` (unless the state freezes it) and the largest relative mass
    defect against ``mass0`` so far is kept.
    """
    pmin = float(p.min())
    if not pmin >= 0.0:  # also catches NaN, which compares false
        raise PositivityError(
            f"negative or non-finite density (min {pmin:.3e}) after macro step "
            f"at t = {state.t + dt:.6g}")

    grid = state.grid
    signal = state.signal if state.freeze_signal \
        else solve_signal(number_density(p, grid), grid)
    defect = (total_mass(p, grid) - state.mass0) / state.mass0 if state.mass0 else 0.0
    return replace(
        state,
        field=DensityField(p, state.t + dt),
        signal=signal,
        step_count=state.step_count + 1,
        max_mass_defect=max(state.max_mass_defect, abs(defect)),
    )


def output_times(t_start: float, t_end: float, output_every: float) -> list[float]:
    """Strictly increasing output instants k*output_every, plus t_end.

    Times are exact float products of the integer index and the cadence so
    a restarted run regenerates the identical schedule bitwise.
    """
    times = []
    k = math.floor(t_start / output_every + 1e-9) + 1
    while k * output_every < t_end * (1.0 - 1e-12):
        tk = k * output_every
        if tk > t_start:
            times.append(tk)
        k += 1
    times.append(t_end)
    return times


def run(state: StepperState, t_end: float, output_every: float,
        report: DiagnosticsReport | None = None, observer=None,
        step=None) -> tuple[StepperState, DiagnosticsReport | None]:
    """Advance to t_end with the largest CFL-safe step, capped per output.

    Each output interval is covered by an integer number of equal steps
    ``step(state, dt)`` (default ``macro_step``; the reduced model passes
    its own); the state's clock is snapped to the exact scheduled instant
    at every interval end so runs and restarts share bitwise-identical
    schedules.  ``report.observe`` fires at t_start (fresh reports only)
    and at every output instant; ``observer(state)`` after each output.
    """
    step = macro_step if step is None else step
    if t_end < state.t:
        raise BadConfig(f"t_end = {t_end} is before current time {state.t}")
    if report is not None and not report.rows:
        report.observe(state.field.values, state.signal.values, state.t)
        if observer is not None:
            observer(state)
    if t_end == state.t:
        return state, report

    dt_cap = state.cfl_dt()
    for t_next in output_times(state.t, t_end, output_every):
        span = t_next - state.t
        n_steps = max(1, math.ceil(span / dt_cap - 1e-9))
        dt = span / n_steps
        for _ in range(n_steps):
            state = step(state, dt)
        state = replace(state, field=DensityField(state.field.values, t_next))
        if report is not None:
            report.observe(state.field.values, state.signal.values, t_next)
        if observer is not None:
            observer(state)
    return state, report
