"""Advance the phase-space density by operator splitting.

One macro step is Strang-ordered with the stiff internal-state term
outermost: half adaptation, half turning, full transport, half turning,
half adaptation, then a signal refresh.  The signal is frozen within the
step, so the adaptation drift dm/dt = F(m, S(x))/eps has a closed-form
flow, and the adaptation half steps are one conservative remap along it:
no eps-CFL, and a cost independent of eps.  Both half steps share the
frozen signal and dt/2, so one plan (``adaptation_plan``: where the feet of
the m-edges fall, computed edge-major by ``adaptation_feet``, and the gather
indices) serves both.  The remap sums and gathers only over the band of
m-rows that holds mass, and writes +0.0 elsewhere, the bits the full remap
gives there.  Every operator works on the (v, m, *x) view of the
density (``fields``): the remap's prefix sums and gathers and turning's
one batched (G, V, V) product per lambda-cell run along contiguous x-rows,
each of transport's per-velocity, per-axis shifts is one contiguous product
over the flattened (m, *x) slab, offset by the axis's stride, and each
operator returns a density in that layout, whatever the strides of its
input.  Transport is corner-transport upwind, one 1-d upwind sweep per
axis, so its CFL bounds the largest per-axis Courant number, not their
sum.  Turning and transport are explicit and written in
non-negative-coefficient form, so positivity is preserved under their CFL
bounds: under the turning CFL every entry of each cell's (V, V) matrix is
>= 0, and under the transport CFL every sweep is a convex combination.
Every sub-operation conserves the discrete mass up to round-off (periodic
transport telescopes, the turning integrand is antisymmetric under
swapping the two velocities, and the remap's cell masses telescope to the
full m-integral because the adaptation rate points inward at both ends of
the truncated m-interval).

A macro step allocates one density-sized array, its result, and never
writes a density it has returned.  The sub-steps alternate between that
result and one (v, m, *x) work buffer (``step_buffers``), each writing the
buffer it did not read: each operator takes an optional ``out``, the
C-contiguous (v, m, *x) array to write, allocates only without one, and
refuses an ``out`` that shares memory with its input.  The work buffer
and the operators' temporaries (the remap's two gathers, at most (M+1, X)
each, and one (m, *x) slab for transport's products) are per-thread scratch
(``_scratch``), reused from step to step, so two threads that step at
once never share one.

The step epilogue (``finish_step``) and the output scheduler (``run``)
also serve the reduced model of ``limit``, a state on one m-cell.  The
epilogue takes the mass from the n it computes for the signal, the way
``fields.total_mass`` gave the initial mass, so a step that changes
nothing has zero defect.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace

import numpy as np

from .config import output_times
from .diagnostics import DiagnosticsReport
from .elliptic import solve_signal
from .errors import BadConfig, CflViolation, NonFiniteInput, PositivityError, SpecViolation
from .fields import DensityField, SignalField, in_layout, number_density, vmx, x_integral, xvm
from .model import InitialData, ModelSpec, PhaseGrid

#: Relative slack when comparing a step against its CFL bound.
CFL_SLACK = 1e-9

_SCRATCH = threading.local()


def _scratch(role: str, shape: tuple[int, ...]) -> np.ndarray:
    """This thread's reusable float buffer for ``role``, viewed as ``shape``.

    One flat buffer per role and thread, reallocated only when a larger one
    is needed; the view covers its first prod(shape) elements.  It holds
    whatever its last user left, so every user writes it before reading.
    """
    size = math.prod(shape)
    buf = getattr(_SCRATCH, role, None)
    if buf is None or buf.size < size:
        buf = np.empty(size)
        setattr(_SCRATCH, role, buf)
    return buf[:size].reshape(shape)


def _target(q: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """The (v, m, *x) array an operator on the (v, m, *x) view ``q`` writes.

    A fresh one without ``out``.  ``out`` must be a C-contiguous float64
    array of q's shape that shares no memory with ``q``.
    """
    if out is None:
        return np.empty(q.shape)
    if out.shape != q.shape or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous float64 array of shape {q.shape}")
    if np.may_share_memory(out, q):
        raise ValueError("out shares memory with the input density")
    return out


def step_buffers(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """This thread's (v, m, *x) work buffer and a fresh result array for a step on ``p``.

    A step's sub-steps alternate between the two, each writing the one it
    did not read, and the last writes ``result``, which the step returns.
    """
    shape = vmx(p).shape
    return _scratch("work", shape), np.empty(shape)


# ---------------------------------------------------------------------------
# Turning
# ---------------------------------------------------------------------------

@dataclass
class TurningTensors:
    """Precomputed quadrature arrays for the separable turning operator.

    Every turning family is T(v, v', m) = lambda(m) * K(v, v'), so
    ``gain[k, k'] = w_k' * K(v_k, v_k')`` is one (V, V) matrix, ``lam``
    (G,) holds lambda on each lambda-cell g (an m-cell, or an x-cell of the
    reduced model, in the order of the (v, m, *x) view), and ``loss[g, k] =
    lam[g] * sum_k' w_k' * K(v_k', v_k)`` (G, V) is the outflux rate.
    One explicit Euler step on cell g is p_g <- A_g @ p_g,
    A_g = diag(1 - dt*loss[g]) + dt*lam[g]*gain.
    """

    gain: np.ndarray
    lam: np.ndarray
    loss: np.ndarray

    @classmethod
    def build(cls, spec: ModelSpec, grid: PhaseGrid,
              m: np.ndarray | None = None) -> "TurningTensors":
        """Tensors with lambda evaluated at ``m``, raveled to one entry per lambda-cell.

        The default is the m-cell centers; the reduced model passes
        m0(S(x)), one state per x-cell of its single m-cell.
        """
        ker, w = spec.turning.kernel_matrix(grid), grid.weights
        lam = np.ravel(spec.turning.frequency(grid.m_centers if m is None else m))
        return cls(gain=ker * w[None, :], lam=lam, loss=np.multiply.outer(lam, w @ ker))


def turning_apply(p: np.ndarray, spec: ModelSpec, grid: PhaseGrid, dt: float,
                  tensors: TurningTensors | None = None,
                  out: np.ndarray | None = None) -> np.ndarray:
    """One explicit Euler step of the velocity-jump operator.

    One batched (G, V, V) product of the matrices A_g (``TurningTensors``)
    of the G lambda-cells with the (g, v, rest) view of the (v, m, *x)
    density, written into ``out`` (see ``_target``).  Positivity needs dt
    below the inverse of the largest total outflux rate (at most
    V_d * turning_cap): then every entry of every A_g is >= 0, so each
    output is a sum of non-negative products; w @ A_g = w for the velocity
    weights w, so mass moves only by round-off.
    """
    tensors = tensors or TurningTensors.build(spec, grid)
    max_loss = tensors.loss.max()
    if dt * max_loss > 1.0 + CFL_SLACK:
        raise CflViolation(
            f"turning step dt = {dt} exceeds positivity bound {1.0 / max_loss}")
    q = vmx(p)
    res = _target(q, out)
    n_v, n_g = len(q), tensors.lam.size
    a = (dt * tensors.lam.reshape(n_g, 1, 1)) * tensors.gain
    a[:, range(n_v), range(n_v)] += 1.0 - dt * tensors.loss
    np.matmul(a, np.ascontiguousarray(q).reshape(n_v, n_g, -1).transpose(1, 0, 2),
              out=res.reshape(n_v, n_g, -1).transpose(1, 0, 2))
    return xvm(res)


# ---------------------------------------------------------------------------
# Transport
# ---------------------------------------------------------------------------

def _upwind(dst: np.ndarray, slab: np.ndarray, axis: int, cmag: float, sign: int,
            periodic: bool) -> None:
    """cmag * each cell's upwind neighbour on ``axis`` (flow direction ``sign``) into dst.

    One contiguous product over the flattened (m, *x) slab, offset by the
    axis's stride, then the boundary plane (the cells entered from outside
    the grid) is overwritten: with what wraps into it on a periodic grid,
    and with -0.0 on a free grid, where nothing enters.  -0.0 + a == a for
    every a, -0.0 included, so adding the plane changes no bit there.
    """
    stride = math.prod(slab.shape[axis + 1:])
    planes = (math.prod(slab.shape[:axis]), slab.shape[axis], stride)
    flat_src, flat_dst = slab.reshape(-1), dst.reshape(-1)
    if sign > 0:
        np.multiply(flat_src[:-stride], cmag, out=flat_dst[stride:])
        edge, wrap = 0, -1
    else:
        np.multiply(flat_src[stride:], cmag, out=flat_dst[:-stride])
        edge, wrap = -1, 0
    boundary = dst.reshape(planes)[:, edge]
    if periodic:
        np.multiply(slab.reshape(planes)[:, wrap], cmag, out=boundary)
    else:
        boundary[...] = -0.0


def transport_apply(p: np.ndarray, grid: PhaseGrid, dt: float,
                    out: np.ndarray | None = None) -> np.ndarray:
    """First-order corner-transport upwind x-transport, one step for every velocity node.

    Each velocity moves by one 1-d upwind sweep per axis it moves on, in
    axis order (corner-transport upwind: Colella, JCP 87, 1990; LeVeque,
    *Finite Volume Methods for Hyperbolic Problems*, ch. 20).  A sweep with
    Courant number c is the convex combination (1 - |c|) * cell + |c| *
    upwind neighbour, so positivity holds while every per-axis |c| is at
    most one; mass is conserved exactly on periodic grids, and truncated
    grids lose only outflow through the boundary.  The sweeps are
    constant-coefficient shifts, so they commute up to round-off, and a
    velocity that moves on one axis gets the plain 1-d upwind step.

    Each velocity's (m, *x) slab of the (v, m, *x) view is contiguous and
    shifts as a whole (``_upwind``).  The first sweep writes the output
    slab (the shift, then the kept fraction of the input added); each
    later sweep puts its shift of that output in the ``slab`` scratch,
    scales the output by its kept fraction and adds the shift.  A velocity
    that moves on no axis keeps its slab.  ``out`` is checked by
    ``_target``, and every velocity's CFL before anything is written.
    """
    periodic = grid.x_topology == "periodic"
    courants = grid.velocities * dt / grid.dx
    for k, c in enumerate(courants):
        if np.max(np.abs(c)) > 1.0 + CFL_SLACK:
            raise CflViolation(
                f"transport step dt = {dt} exceeds dx/|v_i| for velocity node {k}")
    q = np.ascontiguousarray(vmx(p))
    res = _target(q, out)
    shifted = _scratch("slab", q.shape[1:])
    for slab, c_k, res_k in zip(q, courants, res):
        moved = False
        for axis, c in enumerate(c_k):
            if c == 0.0:
                continue
            cmag = min(abs(float(c)), 1.0)
            sign = 1 if c > 0 else -1
            if moved:
                _upwind(shifted, res_k, 1 + axis, cmag, sign, periodic)
                res_k *= 1.0 - cmag
                res_k += shifted
            else:
                _upwind(res_k, slab, 1 + axis, cmag, sign, periodic)
                res_k += np.multiply(slab, 1.0 - cmag, out=shifted)
                moved = True
        if not moved:
            np.copyto(res_k, slab)
    return xvm(res)


# ---------------------------------------------------------------------------
# Stiff adaptation in m
# ---------------------------------------------------------------------------

def adaptation_feet(s: np.ndarray, spec: ModelSpec, grid: PhaseGrid,
                    dt: float) -> np.ndarray:
    """m-edges pulled back over dt along the exact flow, clipped to [0, m_max].

    Edge-major, shape (m_nodes + 1, X) over the X flattened x-cells, and
    non-decreasing along the edge axis bit for bit: the exact flow is
    monotone, and ``np.maximum.accumulate`` repairs a rounding inversion
    when a comparison of consecutive edges finds one.
    """
    s = np.asarray(s, dtype=float).ravel()
    feet = spec.adaptation.pull_back(grid.m_edges[:, None], s, dt / spec.epsilon)
    np.clip(feet, 0.0, grid.m_max, out=feet)
    if np.any(feet[1:] < feet[:-1]):
        np.maximum.accumulate(feet, axis=0, out=feet)
    return feet


@dataclass(frozen=True)
class AdaptationPlan:
    """Where the feet of one adaptation step fall, shared by its two uses.

    The foot of m-edge e above x-cell x lies in m-cell idx[e, x], a
    fraction ``frac[e, x]`` (shape (M+1, X)) of a cell past its start.
    ``gather[e, x]`` (same shape) is the flat index idx*X + x of that foot
    into one velocity's (m, x) slab; all velocities share it.  Nothing of
    shape (V, M+1, X) is kept.  ``min_cell[e]`` and ``max_cell[e]`` (shape
    (M+1,)) are the lowest and highest idx[e, x] over x.  Every column's
    feet are non-decreasing, so both are too, and ``np.searchsorted`` on
    them finds the edges whose feet reach a band of m-rows.
    """

    frac: np.ndarray
    gather: np.ndarray
    min_cell: np.ndarray
    max_cell: np.ndarray


def adaptation_plan(s: np.ndarray, spec: ModelSpec, grid: PhaseGrid,
                    dt: float) -> AdaptationPlan:
    """Check the rate's sign at the m-truncation and locate the feet over dt.

    Depends only on the frozen signal and dt, so one plan serves both
    adaptation half steps of a macro step.
    """
    if not np.all(np.isfinite(s)):
        raise NonFiniteInput("adaptation signal holds NaN or infinite values")
    f_ends = np.asarray(spec.adaptation_rate(np.array([0.0, grid.m_max]),
                                             np.asarray(s)[..., None]))
    if np.any(f_ends[..., 1] >= 0.0):
        raise SpecViolation(
            "adaptation rate is non-negative at m_max; the m-truncation is too small "
            f"(max rate at m_max = {float(f_ends[..., 1].max()):.6g})")
    if np.any(f_ends[..., 0] <= 0.0):
        raise SpecViolation("adaptation rate is non-positive at m = 0")

    u = adaptation_feet(s, spec, grid, dt)
    u /= grid.dm
    n_m, n_x = grid.m_nodes, u.shape[1]
    # The m-cell of each foot as a float, an exact integer, so frac = u - cell
    # and the flat index cell*X + x (exact below 2**53) are the bits an
    # integer index gives.
    cell = np.floor(u)
    np.minimum(cell, n_m - 1, out=cell)
    frac = np.subtract(u, cell, out=u)
    np.minimum(frac, 1.0, out=frac)
    min_cell, max_cell = cell.min(axis=1), cell.max(axis=1)
    cell *= n_x
    cell += np.arange(n_x)
    return AdaptationPlan(frac=frac, gather=cell.astype(np.intp),
                          min_cell=min_cell.astype(np.intp), max_cell=max_cell.astype(np.intp))


def adaptation_apply(p: np.ndarray, s: np.ndarray, spec: ModelSpec, grid: PhaseGrid,
                     dt: float, plan: AdaptationPlan | None = None,
                     out: np.ndarray | None = None) -> np.ndarray:
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
    remap works on the (v, m, x) view, and only on the band of m-rows
    [lo, hi) that holds mass.  It is every row when the first and the last
    row hold mass; otherwise one ``any`` over the density finds it.  Either
    way NaN, inf and negative cells count as held.  The prefix sums fill the
    output buffer (``out``, see ``_target``), one add of whole (v, x) rows
    per m-cell of the band; below it cum is 0.0, and above it a copy of
    cum[hi].  These are the bits of the sum over every row: x + (+-0.0) = x
    for every x but -0.0, and a sum that starts at +0.0 is never -0.0.
    Two ``searchsorted`` calls on the plan's per-edge bounds give the edges
    with a foot in the band or next to it.  One velocity at a time then
    gathers at those edges' feet, through the plan's one index, into two
    per-thread scratch buffers sized to them (the plan keeps every index in
    range, so ``mode="clip"``, which gathers without an internal copy,
    never clips), and overwrites its own (m, x) slab there with the
    differences, which only that velocity reads.  Every other row is +0.0,
    as in the full remap: both of its edges interpolate 0.0 below the band,
    or the column total above it.
    """
    if plan is None:
        plan = adaptation_plan(s, spec, grid, dt)
    n_v, n_m = grid.n_v, grid.m_nodes
    res = _target(vmx(p), out)
    q = np.ascontiguousarray(vmx(p)).reshape(n_v, n_m, -1)
    # When both end rows hold mass the band is every row: skip the scan,
    # which there costs more than the band saves.
    if q[:, 0].any() and q[:, -1].any():
        lo, hi = 0, n_m
    else:
        held = np.flatnonzero(q.any(axis=(0, 2)))
        lo, hi = (int(held[0]), int(held[-1]) + 1) if held.size else (0, 0)
    cum = res.reshape(q.shape)
    cum_rows = cum.swapaxes(0, 1)
    cum_rows[:lo + 1] = 0.0
    for prev, row, nxt in zip(cum_rows[lo:hi], q.swapaxes(0, 1)[lo:hi], cum_rows[lo + 1:]):
        np.add(prev, row, out=nxt)
    if hi < n_m - 1:
        # From a copy of the row: numpy resolves the overlap of the row with
        # the rows above it by copying the whole broadcast source first.
        cum_rows[hi + 1:] = cum_rows[hi].copy()
    # Edges [first, last] are the ones with a foot in the band or next to it.
    first = max(int(np.searchsorted(plan.max_cell, lo)) - 1, 0)
    last = min(int(np.searchsorted(plan.min_cell, hi)), n_m)
    at, frac = plan.gather[first:last + 1], plan.frac[first:last + 1]
    at_feet, gathered = _scratch("remap_cum", at.shape), _scratch("remap_p", at.shape)
    for cum_v, q_v in zip(cum, q):
        np.take(cum_v, at, mode="clip", out=at_feet)
        np.take(q_v, at, mode="clip", out=gathered)
        gathered *= frac
        at_feet += gathered
        np.subtract(at_feet[1:], at_feet[:-1], out=cum_v[first:last])
    cum[:, :first] = 0.0
    cum[:, last:] = 0.0
    return xvm(res)


# ---------------------------------------------------------------------------
# Macro stepping
# ---------------------------------------------------------------------------

@dataclass
class StepperState:
    """Full solver state: density, lagged signal, model, grid, counters.

    The spec must be certified (``ModelSpec.validate_on``): ``cfl_dt``
    divides by its turning cap.
    """

    field: DensityField
    signal: SignalField
    spec: ModelSpec
    grid: PhaseGrid
    tensors: TurningTensors
    mass0: float
    step_count: int = 0
    max_mass_defect: float = 0.0
    freeze_signal: bool = False

    def __post_init__(self):
        if not self.spec.certified:
            raise BadConfig("spec must be validated on a grid before stepping")

    @property
    def t(self) -> float:
        return self.field.t

    @classmethod
    def create(cls, grid: PhaseGrid, spec: ModelSpec, initial: InitialData,
               freeze_signal: bool = False) -> "StepperState":
        """The state at ``initial``, its signal solved from the initial density.

        A density that is already a C-contiguous float64 (v, m, *x) buffer
        (``build_initial`` builds one) is kept, not copied: no operator
        writes a density it was given or has returned (``macro_step``), so
        the state and ``initial`` can share it.  Any other density is
        copied into the layout (``in_layout``).
        """
        p0 = initial.p0
        signal = solve_signal(number_density(p0.values, grid), grid)
        q = vmx(p0.values)
        shared = q.flags.c_contiguous and q.dtype == np.float64
        return cls(
            field=DensityField(p0.values if shared else in_layout(p0.values), p0.t),
            signal=signal,
            spec=spec,
            grid=grid,
            tensors=TurningTensors.build(spec, grid),
            mass0=initial.mass,
            freeze_signal=freeze_signal,
        )

    def cfl_dt(self) -> float:
        """Largest macro step compatible with transport and turning CFLs.

        Transport's is dx over the largest per-axis speed (one upwind sweep
        per axis, ``transport_apply``).
        """
        dt_x = self.grid.dx / self.grid.max_speed if self.grid.max_speed > 0 else np.inf
        dt_turn = 1.0 / (self.grid.v_measure * self.spec.turning_cap)
        return min(dt_x, dt_turn)


def macro_step(state: StepperState, dt: float) -> StepperState:
    """One Strang-split macro step; returns a new state.

    The signal is frozen over the step and refreshed from the updated
    density afterwards (unless the state freezes it for oracle runs).  The
    sub-steps alternate between this thread's work buffer and ``result``,
    the step's one fresh array, which the new state keeps.
    """
    if dt <= 0:
        raise BadConfig(f"macro step dt must be positive, got {dt}")
    grid, spec = state.grid, state.spec
    s = state.signal.values

    plan = adaptation_plan(s, spec, grid, 0.5 * dt)
    # Allocated after the plan, so the plan's temporaries are already freed.
    work, result = step_buffers(state.field.values)
    p = adaptation_apply(state.field.values, s, spec, grid, 0.5 * dt, plan, out=result)
    p = turning_apply(p, spec, grid, 0.5 * dt, state.tensors, out=work)
    p = transport_apply(p, grid, dt, out=result)
    p = turning_apply(p, spec, grid, 0.5 * dt, state.tensors, out=work)
    p = adaptation_apply(p, s, spec, grid, 0.5 * dt, plan, out=result)
    return finish_step(state, p, dt)


def finish_step(state: StepperState, p: np.ndarray, dt: float) -> StepperState:
    """Close a step that produced density ``p``: check, refresh, account.

    Positivity is asserted on the result: a negative, NaN or infinite
    cell is a scheme bug, never something to clip.  The min catches the
    first two; a +inf cell of an otherwise non-negative density makes its
    column's n infinite.  The signal is then re-solved from ``p`` (unless
    the state freezes it) and the largest relative mass defect against
    ``mass0`` so far is kept.
    """
    grid = state.grid
    pmin = float(p.min())
    n = number_density(p, grid)
    if not (pmin >= 0.0 and np.all(np.isfinite(n))):  # NaN compares false
        raise PositivityError(
            f"negative or non-finite density (min {pmin:.3e}) after macro step "
            f"at t = {state.t + dt:.6g}")

    signal = state.signal if state.freeze_signal else solve_signal(n, grid)
    defect = (x_integral(n, grid) - state.mass0) / state.mass0 if state.mass0 else 0.0
    return replace(
        state,
        field=DensityField(p, state.t + dt),
        signal=signal,
        step_count=state.step_count + 1,
        max_mass_defect=max(state.max_mass_defect, abs(defect)),
    )


def run(state: StepperState, t_end: float, output_every: float,
        report: DiagnosticsReport | None = None, observer=None,
        step=None) -> tuple[StepperState, DiagnosticsReport | None]:
    """Advance to t_end with the largest CFL-safe step, capped per output.

    Each output interval is covered by an integer number of equal steps
    ``step(state, dt)`` (default ``macro_step``; the reduced model passes
    its own); the state's clock is snapped to the exact scheduled instant
    at every interval end so runs and restarts share bitwise-identical
    schedules.  A fresh run (no report, or a report with no rows) is
    observed at t_start, and every run at each output instant, by
    ``report.observe`` and then ``observer(state)``.  A schedule
    ``output_times`` refuses raises ``BadConfig`` before the first
    observation.  This thread's scratch buffers are freed when the run
    returns or raises.
    """
    step = macro_step if step is None else step
    times = output_times(state.t, t_end, output_every)
    if report is None or not report.rows:
        if report is not None:
            report.observe(state.field.values, state.signal.values, state.t)
        if observer is not None:
            observer(state)
    if t_end == state.t:
        return state, report

    dt_cap = state.cfl_dt()
    try:
        for t_next in times:
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
    finally:
        vars(_SCRATCH).clear()  # a finished run keeps no step-sized buffers
    return state, report
