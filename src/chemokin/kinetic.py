"""Advance the phase-space density by operator splitting.

One macro step is Strang-ordered with the stiff internal-state term
outermost: half adaptation, half turning, full transport, half turning,
half adaptation, then a signal refresh.  The signal is frozen within the
step, so the adaptation drift dm/dt = F(m, S(x))/eps has a closed-form
flow, and the adaptation half steps are one conservative remap along it:
no eps-CFL, and a cost independent of eps.  Both half steps share the
frozen signal and dt/2, so one plan (``adaptation_plan``: the feet of the
m-edges and the gather indices) serves both.  Every operator works on the
(v, m, *x) view of the density (``fields``): the remap's prefix sums and
gathers, turning's one batched (G, V, V) product per lambda-cell and
transport's per-velocity shifts run along contiguous x-rows, and each
returns a density in that layout, whatever the strides of its input.
Turning and transport are explicit and written in non-negative-coefficient
form, so positivity is preserved under their CFL bounds: under the turning
CFL every entry of each cell's (V, V) matrix is >= 0.  Every sub-operation
conserves the discrete mass up to round-off (periodic transport
telescopes, the turning integrand is antisymmetric under swapping the two
velocities, and the remap's cell masses telescope to the full m-integral
because the adaptation rate points inward at both ends of the truncated
m-interval).

A macro step allocates one density-sized array, its result, and never
writes a density it has returned.  The sub-steps run through that result
and one (v, m, *x) work buffer: each operator takes an optional ``out``,
the C-contiguous (v, m, *x) array to write, and allocates only without
one.  ``transport_apply`` may write in place (``out`` the buffer of its
input); turning and the remap read their input after writing ``out``, so
they refuse an ``out`` that shares memory with it.  The work buffer and
the operators' temporaries (the remap's gathers, transport's accumulator
and one (m, *x) slab for its shifted product) are per-thread scratch
(``_scratch``), reused from step to step, so the concurrent members of a
threaded eps study never share one.

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
#: Density elements (512 KiB) per block of x-cells in the adaptation
#: remap's gathers, so their temporaries stay in cache.
REMAP_BLOCK = 1 << 16

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


def _target(q: np.ndarray, out: np.ndarray | None, in_place: bool = False) -> np.ndarray:
    """The (v, m, *x) array an operator on the (v, m, *x) view ``q`` writes.

    A fresh one without ``out``.  ``out`` must be a C-contiguous float64
    array of q's shape that shares no memory with ``q``, unless
    ``in_place`` and it is the very same array.
    """
    if out is None:
        return np.empty(q.shape)
    if out.shape != q.shape or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous float64 array of shape {q.shape}")
    same = in_place and out.ctypes.data == q.ctypes.data and out.strides == q.strides
    if not same and np.may_share_memory(out, q):
        raise ValueError("out shares memory with the input density")
    return out


# ---------------------------------------------------------------------------
# Turning
# ---------------------------------------------------------------------------

@dataclass
class TurningTensors:
    """Precomputed quadrature arrays for the separable turning operator.

    Every turning family is T(v, v', m) = lambda(m) * K(v, v'), so
    ``gain[k, k'] = w_k' * K(v_k, v_k')`` is one (V, V) matrix scaled by
    ``freq = lambda(m)``, and ``loss[k, ...] = freq * sum_k' w_k' *
    K(v_k', v_k)``.  ``freq`` and ``loss`` broadcast against the (v, m, *x)
    view of the density; each entry of ``freq`` is one lambda-cell g (an
    m-cell, or an x-cell of the reduced model).  One explicit Euler step on
    cell g is p_g <- A_g @ p_g, A_g = diag(1 - dt*loss[:, g]) + dt*freq[g]*gain.
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

        The default, the m-cell centers, gives ``freq`` shape (M, 1, ...)
        and ``loss`` shape (V, M, 1, ...).  Any ``m`` that broadcasts
        against the (m, *x) axes of the density's (v, m, *x) view works: the
        reduced model passes m0(S(x))[None] for its single m-cell.
        """
        m = grid.m_centers.reshape((-1,) + (1,) * grid.dim) if m is None else m
        ker = spec.turning.kernel_matrix(grid)
        w = grid.weights
        freq = np.asarray(spec.turning.frequency(m), dtype=float)
        loss = (w @ ker).reshape((-1,) + (1,) * freq.ndim) * freq
        return cls(gain=ker * w[None, :], freq=freq, loss=loss)


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
    if dt * tensors.max_loss > 1.0 + CFL_SLACK:
        raise CflViolation(
            f"turning step dt = {dt} exceeds positivity bound {1.0 / tensors.max_loss}")
    q = vmx(p)
    res = _target(q, out)
    n_v, n_g = len(q), tensors.freq.size
    a = (dt * tensors.freq.reshape(n_g, 1, 1)) * tensors.gain
    a[:, range(n_v), range(n_v)] += 1.0 - dt * tensors.loss.reshape(n_v, n_g).T
    np.matmul(a, np.ascontiguousarray(q).reshape(n_v, n_g, -1).transpose(1, 0, 2),
              out=res.reshape(n_v, n_g, -1).transpose(1, 0, 2))
    return xvm(res)


# ---------------------------------------------------------------------------
# Transport
# ---------------------------------------------------------------------------

def _add_upwind(acc: np.ndarray, slab: np.ndarray, axis: int, cmag: float, sign: int,
                periodic: bool) -> None:
    """acc += cmag * the neighbour entering each cell for flow direction ``sign`` on ``axis``.

    On a free grid nothing enters the first cell downstream of the boundary.
    """
    def at(start, stop):
        index = [slice(None)] * slab.ndim
        index[axis] = slice(start, stop)
        return tuple(index)

    def add(dst, src):
        shifted = _scratch("slab", slab[src].shape)
        np.multiply(slab[src], cmag, out=shifted)
        acc[dst] += shifted

    last = slab.shape[axis] - 1
    if sign > 0:
        add(at(1, None), at(None, last))
        if periodic:
            add(at(0, 1), at(last, None))
    else:
        add(at(None, last), at(1, None))
        if periodic:
            add(at(last, None), at(0, 1))


def transport_apply(p: np.ndarray, grid: PhaseGrid, dt: float,
                    out: np.ndarray | None = None) -> np.ndarray:
    """First-order upwind x-transport, one step for every velocity node.

    Mass is conserved exactly on periodic grids; truncated grids lose only
    outflow through the boundary.  Positivity holds for per-axis Courant
    numbers summing to at most one.  Each velocity's (m, *x) slab of the
    (v, m, *x) view is contiguous and shifts as a whole.  A slab is read
    in full before its own output slab is written, so ``out`` may be the
    (v, m, *x) buffer of ``p`` itself; every velocity's CFL is checked
    before anything is written.
    """
    periodic = grid.x_topology == "periodic"
    courants = grid.velocities * dt / grid.dx
    for k, c in enumerate(courants):
        if np.sum(np.abs(c)) > 1.0 + CFL_SLACK:
            raise CflViolation(
                f"transport step dt = {dt} exceeds dx/|v| for velocity node {k}")
    q = vmx(p)
    res = _target(q, out, in_place=True)
    acc = _scratch("transport_acc", q.shape[1:])
    for k, slab in enumerate(q):
        stay = 1.0
        acc.fill(0.0)
        for axis, c in enumerate(courants[k]):
            if c == 0.0:
                continue
            cmag = min(abs(float(c)), 1.0)
            stay -= cmag
            _add_upwind(acc, slab, 1 + axis, cmag, 1 if c > 0 else -1, periodic)
        np.multiply(slab, max(stay, 0.0), out=res[k])
        res[k] += acc
    return xvm(res)


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

    The foot of m-edge e above x-cell x lies in m-cell idx[e, x], a
    fraction ``frac[e, x]`` (shape (M+1, X)) of a cell past its start.  The
    remap gathers over consecutive blocks of x-cells, REMAP_BLOCK // (V*M)
    cells each but the last.  ``gather[b]`` (shape (M+1, width of block b))
    holds the flat index idx*X + x of every foot of block b into one
    velocity's (m, x) slab; all velocities share it.  Nothing of shape
    (V, M+1, X) is kept.
    """

    frac: np.ndarray
    gather: tuple[np.ndarray, ...]


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

    n_x, n_m = int(np.prod(grid.x_shape)), grid.m_nodes
    feet = adaptation_feet(s, spec, grid, dt).reshape(n_x, n_m + 1)
    u = np.divide(feet.T, grid.dm, order="C")
    idx = np.minimum(np.floor(u), n_m - 1).astype(np.intp)
    frac = np.minimum(u - idx, 1.0)
    at = idx * n_x + np.arange(n_x)
    step = min(n_x, max(1, REMAP_BLOCK // (grid.n_v * n_m)))
    gather = tuple(np.ascontiguousarray(at[:, lo:lo + step]) for lo in range(0, n_x, step))
    return AdaptationPlan(frac=frac, gather=gather)


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
    remap works on the (v, m, x) view.  The prefix sums fill the output
    buffer (``out``, see ``_target``), one add of whole (v, x) rows per
    m-cell.  A block of x-cells at a time then gathers at its feet, every
    velocity through the block's one index, into two per-thread scratch
    buffers (the plan keeps every index in range, so ``mode="clip"``, which
    gathers without an internal copy, never clips), and overwrites its own
    x-columns with the differences, which only that block reads.
    """
    if plan is None:
        plan = adaptation_plan(s, spec, grid, dt)
    n_v, n_m = grid.n_v, grid.m_nodes
    res = _target(vmx(p), out)
    q = np.ascontiguousarray(vmx(p)).reshape(n_v, n_m, -1)
    cum = res.reshape(q.shape)
    cum_rows = cum.swapaxes(0, 1)
    cum_rows[0] = 0.0
    for prev, row, nxt in zip(cum_rows, q.swapaxes(0, 1), cum_rows[1:]):
        np.add(prev, row, out=nxt)
    lo = 0
    for at in plan.gather:
        hi = lo + at.shape[1]
        shape = (n_v,) + at.shape  # (v, edge, x)
        at_feet = np.take(cum.reshape(n_v, -1), at, axis=1, mode="clip",
                          out=_scratch("remap_cum", shape))
        gathered = np.take(q.reshape(n_v, -1), at, axis=1, mode="clip",
                           out=_scratch("remap_p", shape))
        gathered *= plan.frac[:, lo:hi]
        at_feet += gathered
        np.subtract(at_feet[:, 1:], at_feet[:, :-1], out=cum[:, :, lo:hi])
        lo = hi
    return xvm(res)


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
            field=DensityField(in_layout(p0.values), p0.t),
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
    shape = vmx(state.field.values).shape
    work, result = _scratch("work", shape), np.empty(shape)
    p = adaptation_apply(state.field.values, s, spec, grid, 0.5 * dt, plan, out=work)
    p = turning_apply(p, spec, grid, 0.5 * dt, state.tensors, out=result)
    p = transport_apply(p, grid, dt, out=result)
    p = turning_apply(p, spec, grid, 0.5 * dt, state.tensors, out=work)
    p = adaptation_apply(p, s, spec, grid, 0.5 * dt, plan, out=result)
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
    n = number_density(p, grid)
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
    schedules.  ``report.observe`` fires at t_start (fresh reports only)
    and at every output instant; ``observer(state)`` after each output.
    A schedule ``output_times`` refuses raises ``BadConfig`` before the
    first observation.  This thread's scratch buffers are freed when the
    run returns or raises.
    """
    step = macro_step if step is None else step
    times = output_times(state.t, t_end, output_every)
    if report is not None and not report.rows:
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
