"""Advance the phase-space density by operator splitting.

One macro step is Strang-ordered with the stiff internal-state term
outermost: half adaptation, half turning, full transport, half turning,
half adaptation, then a signal refresh.  The signal is frozen within the
step, so the adaptation drift dm/dt = F(m, S(x))/eps has a closed-form
flow, and the adaptation half steps are one conservative remap along it:
no eps-CFL, and a cost independent of eps.  Both half steps share the
frozen signal and dt/2, so one plan (``adaptation_plan``: where the feet
of the m-edges fall, computed edge-major by ``adaptation_feet``, and the
gather indices) serves both.  The band of m-rows a density holds travels
with it (``DensityField.band``): the step narrows its input's band once
(``held_band``, a scan inside it), before the plan, which locates only the
feet of the m-edges that band can reach, and every sub-step works on a
band: each operator takes the m-rows [lo, hi) outside which its input is
zero as ``band``, reads and writes only what those rows need, and leaves
the other rows of its output as they are, +0.0 in a step; the epilogue
sums pbar over the band too and stores it on the new field.  Band (0, M)
is every row, and zero rows add no bit to a sum along m, so every band
gives the bits of the same operator over every row.  Every operator works
on the (v, m, *x) view of the density (``fields``): the remap's gathers
and turning's one batched (G, V, V) product per lambda-cell run along
contiguous x-rows, the remap's prefix sums along the contiguous (v, *x)
m-rows of a buffer laid out (m, v, *x), each of transport's per-velocity,
per-axis shifts is one contiguous product over the flattened (m, *x) slab,
offset by the axis's stride, and each operator returns a density in that
layout, whatever the strides of its input.  Transport is corner-transport
upwind, one 1-d upwind sweep per axis, so its CFL bounds the largest
per-axis Courant number, not their sum.  Turning and transport are
explicit and written in non-negative-coefficient form, so positivity is
preserved under their CFL bounds: under the turning CFL every entry of
each cell's (V, V) matrix is >= 0, and under the transport CFL every sweep
is a convex combination.
Every sub-operation conserves the discrete mass up to round-off (periodic
transport telescopes, the turning integrand is antisymmetric under
swapping the two velocities, and the remap's cell masses telescope to the
full m-integral because the adaptation rate points inward at both ends of
the truncated m-interval).

A macro step allocates one density-sized array, its result, and never
writes a density it has returned.  The sub-steps alternate between that
result and one (v, m, *x) work buffer (``step_buffers``), each but the
last writing the buffer it did not read.  The remaps also take the other
buffer for their prefix sums, and the last sub-step, remap 2, overwrites
the result it reads (``macro_step``).  Each operator takes an optional
``out``, the C-contiguous (v, m, *x) array to write, allocates a
zero-filled one only without it, and refuses an ``out`` that shares
memory with its input, unless a remap is also given its prefix-sum
buffer.  The work buffer and
the operators' temporaries (the remap's two gathers, at most (M+1, X)
each, and one (m, *x) slab for transport's products) are per-thread
scratch (``_scratch``), reused from step to step, so two threads that step
at once never share one.

The turning and transport operators, the step epilogue (``finish_step``)
and the output scheduler (``run``) also serve the reduced model of
``limit``, a state on one m-cell, whose band is that one row.  The
epilogue takes the mass from the n it computes for the signal, the way
``fields.total_mass`` gave the initial mass, so a step that changes
nothing has zero defect, and the new field carries the pbar that n came
from, which the run's outputs read.
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
from .fields import (DensityField, SignalField, density_of_pbar, in_layout, pbar_of, vmx,
                     x_integral, xvm)
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


def _target(q: np.ndarray, out: np.ndarray | None, *, own: bool = False) -> np.ndarray:
    """The (v, m, *x) array an operator on the (v, m, *x) view ``q`` writes.

    A fresh zero-filled one without ``out``, so the rows outside the band
    an operator is given read +0.0.  ``out`` must be a C-contiguous float64
    array of q's shape that shares no memory with ``q``; with ``own`` it
    may also be q's own buffer (a remap given its prefix-sum buffer).
    """
    if out is None:
        return np.zeros(q.shape)
    if out.shape != q.shape or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous float64 array of shape {q.shape}")
    if np.may_share_memory(out, q) and not (
            own and q.flags.c_contiguous and q.dtype == out.dtype
            and q.ctypes.data == out.ctypes.data):
        raise ValueError("out shares memory with the input density")
    return out


def step_buffers(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """This thread's (v, m, *x) work buffer and a fresh result array for a step on ``p``.

    A step's sub-steps alternate between the two, each writing the one it
    did not read, and the last writes ``result``, which the step returns.
    Neither starts zeroed: every row of ``result`` that no sub-step writes
    is set to +0.0 by the step itself (``macro_step``).
    """
    shape = vmx(p).shape
    return _scratch("work", shape), np.empty(shape)


def held_band(p: np.ndarray, band: tuple[int, int]) -> tuple[int, int]:
    """The band [lo, hi) of m-rows of density ``p`` that holds anything but zeros.

    ``band`` is the caller's promise that ``p`` is zero outside those rows
    (``DensityField.band``), so only they are scanned.  The band itself
    when its first and last row hold something: the scan costs more there
    than the narrowing saves.  Otherwise one ``any`` over the band's rows
    finds it, and an empty density gives (0, 0).  Either way NaN, inf and
    negative cells count as held.
    """
    lo, hi = band
    q = np.ascontiguousarray(vmx(p))
    q = q.reshape(q.shape[0], q.shape[1], -1)[:, lo:hi]
    if hi > lo and q[:, 0].any() and q[:, -1].any():
        return lo, hi
    held = np.flatnonzero(q.any(axis=0).any(axis=1))
    return (lo + int(held[0]), lo + int(held[-1]) + 1) if held.size else (0, 0)


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


def turning_apply(p: np.ndarray, tensors: TurningTensors, dt: float,
                  out: np.ndarray | None = None, *, band: tuple[int, int]) -> np.ndarray:
    """One explicit Euler step of the velocity-jump operator.

    One batched (G, V, V) product of the matrices A_g (``TurningTensors``)
    of the G lambda-cells with the (g, v, rest) view of the (v, m, *x)
    density, written into ``out`` (see ``_target``).  Positivity needs dt
    below the inverse of the largest total outflux rate (at most
    V_d * turning_cap): then every entry of every A_g is >= 0, so each
    output is a sum of non-negative products; w @ A_g = w for the velocity
    weights w, so mass moves only by round-off.

    ``band`` = (lo, hi) is the caller's promise that ``p`` is zero and
    ``out`` +0.0 outside m-rows [lo, hi) (``macro_step``; (0, 1) on the
    reduced model's one m-cell).  Only the lambda-cells of those rows are
    multiplied, and the other rows of ``out`` are left as they are, which
    is what the step over every row writes there.  Each cell's product is
    the same in every band that holds it.
    """
    max_loss = tensors.loss.max()
    if not dt * max_loss <= 1.0 + CFL_SLACK:  # NaN fails it too
        raise CflViolation(
            f"turning step dt = {dt} exceeds positivity bound {1.0 / max_loss}")
    q = vmx(p)
    res = _target(q, out)
    n_v, n_m, n_g = len(q), q.shape[1], tensors.lam.size
    # The lambda-cells are consecutive blocks of the flattened (m, *x) slab,
    # so m-rows [lo, hi) are the cells [lo, hi) * G / M.
    lo, hi = band[0] * n_g // n_m, band[1] * n_g // n_m
    a = (dt * tensors.lam[lo:hi].reshape(-1, 1, 1)) * tensors.gain
    a.reshape(-1, n_v * n_v)[:, ::n_v + 1] += 1.0 - dt * tensors.loss[lo:hi]  # the diagonals
    np.matmul(a, np.ascontiguousarray(q).reshape(n_v, n_g, -1)[:, lo:hi].transpose(1, 0, 2),
              out=res.reshape(n_v, n_g, -1)[:, lo:hi].transpose(1, 0, 2))
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
                    out: np.ndarray | None = None, *, band: tuple[int, int]) -> np.ndarray:
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

    ``band`` = (lo, hi) is the caller's promise that ``p`` is zero and
    ``out`` +0.0 outside m-rows [lo, hi) (``macro_step``).  Each slab is
    cut to those rows, still one contiguous block, and the other rows of
    ``out`` are left as they are.  The sweeps act along x only, so each
    cell gets the bits it gets in every band that holds it.
    """
    periodic = grid.x_topology == "periodic"
    courants = grid.velocities * dt / grid.dx
    over = np.flatnonzero(~(np.abs(courants).max(axis=1) <= 1.0 + CFL_SLACK))  # NaN too
    if over.size:
        raise CflViolation(
            f"transport step dt = {dt} exceeds dx/|v_i| for velocity node {over[0]}")
    q = np.ascontiguousarray(vmx(p))
    res = _target(q, out)
    lo, hi = band
    shifted = _scratch("slab", q.shape[1:])[lo:hi]
    for slab, c_k, res_k in zip(q[:, lo:hi], courants, res[:, lo:hi]):
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

def adaptation_feet(s: np.ndarray, spec: ModelSpec, grid: PhaseGrid, dt: float,
                    edges: slice = slice(None)) -> np.ndarray:
    """The m-edges ``edges`` (every edge by default) pulled back over dt along
    the exact flow, clipped to [0, m_max].

    Edge-major, shape (edges, X) over the X flattened x-cells, and
    non-decreasing along the edge axis bit for bit: the exact flow is
    monotone, and ``np.maximum.accumulate`` repairs a rounding inversion
    when a comparison of consecutive edges finds one.
    """
    s = np.asarray(s, dtype=float).ravel()
    feet = spec.adaptation.pull_back(grid.m_edges[edges, None], s, dt / spec.epsilon)
    np.clip(feet, 0.0, grid.m_max, out=feet)
    if np.any(feet[1:] < feet[:-1]):
        np.maximum.accumulate(feet, axis=0, out=feet)
    return feet


@dataclass(frozen=True)
class AdaptationPlan:
    """Where the feet of one adaptation step fall, shared by its two uses.

    The plan covers the m-edges [first_edge, first_edge + E) of the
    ``m_nodes`` + 1: every edge, or the window a band needs
    (``adaptation_plan``); row e of each array is edge first_edge + e.
    That edge's foot above x-cell x lies in m-cell idx[e, x], a fraction
    ``frac[e, x]`` (shape (E, X)) of a cell past its start.  Two flat
    indices (same shape) locate the foot, and all velocities share both:
    ``gather`` = idx*X + x into one velocity's (m, x) slab of the density,
    and ``gather_sums`` = idx*V*X + x into the remap's (m, v, x) prefix-sum
    buffer, read from that velocity's offset v*X.  Nothing of shape
    (V, E, X) is kept.  ``min_cell[e]`` and ``max_cell[e]`` (shape (E,))
    are the lowest and highest idx[e, x] over x.  Every column's feet are
    non-decreasing, so both are too, and ``np.searchsorted`` on them finds
    the edges whose feet reach a band of m-rows (``reach``).
    """

    first_edge: int
    m_nodes: int
    frac: np.ndarray
    gather: np.ndarray
    gather_sums: np.ndarray
    min_cell: np.ndarray
    max_cell: np.ndarray

    def reach(self, band: tuple[int, int]) -> tuple[int, int]:
        """The output rows [first, last) a remap of a density held in m-rows ``band`` can fill.

        Edges [first, last] are the ones with a foot in the band or next to
        it.  Every other output row is 0.0: both of its edges' feet lie
        below the band in every column, where the prefix sum is 0.0, or
        above it, where it is the column total.  The rows are absolute.
        The searches see only the plan's edges, so one that stops at an end
        of a window short of that end of the m-grid cannot tell whether the
        edges beyond it reach the band too: that is a ``SpecViolation``,
        never a silently wider reach.
        """
        lo, hi = band
        start, n_edges = self.first_edge, len(self.min_cell)
        below = int(np.searchsorted(self.max_cell, lo))
        above = int(np.searchsorted(self.min_cell, hi))
        # below <= above: an edge's max_cell is below lo only if its min_cell is below hi.
        if (start > 0 and below == 0) or (start + n_edges <= self.m_nodes and above == n_edges):
            raise SpecViolation(
                f"m-rows {band} reach past the plan's m-edges [{start}, {start + n_edges - 1}]: "
                "the adaptation flow carries an edge across m0(S)")
        return max(start + below - 1, 0), min(start + above, self.m_nodes)


def adaptation_plan(s: np.ndarray, spec: ModelSpec, grid: PhaseGrid, dt: float, *,
                    band: tuple[int, int]) -> AdaptationPlan:
    """Check the rate's sign at the m-truncation and locate the feet over dt.

    Depends only on the frozen signal and dt, so one plan serves both
    adaptation half steps of a macro step.  A non-finite dt or signal is
    refused before any foot is cast to an index.

    Given the m-rows ``band`` = [lo, hi) that hold the step's input, the
    plan covers the edges [w0, w1]: the hull of the band's edges and of
    the m-cells of m0(S(x)) over x, widened by 2 edges and clipped to
    [0, M].  Both rate families move every path monotonically toward m0
    without crossing it, so an edge below the band and every m0 has its
    foot below itself, and an edge above both has its foot above itself:
    ``reach(band)`` (remap 2's rows) and ``reach(reach(band))`` (the
    epilogue's) stay inside the window, and ``reach`` raises if a flow
    breaks that.  Band (0, M) gives every edge, and each foot in a window
    gets the bits it gets there.
    """
    if not math.isfinite(dt):
        raise NonFiniteInput(f"adaptation step dt = {dt} is not finite")
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

    n_m = grid.m_nodes
    m0 = spec.adaptation.equilibrium(np.asarray(s, dtype=float))
    w0 = max(min(band[0], math.floor(float(m0.min()) / grid.dm)) - 2, 0)
    w1 = min(max(band[1], math.floor(float(m0.max()) / grid.dm) + 1) + 2, n_m)
    u = adaptation_feet(s, spec, grid, dt, slice(w0, w1 + 1))
    u /= grid.dm
    n_x = u.shape[1]
    # The m-cell of each foot.  It converts to float64 exactly, so frac = u - cell
    # has the bits a float cell gives; the flat indices are built in place, and
    # ``gather`` is the only other array of the plan's size.
    cell = np.floor(u).astype(np.intp)
    np.minimum(cell, n_m - 1, out=cell)
    frac = np.subtract(u, cell, out=u)
    np.minimum(frac, 1.0, out=frac)
    min_cell, max_cell = cell.min(axis=1), cell.max(axis=1)
    x = np.arange(n_x)
    gather = cell * n_x
    gather += x
    cell *= grid.n_v * n_x
    cell += x
    return AdaptationPlan(first_edge=w0, m_nodes=n_m, frac=frac, gather=gather,
                          gather_sums=cell, min_cell=min_cell, max_cell=max_cell)


def adaptation_apply(p: np.ndarray, s: np.ndarray, spec: ModelSpec, grid: PhaseGrid,
                     dt: float, plan: AdaptationPlan | None = None,
                     out: np.ndarray | None = None, *, band: tuple[int, int],
                     sums: np.ndarray | None = None) -> np.ndarray:
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

    ``band`` = (lo, hi) is the caller's promise that ``p`` is zero outside
    m-rows [lo, hi).  ``plan`` is ``adaptation_plan(s, spec, grid, dt,
    band=...)`` for that band or a wider one, built here for ``band`` when
    not given; ``macro_step`` builds one per step for both half steps.  The
    plan's ``reach`` gives the output rows [first, last) and the edges
    whose feet it gathers at.

    The prefix sums run in ``sums``, a C-contiguous float64 buffer of the
    density's size laid out (m, v, x), so each m-row is one contiguous V*X
    block (this thread's work scratch when not given).  The band's rows of
    p are copied there one row up, and the sum of the rows below is added
    to each in place: the adds of the sum over every row, in the same
    order, starting from +0.0.  Below the band cum is 0.0, and above hi a copy of
    cum[hi], written only in the rows the gathers read.  These are the bits
    of the sum over every row: x + (+-0.0) = x for every x but -0.0, and a
    sum that starts at +0.0 is never -0.0.  One velocity at a time then
    gathers cum through ``gather_sums`` from its offset into the flat
    buffer and p through ``gather``, into two per-thread scratch buffers
    sized to the edges (the plan keeps every index in range, so
    ``mode="clip"``, which gathers without an internal copy, never clips),
    and writes the differences into its own (m, x) slab of the output,
    rows [first, last).  The band's other output rows are set to +0.0, and
    every other row of ``out`` is left as it is: what the remap over every
    row writes there, +0.0, only if the caller has it so.  Without ``out``
    the result is a fresh zero-filled array.

    ``out`` is checked by ``_target``; given ``sums``, it may be p's own
    (v, m, x) buffer, which the remap then overwrites in place: each
    velocity's slab is gathered before it is overwritten, and only that
    velocity reads it.  ``sums`` may share no memory with ``p`` or ``out``.
    """
    if plan is None:
        plan = adaptation_plan(s, spec, grid, dt, band=band)
    n_v, n_m = grid.n_v, grid.m_nodes
    res = _target(vmx(p), out, own=sums is not None)
    q = np.ascontiguousarray(vmx(p)).reshape(n_v, n_m, -1)
    n_x = q.shape[2]
    if sums is None:
        sums = _scratch("work", q.shape)
    elif sums.size != q.size or sums.dtype != np.float64 or not sums.flags.c_contiguous:
        raise ValueError(f"sums must be a C-contiguous float64 array of {q.size} values")
    if np.may_share_memory(sums, res) or np.may_share_memory(sums, p):
        raise ValueError("sums shares memory with the input density or out")
    lo, hi = band
    first, last = plan.reach(band)
    e0, e1 = first - plan.first_edge, last - plan.first_edge  # the plan's rows of both edges
    # cum is needed in rows [bottom, top], from the lowest foot to the highest:
    # bottom <= lo, and top >= hi unless the band reaches row M-1.
    bottom, top = int(plan.min_cell[e0]), int(plan.max_cell[e1])
    cum = sums.reshape(n_m, n_v, n_x)
    cum[bottom:lo + 1] = 0.0
    summed = min(hi, n_m - 1)  # the top row the band's sums fill
    np.copyto(cum[lo + 1:summed + 1], q[:, lo:summed].swapaxes(0, 1))
    for prev, row in zip(cum[lo:summed], cum[lo + 1:summed + 1]):
        np.add(prev, row, out=row)
    if hi < top:
        # From a copy of the row: numpy resolves the overlap of the row with
        # the rows above it by copying the whole broadcast source first.
        cum[hi + 1:top + 1] = cum[hi].copy()
    at, at_sums, frac = (a[e0:e1 + 1] for a in (plan.gather, plan.gather_sums, plan.frac))
    at_feet, gathered = _scratch("remap_cum", at.shape), _scratch("remap_p", at.shape)
    flat_sums, rows = sums.reshape(-1), res.reshape(q.shape)
    for v, (q_v, rows_v) in enumerate(zip(q, rows)):
        np.take(flat_sums[v * n_x:], at_sums, mode="clip", out=at_feet)
        np.take(q_v, at, mode="clip", out=gathered)
        gathered *= frac
        at_feet += gathered
        np.subtract(at_feet[1:], at_feet[:-1], out=rows_v[first:last])
    rows[:, lo:first] = 0.0
    rows[:, last:hi] = 0.0
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
        copied into the layout (``in_layout``).  The field carries the pbar
        the signal solve read.
        """
        p0 = initial.p0
        pbar = pbar_of(p0.values, grid)
        signal = solve_signal(density_of_pbar(pbar, grid), grid)
        q = vmx(p0.values)
        shared = q.flags.c_contiguous and q.dtype == np.float64
        return cls(
            field=DensityField(p0.values if shared else in_layout(p0.values), p0.t, pbar),
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

    The step narrows the band its input's field carries once
    (``held_band``), before the plan, whose edges it bounds.  Remap 1
    prefix-sums in ``result`` and writes the work buffer, where it can fill
    only the rows the plan's ``reach`` gives for it, band1; ``result``'s
    other rows are then set to +0.0.  Turning 1 (work -> result), transport
    (result -> work) and turning 2 (work -> result) work on band1, and
    remap 2 prefix-sums in the work buffer and remaps ``result`` in place,
    on band1 too; the work buffer's rows outside band1 are never read.  The
    epilogue sums pbar over the rows remap 2 can fill, which the new field
    carries as its band.  Every band holds all the mass of its density, so
    each sub-step gives the bits it gives over every row.  A ``dt`` that is
    not finite and positive is a ``BadConfig``.
    """
    if not 0.0 < dt < math.inf:  # NaN fails it too
        raise BadConfig(f"macro step dt must be finite and positive, got {dt}")
    grid, spec = state.grid, state.spec
    s = state.signal.values

    band = held_band(state.field.values, state.field.band)
    plan = adaptation_plan(s, spec, grid, 0.5 * dt, band=band)
    # Allocated after the plan, so the plan's temporaries are already freed.
    work, result = step_buffers(state.field.values)
    p = adaptation_apply(state.field.values, s, spec, grid, 0.5 * dt, plan, out=work,
                         band=band, sums=result)
    band = plan.reach(band)
    result_rows = result.reshape(grid.n_v, grid.m_nodes, -1)
    result_rows[:, :band[0]] = 0.0
    result_rows[:, band[1]:] = 0.0
    p = turning_apply(p, state.tensors, 0.5 * dt, out=result, band=band)
    p = transport_apply(p, grid, dt, out=work, band=band)
    p = turning_apply(p, state.tensors, 0.5 * dt, out=result, band=band)
    p = adaptation_apply(p, s, spec, grid, 0.5 * dt, plan, out=result, band=band, sums=work)
    return finish_step(state, p, dt, band=plan.reach(band))


def finish_step(state: StepperState, p: np.ndarray, dt: float, *,
                band: tuple[int, int]) -> StepperState:
    """Close a step that produced density ``p``: check, refresh, account.

    Positivity is asserted on the result: a negative, NaN or infinite
    cell is a scheme bug, never something to clip.  The min, over every
    cell of ``p``, catches the first two wherever a sub-step left them; a
    +inf cell of an otherwise non-negative density makes its column's n
    infinite.  n comes from pbar, summed over the m-rows ``band`` only
    (the caller's promise that ``p`` is +0.0 outside them; see
    ``fields.pbar_of``), and the new field carries that pbar for the
    run's outputs and that band for the next step.  The signal is then
    re-solved from n (unless the state freezes it) and the largest
    relative mass defect against ``mass0`` so far is kept.
    """
    grid = state.grid
    pmin = float(p.min())
    pbar = pbar_of(p, grid, band)
    n = density_of_pbar(pbar, grid)
    if not (pmin >= 0.0 and np.all(np.isfinite(n))):  # NaN compares false
        raise PositivityError(
            f"negative or non-finite density (min {pmin:.3e}) after macro step "
            f"at t = {state.t + dt:.6g}")

    signal = state.signal if state.freeze_signal else solve_signal(n, grid)
    defect = (x_integral(n, grid) - state.mass0) / state.mass0 if state.mass0 else 0.0
    return replace(
        state,
        field=DensityField(p, state.t + dt, pbar, band),
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
    observed at t_start, and every run at each output instant, by one
    helper: ``report.observe`` (given the pbar the state's field carries)
    and then ``observer(state)``.  Each step is given its state without that
    pbar, which only outputs read, and with its band.  A schedule
    ``output_times`` refuses raises ``BadConfig`` before the first
    observation.  This thread's scratch buffers are freed when the run
    returns or raises.
    """
    step = macro_step if step is None else step

    def output(st: StepperState) -> None:
        if report is not None:
            report.observe(st.field.values, st.signal.values, st.t, pbar=st.field.pbar)
        if observer is not None:
            observer(st)

    times = output_times(state.t, t_end, output_every)
    if report is None or not report.rows:
        output(state)
    if t_end == state.t:
        return state, report

    dt_cap = state.cfl_dt()
    try:
        for t_next in times:
            span = t_next - state.t
            n_steps = max(1, math.ceil(span / dt_cap - 1e-9))
            dt = span / n_steps
            for _ in range(n_steps):
                # Only outputs read a field's pbar: dropping it here lets the
                # step free it, so a step holds its own pbar only.
                state = replace(state, field=replace(state.field, pbar=None))
                state = step(state, dt)
            state = replace(state, field=replace(state.field, t=t_next))
            output(state)
    finally:
        vars(_SCRATCH).clear()  # a finished run keeps no step-sized buffers
    return state, report
