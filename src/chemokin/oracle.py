"""Independent reference solvers for frozen-signal linear problems.

With the signal held fixed, the transport/adaptation/turning equation is
linear and can be integrated along characteristics: positions stream
affinely, the internal state follows its relaxation ODE, and the density
satisfies an integral identity whose right-hand side collects the
slope-damping term and the turning gain/loss.  Discretized by the
trapezoid rule on a time grid, the identity is a Volterra system: node
tau_l reads only nodes tau_l' <= tau_l.  It is solved by a forward march,
one node at a time, and each node, once solved, is checked against its row
of the Picard map of the same quadrature, which reuses the integrands the
march evaluated (P. Linz, Analytical and Numerical Methods for Volterra
Equations, SIAM 1985).  The kinetic stepper is cross-validated against
this solver; two independent routes agreeing under refinement is the
numerical stand-in for uniqueness.

The signal does not change in time, so the backward characteristic that
ends at tau_l and is read at tau_l' depends only on the lag tau_l - tau_l'
(on a uniform grid, on l - l').  One backward path per velocity, over the
lags of the grid, therefore serves every pair of nodes, and everything the
integrand reads along it is tabulated once per (velocity, lag).

Densities are read off the grid by cubic Lagrange interpolation in (x, m),
a tensor-product stencil.  Characteristic positions are the grid shifted
by a whole-row displacement, so each lag's x-stencil gathers whole m
columns of every source velocity in four row reads; the m-stencil then
picks four taps per query from a zero-padded m axis.  This module shares
no code with the kinetic stepper it checks.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import NamedTuple

import numpy as np

from .errors import BadConfig, NoContraction, SolverFailure
from .fields import DensityField
from .model import ModelSpec, PhaseGrid

#: RK4 steps per interval of the tau grid along each backward characteristic.
RK_SUBSTEPS = 4
#: Largest sup-norm move of the check sweep that ``duhamel_solve`` accepts.
RESIDUAL_TOL = 1e-10


# ---------------------------------------------------------------------------
# Frozen signal
# ---------------------------------------------------------------------------

@dataclass
class SignalHistory:
    """A signal frozen in time, S(x), interpolated linearly in x.

    The oracle's problems hold the signal fixed over the whole horizon; that
    is what makes a characteristic depend on its lag alone.  Build one with
    ``SignalHistory.constant``.
    """

    values: np.ndarray  # (x_nodes,)
    grid: PhaseGrid

    def __post_init__(self) -> None:
        if self.grid.dim != 1:
            raise BadConfig("signal histories are one-dimensional")
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.x_nodes,):
            raise BadConfig(f"signal shape {self.values.shape} != (x_nodes,)")

    @classmethod
    def constant(cls, s_values: np.ndarray, grid: PhaseGrid) -> "SignalHistory":
        return cls(values=s_values, grid=grid)

    def eval(self, x: np.ndarray) -> np.ndarray:
        """S at positions ``x``: periodic, or clamped to the end values on a free grid."""
        g, s = self.grid, self.values
        u = (np.asarray(x, dtype=float) + 0.5 * g.x_extent) / g.dx - 0.5
        if g.x_topology == "periodic":
            i0 = np.floor(u).astype(int)
            frac = u - i0
            i0 %= g.x_nodes
            i1 = (i0 + 1) % g.x_nodes
            return (1.0 - frac) * s[i0] + frac * s[i1]
        u = np.clip(u, 0.0, g.x_nodes - 1.0)
        i0 = np.minimum(np.floor(u).astype(int), g.x_nodes - 2)
        frac = u - i0
        return (1.0 - frac) * s[i0] + frac * s[i0 + 1]


# ---------------------------------------------------------------------------
# Internal state along backward characteristics
# ---------------------------------------------------------------------------

def _rk4_backward(m_end, x_end, v, lags: np.ndarray, s_hist: SignalHistory,
                  spec: ModelSpec, substeps: int) -> np.ndarray:
    """Internal state at every lag of the backward characteristic from (x_end, m_end).

    Along X(s) = x_end - v (t - s), dM/ds = F(M, S(X(s)))/eps depends on s
    only through the lag t - s, so one path, stepped back from lag 0 with
    ``substeps`` RK4 steps per interval of ``lags``, serves every end time.
    ``x_end - v`` must broadcast against ``m_end``; an array of velocities
    steps one path per velocity together.  The signal at every RK4 stage is
    read in one call.  Returns M at lags[0..], (lags.size,) + m_end.shape.
    """
    eps = spec.epsilon
    h = np.diff(lags) / substeps                      # one step back in time
    stage_lags = lags[:-1, None] + 0.5 * h[:, None] * np.arange(2 * substeps + 1)
    s_at = s_hist.eval(x_end - np.multiply.outer(stage_lags, v))

    m = np.asarray(m_end, dtype=float)
    out = np.empty((lags.size,) + m.shape)
    out[0] = m
    for d in range(1, lags.size):
        hd, s_d = h[d - 1], s_at[d - 1]
        for j in range(0, 2 * substeps, 2):
            k1 = spec.adaptation.rate(m, s_d[j]) / eps
            k2 = spec.adaptation.rate(m - 0.5 * hd * k1, s_d[j + 1]) / eps
            k3 = spec.adaptation.rate(m - 0.5 * hd * k2, s_d[j + 1]) / eps
            k4 = spec.adaptation.rate(m - hd * k3, s_d[j + 2]) / eps
            m = m - (hd / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[d] = m
    return out


# ---------------------------------------------------------------------------
# Duhamel / Picard fixed point
# ---------------------------------------------------------------------------

def _lagrange_cubic_weights(frac: np.ndarray) -> tuple[np.ndarray, ...]:
    """Cubic Lagrange weights on the uniform stencil {-1, 0, 1, 2}."""
    xm1 = frac + 1.0
    x0 = frac
    x1 = frac - 1.0
    x2 = frac - 2.0
    w0 = -x0 * x1 * x2 / 6.0
    w1 = xm1 * x1 * x2 / 2.0
    w2 = -xm1 * x0 * x2 / 2.0
    w3 = xm1 * x0 * x1 / 6.0
    return w0, w1, w2, w3


# Zero ghost cells padded onto each end of the m axis.  The stencil
# {jm-1, ..., jm+2} reads only ghosts once jm < -2 or jm > m_nodes, so
# clipping jm to [-3, m_nodes + 1] keeps every tap on the padded axis and
# still reads zero.
_M_GHOSTS = 4


def _as_sources(values: np.ndarray) -> np.ndarray:
    """Densities (..., nx, nv, nm) as interpolation sources (..., nv, nx, nm + 8).

    Velocity-major, so one source velocity is one contiguous block, and
    zero-padded on the m axis with the ghost cells _interp_xm reads.
    """
    pad = [(0, 0)] * (values.ndim - 1) + [(_M_GHOSTS, _M_GHOSTS)]
    return np.pad(np.swapaxes(values, -2, -3), pad)


class _Stencil(NamedTuple):
    """A cubic Lagrange (x, m) stencil for Q query points.

    ``rows`` (4,) + Q index the source's x axis and ``wx`` (4,) + Q + (1,)
    weight them; ``taps`` Q + (m_nodes,) are flat indices of each query's
    first m tap in one source velocity's x-gathered columns, and ``wm``
    (4,) + Q + (m_nodes,) weight the four taps.
    """

    rows: np.ndarray
    wx: np.ndarray
    taps: np.ndarray
    wm: np.ndarray


def _stencil(xq: np.ndarray, mq: np.ndarray, grid: PhaseGrid) -> _Stencil:
    """The stencil at positions ``xq`` (shape Q) and internal states ``mq`` (Q + (m_nodes,)).

    Periodic grids wrap the x rows; free grids clip them and zero the
    weights of taps outside the domain, so the zero ghost cells never need
    storing.
    """
    u = (xq + 0.5 * grid.x_extent) / grid.dx - 0.5
    ix = np.floor(u)
    wx = np.stack(_lagrange_cubic_weights(u - ix))
    rows = ix.astype(int) + np.arange(-1, 3).reshape((4,) + (1,) * np.ndim(u))
    if grid.x_topology == "periodic":
        rows %= grid.x_nodes
    else:
        wx *= (rows >= 0) & (rows < grid.x_nodes)
        rows = np.clip(rows, 0, grid.x_nodes - 1)
    w = mq / grid.dm - 0.5
    jm = np.floor(w)
    n_col = grid.m_nodes + 2 * _M_GHOSTS
    first = np.arange(0, np.size(u) * n_col, n_col).reshape(np.shape(u) + (1,))
    taps = first + np.clip(jm.astype(int), -3, grid.m_nodes + 1) + (_M_GHOSTS - 1)
    return _Stencil(rows, wx[..., None], taps, np.stack(_lagrange_cubic_weights(w - jm)))


def _interp_xm(src: np.ndarray, sten: _Stencil) -> np.ndarray:
    """Cubic Lagrange interpolation of every source velocity at a stencil's queries.

    ``src`` is (n_src, nx, m_nodes + 8), from _as_sources: grid functions of
    (x, m), one per source velocity.  The stencil is a tensor product, so
    the x-stencil is applied first as four row gathers of whole m columns,
    then the m-stencil as four gathers along the padded m axis.  Returns
    (n_src,) + Q + (m_nodes,).  Cubic order keeps the oracle's own error far
    below the first-order scheme it checks.
    """
    rows, wx, taps, wm = sten
    cols = np.take(src, rows[0], axis=1)
    cols *= wx[0]
    for r, wr in zip(rows[1:], wx[1:]):
        part = np.take(src, r, axis=1)
        part *= wr
        cols += part
    # mode="clip" only skips numpy's bounds check, as every tap is on the
    # padded axis.  cols[k][b:] read at a tap is the tap's b-th neighbour.
    out = np.empty((src.shape[0],) + taps.shape)
    part = np.empty(taps.shape)
    for col, o in zip(cols.reshape(src.shape[0], -1), out):
        np.take(col, taps, mode="clip", out=o)
        o *= wm[0]
        for b in range(1, 4):
            np.take(col[b:], taps, mode="clip", out=part)
            part *= wm[b]
            o += part
    return out


@dataclass
class DuhamelResult:
    field: DensityField
    iterations: int
    sup_diffs: list[float] = dc_field(default_factory=list)


@dataclass
class _Characteristics:
    """Backward characteristics of a frozen-signal problem, tabulated by lag.

    The characteristic of target velocity k that ends at tau_l is read at
    tau_l' <= tau_l at positions x - v_k (tau_l - tau_l') with internal
    state M_k(tau_l - tau_l'), so all it reads there depends on d = l - l'
    alone: ``stencils[d]`` is the cubic (x, m) stencil of every target
    velocity's characteristic (queries (nv, nx)), and on (nv, nx, nm),
    ``lam[d]`` is the turning frequency and ``loss[d]`` the rate at which
    the density is lost, slope damping rate_m/eps plus turning loss
    lam * col_norm.  States may wander outside [0, m_max]; density lookups
    there read zero, the boundary data of the truncated problem.
    """

    grid: PhaseGrid
    dtau: float
    gain_w: np.ndarray      # (k, k''): kernel times source weight
    stencils: list          # [d]
    lam: np.ndarray         # (d, k, nx, nm)
    loss: np.ndarray        # (d, k, nx, nm)

    @property
    def n_time(self) -> int:
        return self.lam.shape[0] - 1

    def weight(self, l: int, lp: int) -> float:
        """Trapezoid weight of node l' in the integral up to node l."""
        return self.dtau if 0 < lp < l else 0.5 * self.dtau

    def integrand(self, src: np.ndarray, l: int, lp: int) -> np.ndarray:
        """Slope damping plus turning gain/loss along the characteristics (l, l').

        ``src`` is the density at node l' as sources, (nv, nx, nm + 8).
        Returns the integrand of every target velocity, (nx, nv, nm).
        """
        d = l - lp
        gathered = _interp_xm(src, self.stencils[d])       # (source j, target k, nx, nm)
        own = np.einsum("kkxm->kxm", gathered)
        gain = np.einsum("kj,jkxm->kxm", self.gain_w, gathered)
        return (self.lam[d] * gain - self.loss[d] * own).swapaxes(0, 1)


def _characteristics(s_hist: SignalHistory, spec: ModelSpec, grid: PhaseGrid,
                     t: float, n_time: int, rk_substeps: int) -> _Characteristics:
    """Tabulate every velocity's backward characteristic at every lag of the tau grid."""
    lags = np.linspace(0.0, t, n_time + 1)
    nv, nx, nm = grid.n_v, grid.x_nodes, grid.m_nodes
    vx = grid.velocities[:, 0]
    ms = _rk4_backward(np.broadcast_to(grid.m_centers, (nv, nx, nm)), grid.x_centers[:, None],
                       vx[:, None, None], lags, s_hist, spec, rk_substeps)  # (d, k, nx, nm)
    xq = grid.x_centers - np.multiply.outer(lags, vx)[..., None]            # (d, k, nx)
    kernel = spec.turning.kernel_matrix(grid)
    lam = spec.turning.frequency(ms)
    slope = spec.adaptation.rate_m(ms, s_hist.eval(xq)[..., None])
    col_norm = (grid.weights @ kernel)[:, None, None]
    return _Characteristics(grid=grid, dtau=t / n_time, gain_w=kernel * grid.weights[None, :],
                            stencils=[_stencil(xq[d], ms[d], grid) for d in range(n_time + 1)],
                            lam=lam, loss=slope / spec.epsilon + lam * col_norm)


def _pullback_node(ch: _Characteristics, p0_src: np.ndarray, l: int) -> np.ndarray:
    """Initial data carried to node l along the characteristics, (nx, nv, nm).

    ``p0_src`` is the initial data as sources; node l reads it at lag l.
    The copy keeps the node from holding the whole (source, target) gather.
    """
    return np.einsum("kkxm->xkm", _interp_xm(p0_src, ch.stencils[l])).copy()


def _pullback(ch: _Characteristics, p0: np.ndarray) -> np.ndarray:
    """The pull-back at every node, (L+1, nx, nv, nm): the Picard map's constant term."""
    p0_src = _as_sources(p0)
    return np.stack([_pullback_node(ch, p0_src, l) for l in range(ch.n_time + 1)])


def _picard_row(ch: _Characteristics, pulled: np.ndarray, src: np.ndarray, l: int,
                known: dict) -> np.ndarray:
    """Node l >= 1 of the Picard map: its pull-back plus the quadrature over l' = 0..l.

    ``pulled`` is node l's pull-back.  The integrand at l' is ``known[l']``
    where given, and is read from the source table ``src`` (nodes as from
    _as_sources) otherwise.
    """
    row = pulled.copy()
    for lp in range(l + 1):
        row += ch.weight(l, lp) * (known[lp] if lp in known else ch.integrand(src[lp], l, lp))
    return row


def _sweep(ch: _Characteristics, pullback: np.ndarray, prev: np.ndarray) -> np.ndarray:
    """One application of the Picard map: pull-back plus the quadrature of ``prev``."""
    src = _as_sources(prev)
    nxt = np.empty_like(pullback)
    nxt[0] = pullback[0]
    for l in range(1, ch.n_time + 1):
        nxt[l] = _picard_row(ch, pullback[l], src, l, {})
    return nxt


def _march_terms(ch: _Characteristics, src: np.ndarray, l: int) -> dict:
    """The march's integrands at node l, by l' < l, read from the nodes already solved."""
    return {lp: ch.integrand(src[lp], l, lp) for lp in range(l)}


def _solve_node(inv: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Node l from its right-hand side: the (I - w A)^-1 of every (x, m) cell applied."""
    return np.einsum("xkjm,xjm->xkm", inv, rhs)


def _march(ch: _Characteristics, p0: np.ndarray,
           check: bool) -> tuple[np.ndarray, float | None]:
    """Fixed point of the Picard map, solved forward node by node, and its check.

    Node l is its pull-back of the initial data ``p0`` plus the quadrature
    over nodes l' <= l.  The l' < l terms are already known.  At l' = l the
    lag is zero and the state is the grid's own, for every node alike, so
    that term is one (V, V) matrix A per (x, m) cell, and node l solves
    (I - w A) p_l = rhs with the one inverse.

    With ``check``, each node, once solved, is compared with its row of the
    Picard map (_picard_row, as _sweep builds it).  The row takes the
    integrands the march evaluated for that node and evaluates any other
    itself, among them the lag-0 term of the node just solved.  The sup over
    nodes of |row - node| is the sup-norm move of one Picard sweep of the
    marched field, to the bit.  After the march each row of its source
    table must equal its marched node as sources, or SolverFailure is
    raised.  Returns the marched field and that sup, None without ``check``.
    """
    eye = np.eye(ch.grid.n_v)
    loss = np.moveaxis(ch.loss[0], 0, -1)                          # (nx, nm, k)
    a = ch.lam[0, 0][..., None, None] * ch.gain_w - loss[..., None] * eye
    inv = np.moveaxis(np.linalg.inv(eye - ch.weight(1, 1) * a), 1, -1).copy()  # (nx, k, j, nm)
    p0_src = _as_sources(p0)
    out = np.empty((ch.n_time + 1,) + p0.shape)
    out[0] = _pullback_node(ch, p0_src, 0)
    src = np.zeros((ch.n_time + 1,) + p0_src.shape)   # node l's row is written once solved
    src[0, ..., _M_GHOSTS:-_M_GHOSTS] = out[0].swapaxes(0, 1)
    gaps = []
    for l in range(1, ch.n_time + 1):
        pulled = _pullback_node(ch, p0_src, l)
        terms = _march_terms(ch, src, l)
        out[l] = pulled
        for lp, term in terms.items():
            out[l] += ch.weight(l, lp) * term
        out[l] = _solve_node(inv, out[l])
        src[l, ..., _M_GHOSTS:-_M_GHOSTS] = out[l].swapaxes(0, 1)
        if check:
            row = _picard_row(ch, pulled, src, l, terms)
            row -= out[l]
            gaps.append(np.abs(row, out=row).max())
    if check:
        for l in range(ch.n_time + 1):
            if not np.array_equal(src[l], _as_sources(out[l]), equal_nan=True):
                raise SolverFailure(f"Duhamel march: source table row {l} differs "
                                    "from the marched node it holds")
    return out, float(np.max(gaps)) if check else None   # np.max keeps a NaN


def duhamel_solve(p0: DensityField, s_hist: SignalHistory, spec: ModelSpec,
                  grid: PhaseGrid, t: float, picard_iters: int,
                  n_time: int = 32) -> DuhamelResult:
    """Fixed point of the characteristic integral identity on a frozen signal.

    The representation is the pull-back of the initial data plus the time
    integral of slope damping and turning gain/loss along each backward
    characteristic, by the trapezoid rule on ``n_time`` intervals.  It is
    lower-triangular in time, so a forward march solves it in one pass
    (_march).  ``picard_iters`` caps the check sweeps: with one or more, the
    march checks each node against its row of the Picard map as it goes,
    which amounts to one Picard sweep of the marched field, and if that
    sweep would move the field by more than ``RESIDUAL_TOL`` in sup norm (or
    by NaN), SolverFailure is raised; with zero the check is skipped.
    ``iterations`` counts the sweeps run, and the returned field is the
    marched one either way.  Requires the horizon to contract:
    t * spec.growth_rate(grid) < 1.
    """
    if grid.dim != 1:
        raise BadConfig("the Duhamel oracle is one-dimensional")
    if n_time < 1:
        raise BadConfig(f"oracle resolution needs n_time >= 1, got n_time = {n_time}")
    if not spec.certified:
        raise BadConfig("spec must be validated on a grid before oracle use")
    coef = spec.growth_rate(grid)
    if t * coef >= 1.0:
        raise NoContraction(
            f"horizon t = {t} gives contraction factor {t * coef:.3f} >= 1")

    ch = _characteristics(s_hist, spec, grid, t, n_time, RK_SUBSTEPS)
    marched, residual = _march(ch, p0.values, check=picard_iters >= 1)

    sup_diffs = [] if residual is None else [residual]
    if sup_diffs and not residual <= RESIDUAL_TOL:   # a NaN residual fails too
        raise SolverFailure(
            f"Duhamel fixed-point residual {residual:.3e} > tol = {RESIDUAL_TOL:.3e}: "
            "one Picard sweep moves the marched field")

    return DuhamelResult(field=DensityField(marched[-1], t), iterations=len(sup_diffs),
                         sup_diffs=sup_diffs)
