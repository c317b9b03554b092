"""Independent reference solvers for frozen-signal linear problems.

With the signal history held fixed, the transport/adaptation/turning
equation is linear and can be integrated along characteristics: positions
stream affinely, the internal state follows its relaxation ODE, and the
density satisfies an integral identity whose right-hand side collects the
slope-damping term and the turning gain/loss.  Discretized by the
trapezoid rule on a time grid, the identity is a Volterra system: node
tau_l reads only nodes tau_l' <= tau_l.  It is solved by a forward march,
one node at a time, and then checked by Picard sweeps of the same
quadrature (P. Linz, Analytical and Numerical Methods for Volterra
Equations, SIAM 1985).  The kinetic stepper is cross-validated against
this solver; two independent routes agreeing under refinement is the
numerical stand-in for uniqueness.

Densities are read off the grid by cubic Lagrange interpolation in (x, m),
a tensor-product stencil.  Characteristic positions are the grid shifted
by a whole-row displacement, so each characteristic's x-stencil is
tabulated once and gathers whole m columns of every source velocity in
four row reads; the m-stencil then picks four taps per query from a
zero-padded m axis.  This module shares no code with the kinetic stepper
it checks.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import BadConfig, NoContraction, SolverFailure
from .fields import DensityField
from .model import ModelSpec, PhaseGrid


# ---------------------------------------------------------------------------
# Frozen signal history
# ---------------------------------------------------------------------------

@dataclass
class SignalHistory:
    """Signal samples S(x, t_k) interpolated bilinearly in (x, t)."""

    times: np.ndarray
    fields: np.ndarray  # (n_times, x_nodes)
    grid: PhaseGrid

    def __post_init__(self) -> None:
        if self.grid.dim != 1:
            raise BadConfig("signal histories are one-dimensional")
        self.times = np.asarray(self.times, dtype=float)
        self.fields = np.atleast_2d(np.asarray(self.fields, dtype=float))
        if self.fields.shape != (self.times.size, self.grid.x_nodes):
            raise BadConfig(
                f"history shape {self.fields.shape} != (n_times, x_nodes)")

    @classmethod
    def constant(cls, s_values: np.ndarray, grid: PhaseGrid) -> "SignalHistory":
        s = np.asarray(s_values, dtype=float)
        return cls(times=np.array([0.0, 1.0]), fields=np.stack([s, s]), grid=grid)

    def _interp_x(self, field: np.ndarray, x: np.ndarray) -> np.ndarray:
        g = self.grid
        u = (x + 0.5 * g.x_extent) / g.dx - 0.5
        if g.x_topology == "periodic":
            i0 = np.floor(u).astype(int)
            frac = u - i0
            i0 %= g.x_nodes
            i1 = (i0 + 1) % g.x_nodes
            return (1.0 - frac) * field[i0] + frac * field[i1]
        u = np.clip(u, 0.0, g.x_nodes - 1.0)
        i0 = np.minimum(np.floor(u).astype(int), g.x_nodes - 2)
        frac = u - i0
        return (1.0 - frac) * field[i0] + frac * field[i0 + 1]

    def eval(self, x: np.ndarray, s: float) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        t = float(np.clip(s, self.times[0], self.times[-1]))
        k = int(np.clip(np.searchsorted(self.times, t, side="right") - 1, 0,
                        self.times.size - 2))
        t0, t1 = self.times[k], self.times[k + 1]
        w = 0.0 if t1 == t0 else (t - t0) / (t1 - t0)
        lo = self._interp_x(self.fields[k], x)
        hi = self._interp_x(self.fields[k + 1], x)
        return (1.0 - w) * lo + w * hi


# ---------------------------------------------------------------------------
# Internal state along backward characteristics
# ---------------------------------------------------------------------------

def _rk4_backward(m_end, x_end, v, taus: np.ndarray, s_hist: SignalHistory,
                  spec: ModelSpec, substeps: int) -> list[np.ndarray]:
    """Integrate dM/ds = F(M, S(X(s), s))/eps backward from every node of ``taus``.

    The path ending at node l starts from ``m_end`` at taus[l] and runs back
    to taus[0] along X(s) = x_end - v (taus[l] - s).  The paths share the
    tau grid, so all of them that cross an interval [taus[i-1], taus[i]]
    step it together with ``substeps`` RK4 steps: one signal evaluation per
    stage, and per path the same arithmetic as stepping it alone.  Entry l
    of the result holds M at taus[0..l], shape (l + 1,) + shape of m_end.
    """
    eps = spec.epsilon
    m_end = np.asarray(m_end, dtype=float)
    n = taus.size - 1
    paths = [np.empty((l + 1,) + m_end.shape) for l in range(n + 1)]
    for l, path in enumerate(paths):
        path[l] = m_end
    ends = taus.reshape((-1,) + (1,) * np.ndim(x_end))

    def rhs(m, s, t_end):
        x_s = x_end - v * (t_end - s)
        return spec.adaptation.rate(m, s_hist.eval(x_s, s)) / eps

    m = np.empty((0,) + m_end.shape)   # states of the paths ending at idx..n
    for idx in range(n, 0, -1):
        m = np.concatenate([m_end[None], m])
        t_end = ends[idx:]
        h = (taus[idx - 1] - taus[idx]) / substeps  # negative: backward in s
        s = taus[idx]
        for _ in range(substeps):
            k1 = rhs(m, s, t_end)
            k2 = rhs(m + 0.5 * h * k1, s + 0.5 * h, t_end)
            k3 = rhs(m + 0.5 * h * k2, s + 0.5 * h, t_end)
            k4 = rhs(m + h * k3, s + h, t_end)
            m = m + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            s += h
        for l in range(idx, n + 1):
            paths[l][idx - 1] = m[l - idx]
    return paths


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


def _pad_m(values: np.ndarray) -> np.ndarray:
    """Zero-pad the last (m) axis with the ghost cells _interp_xm reads."""
    pad = [(0, 0)] * (values.ndim - 1) + [(_M_GHOSTS, _M_GHOSTS)]
    return np.pad(values, pad)


def _x_stencil(xq: np.ndarray, grid: PhaseGrid) -> tuple[np.ndarray, np.ndarray]:
    """Rows and weights of the cubic Lagrange x-stencil at positions ``xq``.

    Both have shape (4,) + xq.shape.  Periodic grids wrap the rows; free
    grids clip them and zero the weights of taps outside the domain, so
    the zero ghost cells never need storing.
    """
    u = (xq + 0.5 * grid.x_extent) / grid.dx - 0.5
    ix = np.floor(u)
    wx = np.stack(_lagrange_cubic_weights(u - ix))
    rows = ix.astype(int) + np.arange(-1, 3).reshape((4,) + (1,) * np.ndim(u))
    if grid.x_topology == "periodic":
        return rows % grid.x_nodes, wx
    inside = (rows >= 0) & (rows < grid.x_nodes)
    return np.clip(rows, 0, grid.x_nodes - 1), wx * inside


def _interp_xm(src: np.ndarray, rows: np.ndarray, wx: np.ndarray,
               mq: np.ndarray, grid: PhaseGrid) -> np.ndarray:
    """Cubic Lagrange interpolation of every source velocity at (x, m) queries.

    ``src`` is (n_rows, n_src, m_nodes + 8): grid functions of (x, m), one
    per source velocity, m-padded by _pad_m.  ``rows`` and ``wx`` are an
    x-stencil of shape (4,) + Q whose rows index ``src``; ``mq`` has shape
    Q + (m_nodes,).  The stencil is a tensor product, so the x-stencil is
    applied first as four row gathers of whole m columns, then the
    m-stencil as four gathers along the padded m axis.  Returns
    Q + (n_src, m_nodes).  Cubic order keeps the oracle's own error far
    below the first-order scheme it checks.
    """
    cols = np.take(src, rows[0], axis=0)
    cols *= wx[0][..., None, None]
    for r, wr in zip(rows[1:], wx[1:]):
        part = np.take(src, r, axis=0)
        part *= wr[..., None, None]
        cols += part
    w = mq / grid.dm - 0.5
    jm = np.floor(w)
    wm = _lagrange_cubic_weights(w - jm)
    # Flat index of each query's first m-tap in ``cols``; mode="clip" only
    # skips numpy's bounds check, as every tap is on the padded axis.
    n_col = cols.shape[-1]
    first = np.arange(0, cols.size, n_col).reshape(cols.shape[:-1] + (1,))
    tap = first + (np.clip(jm.astype(int), -3, grid.m_nodes + 1)
                   + (_M_GHOSTS - 1))[..., None, :]
    cols = cols.reshape(-1)
    out = np.take(cols, tap, mode="clip")
    out *= wm[0][..., None, :]
    for b in range(1, 4):
        part = np.take(cols[b:], tap, mode="clip")   # cols[b:][i] is cols[i + b]
        part *= wm[b][..., None, :]
        out += part
    return out


@dataclass
class DuhamelResult:
    field: DensityField
    iterations: int
    sup_diffs: list[float] = dc_field(default_factory=list)
    l1_diffs: list[float] = dc_field(default_factory=list)


def contraction_coefficient(spec: ModelSpec, grid: PhaseGrid) -> float:
    """Lipschitz rate of the Picard map: slope_cap/eps + 2 V_d turning_cap."""
    return spec.slope_cap / spec.epsilon + 2.0 * grid.v_measure * spec.turning_cap


@dataclass
class _Characteristics:
    """Backward characteristics of a frozen-signal problem on the tau grid.

    Each one is indexed by (k, l, l'): target velocity k, end node tau_l and
    quadrature node tau_l' <= tau_l.  Its positions are the grid shifted by
    v_k (tau_l - tau_l'), so its x-stencil (rows, weights with the free-mode
    ghost mask, and the signal there) is tabulated once.  ``m_tab[k][l]``
    holds the internal states (l+1, nx, nm); ``x_sten[k][l]`` the x-stencil
    rows and weights (4, l+1, nx) and the signal values (l+1, nx, 1).
    States may wander outside [0, m_max]; density lookups there read zero,
    the boundary data of the truncated problem.
    """

    grid: PhaseGrid
    spec: ModelSpec
    dtau: float
    gain_w: np.ndarray      # (k, k''): kernel times source weight
    col_norm: np.ndarray    # (k,): discrete loss kernel mass
    m_tab: list
    x_sten: list

    @property
    def n_time(self) -> int:
        return len(self.m_tab[0]) - 1

    def weight(self, l: int, lp: int) -> float:
        """Trapezoid weight of node l' in the integral up to node l."""
        return self.dtau if 0 < lp < l else 0.5 * self.dtau

    def integrand(self, src: np.ndarray, k: int, l: int, lp: int) -> np.ndarray:
        """Slope damping plus turning gain/loss along characteristic (k, l, l').

        ``src`` is the density at node l', (nx, nv, nm) m-padded by _pad_m.
        Returns the integrand on (nx, nm).
        """
        rows, wx, s_at = self.x_sten[k][l]
        ms = self.m_tab[k][l][lp]
        gathered = _interp_xm(src, rows[:, lp], wx[:, lp], ms, self.grid)
        own = gathered[:, k, :]
        gain = np.einsum("j,xjm->xm", self.gain_w[k], gathered)
        lam = self.spec.turning.frequency(ms)
        slope = self.spec.adaptation.rate_m(ms, s_at[lp])
        return (-slope / self.spec.epsilon) * own + lam * (gain - self.col_norm[k] * own)


def _characteristics(s_hist: SignalHistory, spec: ModelSpec, grid: PhaseGrid,
                     t: float, n_time: int, rk_substeps: int) -> _Characteristics:
    """Tabulate every backward characteristic of the tau grid on [0, t]."""
    taus = np.linspace(0.0, t, n_time + 1)
    x_col = grid.x_centers[:, None]                  # broadcasts against m
    mq0 = np.ones((grid.x_nodes, 1)) * grid.m_centers[None, :]
    kernel = spec.turning.kernel_matrix(grid)

    m_tab, x_sten = [], []
    for k in range(grid.n_v):
        vx = float(grid.velocities[k, 0])
        m_tab.append(_rk4_backward(mq0, x_col, vx, taus, s_hist, spec, rk_substeps))
        sten_k = []
        for l in range(n_time + 1):
            xs = grid.x_centers[None, :] - vx * (taus[l] - taus[:l + 1])[:, None]
            rows, wx = _x_stencil(xs, grid)
            s_at = np.stack([s_hist.eval(xs[lp], taus[lp]) for lp in range(l + 1)])
            sten_k.append((rows, wx, s_at[..., None]))
        x_sten.append(sten_k)
    return _Characteristics(grid=grid, spec=spec, dtau=t / n_time,
                            gain_w=kernel * grid.weights[None, :],
                            col_norm=grid.weights @ kernel, m_tab=m_tab, x_sten=x_sten)


def _pullback(ch: _Characteristics, p0: np.ndarray) -> np.ndarray:
    """Initial data carried to every node along the characteristics, (L+1, nx, nv, nm)."""
    grid = ch.grid
    p0_pad = _pad_m(p0)
    out = np.empty((ch.n_time + 1,) + p0.shape)
    for k in range(grid.n_v):
        for l in range(ch.n_time + 1):
            rows, wx, _ = ch.x_sten[k][l]
            out[l, :, k, :] = _interp_xm(p0_pad[:, k:k + 1], rows[:, 0], wx[:, 0],
                                         ch.m_tab[k][l][0], grid)[:, 0, :]
    return out


def _sweep(ch: _Characteristics, pullback: np.ndarray, prev: np.ndarray) -> np.ndarray:
    """One application of the Picard map: pull-back plus the quadrature of ``prev``."""
    src = _pad_m(prev)
    nxt = pullback.copy()
    for l in range(1, ch.n_time + 1):
        for k in range(ch.grid.n_v):
            for lp in range(l + 1):
                nxt[l, :, k, :] += ch.weight(l, lp) * ch.integrand(src[lp], k, l, lp)
    return nxt


def _march(ch: _Characteristics, pullback: np.ndarray) -> np.ndarray:
    """Fixed point of the Picard map, solved forward node by node.

    Node l reads only nodes l' <= l.  The l' < l terms are already known.
    At l' = l the shift is zero and the state is the grid's own, so that
    term is a (V, V) matrix A_l per (x, m) cell, and the node solves
    (I - w_l A_l) p_l = rhs in one batched call.
    """
    grid, spec = ch.grid, ch.spec
    nv = grid.n_v
    lam = spec.turning.frequency(grid.m_centers)[:, None]        # (nm, 1)
    eye = np.eye(nv)
    out = pullback.copy()
    src = _pad_m(out)   # node l's interior is rewritten once it is solved
    for l in range(1, ch.n_time + 1):
        for k in range(nv):
            for lp in range(l):
                out[l, :, k, :] += ch.weight(l, lp) * ch.integrand(src[lp], k, l, lp)
        s_l = ch.x_sten[0][l][2][l]          # S on the grid at tau_l, (nx, 1)
        slope = spec.adaptation.rate_m(grid.m_centers[None, :], s_l)   # (nx, nm)
        diag = slope[..., None] / spec.epsilon + lam * ch.col_norm    # (nx, nm, k)
        a_l = lam[..., None] * ch.gain_w - diag[..., None] * eye      # (nx, nm, k, j)
        w_l = ch.weight(l, l)
        rhs = out[l].transpose(0, 2, 1)[..., None]                   # (nx, nm, k, 1)
        out[l] = np.linalg.solve(eye - w_l * a_l, rhs)[..., 0].transpose(0, 2, 1)
        src[l, ..., _M_GHOSTS:-_M_GHOSTS] = out[l]
    return out


def duhamel_solve(p0: DensityField, s_hist: SignalHistory, spec: ModelSpec,
                  grid: PhaseGrid, t: float, picard_iters: int,
                  n_time: int = 32, rk_substeps: int = 4,
                  tol: float = 1e-10) -> DuhamelResult:
    """Fixed point of the characteristic integral identity on a frozen signal.

    The representation is the pull-back of the initial data plus the time
    integral of slope damping and turning gain/loss along each backward
    characteristic, by the trapezoid rule on ``n_time`` intervals.  It is
    lower-triangular in time, so a forward march solves it in one pass
    (_march).  ``picard_iters`` caps the check sweeps: with one or more, a
    single Picard sweep is applied to the marched field, and if it moves
    the field by more than ``tol`` in sup norm, SolverFailure is raised;
    with zero the check is skipped.  ``iterations`` counts the sweeps run,
    and the returned field is the marched one either way.  Requires the
    horizon to contract: t * (slope_cap/eps + 2 V_d turning_cap) < 1.
    """
    if grid.dim != 1:
        raise BadConfig("the Duhamel oracle is one-dimensional")
    if spec.slope_cap <= 0 or spec.turning_cap <= 0:
        raise BadConfig("spec must be validated on a grid before oracle use")
    coef = contraction_coefficient(spec, grid)
    if t * coef >= 1.0:
        raise NoContraction(
            f"horizon t = {t} gives contraction factor {t * coef:.3f} >= 1")

    ch = _characteristics(s_hist, spec, grid, t, max(1, n_time), rk_substeps)
    pullback = _pullback(ch, p0.values)
    marched = _march(ch, pullback)

    sup_diffs: list[float] = []
    l1_diffs: list[float] = []
    if picard_iters >= 1:
        diff = np.abs(_sweep(ch, pullback, marched) - marched)
        sup_diffs.append(float(diff.max()))
        l1_diffs.append(float(np.einsum("lxvm,v->l", diff, grid.weights).max())
                        * grid.cell_volume * grid.dm)
        if sup_diffs[0] > tol:
            raise SolverFailure(
                f"Duhamel fixed-point residual {sup_diffs[0]:.3e} > tol = {tol:.3e}: "
                "one Picard sweep moves the marched field")

    return DuhamelResult(field=DensityField(marched[-1], t), iterations=len(sup_diffs),
                         sup_diffs=sup_diffs, l1_diffs=l1_diffs)
