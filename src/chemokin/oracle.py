"""Independent reference solvers for frozen-signal linear problems.

With the signal history held fixed, the transport/adaptation/turning
equation is linear and can be integrated along characteristics: positions
stream affinely, the internal state follows its relaxation ODE, and the
density satisfies an integral identity whose right-hand side collects the
slope-damping term and the turning gain/loss, iterated here as a Picard
fixed point.  The kinetic stepper is cross-validated against this solver;
two independent routes agreeing under refinement is the numerical
stand-in for uniqueness.

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

from .errors import BadConfig, NoContraction
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

def _rk4_backward(m_end, x_end, v, s_grid: np.ndarray, s_hist: SignalHistory,
                  spec: ModelSpec, substeps: int):
    """Integrate dM/ds = F(M, S(X(s), s))/eps backward along the s grid.

    Returns M at every node of ``s_grid`` (which ends at the path's end
    time).  Vectorized over arbitrary leading shape of ``m_end``/``x_end``.
    """
    eps = spec.epsilon
    t_end = s_grid[-1]

    def rhs(m, s):
        x_s = x_end - v * (t_end - s)
        return spec.adaptation.rate(m, s_hist.eval(x_s, s)) / eps

    out = np.empty((s_grid.size,) + np.shape(m_end))
    out[-1] = m_end
    m = np.asarray(m_end, dtype=float)
    for idx in range(s_grid.size - 1, 0, -1):
        s_hi, s_lo = s_grid[idx], s_grid[idx - 1]
        h = (s_lo - s_hi) / substeps  # negative: backward in s
        s = s_hi
        for _ in range(substeps):
            k1 = rhs(m, s)
            k2 = rhs(m + 0.5 * h * k1, s + 0.5 * h)
            k3 = rhs(m + 0.5 * h * k2, s + 0.5 * h)
            k4 = rhs(m + h * k3, s + h)
            m = m + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            s += h
        out[idx - 1] = m
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


def duhamel_solve(p0: DensityField, s_hist: SignalHistory, spec: ModelSpec,
                  grid: PhaseGrid, t: float, picard_iters: int,
                  n_time: int = 32, rk_substeps: int = 4,
                  tol: float = 1e-10) -> DuhamelResult:
    """Fixed point of the characteristic integral identity on a frozen signal.

    Iterates the representation (pull-back of the initial data plus the
    time integral of slope damping and turning gain/loss along each
    backward characteristic) until successive iterates differ by at most
    ``tol`` in sup norm, or ``picard_iters`` sweeps.  Requires the horizon
    to contract: t * (slope_cap/eps + 2 V_d turning_cap) < 1.

    The characteristics are fixed before the first sweep.  Each one is
    indexed by (k, l, l'): target velocity k, end node tau_l and quadrature
    node tau_l' <= tau_l.  Its positions are the grid shifted by
    v_k (tau_l - tau_l'), so its x-stencil (rows, weights with the free-mode
    ghost mask, and the signal there) is tabulated once.  A sweep applies it
    to every source velocity at once, then the m-stencil of the tabulated
    internal states, rebuilt per sweep; see _interp_xm.
    """
    if grid.dim != 1:
        raise BadConfig("the Duhamel oracle is one-dimensional")
    if spec.slope_cap <= 0 or spec.turning_cap <= 0:
        raise BadConfig("spec must be validated on a grid before oracle use")
    coef = contraction_coefficient(spec, grid)
    if t * coef >= 1.0:
        raise NoContraction(
            f"horizon t = {t} gives contraction factor {t * coef:.3f} >= 1")

    nx, nv, nm = grid.x_nodes, grid.n_v, grid.m_nodes
    lt = max(1, n_time)
    taus = np.linspace(0.0, t, lt + 1)
    dtau = t / lt
    eps = spec.epsilon
    x_col = grid.x_centers[:, None]                  # broadcasts against m
    mq0 = np.ones((nx, 1)) * grid.m_centers[None, :]

    kernel = spec.turning.kernel_matrix(grid)
    gain_w = kernel * grid.weights[None, :]          # (k, k'')
    col_norm = grid.weights @ kernel                 # (k,) discrete loss kernel mass

    # Characteristic tables for each target velocity k and end index l,
    # stacked over the earlier nodes l' <= l: internal states m_tab
    # (l+1, nx, nm); x-stencil rows and weights (4, l+1, nx); signal values
    # (l+1, nx, 1).  States may wander outside [0, m_max]; density lookups
    # there read zero, the boundary data of the truncated problem.
    m_tab = [[None] * (lt + 1) for _ in range(nv)]
    x_sten = [[None] * (lt + 1) for _ in range(nv)]
    for k in range(nv):
        vx = float(grid.velocities[k, 0])
        for l in range(lt + 1):
            s_grid = taus[: l + 1]
            if l == 0:
                m_tab[k][l] = mq0[None, :, :].copy()
            else:
                m_tab[k][l] = _rk4_backward(mq0, x_col, vx, s_grid, spec=spec,
                                            s_hist=s_hist, substeps=rk_substeps)
            xs = grid.x_centers[None, :] - vx * (taus[l] - s_grid)[:, None]
            rows, wx = _x_stencil(xs, grid)
            s_at = np.stack([s_hist.eval(xs[lp], s_grid[lp]) for lp in range(l + 1)])
            x_sten[k][l] = (rows, wx, s_at[..., None])

    # Pull-back of the initial data (node l' = 0): iterate zero.
    p0_pad = _pad_m(p0.values)
    pullback = np.empty((lt + 1, nx, nv, nm))
    for k in range(nv):
        for l in range(lt + 1):
            rows, wx, _ = x_sten[k][l]
            pullback[l, :, k, :] = _interp_xm(p0_pad[:, k:k + 1], rows[:, 0], wx[:, 0],
                                              m_tab[k][l][0], grid)[:, 0, :]

    sup_diffs: list[float] = []
    l1_diffs: list[float] = []
    cell = grid.cell_volume * grid.dm

    prev = pullback
    done = 0
    for it in range(picard_iters):
        src = _pad_m(prev)
        nxt = pullback.copy()
        for l in range(1, lt + 1):
            for k in range(nv):
                rows, wx, s_at = x_sten[k][l]
                for lp in range(l + 1):
                    ms = m_tab[k][l][lp]
                    gathered = _interp_xm(src[lp], rows[:, lp], wx[:, lp], ms, grid)
                    own = gathered[:, k, :]
                    gain = np.einsum("j,xjm->xm", gain_w[k], gathered)
                    lam = spec.turning.frequency(ms)
                    slope = spec.adaptation.rate_m(ms, s_at[lp])
                    integ = (-slope / eps) * own + lam * (gain - col_norm[k] * own)
                    nxt[l, :, k, :] += (dtau if 0 < lp < l else 0.5 * dtau) * integ
        diff = nxt - prev
        sup_diffs.append(float(np.abs(diff).max()))
        l1_per_node = np.einsum("lxvm,v->l", np.abs(diff), grid.weights) * cell
        l1_diffs.append(float(l1_per_node.max()))
        prev = nxt
        done = it + 1
        if sup_diffs[-1] <= tol:
            break

    return DuhamelResult(field=DensityField(prev[lt], t), iterations=done,
                         sup_diffs=sup_diffs, l1_diffs=l1_diffs)
