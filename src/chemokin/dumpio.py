"""Field dump format: text header, then raw little-endian float64 payload.

The header starts with the magic ``CHKIN1`` and carries the grid
signature (dims, spacings, the velocity nodes with their weights), the
time stamp, the adaptation time scale and the scenario hash, plus the
run's bookkeeping: macro steps taken and the largest mass defect so far.
The two bookkeeping keys are optional on reading (0 and 0.0), so dumps
written without them still read.  Floats are
written with ``repr`` so they round-trip bit-exactly; the payload is the
density array in row-major order, x outermost and m innermost, whatever
the layout in memory: the solver's x-innermost (v, m, *x) buffer is
transposed on write, a block of ``WRITE_BLOCK`` x-cells at a time through
one small buffer, and on read straight from the file's bytes (a view,
not a copy) into a fresh buffer of that layout, so a read holds the file
and the density it returns.  ``final.chk`` is a byte copy of a dump
(``copy_dump``).  ``read_dump`` refuses a payload with a non-finite or
negative cell, so restart and ``compare`` take what it returns as read.
"""
from __future__ import annotations

import os
import shutil
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import BadConfig, ChemokinError
from .fields import vmx, xvm
from .model import PhaseGrid

MAGIC = "CHKIN1"
_END = "END_HEADER"
#: x-cells per block of the payload transposed and written at a time.
WRITE_BLOCK = 256
#: Rows of the source per tile of a transposing copy (``_transpose_into``).
TILE_ROWS = 32


@dataclass
class Dump:
    """A dump as read back: its validated grid, clock, scenario and density.

    The flat grid fields repeat the header's numbers next to ``grid``, so a
    reader that wants them (the benchmark's mass check) needs no
    ``PhaseGrid``.
    """

    grid: PhaseGrid
    dim: int
    x_nodes: int
    x_extent: float
    x_topology: str
    velocities: np.ndarray
    weights: np.ndarray
    m_nodes: int
    m_max: float
    t: float
    eps: float
    scenario: str
    values: np.ndarray
    steps: int = 0
    max_mass_defect: float = 0.0


def _floats_csv(arr: np.ndarray) -> str:
    return ",".join(repr(float(v)) for v in np.asarray(arr).ravel())


def _transpose_into(dst: np.ndarray, src: np.ndarray) -> None:
    """dst[...] = src.T, TILE_ROWS rows of src at a time.

    Tiles keep the strided side of the copy in cache: a 4 MiB dump copies
    in under half the time of one whole transposing copy.
    """
    for lo in range(0, len(src), TILE_ROWS):
        dst[:, lo:lo + TILE_ROWS] = src[lo:lo + TILE_ROWS].T


def write_dump(path: str | Path, values: np.ndarray, t: float, grid: PhaseGrid,
               eps: float, scenario_hash: str, steps: int = 0,
               max_mass_defect: float = 0.0) -> None:
    header = [
        MAGIC,
        f"dim={grid.dim}",
        f"x_nodes={grid.x_nodes}",
        f"x_extent={grid.x_extent!r}",
        f"x_topology={grid.x_topology}",
        f"dx={grid.dx!r}",
        f"v_count={grid.n_v}",
        f"v={_floats_csv(grid.velocities)}",
        f"w={_floats_csv(grid.weights)}",
        f"m_nodes={grid.m_nodes}",
        f"m_max={grid.m_max!r}",
        f"dm={grid.dm!r}",
        f"t={float(t)!r}",
        f"eps={eps!r}",
        f"scenario={scenario_hash}",
        f"steps={int(steps)}",
        f"max_mass_defect={float(max_mass_defect)!r}",
        _END,
    ]
    # The (v*m, X) rows of the x-innermost buffer; each block of x-cells is
    # transposed into ``block`` (x outermost) and written from there.
    q = np.ascontiguousarray(vmx(values), dtype="<f8")
    rows = q.reshape(q.shape[0] * q.shape[1], -1)
    n_x = rows.shape[1]
    block = np.empty((min(WRITE_BLOCK, n_x), len(rows)), dtype="<f8")
    with _replacing(path) as fh:
        fh.write(("\n".join(header) + "\n").encode("ascii"))
        for lo in range(0, n_x, WRITE_BLOCK):
            part = block[:min(WRITE_BLOCK, n_x - lo)]
            _transpose_into(part, rows[:, lo:lo + WRITE_BLOCK])
            fh.write(part)


def copy_dump(src: str | Path, dst: str | Path) -> None:
    """Copy the dump file ``src`` to ``dst`` byte for byte, as atomically as ``write_dump``."""
    with open(src, "rb") as fin, _replacing(dst) as fout:
        shutil.copyfileobj(fin, fout)


@contextmanager
def _replacing(path: str | Path):
    """A binary file that replaces ``path`` when the block ends without an error.

    It is written as a sibling and renamed over the target, so a reader (or
    a restart after a crash) sees either the old file or the complete new
    one; an error removes the sibling and leaves the target as it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_dump(path: str | Path) -> Dump:
    raw = Path(path).read_bytes()
    end_marker = (_END + "\n").encode("ascii")
    cut = raw.find(end_marker)
    if cut < 0 or not raw.startswith((MAGIC + "\n").encode("ascii")):
        raise BadConfig(f"{path}: not a CHKIN1 dump")
    fields: dict[str, str] = {}
    for line in raw[:cut].decode("ascii").splitlines()[1:]:
        key, _, val = line.partition("=")
        fields[key] = val

    try:
        dim = int(fields["dim"])
        v_count = int(fields["v_count"])
        weights = np.array([float(v) for v in fields["w"].split(",")])
        if v_count != weights.size:
            raise ValueError(f"v_count = {v_count} but {weights.size} weights")
        header = dict(
            dim=dim,
            x_nodes=int(fields["x_nodes"]),
            x_extent=float(fields["x_extent"]),
            x_topology=fields["x_topology"],
            velocities=np.array([float(v) for v in fields["v"].split(",")]).reshape(v_count, dim),
            weights=weights,
            m_nodes=int(fields["m_nodes"]),
            m_max=float(fields["m_max"]),
        )
        t, eps, scenario = float(fields["t"]), float(fields["eps"]), fields["scenario"]
        steps = int(fields.get("steps", "0"))
        max_mass_defect = float(fields.get("max_mass_defect", "0.0"))
    except (KeyError, ValueError) as exc:
        raise BadConfig(f"{path}: malformed dump header ({exc})") from exc
    try:
        grid = PhaseGrid(**header)
    except ChemokinError as exc:
        raise BadConfig(f"{path}: grid out of range ({exc})") from exc
    if not (0.0 <= t < np.inf and 0.0 < eps < np.inf):
        raise BadConfig(f"{path}: time stamp or eps out of range (t = {t}, eps = {eps})")
    if steps < 0 or not 0.0 <= max_mass_defect < np.inf:
        raise BadConfig(f"{path}: bookkeeping out of range (steps = {steps}, "
                        f"max_mass_defect = {max_mass_defect})")

    # The payload is read in place, a view of the file's bytes, not a copy.
    start = cut + len(end_marker)
    expected = int(np.prod(grid.field_shape))
    if len(raw) - start != 8 * expected:
        raise BadConfig(f"{path}: payload holds {len(raw) - start} bytes, header promises "
                        f"{expected} float64 values")
    data = np.frombuffer(raw, dtype="<f8", offset=start)
    # A dump is outside input, so a bad cell is a bad config, not a solver
    # failure met later.  "< 0" lets -0.0 through: it is a valid density.
    if not np.all(np.isfinite(data)):
        raise BadConfig(f"{path}: dump holds non-finite density values")
    if np.any(data < 0.0):
        raise BadConfig(f"{path}: dump holds negative density values (min {data.min():.6g})")
    buf = np.empty((grid.n_v, grid.m_nodes) + grid.x_shape)
    _transpose_into(buf.reshape(grid.n_v * grid.m_nodes, -1),
                    data.reshape(-1, grid.n_v * grid.m_nodes))
    return Dump(grid=grid, **header, t=t, eps=eps, scenario=scenario,
                values=xvm(buf), steps=steps, max_mass_defect=max_mass_defect)


def check_compatible(dump: Dump, grid: PhaseGrid, scenario_hash: str) -> None:
    """Reject restarts whose dump does not match the configured scenario."""
    if dump.scenario != scenario_hash:
        raise BadConfig(
            f"dump scenario hash {dump.scenario} != configured scenario {scenario_hash}")
    if not dump.grid.same_as(grid):
        raise BadConfig("dump grid signature differs from the configured grid")
