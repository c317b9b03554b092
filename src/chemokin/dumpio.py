"""Field dump format: text header, then raw little-endian float64 payload.

The header starts with the magic ``CHKIN2`` and carries the grid
signature (dims, spacings, the velocity nodes with their weights), the
time stamp, the adaptation time scale and the scenario hash, plus the
run's bookkeeping: macro steps taken and the largest mass defect so far.
Every key is required on reading: a header without one, the bookkeeping
keys included, is a malformed dump.  Floats are written with ``repr`` so
they round-trip bit-exactly; the payload is the density's own
C-contiguous (v, m, *x) buffer (``fields``), byte for byte:
``write_dump`` writes ``vmx(values)`` in one write, and ``read_dump``
reads the payload straight into a fresh buffer of that layout, so a read
holds one density.  A ``CHKIN1`` file, the older format with x outermost,
is refused, never misread.  ``final.chk`` is a byte copy of a dump
(``copy_dump``).  ``read_dump`` refuses a payload with a non-finite or
negative cell, so restart and ``compare`` take what it returns as read.
"""
from __future__ import annotations

import math
import os
import shutil
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import BadConfig, ChemokinError
from .fields import vmx, xvm
from .model import PhaseGrid

MAGIC = "CHKIN2"
#: The magic of the older format, whose payload is x outermost.
_OLD_MAGIC = "CHKIN1"
_END = "END_HEADER"


@dataclass
class Dump:
    """A dump as read back: its validated grid, clock, scenario and density.

    The flat grid fields repeat the header's numbers next to ``grid``, so a
    reader that wants them (the benchmark's mass check) needs no
    ``PhaseGrid``.  ``values`` is the (*x, v, m) view of the (v, m, *x)
    buffer the payload was read into.
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
    steps: int
    max_mass_defect: float


def _floats_csv(arr: np.ndarray) -> str:
    return ",".join(repr(float(v)) for v in np.asarray(arr).ravel())


def write_dump(path: str | Path, values: np.ndarray, t: float, grid: PhaseGrid,
               eps: float, scenario_hash: str, *, steps: int,
               max_mass_defect: float) -> None:
    """Write ``values`` and the run's bookkeeping to ``path`` atomically.

    ``steps`` and ``max_mass_defect`` have no default: a dump written
    without them would read back as a fresh run's.
    """
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
    with _replacing(path) as fh:
        fh.write(("\n".join(header) + "\n").encode("ascii"))
        fh.write(np.ascontiguousarray(vmx(values), dtype="<f8"))


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
    end_marker = (_END + "\n").encode("ascii")
    with open(path, "rb") as fh:
        magic = fh.readline(len(MAGIC) + 1)
        if magic == (_OLD_MAGIC + "\n").encode("ascii"):
            raise BadConfig(f"{path}: a {_OLD_MAGIC} dump, the older format with x "
                            f"outermost; only {MAGIC} dumps are read")
        if magic != (MAGIC + "\n").encode("ascii"):
            raise BadConfig(f"{path}: not a {MAGIC} dump")
        lines = []
        for line in fh:
            if line == end_marker:
                break
            lines.append(line)
        else:
            raise BadConfig(f"{path}: not a {MAGIC} dump (no {_END} line)")
        try:
            fields = dict(line.decode("ascii").rstrip("\n").partition("=")[::2]
                          for line in lines)
            dim = int(fields["dim"])
            v_count = int(fields["v_count"])
            weights = np.array([float(v) for v in fields["w"].split(",")])
            velocities = np.array([float(v) for v in fields["v"].split(",")])
            if v_count != weights.size:
                raise ValueError(f"v_count = {v_count} but {weights.size} weights")
            header = dict(
                dim=dim,
                x_nodes=int(fields["x_nodes"]),
                x_extent=float(fields["x_extent"]),
                x_topology=fields["x_topology"],
                velocities=velocities.reshape(v_count, dim),
                weights=weights,
                m_nodes=int(fields["m_nodes"]),
                m_max=float(fields["m_max"]),
            )
            t, eps, scenario = float(fields["t"]), float(fields["eps"]), fields["scenario"]
            steps, max_mass_defect = int(fields["steps"]), float(fields["max_mass_defect"])
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

        # The size is checked in exact integers before anything is allocated.
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        expected = math.prod(grid.field_shape)
        if size != 8 * expected:
            raise BadConfig(f"{path}: payload holds {size} bytes, header promises "
                            f"{expected} float64 values")
        buf = np.empty((grid.n_v, grid.m_nodes) + grid.x_shape, dtype="<f8")
        if fh.readinto(buf) != size:
            raise BadConfig(f"{path}: payload shrank while it was read")
    # A dump is outside input, so a bad cell is a bad config, not a solver
    # failure met later.  "< 0" lets -0.0 through: it is a valid density.
    if not np.all(np.isfinite(buf)):
        raise BadConfig(f"{path}: dump holds non-finite density values")
    if np.any(buf < 0.0):
        raise BadConfig(f"{path}: dump holds negative density values (min {buf.min():.6g})")
    return Dump(grid=grid, **header, t=t, eps=eps, scenario=scenario,
                values=xvm(buf), steps=steps, max_mass_defect=max_mass_defect)


def check_compatible(dump: Dump, grid: PhaseGrid, scenario_hash: str) -> None:
    """Reject restarts whose dump does not match the configured scenario."""
    if dump.scenario != scenario_hash:
        raise BadConfig(
            f"dump scenario hash {dump.scenario} != configured scenario {scenario_hash}")
    if not dump.grid.same_as(grid):
        raise BadConfig("dump grid signature differs from the configured grid")
