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
transposed on write and on read.  Restart reads the same format.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import BadConfig
from .fields import in_layout
from .model import PhaseGrid

MAGIC = "CHKIN1"
_END = "END_HEADER"


@dataclass
class Dump:
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

    @property
    def field_shape(self) -> tuple[int, ...]:
        return (self.x_nodes,) * self.dim + (len(self.weights), self.m_nodes)


def _floats_csv(arr: np.ndarray) -> str:
    return ",".join(repr(float(v)) for v in np.asarray(arr).ravel())


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
    payload = np.ascontiguousarray(values, dtype="<f8")  # x outermost
    # Write a sibling file and rename it over the target, so a reader (or a
    # restart after a crash) sees either the old dump or the complete new one.
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(("\n".join(header) + "\n").encode("ascii"))
            fh.write(payload)
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
        x_nodes = int(fields["x_nodes"])
        v_count = int(fields["v_count"])
        m_nodes = int(fields["m_nodes"])
        vels = np.array([float(v) for v in fields["v"].split(",")]).reshape(v_count, dim)
        dump = Dump(
            dim=dim,
            x_nodes=x_nodes,
            x_extent=float(fields["x_extent"]),
            x_topology=fields["x_topology"],
            velocities=vels,
            weights=np.array([float(v) for v in fields["w"].split(",")]),
            m_nodes=m_nodes,
            m_max=float(fields["m_max"]),
            t=float(fields["t"]),
            eps=float(fields["eps"]),
            scenario=fields["scenario"],
            values=np.empty(0),
            steps=int(fields.get("steps", "0")),
            max_mass_defect=float(fields.get("max_mass_defect", "0.0")),
        )
    except (KeyError, ValueError) as exc:
        raise BadConfig(f"{path}: malformed dump header ({exc})") from exc
    if not (dim in (1, 2) and min(x_nodes, v_count, m_nodes) >= 1
            and 0.0 < dump.x_extent < np.inf and 0.0 < dump.m_max < np.inf):
        raise BadConfig(f"{path}: grid out of range (dim = {dim}, x_nodes = {x_nodes}, "
                        f"v_count = {v_count}, m_nodes = {m_nodes}, "
                        f"x_extent = {dump.x_extent}, m_max = {dump.m_max})")
    if not (0.0 <= dump.t < np.inf and 0.0 < dump.eps < np.inf):
        raise BadConfig(f"{path}: time stamp or eps out of range "
                        f"(t = {dump.t}, eps = {dump.eps})")
    if dump.steps < 0 or not 0.0 <= dump.max_mass_defect < np.inf:
        raise BadConfig(f"{path}: bookkeeping out of range (steps = {dump.steps}, "
                        f"max_mass_defect = {dump.max_mass_defect})")

    payload = raw[cut + len(end_marker):]
    data = np.frombuffer(payload, dtype="<f8")
    expected = int(np.prod(dump.field_shape))
    if data.size != expected:
        raise BadConfig(
            f"{path}: payload holds {data.size} values, header promises {expected}")
    dump.values = in_layout(data.reshape(dump.field_shape))
    return dump


def same_grid(a: Dump | PhaseGrid, b: Dump | PhaseGrid) -> bool:
    """Whether two dumps or grids share a grid signature (the scenario may differ)."""
    return (
        a.dim == b.dim and a.x_nodes == b.x_nodes
        and a.x_topology == b.x_topology and a.m_nodes == b.m_nodes
        and a.x_extent == b.x_extent and a.m_max == b.m_max
        and np.array_equal(a.velocities, b.velocities)
        and np.array_equal(a.weights, b.weights)
    )


def check_compatible(dump: Dump, grid: PhaseGrid, scenario_hash: str) -> None:
    """Reject restarts whose dump does not match the configured scenario."""
    if dump.scenario != scenario_hash:
        raise BadConfig(
            f"dump scenario hash {dump.scenario} != configured scenario {scenario_hash}")
    if not same_grid(dump, grid):
        raise BadConfig("dump grid signature differs from the configured grid")
