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

from .errors import BadConfig, ChemokinError
from .fields import in_layout
from .model import PhaseGrid

MAGIC = "CHKIN1"
_END = "END_HEADER"


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

    payload = raw[cut + len(end_marker):]
    data = np.frombuffer(payload, dtype="<f8")
    expected = int(np.prod(grid.field_shape))
    if data.size != expected:
        raise BadConfig(
            f"{path}: payload holds {data.size} values, header promises {expected}")
    return Dump(grid=grid, **header, t=t, eps=eps, scenario=scenario,
                values=in_layout(data.reshape(grid.field_shape)), steps=steps,
                max_mass_defect=max_mass_defect)


def check_compatible(dump: Dump, grid: PhaseGrid, scenario_hash: str) -> None:
    """Reject restarts whose dump does not match the configured scenario."""
    if dump.scenario != scenario_hash:
        raise BadConfig(
            f"dump scenario hash {dump.scenario} != configured scenario {scenario_hash}")
    if not dump.grid.same_as(grid):
        raise BadConfig("dump grid signature differs from the configured grid")
