"""Scenario configuration: dataclasses plus strict INI parsing.

The on-disk format is a sectioned key=value file with four sections,
``[grid]``, ``[model]``, ``[initial]`` and ``[run]``.  The key schema is
frozen; unknown sections or keys are rejected so that a config file fully
determines a run.
"""
from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass, field, fields as dc_fields
from pathlib import Path

from .errors import BadConfig

X_TOPOLOGIES = ("periodic", "free")
F_FAMILIES = ("linear", "cubic")
T_FAMILIES = ("constant", "separable-uniform", "separable-angle")
INITIAL_PROFILES = ("gaussian", "two-bumps", "uniform")

#: Most output instants a run may schedule.  ``run`` writes one dump per
#: instant, so a tiny output_every or a huge t_end would fill memory and
#: disk; the shipped configs schedule at most 40.
MAX_OUTPUT_TIMES = 10_000


@dataclass
class GridConfig:
    dim: int = 1
    x_nodes: int = 128
    x_extent: float = 16.0
    x_topology: str = "periodic"
    v_count: int = 4
    m_nodes: int = 96
    m_max: float | None = None  # None: auto rule m_plus + 0.5*(m_plus - m_minus)


@dataclass
class ModelConfig:
    f_family: str = "linear"
    kappa: float = 2.0
    s_ref: float = 0.2
    m_minus: float = 0.2
    m_plus: float = 1.2
    t_family: str = "separable-uniform"
    lambda0: float = 1.0
    beta: float = 0.4
    m_c: float = 0.7
    delta: float = 0.25
    eps: float = 0.1


@dataclass
class InitialConfig:
    profile: str = "gaussian"
    center: float = 0.0
    width: float = 1.2
    mass: float = 1.0


@dataclass
class RunSettings:
    t_end: float = 1.0
    output_every: float = 0.1
    threads: int = 1
    out_dir: str = "out"


@dataclass
class RunConfig:
    """Validated scenario description: the four config sections."""

    grid: GridConfig = field(default_factory=GridConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    initial: InitialConfig = field(default_factory=InitialConfig)
    run: RunSettings = field(default_factory=RunSettings)

    def scenario_hash(self) -> str:
        """Digest of the physics sections (grid/model/initial).

        The [run] section is excluded so a restart with a longer t_end
        still matches its originating dump.
        """
        text = "|".join(
            f"{name}={getattr(sec, name)!r}"
            for sec in (self.grid, self.model, self.initial)
            for name in sorted(f.name for f in dc_fields(sec))
        )
        return hashlib.sha256(text.encode()).hexdigest()[:16]


# File keys -> (section dataclass attribute, converter).  The config file
# uses the historical key spellings (F_family, S_ref, ...).
_SCHEMA: dict[str, dict[str, tuple[str, type]]] = {
    "grid": {
        "dim": ("dim", int),
        "x_nodes": ("x_nodes", int),
        "x_extent": ("x_extent", float),
        "x_topology": ("x_topology", str),
        "v_count": ("v_count", int),
        "m_nodes": ("m_nodes", int),
        "m_max": ("m_max", float),
        "m_max_auto": ("m_max_auto", bool),
    },
    "model": {
        "F_family": ("f_family", str),
        "kappa": ("kappa", float),
        "S_ref": ("s_ref", float),
        "m_minus": ("m_minus", float),
        "m_plus": ("m_plus", float),
        "T_family": ("t_family", str),
        "lambda0": ("lambda0", float),
        "beta": ("beta", float),
        "m_c": ("m_c", float),
        "delta": ("delta", float),
        "eps": ("eps", float),
    },
    "initial": {
        "profile": ("profile", str),
        "center": ("center", float),
        "width": ("width", float),
        "mass": ("mass", float),
    },
    "run": {
        "t_end": ("t_end", float),
        "output_every": ("output_every", float),
        "threads": ("threads", int),
        "out_dir": ("out_dir", str),
    },
}

_BOOL_WORDS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _convert(section: str, key: str, raw: str, kind: type):
    if kind is bool:
        try:
            return _BOOL_WORDS[raw.strip().lower()]
        except KeyError:
            raise BadConfig(f"[{section}] {key}: expected a boolean, got {raw!r}") from None
    try:
        return kind(raw)
    except ValueError:
        raise BadConfig(f"[{section}] {key}: expected {kind.__name__}, got {raw!r}") from None


def parse_config(path: str | Path) -> RunConfig:
    """Read and validate a scenario file.

    Raises
    ------
    BadConfig
        On unknown sections/keys, unparsable values, or invalid
        combinations (e.g. both ``m_max`` and ``m_max_auto=true``).
    """
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keys are case-sensitive (F_family, S_ref, ...)
    text = Path(path).read_text()
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise BadConfig(f"cannot parse {path}: {exc}") from exc

    cfg = RunConfig()
    sections = {"grid": cfg.grid, "model": cfg.model, "initial": cfg.initial, "run": cfg.run}
    grid_extra: dict[str, object] = {}

    for sec_name in parser.sections():
        if sec_name not in sections:
            raise BadConfig(f"unknown section [{sec_name}]")
        schema = _SCHEMA[sec_name]
        for key, raw in parser.items(sec_name):
            if key not in schema:
                raise BadConfig(f"unknown key [{sec_name}] {key}")
            attr, kind = schema[key]
            value = _convert(sec_name, key, raw, kind)
            if sec_name == "grid" and attr == "m_max_auto":
                grid_extra["m_max_auto"] = value
            else:
                setattr(sections[sec_name], attr, value)

    if grid_extra.get("m_max_auto") and cfg.grid.m_max is not None:
        raise BadConfig("[grid] give either m_max or m_max_auto=true, not both")

    validate_config(cfg)
    return cfg


def validate_config(cfg: RunConfig) -> None:
    """Check value-level constraints that do not need the grid built."""
    g, m, ini, run = cfg.grid, cfg.model, cfg.initial, cfg.run
    # NaN passes every ordered comparison below, and an infinite t_end never
    # ends the output schedule.
    for sec_name, schema in _SCHEMA.items():
        section = getattr(cfg, sec_name)
        for key, (attr, kind) in schema.items():
            val = getattr(section, attr) if kind is float else None
            if val is not None and not math.isfinite(val):
                raise BadConfig(f"[{sec_name}] {key} must be finite, got {val}")
    if g.dim not in (1, 2):
        raise BadConfig(f"[grid] dim must be 1 or 2, got {g.dim}")
    if g.x_topology not in X_TOPOLOGIES:
        raise BadConfig(f"[grid] x_topology must be one of {X_TOPOLOGIES}, got {g.x_topology!r}")
    for name, val in (("x_nodes", g.x_nodes), ("v_count", g.v_count), ("m_nodes", g.m_nodes)):
        if val <= 0:
            raise BadConfig(f"[grid] {name} must be positive, got {val}")
    if g.x_extent <= 0:
        raise BadConfig(f"[grid] x_extent must be positive, got {g.x_extent}")
    if g.m_max is not None and g.m_max <= 0:
        raise BadConfig(f"[grid] m_max must be positive, got {g.m_max}")

    if m.f_family not in F_FAMILIES:
        raise BadConfig(f"[model] F_family must be one of {F_FAMILIES}, got {m.f_family!r}")
    if m.t_family not in T_FAMILIES:
        raise BadConfig(f"[model] T_family must be one of {T_FAMILIES}, got {m.t_family!r}")
    for name, val in (("kappa", m.kappa), ("S_ref", m.s_ref), ("lambda0", m.lambda0),
                      ("delta", m.delta), ("eps", m.eps)):
        if val <= 0:
            raise BadConfig(f"[model] {name} must be positive, got {val}")
    if m.m_minus <= 0:
        raise BadConfig(f"[model] m_minus must be positive, got {m.m_minus}")
    if not m.m_minus < m.m_plus:
        raise BadConfig(f"[model] need m_minus < m_plus, got {m.m_minus} >= {m.m_plus}")

    if ini.profile not in INITIAL_PROFILES:
        raise BadConfig(f"[initial] profile must be one of {INITIAL_PROFILES}, got {ini.profile!r}")
    if ini.width <= 0:
        raise BadConfig(f"[initial] width must be positive, got {ini.width}")
    if ini.mass <= 0:
        raise BadConfig(f"[initial] mass must be positive, got {ini.mass}")

    if run.t_end < 0:
        raise BadConfig(f"[run] t_end must be non-negative, got {run.t_end}")
    if run.output_every <= 0:
        raise BadConfig(f"[run] output_every must be positive, got {run.output_every}")
    if run.threads < 1:
        raise BadConfig(f"[run] threads must be >= 1, got {run.threads}")
    check_output_schedule(run.t_end, run.output_every)


def check_output_schedule(t_end: float, output_every: float) -> None:
    """Reject a schedule of more than MAX_OUTPUT_TIMES output instants.

    A run to t_end schedules about t_end/output_every instants; the ratio
    is checked so the schedule itself is never built.
    """
    if t_end / output_every > MAX_OUTPUT_TIMES:
        raise BadConfig(
            f"t_end = {t_end} with output_every = {output_every} schedules "
            f"more than {MAX_OUTPUT_TIMES} output instants")
