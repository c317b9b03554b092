"""Scenario configuration: dataclasses plus strict INI parsing.

The on-disk format is a sectioned key=value file with four sections,
``[grid]``, ``[model]``, ``[initial]`` and ``[run]``.  Their keys and types
are read off the four section dataclasses; unknown sections or keys are
rejected so that a config file fully determines a run.
"""
from __future__ import annotations

import configparser
import hashlib
import math
import typing
from dataclasses import dataclass, field, fields as dc_fields
from pathlib import Path

from .errors import BadConfig

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


# The config file keeps the historical spellings of three model keys.
_FILE_KEYS = {"f_family": "F_family", "s_ref": "S_ref", "t_family": "T_family"}


def _key_schema(section: type) -> dict[str, tuple[str, type]]:
    """File key -> (attribute, converter) for one section dataclass; the
    converter is the field's annotated type (``float`` for ``float | None``)."""
    hints = typing.get_type_hints(section)
    schema = {}
    for f in dc_fields(section):
        kinds = [k for k in typing.get_args(hints[f.name]) if k is not type(None)]
        schema[_FILE_KEYS.get(f.name, f.name)] = (f.name, kinds[0] if kinds else hints[f.name])
    return schema


_SCHEMA: dict[str, dict[str, tuple[str, type]]] = {
    name: _key_schema(kind) for name, kind in typing.get_type_hints(RunConfig).items()}
# A file-only flag: m_max stays None, which selects the auto rule.
_SCHEMA["grid"]["m_max_auto"] = ("m_max_auto", bool)

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
    """Read a scenario file and check what ``validate_config`` checks.

    Grid, model and profile values are left to ``build_scenario``, whose
    types reject a bad one with ``BadConfig`` too.

    Raises
    ------
    BadConfig
        On unknown sections/keys, unparsable values, both ``m_max`` and
        ``m_max_auto=true``, or a value ``validate_config`` rejects.
    """
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keys are case-sensitive (F_family, S_ref, ...)
    text = Path(path).read_text()
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise BadConfig(f"cannot parse {path}: {exc}") from exc

    cfg = RunConfig()
    m_max_auto = False

    for sec_name in parser.sections():
        if sec_name not in _SCHEMA:
            raise BadConfig(f"unknown section [{sec_name}]")
        schema = _SCHEMA[sec_name]
        for key, raw in parser.items(sec_name):
            if key not in schema:
                raise BadConfig(f"unknown key [{sec_name}] {key}")
            attr, kind = schema[key]
            value = _convert(sec_name, key, raw, kind)
            if attr == "m_max_auto":
                m_max_auto = value
            else:
                setattr(getattr(cfg, sec_name), attr, value)

    if m_max_auto and cfg.grid.m_max is not None:
        raise BadConfig("[grid] give either m_max or m_max_auto=true, not both")

    validate_config(cfg)
    return cfg


def validate_config(cfg: RunConfig) -> None:
    """Check the values that no domain type checks.

    Every real is finite, and the [run] section is usable: at least one
    thread and an output schedule ``output_times`` accepts.  Grid, model,
    profile and initial values are checked by the types and builders
    ``build_scenario`` uses, and rejected there as ``BadConfig``.
    """
    # NaN passes a "<= 0" test, and some reals (the initial centre) have no
    # other check.
    for sec_name, schema in _SCHEMA.items():
        section = getattr(cfg, sec_name)
        for key, (attr, kind) in schema.items():
            val = getattr(section, attr) if kind is float else None
            if val is not None and not math.isfinite(val):
                raise BadConfig(f"[{sec_name}] {key} must be finite, got {val}")
    if cfg.run.threads < 1:
        raise BadConfig(f"[run] threads must be >= 1, got {cfg.run.threads}")
    output_times(0.0, cfg.run.t_end, cfg.run.output_every)


def output_times(t_start: float, t_end: float, output_every: float) -> list[float]:
    """Strictly increasing output instants k*output_every, plus t_end.

    Times are exact float products of the integer index and the cadence so
    a restarted run regenerates the identical schedule bitwise.  A schedule
    with a non-finite end, an end before its start, a non-finite or
    non-positive cadence, or more than MAX_OUTPUT_TIMES instants is refused
    before any instant is built.
    """
    if not (math.isfinite(t_end) and t_end >= t_start):
        raise BadConfig(f"t_end = {t_end} must be finite and not before the start {t_start}")
    if not (math.isfinite(output_every) and output_every > 0):
        raise BadConfig(f"output_every = {output_every} must be finite and positive")
    if (t_end - t_start) / output_every > MAX_OUTPUT_TIMES:
        raise BadConfig(
            f"t_end = {t_end} with output_every = {output_every} schedules "
            f"more than {MAX_OUTPUT_TIMES} output instants")
    times = []
    k = math.floor(t_start / output_every + 1e-9) + 1
    while k * output_every < t_end * (1.0 - 1e-12):
        tk = k * output_every
        if tk > t_start:
            times.append(tk)
        k += 1
    times.append(t_end)
    return times
