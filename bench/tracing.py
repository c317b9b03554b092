"""Spans around chemokin's layer functions, recorded from outside the program.

Tracing rebinds each traced name in the modules that call it: ``macro_step``
looks ``adaptation_apply`` up as a global of ``chemokin.kinetic``, so
rebinding ``chemokin.kinetic.adaptation_apply`` puts a span around every
call without touching the package's source.  A name imported into several
consumers (``solve_signal`` in ``kinetic``, ``limit`` and ``cli``) is
rebound in each.  Wrappers pass arguments and results through unchanged,
so a traced run computes the same bits as an untraced one.

Spans (name, start, end, parent) stay in memory until the run ends.  A
name that no consumer binds any more is reported as absent, not an error,
so the benchmark keeps running when a later version deletes a function.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import time
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Target:
    """One layer function and the consumer bindings that reach it.

    ``sites`` are ``module:attribute`` or ``module:Class.method`` strings.
    ``busy_on`` lists the workloads whose time to solution the function
    should move; ``idle_on`` those where it should do almost no work.
    """

    name: str
    sites: tuple[str, ...]
    busy_on: tuple[str, ...] = ()
    idle_on: tuple[str, ...] = ()


KINETIC = ("kinetic_default", "eps_study", "free_2d")
ALL = ("kinetic_default", "eps_study", "oracle_xval", "free_2d")

TARGETS = (
    Target("kinetic.adaptation_apply", ("chemokin.kinetic:adaptation_apply",),
           busy_on=("kinetic_default", "eps_study"), idle_on=("oracle_xval",)),
    Target("kinetic.turning_apply", ("chemokin.kinetic:turning_apply",),
           busy_on=("free_2d",), idle_on=("oracle_xval",)),
    Target("kinetic.transport_apply", ("chemokin.kinetic:transport_apply",),
           busy_on=("free_2d",), idle_on=("oracle_xval",)),
    Target("kinetic.macro_step", ("chemokin.kinetic:macro_step",), busy_on=KINETIC),
    Target("elliptic.solve_signal",
           ("chemokin.kinetic:solve_signal", "chemokin.limit:solve_signal",
            "chemokin.cli:solve_signal"),
           busy_on=("free_2d",), idle_on=("oracle_xval",)),
    Target("diagnostics.DiagnosticsReport.observe",
           ("chemokin.diagnostics:DiagnosticsReport.observe",),
           busy_on=("eps_study",), idle_on=("oracle_xval",)),
    Target("dumpio.write_dump", ("chemokin.dumpio:write_dump",),
           busy_on=("kinetic_default",),
           idle_on=("eps_study", "oracle_xval", "free_2d")),
    Target("dumpio.read_dump", ("chemokin.dumpio:read_dump",),
           busy_on=("kinetic_default",),
           idle_on=("eps_study", "oracle_xval", "free_2d")),
    Target("limit.oda_run", ("chemokin.limit:oda_run",),
           busy_on=("eps_study",), idle_on=("kinetic_default", "oracle_xval", "free_2d")),
    Target("limit.concentration_metrics", ("chemokin.limit:concentration_metrics",),
           busy_on=("eps_study",), idle_on=("kinetic_default", "oracle_xval", "free_2d")),
    Target("limit.m_zero_field", ("chemokin.limit:m_zero_field",),
           busy_on=("eps_study",), idle_on=("kinetic_default", "oracle_xval", "free_2d")),
    Target("oracle.duhamel_solve", ("chemokin.oracle:duhamel_solve",),
           busy_on=("oracle_xval",), idle_on=("kinetic_default", "eps_study", "free_2d")),
    Target("model.build_scenario",
           ("chemokin.model:build_scenario", "chemokin.cli:build_scenario",
            "chemokin.limit:build_scenario"),
           busy_on=ALL),
)


def _resolve(site: str):
    """(owner object, attribute name) of a binding, or None if it is gone."""
    module_name, _, path = site.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class Tracer:
    """Records spans around every target while installed.

    Besides spans it keeps a few per-call facts that the per-layer metrics
    need (file sizes for dump I/O, Picard sweeps of the oracle, the
    arguments that set the adaptation CFL ratio); they are read outside
    the timed span of the call.
    """

    def __init__(self, targets: tuple[Target, ...] = TARGETS):
        self.targets = targets
        self.spans: list[tuple[int, str, int, int, int]] = []
        self.absent: list[str] = []
        self.bytes: dict[str, int] = {}
        self.sweeps = 0
        self.adaptation_args: list[tuple] = []
        self._next_id = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        wrapped: dict[int, object] = {}
        for target in self.targets:
            found = False
            for site in target.sites:
                binding = _resolve(site)
                if binding is None:
                    continue
                owner, attr = binding
                original = owner.__dict__[attr] if isinstance(owner, type) \
                    else getattr(owner, attr)
                key = id(original)
                if key not in wrapped:
                    wrapped[key] = self._wrap(target.name, original)
                self._restore.append((owner, attr, original))
                setattr(owner, attr, wrapped[key])
                found = True
            if not found:
                self.absent.append(target.name)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        after = {
            "kinetic.adaptation_apply": self._note_adaptation,
            "dumpio.write_dump": self._note_bytes,
            "dumpio.read_dump": self._note_bytes,
            "oracle.duhamel_solve": self._note_sweeps,
        }.get(name)
        signature = inspect.signature(fn) if after is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans.append((span_id, name, start, end, parent))
            if after is not None:
                after(name, signature.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    def _note_adaptation(self, name, arguments, result) -> None:
        self.adaptation_args.append(
            (arguments["s"], arguments["spec"], arguments["grid"], arguments["dt"]))

    def _note_bytes(self, name, arguments, result) -> None:
        self.bytes[name] = self.bytes.get(name, 0) + os.path.getsize(arguments["path"])

    def _note_sweeps(self, name, arguments, result) -> None:
        self.sweeps += int(result.iterations)

    def cfl_ratio_max(self) -> float:
        """Largest dt*max|F|/(eps*dm) over all traced adaptation calls."""
        best = 0.0
        for s, spec, grid, dt in self.adaptation_args:
            best = max(best, adaptation_cfl(spec, grid, s, dt))
        return best

    def export(self) -> dict:
        """Plain-data form of everything recorded, for the result file."""
        return {
            "spans": [{"id": i, "name": n, "start": a * 1e-9, "end": b * 1e-9,
                       "parent": p} for i, n, a, b, p in self.spans],
            "absent": list(self.absent),
            "bytes": dict(self.bytes),
            "sweeps": self.sweeps,
            "cfl_ratio_max": self.cfl_ratio_max(),
        }


def adaptation_cfl(spec, grid, s, dt: float, eps: float | None = None) -> float:
    """Adaptation stiffness number dt*max|F(m_edges, S)|/(eps*dm)."""
    s = np.asarray(s, dtype=float)
    f_edge = spec.adaptation_rate(grid.m_edges[None, :], s.reshape(-1)[:, None])
    eps = spec.epsilon if eps is None else eps
    return float(dt * np.abs(f_edge).max() / (eps * grid.dm))


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by its child spans.

    Children may nest or overlap one another; the union of their intervals,
    clipped to the parent, is what gets subtracted.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for sp in spans:
        if sp["parent"] >= 0:
            children.setdefault(sp["parent"], []).append((sp["start"], sp["end"]))
    out = {}
    for sp in spans:
        start, end = sp["start"], sp["end"]
        clipped = [(max(a, start), min(b, end))
                   for a, b in children.get(sp["id"], []) if min(b, end) > max(a, start)]
        out[sp["id"]] = (end - start) - _union_length(clipped)
    return out


def layer_summary(spans: list[dict], window: tuple[float, float] | None = None) -> dict:
    """Per-function calls, self time, inclusive time and call durations (ms).

    ``window`` limits the inclusive time to spans starting inside it (the
    time-to-solution interval), for shares of the traced solve time.
    """
    self_s = self_times(spans)
    out: dict[str, dict] = {}
    for sp in spans:
        entry = out.setdefault(sp["name"], {"calls": 0, "self_s": 0.0,
                                            "inclusive_s": 0.0, "call_ms": []})
        duration = sp["end"] - sp["start"]
        entry["calls"] += 1
        entry["self_s"] += self_s[sp["id"]]
        entry["call_ms"].append(duration * 1e3)
        if window is None or window[0] <= sp["start"] < window[1]:
            entry["inclusive_s"] += duration
    return out
