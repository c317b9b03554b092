"""Repetition server: imports the program once, forks one process per repetition.

    python bench/server.py

Started by ``run.py`` with BLAS/OpenMP pinned to one thread.  It imports
chemokin, numpy and scipy and then does nothing else in its own process:
each request (one JSON line on stdin) forks a fresh child, which writes
the workload's generated configs into the request's work directory, times
set-up and the solve, checks the outputs and writes ``rep.json`` there.
A forked child starts with the imports done but no chemokin code run, so
its set-up is cold and excludes imports.  Around its timed work the child
also times a fixed calibration kernel (the fastest of ``CALIBRATION_RUNS``),
which ``run.py`` uses to cancel drift in the machine's speed.  The server
answers each request with one JSON line: the child's exit code and its
maximum RSS.
"""
from __future__ import annotations

import gc
import json
import os
import sys
import time
import traceback
from pathlib import Path

sys.dont_write_bytecode = True
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

CALIBRATION_RUNS = 3


def _import_program() -> dict:
    """Import chemokin from this checkout's ``src``, never from elsewhere."""
    import chemokin

    src = (ROOT / "src").resolve()
    if src not in Path(chemokin.__file__).resolve().parents:
        raise RuntimeError(f"chemokin imported from {chemokin.__file__}, not from {src}")
    import numpy
    import scipy

    return {"chemokin": chemokin.__version__, "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def calibrate() -> float:
    """Seconds for a fixed piece of numpy work shaped like the solver's.

    Two parts, because the host slows them differently: a three-point
    stencil sweep over a density-sized array (the adaptation substep's
    pattern) and a loop of gathers on small arrays (the interpreter-bound
    pattern of the oracle and the schedulers).  It shares no code with
    chemokin, so only the machine's speed moves it.
    """
    import numpy as np

    x = np.linspace(0.0, 1.0, 128 * 4 * 96).reshape(128, 4, 96)
    a = np.linspace(0.0, 1.0, 64 * 64).reshape(64, 64)
    idx = (np.arange(64) * 7) % 64
    start = time.perf_counter()
    for _ in range(100):
        y = x * 0.999
        y[..., 1:] += 0.0005 * x[..., :-1]
        y[..., :-1] += 0.0005 * x[..., 1:]
        x = y
    for _ in range(750):
        w = np.clip(a[idx, :] * 0.5 + a[:, idx].T * 0.25, 0.0, 2.0)
        a = np.where(w > 1.0, w - 1.0, w)
    return time.perf_counter() - start


def run_rep(workload_name: str, seed: int, workdir: Path, setup_only: bool,
            trace: bool) -> dict:
    """Set up, solve and check one repetition; the record for ``rep.json``."""
    from tracing import Tracer
    from workloads import WORKLOADS

    result: dict = {"ok": False, "problems": []}
    tracer = None
    # The machine's speed around the timed work, measured in this process:
    # after set-up only (to keep it cold) or before set-up and after solving.
    calibrations = [] if setup_only else [min(calibrate() for _ in range(CALIBRATION_RUNS))]
    try:
        workload = WORKLOADS[workload_name]
        configs = {}
        for name, text in workload.scenarios(seed).items():
            configs[name] = workdir / name
            configs[name].write_text(text)
        out = workdir / "out"
        out.mkdir()

        if trace:
            tracer = Tracer()
            tracer.install()
        t0 = time.perf_counter_ns()
        ctx = workload.setup(configs)
        t1 = time.perf_counter_ns()
        result["setup_s"] = (t1 - t0) * 1e-9
        if not setup_only:
            solved = workload.solve(ctx, out)
            t2 = time.perf_counter_ns()
            if tracer is not None:
                tracer.uninstall()
                result["trace"] = tracer.export()
                result["trace"]["window"] = [t1 * 1e-9, t2 * 1e-9]
            problems, digest = workload.check(ctx, out, solved)
            result.update(
                tts_s=(t2 - t1) * 1e-9,
                problems=problems,
                digest=digest,
                macro_steps=workload.macro_steps(ctx, solved),
                cell_updates=workload.cell_updates(ctx, solved),
                provenance=workload.provenance(ctx),
            )
        result["ok"] = not result["problems"]
    except Exception:  # a repetition that raises is a failed repetition
        result["problems"].append(traceback.format_exc())
    finally:
        if tracer is not None:
            tracer.uninstall()
    calibrations.append(min(calibrate() for _ in range(CALIBRATION_RUNS)))
    result["calibration_s"] = sum(calibrations) / len(calibrations)
    return result


def _child(request: dict, versions: dict) -> int:
    """Body of a forked repetition process; returns its exit code."""
    os.dup2(2, 1)  # stdout is the reply pipe: keep stray prints off it
    workdir = Path(request["workdir"])
    os.chdir(workdir)
    os.environ["CHEMOKIN_OUT"] = str(workdir / "out")
    result = run_rep(request["workload"], request["seed"], workdir,
                     request["setup_only"], request["trace"])
    result["versions"] = versions
    (workdir / "rep.json").write_text(json.dumps(result))
    return 0 if result["ok"] else 1


def serve() -> int:
    # One CPU for the server and every child it forks, so each repetition's
    # calibration measures the processor its work ran on.  The last one:
    # CPU 0 usually also serves the interrupts.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    versions = _import_program()
    import tracing  # noqa: F401  (imported before forking, like the program)
    import workloads  # noqa: F401

    # Keep the collector from touching (and so copying) the server's objects
    # in every forked child.
    gc.freeze()
    for line in sys.stdin:
        request = json.loads(line)
        sys.stdout.flush()
        sys.stderr.flush()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = _child(request, versions)
            finally:
                sys.stdout.flush()
                sys.stderr.flush()
                os._exit(code)
        _, status, usage = os.wait4(pid, 0)
        reply = {"exit": os.waitstatus_to_exitcode(status),
                 "peak_rss_mib": usage.ru_maxrss / 1024.0}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(serve())
