"""chemokin benchmark: one workload, closed loop with one client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each repetition is a fresh process,
forked by a repetition server (``server.py``) that has imported the program
once with BLAS/OpenMP pinned to one thread; configs use ``threads = 1`` and
outputs go to a temporary ``CHEMOKIN_OUT`` under ``.bench_out/``.  The next
repetition starts when the previous one has ended (a closed loop with one
client), until the time budget is spent, at least one repetition.  Untraced
runs first time set-up alone in ``SETUP_SAMPLES`` children.

``--trace 0`` reports the end-to-end metrics (medians over repetitions).
Times are calibrated: each repetition also times a fixed numpy kernel, and
its wall times are scaled to a reference speed of that kernel (see
``CAL_NOMINAL_S``); raw wall times stay in the record.
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics from the traced ones, plus the tracing overhead.  Every
metric is printed by name with its unit; the last line of standard output
is the JSON result, and the full record (provenance, every repetition,
spans of the last traced repetition) goes to ``.bench_out/``.  The exit
code is non-zero when any repetition failed.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

sys.dont_write_bytecode = True
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))

from stats import summarize  # noqa: E402
from tracing import TARGETS, layer_summary  # noqa: E402

#: Set-up-only children at the start of an untraced run.
SETUP_SAMPLES = 11
#: Calibration kernel time (fastest of three) at the reference speed.  Time
#: metrics are wall times scaled by CAL_NOMINAL_S / measured calibration, so
#: they read in seconds of a machine running at that speed; the host's speed
#: drifts by tens of percent over minutes, and the scaling cancels that.
CAL_NOMINAL_S = 0.045
#: Wall-clock cap for one run, below the 180 s any run must end within.
HARD_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = (
    ("setup_s", "s"),
    ("time_to_solution_s", "s"),
    ("cell_updates_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
)
LAYER_STATS = (("calls", "count"), ("self_s", "s"), ("call_ms_p50", "ms"),
               ("call_ms_ptail", "ms"))
LAYER_EXTRAS = (
    ("kinetic.adaptation_apply.cfl_ratio_max", "ratio"),
    ("kinetic.macro_steps", "count"),
    ("dumpio.write_dump.bytes", "bytes"),
    ("dumpio.read_dump.bytes", "bytes"),
    ("oracle.duhamel_solve.sweeps", "count"),
    ("trace.overhead_s", "s"),
)


def per_layer_names() -> list[tuple[str, str]]:
    return [(f"{t.name}.{stat}", unit) for t in TARGETS for stat, unit in LAYER_STATS] \
        + list(LAYER_EXTRAS)


def provenance(reps: list[dict]) -> dict:
    """Revision, machine and library versions, plus the scenario facts of a run."""
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "chemokin").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    revision = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
        revision = proc.stdout.strip() or revision
    out = {"git_revision": revision, "source_sha256": source.hexdigest(),
           "nproc": os.cpu_count(), "python": sys.version.split()[0]}
    done = next((r for r in reps if "provenance" in r), None)
    if done is not None:
        out.update(done["versions"], macro_steps=done["macro_steps"], **done["provenance"])
    return out


class RepServer:
    """The repetition server (``server.py``): one forked process per repetition."""

    def __init__(self, log_path: Path):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1",
                   PYTHONHASHSEED="0", TMPDIR=str(WORK))
        env.update({var: "1" for var in THREAD_VARS})
        self.log_path = log_path
        self.log = open(log_path, "w")
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "server.py")], cwd=WORK, env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.log,
            start_new_session=True)
        self.problem = ""

    def _exchange(self, request: dict, deadline: float) -> dict | None:
        """Send one request and wait for its reply line; None once the server failed."""
        if self.problem:
            return None
        try:
            self.proc.stdin.write(json.dumps(request) + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            self.problem = "repetition server exited"
            return None
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    max(0.0, deadline - time.monotonic()))
        if not ready:
            self.kill()
            self.problem = "repetition timed out"
            return None
        line = self.proc.stdout.readline()
        if not line:
            self.problem = "repetition server exited"
            return None
        return json.loads(line)

    def run(self, workload: str, seed: int, flags: list[str], deadline: float) -> dict:
        """One repetition: its rep.json plus wall time and peak RSS, or a failure."""
        tmp = Path(tempfile.mkdtemp(prefix="rep-", dir=WORK))
        request = {"workload": workload, "seed": seed, "workdir": str(tmp),
                   "setup_only": "--setup-only" in flags, "trace": "--trace" in flags}
        start = time.monotonic()
        try:
            reply = self._exchange(request, deadline)
            rep_path = tmp / "rep.json"
            if reply is None:
                rep = {"ok": False, "problems": [self.problem]}
            elif not rep_path.exists():
                rep = {"ok": False, "problems": ["repetition wrote no result"]}
            else:
                rep = json.loads(rep_path.read_text())
                rep["peak_rss_mib"] = reply["peak_rss_mib"]
            if reply is not None and reply["exit"] != 0:
                rep["ok"] = False
                rep["problems"].append(f"repetition exit code {reply['exit']}")
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        rep["wall_s"] = time.monotonic() - start
        rep["flags"] = flags
        if not rep["ok"]:
            self.log.flush()
            rep["stderr_tail"] = self.log_path.read_text()[-4000:]
        return rep

    def kill(self) -> None:
        if self.proc.poll() is None:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.kill()
        self.log.close()


def mark_digest_mismatches(reps: list[dict]) -> None:
    """Fail the repetitions whose digest differs from the set's commonest one."""
    digests = Counter(r["digest"] for r in reps if r["ok"])
    if not digests:
        return
    reference = digests.most_common(1)[0][0]
    for r in reps:
        if r["ok"] and r["digest"] != reference:
            r["ok"] = False
            r["problems"].append(f"digest {r['digest'][:16]} differs from {reference[:16]}")


def run_loop(workload: str, seed: int, seconds: float, trace: bool,
             log_path: Path) -> list[dict]:
    """Set-up samples, then repetitions until the budget is spent.

    Untraced runs start with ``SETUP_SAMPLES`` set-up-only children; traced
    runs alternate an untraced and a traced repetition.
    """
    start = time.monotonic()
    deadline, hard = start + seconds, start + HARD_LIMIT_S
    modes = [[], ["--trace"]] if trace else [[]]
    server = RepServer(log_path)
    try:
        reps = [] if trace else [server.run(workload, seed, ["--setup-only"], hard)
                                 for _ in range(SETUP_SAMPLES)]
        walls: list[float] = []
        while not server.problem:
            batch = [server.run(workload, seed, flags, hard) for flags in modes]
            reps += batch
            walls.append(sum(r["wall_s"] for r in batch))
            if time.monotonic() + statistics.median(walls) > deadline \
                    or time.monotonic() > hard:
                break
    except BaseException:
        server.kill()
        raise
    finally:
        server.close()
    return reps


def calibrated(rep: dict, seconds: float) -> float:
    """A wall time of ``rep`` in seconds at the reference speed."""
    return seconds * CAL_NOMINAL_S / rep.get("calibration_s", CAL_NOMINAL_S)


def end_to_end(reps: list[dict]) -> tuple[dict, dict]:
    """(metric -> value, metric -> median/tail/count summary, raw timings too)."""
    ok = [r for r in reps if r["ok"]]
    probes = [r for r in ok if "--setup-only" in r["flags"]]
    full = [r for r in ok if "--setup-only" not in r["flags"]]
    samples = {
        "setup_s": [calibrated(r, r["setup_s"]) for r in probes],
        "time_to_solution_s": [calibrated(r, r["tts_s"]) for r in full],
        "cell_updates_per_s": [r["cell_updates"] / calibrated(r, r["tts_s"]) for r in full],
        "peak_rss_mib": [r["peak_rss_mib"] for r in full],
    }
    summaries = {name: summarize(values) for name, values in samples.items()}
    values = {name: s["median"] for name, s in summaries.items() if s["n"]}
    summaries["wall_setup_s"] = summarize([r["setup_s"] for r in probes])
    summaries["wall_time_to_solution_s"] = summarize([r["tts_s"] for r in full])
    summaries["calibration_s"] = summarize([r["calibration_s"] for r in ok
                                            if "calibration_s" in r])
    return values, summaries


def per_layer(reps: list[dict]) -> tuple[dict, dict]:
    """(metric -> value, per-function table with shares) from traced repetitions."""
    traced = [r for r in reps if r["ok"] and "trace" in r]
    untraced = [r for r in reps if r["ok"] and "trace" not in r]
    tables = [layer_summary(r["trace"]["spans"], tuple(r["trace"]["window"])) for r in traced]
    values: dict[str, float] = {}
    table: dict[str, dict] = {}
    for target in TARGETS:
        rows = [t.get(target.name) for t in tables]
        durations = [ms for row in rows if row for ms in row["call_ms"]]
        calls = statistics.median([row["calls"] if row else 0 for row in rows]) if rows else 0
        self_s = statistics.median([row["self_s"] if row else 0.0 for row in rows]) \
            if rows else 0.0
        shares = [row["inclusive_s"] / r["tts_s"] if row else 0.0
                  for row, r in zip(rows, traced)]
        call_ms = summarize(durations)
        values[f"{target.name}.calls"] = calls
        values[f"{target.name}.self_s"] = self_s
        values[f"{target.name}.call_ms_p50"] = call_ms["median"]
        values[f"{target.name}.call_ms_ptail"] = call_ms["tail_value"]
        table[target.name] = {"calls": calls, "self_s": self_s, "call_ms": call_ms,
                              "share": statistics.median(shares) if shares else 0.0}

    def median_of(get):
        return statistics.median([get(r) for r in traced]) if traced else 0.0

    values["kinetic.adaptation_apply.cfl_ratio_max"] = \
        max((r["trace"]["cfl_ratio_max"] for r in traced), default=0.0)
    values["kinetic.macro_steps"] = values["kinetic.macro_step.calls"]
    for name in ("dumpio.write_dump", "dumpio.read_dump"):
        values[f"{name}.bytes"] = median_of(lambda r: r["trace"]["bytes"].get(name, 0))
    values["oracle.duhamel_solve.sweeps"] = median_of(lambda r: r["trace"]["sweeps"])
    tts = [calibrated(r, r["tts_s"]) for r in untraced]
    values["trace.overhead_s"] = median_of(lambda r: calibrated(r, r["tts_s"])) \
        - statistics.median(tts) if traced and tts else 0.0
    return values, table


def check_traced_steps(reps: list[dict]) -> None:
    """A traced run's macro_step calls must match the schedule's count."""
    for r in reps:
        if not (r["ok"] and "trace" in r) or "kinetic.macro_step" in r["trace"]["absent"]:
            continue
        calls = sum(1 for sp in r["trace"]["spans"] if sp["name"] == "kinetic.macro_step")
        if calls != r["macro_steps"]:
            r["ok"] = False
            r["problems"].append(
                f"traced macro_step calls {calls} != scheduled macro steps {r['macro_steps']}")


def print_report(workload, reps, summaries, table, values, units) -> None:
    print(f"workload {workload}: {len(reps)} children, "
          f"{sum(not r['ok'] for r in reps)} failed")
    for r in reps:
        if not r["ok"]:
            print(f"  FAILED {' '.join(r['flags']) or 'untraced'}: "
                  + "; ".join(p.strip().splitlines()[-1] for p in r["problems"]))
    for name, s in summaries.items():
        print(f"  {name} = {s['median']:.6g} {units.get(name, 's')} (median of {s['n']}; "
              f"{s['tail']} = {s['tail_value']:.6g})")
    if table:
        print(f"  {'function':<40} {'calls':>7} {'self_s':>9} {'share':>6} "
              f"{'p50_ms':>9} {'tail_ms':>9} expect")
        for target in TARGETS:
            row = table[target.name]
            expect = "busy" if workload in target.busy_on else \
                "idle" if workload in target.idle_on else ""
            print(f"  {target.name:<40} {row['calls']:>7g} {row['self_s']:>9.4f} "
                  f"{row['share']:>6.3f} {row['call_ms']['median']:>9.3f} "
                  f"{row['call_ms']['tail_value']:>9.3f} {expect}")
        for name, _ in LAYER_EXTRAS:
            print(f"  {name} = {values[name]:.6g} {units[name]}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops its repetition server (see run_loop).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (ROOT / "src" / "chemokin" / "__init__.py").is_file():
        print(f"error: no chemokin sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    reps = run_loop(args.workload, args.seed, args.seconds, bool(args.trace),
                    WORK / f"{tag}-stderr.log")
    full = [r for r in reps if "--setup-only" not in r["flags"]]
    mark_digest_mismatches(full)
    check_traced_steps(full)

    if args.trace:
        values, table = per_layer(reps)
        names, summaries = per_layer_names(), {}
    else:
        (values, summaries), table = end_to_end(reps), {}
        names = list(END_TO_END)
    units = dict(names)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in names if name in values}
    failed = sum(not r["ok"] for r in reps)
    correct = failed == 0 and len(metrics) == len(names)

    print_report(args.workload, reps, summaries, table, values, units)
    if args.trace and table:
        fn, op, bound = workload.purpose
        share = table[fn]["share"]
        holds = share >= bound if op == ">=" else share < bound
        print(f"  purpose: {fn} share of traced solve time {share:.3f} "
              f"(chosen for {op} {bound:g}): {'holds' if holds else 'does not hold'}")

    spans = next((r["trace"]["spans"] for r in reversed(full) if "trace" in r), None)
    record = {
        "workload": args.workload, "why": workload.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "provenance": provenance(full),
        "correct": correct, "attempted": len(reps), "failed": failed,
        "failed_share": failed / len(reps), "metrics": metrics, "summaries": summaries,
        "layers": table,
        "absent": sorted({n for r in full if "trace" in r for n in r["trace"]["absent"]}),
        "repetitions": [{k: v for k, v in r.items() if k != "trace"} for r in reps],
    }
    (WORK / f"{tag}.json").write_text(json.dumps(record, indent=1))
    if spans is not None:
        (WORK / f"{tag}-spans.json").write_text(json.dumps(spans))
    print(f"  failed_share = {failed}/{len(reps)}; record in {WORK / (tag + '.json')}")
    print(json.dumps({"correct": correct, "attempted": len(reps), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
