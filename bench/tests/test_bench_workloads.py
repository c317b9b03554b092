import json
from dataclasses import replace
from pathlib import Path

import pytest

import chemokin.kinetic as kinetic
import run
from chemokin.config import GridConfig, RunConfig, RunSettings, parse_config
from chemokin.model import build_scenario
from workloads import (DEFAULT_SCENARIO, STUDY_SCENARIO, WORKLOADS, jitter, render,
                       schedule_steps)

ROOT = Path(__file__).resolve().parents[2]


def _parse(text: str, tmp_path: Path) -> RunConfig:
    path = tmp_path / "scenario.cfg"
    path.write_text(text)
    return parse_config(path)


@pytest.mark.parametrize("workload,shipped", [("kinetic_default", "default.cfg"),
                                              ("eps_study", "study.cfg")])
def test_seed_zero_reproduces_shipped_config(workload, shipped, tmp_path):
    (text,) = WORKLOADS[workload].scenarios(0).values()
    assert _parse(text, tmp_path) == parse_config(ROOT / "configs" / shipped)


@pytest.mark.parametrize("scenario", [DEFAULT_SCENARIO, STUDY_SCENARIO])
def test_other_seeds_jitter_only_the_bump(scenario, tmp_path):
    base = _parse(render(scenario), tmp_path)
    moved = _parse(render(jitter(scenario, 7, 0.5, 0.1)), tmp_path)
    assert moved.initial != base.initial
    blank = {"center": 0.0, "width": 1.0}
    assert replace(moved, initial=replace(moved.initial, **blank)) \
        == replace(base, initial=replace(base.initial, **blank))
    assert abs(moved.initial.center - base.initial.center) <= 0.5
    assert abs(moved.initial.width / base.initial.width - 1.0) <= 0.1
    assert render(jitter(scenario, 7, 0.5, 0.1)) == render(jitter(scenario, 7, 0.5, 0.1))


def test_schedule_count_matches_run_and_restart():
    # dt_cap = dx / max speed = 0.125 / 0.75: two steps per full output interval.
    cfg = RunConfig(grid=GridConfig(x_nodes=64, x_extent=8.0, v_count=4, m_nodes=16),
                    run=RunSettings(t_end=0.7, output_every=0.3))
    grid, spec, initial = build_scenario(cfg)
    state = kinetic.StepperState.create(grid, spec, initial)
    done, _ = kinetic.run(state, 0.7, 0.3)
    assert schedule_steps(state.cfl_dt(), 0.0, 0.7, 0.3) == done.step_count == 5
    half, _ = kinetic.run(state, 0.3, 0.3)
    resumed, _ = kinetic.run(replace(half, step_count=0), 0.7, 0.3)
    assert schedule_steps(state.cfl_dt(), 0.3, 0.7, 0.3) == resumed.step_count == 3


def test_oracle_check_rejects_low_order():
    check = WORKLOADS["oracle_xval"].check
    assert check({}, Path("."), {"gaps": [0.018, 0.0094], "digest": "d"}) == ([], "d")
    problems, _ = check({}, Path("."), {"gaps": [0.018, 0.0120], "digest": "d"})
    assert problems and "order" in problems[0]


def _rep(ok, digest="a", problems=(), flags=()):
    return {"ok": ok, "flags": list(flags), "problems": list(problems), "digest": digest,
            "setup_s": 0.01, "tts_s": 1.0, "cell_updates": 1000, "peak_rss_mib": 100.0,
            "macro_steps": 1, "versions": {}, "provenance": {}, "wall_s": 1.0}


def _main(monkeypatch, tmp_path, capsys, reps):
    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setattr(run, "run_loop", lambda *args: reps)
    code = run.main(["--workload", "kinetic_default", "--seed", "0", "--seconds", "1",
                     "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    record = json.loads((tmp_path / "kinetic_default-seed0-trace0.json").read_text())
    return code, result, record


def test_failing_check_counts_and_exits_nonzero(monkeypatch, tmp_path, capsys):
    reps = [_rep(True), _rep(False, problems=["min p < 0"]), _rep(True)]
    code, result, record = _main(monkeypatch, tmp_path, capsys, reps)
    assert code != 0
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 3, 1)
    assert record["failed_share"] == pytest.approx(1 / 3)


def test_digest_mismatch_counts_as_failure(monkeypatch, tmp_path, capsys):
    reps = [_rep(True, "a"), _rep(True, "a"), _rep(True, "b")]
    code, result, _ = _main(monkeypatch, tmp_path, capsys, reps)
    assert code != 0 and result["failed"] == 1
    assert "differs" in reps[2]["problems"][0]


def test_all_passing_reports_every_end_to_end_metric(monkeypatch, tmp_path, capsys):
    reps = [_rep(True, flags=["--setup-only"]), _rep(True), _rep(True)]
    code, result, _ = _main(monkeypatch, tmp_path, capsys, reps)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {name for name, _ in run.END_TO_END}


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_names()
