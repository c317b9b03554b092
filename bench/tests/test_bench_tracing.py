import numpy as np

import chemokin.kinetic as kinetic
import chemokin.limit as limit
from chemokin.config import GridConfig, RunConfig
from chemokin.model import build_scenario
from tracing import Target, Tracer, layer_summary


def _small_state():
    cfg = RunConfig(grid=GridConfig(x_nodes=32, x_extent=8.0, v_count=2, m_nodes=16))
    grid, spec, initial = build_scenario(cfg)
    return kinetic.StepperState.create(grid, spec, initial)


def test_traced_steps_match_untraced_bits_and_bindings_are_restored():
    originals = (kinetic.adaptation_apply, kinetic.macro_step, limit.solve_signal)
    state = _small_state()
    plain, _ = kinetic.run(state, 0.5, 0.25)

    tracer = Tracer()
    tracer.install()
    try:
        traced, _ = kinetic.run(state, 0.5, 0.25)
    finally:
        tracer.uninstall()

    assert np.array_equal(plain.field.values, traced.field.values)
    assert (kinetic.adaptation_apply, kinetic.macro_step, limit.solve_signal) == originals
    table = layer_summary(tracer.export()["spans"])
    assert table["kinetic.macro_step"]["calls"] == plain.step_count
    assert table["kinetic.adaptation_apply"]["calls"] == 2 * plain.step_count
    assert table["elliptic.solve_signal"]["calls"] == plain.step_count
    # Sub-operators nest under the macro step, so its self time is small.
    step = table["kinetic.macro_step"]
    assert 0.0 <= step["self_s"] < step["inclusive_s"]
    assert tracer.cfl_ratio_max() > 0.0


def test_deleted_function_is_reported_absent():
    tracer = Tracer((Target("limit.gone", ("chemokin.limit:no_such_function",
                                            "chemokin.nonexistent:f")),
                     Target("kinetic.macro_step", ("chemokin.kinetic:macro_step",))))
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["limit.gone"]
