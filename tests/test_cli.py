"""Subcommands, exit codes, config rejection, determinism and restart."""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import chemokin
from chemokin import cli, dumpio, kinetic
from chemokin.cli import main
from chemokin.config import parse_config
from chemokin.errors import BadConfig

SMALL_CONFIG = """\
[grid]
x_nodes = 32
x_extent = 8.0
v_count = 2
m_nodes = 24

[model]
kappa = 1.0
eps = 0.2

[initial]
width = 1.0

[run]
t_end = 0.2
output_every = 0.1
out_dir = {out}
"""


def write_config(tmp_path: Path, name="scenario.cfg", extra="", t_end=None) -> Path:
    text = SMALL_CONFIG.format(out=tmp_path / "out")
    if t_end is not None:
        text = text.replace("t_end = 0.2", f"t_end = {t_end}")
    path = tmp_path / name
    path.write_text(text + extra)
    return path


def free_config(tmp_path: Path, x_extent: float = 8.0) -> Path:
    """The small scenario on a free grid of the given extent."""
    text = SMALL_CONFIG.format(out=tmp_path / "out").replace(
        "x_extent = 8.0", f"x_extent = {x_extent}\nx_topology = free")
    path = tmp_path / "free.cfg"
    path.write_text(text)
    return path


def run_python(*args):
    """``python *args`` with this checkout's package importable."""
    src = str(Path(chemokin.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=60)


def test_python_m_chemokin_help():
    # The package runs as ``python -m chemokin`` from a source checkout.
    proc = run_python("-m", "chemokin", "--help")
    assert proc.returncode == 0, proc.stderr
    assert "study-eps" in proc.stdout


def test_importing_the_cli_loads_no_scipy_and_numpy_fft_eagerly():
    # chemokin runs on numpy alone; any scipy module would add ~20 MiB to
    # every run's resident set.  numpy.fft and numpy.polynomial.legendre,
    # which numpy loads lazily, are loaded by the import, so a process
    # forked after it pays no import in its set-up.  chemokin runs in one
    # thread, so no thread pool is imported either.
    proc = run_python("-c", "import sys, chemokin.cli; "
                            "print([m for m in sys.modules if m.split('.')[0] == 'scipy']); "
                            "print('numpy.fft' in sys.modules, "
                            "'numpy.polynomial.legendre' in sys.modules, "
                            "'concurrent.futures' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "True True False"]


EVERY_KEY_CONFIG = """\
[grid]
dim = 2
x_nodes = 24
x_extent = 6.5
x_topology = free
v_count = 6
m_nodes = 20
m_max = 2.5
m_max_auto = false

[model]
F_family = cubic
kappa = 1.5
S_ref = 0.3
m_minus = 0.25
m_plus = 1.1
T_family = separable-angle
lambda0 = 0.8
beta = 0.3
m_c = 0.6
delta = 0.2
eps = 0.05

[initial]
profile = two-bumps
center = 0.5
width = 0.9
mass = 2.0

[run]
t_end = 0.5
output_every = 0.05
out_dir = elsewhere
"""


def test_parse_config_roundtrip(tmp_path):
    from dataclasses import fields

    from chemokin.config import GridConfig, InitialConfig, ModelConfig, RunConfig, RunSettings
    cfg = parse_config(write_config(tmp_path))
    assert cfg.grid.x_nodes == 32
    assert cfg.model.eps == 0.2
    assert cfg.run.t_end == 0.2

    # Every key of every section, each off its default, reads back as typed.
    expected = RunConfig(
        grid=GridConfig(dim=2, x_nodes=24, x_extent=6.5, x_topology="free", v_count=6,
                        m_nodes=20, m_max=2.5),
        model=ModelConfig(f_family="cubic", kappa=1.5, s_ref=0.3, m_minus=0.25, m_plus=1.1,
                          t_family="separable-angle", lambda0=0.8, beta=0.3, m_c=0.6,
                          delta=0.2, eps=0.05),
        initial=InitialConfig(profile="two-bumps", center=0.5, width=0.9, mass=2.0),
        run=RunSettings(t_end=0.5, output_every=0.05, out_dir="elsewhere"),
    )
    path = tmp_path / "every_key.cfg"
    path.write_text(EVERY_KEY_CONFIG)
    parsed = parse_config(path)
    assert parsed == expected
    for name in ("grid", "model", "initial", "run"):
        got, want, default = (getattr(c, name) for c in (parsed, expected, RunConfig()))
        for f in fields(want):
            assert getattr(want, f.name) != getattr(default, f.name), f.name
            assert type(getattr(got, f.name)) is type(getattr(want, f.name)), f.name

    # Old dumps restart only while the shipped scenario keeps its hash.
    assert parse_config(CONFIG_DIR / "default.cfg").scenario_hash() == "a1f338b0dd837b93"


def test_unknown_key_rejected_naming_it(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("[model]\nfoo = 1\n")
    assert main(["run", str(path)]) == 2
    assert "foo" in capsys.readouterr().err


def test_threads_one_is_read_and_dropped(tmp_path):
    # The removed option stays readable at its old default, so configs that
    # carry ``threads = 1`` parse to what they parse to without it.
    plain = write_config(tmp_path)
    with_key = write_config(tmp_path, "threads.cfg", extra="threads = 1\n")
    assert parse_config(with_key) == parse_config(plain)


@pytest.mark.parametrize("value", ["2", "0", "many"])
def test_threads_other_than_one_is_bad_config(tmp_path, capsys, value):
    path = write_config(tmp_path, extra=f"threads = {value}\n")
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"threads = {value}" in err and "removed" in err
    assert not (tmp_path / "out").exists()


def test_unknown_section_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[mystery]\nx = 1\n")
    with pytest.raises(BadConfig, match="mystery"):
        parse_config(path)


def test_m_max_conflict_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[grid]\nm_max = 2.0\nm_max_auto = true\n")
    with pytest.raises(BadConfig, match="m_max"):
        parse_config(path)


@pytest.mark.parametrize("key, value", [
    ("dim", "3"), ("x_topology", "torus"), ("x_nodes", "0"), ("v_count", "0"),
    ("m_nodes", "0"), ("x_extent", "-1"), ("m_max", "-1"),
    ("F_family", "quartic"), ("T_family", "mystery"), ("kappa", "-1"), ("S_ref", "0"),
    ("lambda0", "0"), ("delta", "-0.25"), ("eps", "0"), ("m_minus", "0"),
    ("m_plus", "0.1"), ("profile", "square"),
])
def test_bad_grid_model_or_profile_value_is_bad_config(tmp_path, monkeypatch, capsys,
                                                       key, value):
    # The types the scenario is built from reject these values, and every
    # command builds it before any work: exit 2, naming the key or the value,
    # and verify prints and writes nothing.
    text = (CONFIG_DIR / "default.cfg").read_text()
    target = "m_max_auto" if key == "m_max" else key  # m_max replaces the auto rule
    old = next(line for line in text.splitlines() if line.startswith(f"{target} = "))
    path = tmp_path / "bad.cfg"
    path.write_text(text.replace(old, f"{key} = {value}"))
    out = tmp_path / "out"
    monkeypatch.setenv("CHEMOKIN_OUT", str(out))
    for argv in (["run", str(path)], ["study-eps", str(path), "--eps", "0.2,0.1"],
                 ["verify", str(path)]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.err.startswith("bad-config:")
        assert key in captured.err or repr(value) in captured.err, captured.err
        assert captured.out == ""
    assert not (out / "kernel_check.csv").exists()


@pytest.mark.parametrize("old, new, args", [
    ("eps = 0.2", "eps = nan", None),
    ("kappa = 1.0", "kappa = nan", None),
    ("[model]", "[model]\nlambda0 = nan", None),
    ("output_every = 0.1", "output_every = nan", None),
    (None, None, ["--eps", "0.2,nan"]),
    (None, None, ["--eps", "inf,0.1"]),
], ids=["eps", "kappa", "lambda0", "output_every", "eps-list-nan", "eps-list-inf"])
def test_non_finite_input_is_bad_config(tmp_path, capsys, old, new, args):
    # NaN slips through every "<= 0" check; it must still be a bad config
    # (exit 2) naming the value, not a crash or a verification failure.
    path = write_config(tmp_path)
    if old is not None:
        path.write_text(path.read_text().replace(old, new))
    argv = ["run", str(path)] if args is None else ["study-eps", str(path)] + args
    assert main(argv) == 2
    assert "finite" in capsys.readouterr().err


def test_infinite_t_end_rejected(tmp_path):
    # Checked on the parser: a run to t_end = inf would never end.
    with pytest.raises(BadConfig, match="t_end"):
        parse_config(write_config(tmp_path, t_end="inf"))


def test_unbounded_output_schedule_rejected(tmp_path):
    # 1e5 output instants, each a dump: rejected from the ratio alone,
    # before any schedule is built.  10^4 instants is the most allowed.
    path = write_config(tmp_path, t_end="1.0")
    path.write_text(path.read_text().replace("output_every = 0.1", "output_every = 1e-5"))
    with pytest.raises(BadConfig, match="output instants"):
        parse_config(path)
    path.write_text(path.read_text().replace("output_every = 1e-5", "output_every = 2e-4"))
    assert parse_config(path).run.output_every == 2e-4


def test_missing_config_is_io_error(tmp_path):
    assert main(["run", str(tmp_path / "nope.cfg")]) == 3


def test_run_writes_dumps_and_diagnostics(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    assert main(["run", str(cfg_path)]) == 0
    out = tmp_path / "out"
    assert (out / "final.chk").exists()
    assert (out / "diagnostics.csv").exists()
    assert (out / "dump_0.chk").exists()
    assert (out / "dump_0.2.chk").exists()


def test_final_dump_is_the_t_end_dump_byte_for_byte(tmp_path):
    # final.chk is a copy of the dump written at t_end, in a straight run
    # and in a restart.
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", str(cfg)]) == 0
    assert (out / "final.chk").read_bytes() == (out / "dump_0.2.chk").read_bytes()
    (out / "final.chk").unlink()
    (out / "dump_0.1.chk").rename(tmp_path / "mid.chk")
    assert main(["run", str(cfg), "--restart", str(tmp_path / "mid.chk")]) == 0
    assert (out / "final.chk").read_bytes() == (out / "dump_0.2.chk").read_bytes()
    assert not list(out.glob(".*.tmp"))


def test_run_refuses_output_instants_that_share_a_dump_name(tmp_path, capsys):
    # dump_0.2.chk would be written at t = 0.2 and again at t_end; the
    # schedule is refused before the first step, and no dump is written.
    cfg = write_config(tmp_path, t_end=0.2000000001)
    assert main(["run", str(cfg)]) == 2
    assert "dump_0.2.chk" in capsys.readouterr().err
    assert not list(tmp_path.glob("out/*.chk"))


PERIODIC_2D_CONFIG = """\
[grid]
dim = 2
x_nodes = 64
x_extent = 16.0
v_count = 8
m_nodes = 16

[model]
eps = 3.0

[run]
t_end = 0.5
output_every = 0.25
out_dir = {out}
"""


def test_run_holds_only_its_steps_densities(tmp_path):
    # A run holds the step's input, its result and the work buffer, plus
    # small scratch: neither the initial density nor the report keeps a
    # density once the first step has replaced it.
    import tracemalloc
    cfg = tmp_path / "periodic_2d.cfg"
    cfg.write_text(PERIODIC_2D_CONFIG.format(out=tmp_path / "out"))
    density = 64 * 64 * 8 * 16 * 8
    tracemalloc.start()
    try:
        assert main(["run", str(cfg)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * density, peak / density


def test_run_determinism_bitwise(tmp_path):
    cfg_path = write_config(tmp_path)
    assert main(["run", str(cfg_path)]) == 0
    first = (tmp_path / "out" / "final.chk").read_bytes()
    assert main(["run", str(cfg_path)]) == 0
    second = (tmp_path / "out" / "final.chk").read_bytes()
    assert first == second


def _run_summary(out: str) -> str:
    """The 'steps = N, max mass defect = D' part of a run's last line."""
    return out.strip().splitlines()[-1].split("steps = ")[1].split(", out =")[0]


def test_restart_equals_straight_through(tmp_path, capsys):
    cfg_full = write_config(tmp_path, name="full.cfg", t_end=0.2)
    assert main(["run", str(cfg_full)]) == 0
    straight = (tmp_path / "out" / "final.chk").read_bytes()
    straight_summary = _run_summary(capsys.readouterr().out)

    cfg_half = write_config(tmp_path, name="half.cfg", t_end=0.1)
    assert main(["run", str(cfg_half)]) == 0
    mid = tmp_path / "out" / "dump_0.1.chk"
    assert mid.exists()
    capsys.readouterr()
    assert main(["run", str(cfg_full), "--restart", str(mid)]) == 0
    resumed = (tmp_path / "out" / "final.chk").read_bytes()
    assert straight == resumed
    # The resumed run carries on the step count and the largest defect.
    assert _run_summary(capsys.readouterr().out) == straight_summary
    assert not straight_summary.startswith("0,")


def test_restart_solves_its_signal_once(tmp_path, monkeypatch):
    # A restart builds its state from the dump's density: one signal solve,
    # none for the initial data it replaces.  Restarted at t_end, it steps
    # no further.
    cfg = write_config(tmp_path, t_end=0.1)
    assert main(["run", str(cfg)]) == 0
    solves = []
    for module in (cli, kinetic):
        real = module.solve_signal
        monkeypatch.setattr(module, "solve_signal",
                            lambda n, grid, real=real: solves.append(1) or real(n, grid))
    assert main(["run", str(cfg), "--restart", str(tmp_path / "out" / "dump_0.1.chk")]) == 0
    assert len(solves) == 1


def test_restart_rejects_mismatched_scenario(tmp_path):
    cfg_path = write_config(tmp_path)
    assert main(["run", str(cfg_path)]) == 0
    other = tmp_path / "other.cfg"
    other.write_text(SMALL_CONFIG.format(out=tmp_path / "out2").replace(
        "kappa = 1.0", "kappa = 1.5"))
    code = main(["run", str(other), "--restart",
                 str(tmp_path / "out" / "dump_0.1.chk")])
    assert code == 2


def test_compare_self_distance_zero(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    assert main(["run", str(cfg_path)]) == 0
    dump = str(tmp_path / "out" / "final.chk")
    assert main(["compare", dump, dump]) == 0
    out = capsys.readouterr().out
    assert "L1 distance:   0.0" in out
    assert "bitwise equal: True" in out


def test_compare_distinct_dumps(tmp_path, capsys):
    # The L1 distance is the phase-space integral of |a - b|, measured the
    # way every other integral is (``fields.total_mass``).
    from chemokin import dumpio
    from chemokin.fields import total_mass
    cfg_path = write_config(tmp_path)
    assert main(["run", str(cfg_path)]) == 0
    a = str(tmp_path / "out" / "dump_0.chk")
    b = str(tmp_path / "out" / "final.chk")
    assert main(["compare", a, b]) == 0
    out = capsys.readouterr().out
    assert "bitwise equal: False" in out
    da, db = dumpio.read_dump(a), dumpio.read_dump(b)
    assert f"L1 distance:   {total_mass(np.abs(da.values - db.values), da.grid)!r}" in out


def test_compare_same_grid_is_symmetric(tmp_path, capsys):
    # Dumps of one grid at different times compare in either order, with
    # the same distance.
    cfg_path = write_config(tmp_path)
    assert main(["run", str(cfg_path)]) == 0
    a = str(tmp_path / "out" / "dump_0.chk")
    b = str(tmp_path / "out" / "final.chk")
    l1 = []
    for pair in ((a, b), (b, a)):
        assert main(["compare", *pair]) == 0
        lines = capsys.readouterr().out.splitlines()
        l1 += [line for line in lines if line.startswith("L1 distance:")]
    assert len(l1) == 2 and l1[0] == l1[1]


@pytest.mark.parametrize("key, other", [("x_extent = 8.0", "x_extent = 80.0"),
                                        ("x_nodes = 32", "x_nodes = 16")])
def test_compare_rejects_other_grid_in_both_orders(tmp_path, capsys, key, other):
    # Same array shape (x_extent) or not (x_nodes): a grid mismatch is a
    # bad config, never a distance measured in one dump's cell size.
    dumps = []
    for name, text in (("a", key), ("b", other)):
        sub = tmp_path / name
        sub.mkdir()
        cfg_path = write_config(sub)
        cfg_path.write_text(cfg_path.read_text().replace(key, text))
        assert main(["run", str(cfg_path)]) == 0
        dumps.append(str(sub / "out" / "final.chk"))
    for pair in (dumps, dumps[::-1]):
        assert main(["compare", *pair]) == 2
        captured = capsys.readouterr()
        assert "L1 distance" not in captured.out
        assert captured.err.startswith("bad-config:")


def test_compare_bitwise_sees_signed_zero(tmp_path, capsys):
    # Dumps whose payloads differ only in the sign of a zero have distance
    # 0 but are not bitwise equal.
    from chemokin import dumpio
    from chemokin.model import build_scenario
    cfg_path = write_config(tmp_path)
    assert main(["run", str(cfg_path)]) == 0
    dump = dumpio.read_dump(tmp_path / "out" / "final.chk")
    grid, _, _ = build_scenario(parse_config(cfg_path))
    paths = []
    for name, zero in (("plus.chk", 0.0), ("minus.chk", -0.0)):
        values = dump.values.copy(order="K")
        values[0, 0, 0] = zero
        paths.append(str(tmp_path / name))
        dumpio.write_dump(paths[-1], values, dump.t, grid, dump.eps, dump.scenario,
                          steps=dump.steps, max_mass_defect=dump.max_mass_defect)
    capsys.readouterr()
    assert main(["compare", *paths]) == 0
    out = capsys.readouterr().out
    assert "L1 distance:   0.0" in out
    assert "bitwise equal: False" in out
    assert main(["compare", paths[1], paths[1]]) == 0
    assert "bitwise equal: True" in capsys.readouterr().out


def test_compare_rejects_non_finite_dump(tmp_path, capsys):
    # As for --restart, a NaN in a dump is a bad config (exit 2), even when
    # a dump is compared with itself.
    from chemokin import dumpio
    from chemokin.model import build_scenario
    cfg_path = write_config(tmp_path)
    assert main(["run", str(cfg_path)]) == 0
    dump = dumpio.read_dump(tmp_path / "out" / "final.chk")
    grid, _, _ = build_scenario(parse_config(cfg_path))
    values = dump.values.copy(order="K")
    values[1, 1, 1] = float("nan")
    poisoned = str(tmp_path / "nan.chk")
    dumpio.write_dump(poisoned, values, dump.t, grid, dump.eps, dump.scenario,
                      steps=dump.steps, max_mass_defect=dump.max_mass_defect)
    capsys.readouterr()
    clean = str(tmp_path / "out" / "final.chk")
    for pair in ((poisoned, poisoned), (clean, poisoned), (poisoned, clean)):
        assert main(["compare", *pair]) == 2
        captured = capsys.readouterr()
        assert "bitwise equal" not in captured.out
        assert "non-finite" in captured.err


def test_compare_rejects_non_dump(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    assert main(["compare", str(cfg_path), str(cfg_path)]) == 2


@pytest.mark.parametrize("key, value", [
    ("dim", "0"), ("dim", "3"), ("x_nodes", "0"), ("v_count", "0"), ("v_count", "-1"),
    ("m_nodes", "0"), ("m_nodes", "-2"), ("x_extent", "0.0"), ("x_extent", "inf"),
    ("x_extent", "nan"), ("m_max", "-1.0"), ("m_max", "inf"),
    ("t", "nan"), ("t", "inf"), ("t", "-0.5"), ("eps", "nan"), ("eps", "0.0"),
])
def test_compare_rejects_out_of_range_grid_header(tmp_path, capsys, key, value):
    # The velocity list and the payload are resized to what the edited
    # header promises, so the dump is refused for its range alone.
    cfg_path = write_config(tmp_path)
    assert main(["run", str(cfg_path)]) == 0
    raw = (tmp_path / "out" / "final.chk").read_bytes()
    cut = raw.index(b"END_HEADER\n")
    fields = dict(line.split("=", 1) for line in raw[:cut].decode().splitlines()[1:])
    fields[key] = value
    dim, v_count = int(fields["dim"]), int(fields["v_count"])
    fields["v"] = ",".join(["0.5"] * max(v_count * dim, 1))
    fields["w"] = ",".join(["1.0"] * max(v_count, 1))
    size = int(fields["x_nodes"]) ** dim * v_count * int(fields["m_nodes"])
    header = "\n".join([dumpio.MAGIC] + [f"{k}={v}" for k, v in fields.items()]
                       + ["END_HEADER\n"])
    bad = tmp_path / "bad.chk"
    bad.write_bytes(header.encode() + np.zeros(max(size, 0)).tobytes())
    assert main(["compare", str(bad), str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("bad-config:")
    assert "out of range" in err or "malformed dump header" in err, err


def test_compare_refuses_a_header_whose_size_overflows_int64(tmp_path, capsys):
    # (2**32)**2 cells wrap a 64-bit count to 0, which an empty payload would
    # match; counted exactly, the header is refused before any allocation.
    header = [dumpio.MAGIC, "dim=2", f"x_nodes={2 ** 32}", "x_extent=1.0",
              "x_topology=periodic", "v_count=1", "v=0.0,0.0", "w=1.0", "m_nodes=1",
              "m_max=1.0", "t=0.0", "eps=1.0", "scenario=x", "steps=0",
              "max_mass_defect=0.0", "END_HEADER\n"]
    bad = tmp_path / "bad.chk"
    bad.write_bytes("\n".join(header).encode())
    assert main(["compare", str(bad), str(bad)]) == 2
    assert "payload holds 0 bytes" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("w", "-1.0,-1.0"), ("w", "inf,1.0"), ("x_topology", "spiral"),
])
def test_compare_rejects_a_header_no_grid_accepts(tmp_path, capsys, key, value):
    # The dump is the run's own (two velocities) with one header field
    # edited: its grid is validated as a PhaseGrid is.
    cfg_path = write_config(tmp_path)
    assert main(["run", str(cfg_path)]) == 0
    raw = (tmp_path / "out" / "final.chk").read_bytes()
    start = raw.index(f"\n{key}=".encode()) + len(key) + 2
    end = raw.index(b"\n", start)
    bad = tmp_path / "bad.chk"
    bad.write_bytes(raw[:start] + value.encode() + raw[end:])
    assert main(["compare", str(bad), str(bad)]) == 2
    assert capsys.readouterr().err.startswith("bad-config:")


def test_out_dir_env_override(tmp_path, monkeypatch):
    cfg_path = write_config(tmp_path)
    override = tmp_path / "elsewhere"
    monkeypatch.setenv("CHEMOKIN_OUT", str(override))
    assert main(["run", str(cfg_path)]) == 0
    assert (override / "final.chk").exists()
    assert not (tmp_path / "out" / "final.chk").exists()


def test_study_eps_cli(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    assert main(["study-eps", str(cfg_path), "--eps", "0.4,0.2"]) == 0
    study = tmp_path / "out" / "study_eps.csv"
    assert study.exists()
    lines = study.read_text().splitlines()
    assert lines[0] == "eps,t,w1,l1_gap,mass,env_pbar_margin,env_n_margin,tail_moment,xmoment_rate"
    assert len(lines) == 1 + 2 * 3  # two eps, rows at t = 0, 0.1, 0.2


def test_study_eps_bad_list(tmp_path):
    cfg_path = write_config(tmp_path)
    assert main(["study-eps", str(cfg_path), "--eps", "0.1,0.2"]) == 2


def test_verify_passes_on_small_scenario(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    assert main(["verify", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "PASS spectral residual" in out
    assert "PASS free-space delta" in out
    assert "PASS kernel mass" in out
    assert "PASS oracle cross-validation" in out
    assert "check sweeps = 1, fixed-point residual" in out
    assert "PASS envelopes" in out
    assert (tmp_path / "out" / "kernel_check.csv").exists()


def test_verify_passes_on_free_grid_that_loses_outflow(tmp_path, capsys):
    # A free boundary lets mass out, so the run's relative defect is not
    # round-off; verify checks that the mass never grows instead.
    assert main(["verify", str(free_config(tmp_path))]) == 0
    out = capsys.readouterr().out
    assert "PASS mass never grows: outflow through the free boundary = 2.497e-05" in out
    assert "verify: OK" in out


def test_verify_fails_when_free_grid_mass_grows(tmp_path, monkeypatch, capsys):
    # On a wide free grid the outflow is ~1e-14, so a transport that gains
    # 1e-9 of the mass per call makes it grow between output rows.
    path = free_config(tmp_path, x_extent=16.0)
    assert main(["verify", str(path)]) == 0
    assert "PASS mass never grows" in capsys.readouterr().out

    transport = kinetic.transport_apply

    def gaining(p, grid, dt, out=None, **kw):
        res = transport(p, grid, dt, out=out, **kw)
        res *= 1.0 + 1e-9
        return res

    monkeypatch.setattr(kinetic, "transport_apply", gaining)
    assert main(["verify", str(path)]) == 4
    out = capsys.readouterr().out
    assert "FAIL mass never grows: mass grew from" in out
    assert "verify: FAILED" in out


def test_verify_oracle_residual_failure_exits_4(tmp_path, monkeypatch, capsys):
    # A node solve that returns its right-hand side leaves a residual the check sees.
    from chemokin import oracle
    monkeypatch.setattr(oracle, "_solve_node", lambda inv, rhs: rhs)
    assert main(["verify", str(write_config(tmp_path))]) == 4
    assert "fixed-point residual" in capsys.readouterr().err


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def test_shipped_default_matches_coded_defaults():
    from chemokin.config import RunConfig
    shipped = parse_config(CONFIG_DIR / "default.cfg")
    assert shipped.scenario_hash() == RunConfig().scenario_hash()


def test_verify_passes_on_shipped_default(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CHEMOKIN_OUT", str(tmp_path / "out"))
    assert main(["verify", str(CONFIG_DIR / "default.cfg")]) == 0
    assert "verify: OK" in capsys.readouterr().out


def test_nan_mid_run_is_verification_failure(tmp_path, monkeypatch, capsys):
    # A NaN produced inside a step is a solver failure (exit 4), not a
    # bad config, and is caught before the signal solve sees it.
    from chemokin import kinetic
    real_transport = kinetic.transport_apply

    def poisoned(p, grid, dt, **kw):
        out = real_transport(p, grid, dt, **kw)
        out[0, 0, 0] = float("nan")
        return out

    monkeypatch.setattr(kinetic, "transport_apply", poisoned)
    assert main(["run", str(write_config(tmp_path))]) == 4
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["transport_apply", "turning_apply"])
@pytest.mark.parametrize("row, step", [(0, 1), (12, 1), (23, 1), (12, 2)],
                         ids=["row-0", "band-row", "row-M-1", "band-row-banded-step"])
def test_nan_in_any_m_row_is_verification_failure(tmp_path, monkeypatch, capsys, name, row,
                                                   step):
    # A NaN that turning or transport leaves in m-row ``row`` (of 24) from
    # macro step ``step`` on stops the run with exit 4.  The first step's
    # band is every row; the second step's is narrower, and the NaN sits in
    # it, where the next sub-step reads it.
    real = getattr(kinetic, name)
    bands = []

    def poisoned(*args, **kw):
        out = real(*args, **kw)
        bands.append(kw["band"])
        if len(bands) > (step - 1) * (2 if name == "turning_apply" else 1):
            out[0, 0, row] = float("nan")
        return out

    monkeypatch.setattr(kinetic, name, poisoned)
    assert main(["run", str(write_config(tmp_path))]) == 4
    assert "non-finite" in capsys.readouterr().err
    lo, hi = bands[-1]
    assert lo <= row < hi and (hi - lo < 24) == (step == 2)


def test_restart_keeps_the_run_mass_reference(tmp_path, capsys):
    # Mass drift recorded in the dump (here an injected 1e-9) must still
    # show in the resumed run's defect, measured against the scenario mass.
    from chemokin import dumpio
    from chemokin.model import build_scenario
    cfg_half = write_config(tmp_path, name="half.cfg", t_end=0.1)
    assert main(["run", str(cfg_half)]) == 0
    dump = dumpio.read_dump(tmp_path / "out" / "dump_0.1.chk")
    cfg = parse_config(write_config(tmp_path, name="full.cfg"))
    grid, _, _ = build_scenario(cfg)
    drifted = tmp_path / "drifted.chk"
    dumpio.write_dump(drifted, dump.values * (1.0 + 1e-9), dump.t, grid,
                      dump.eps, dump.scenario, steps=dump.steps, max_mass_defect=dump.max_mass_defect)
    capsys.readouterr()
    assert main(["run", str(tmp_path / "full.cfg"), "--restart", str(drifted)]) == 0
    out = capsys.readouterr().out
    defect = float(out.split("max mass defect = ")[1].split(",")[0])
    assert defect >= 1e-9


def test_restart_rejects_non_finite_dump(tmp_path, capsys):
    # A dump is outside input: a NaN cell is a bad config (exit 2), not a
    # solver failure.
    from chemokin import dumpio
    from chemokin.model import build_scenario
    cfg_path = write_config(tmp_path)
    assert main(["run", str(cfg_path)]) == 0
    dump = dumpio.read_dump(tmp_path / "out" / "dump_0.1.chk")
    values = dump.values.copy()
    values[0, 0, 0] = float("nan")
    grid, _, _ = build_scenario(parse_config(cfg_path))
    poisoned = tmp_path / "nan.chk"
    dumpio.write_dump(poisoned, values, dump.t, grid, dump.eps, dump.scenario,
                      steps=dump.steps, max_mass_defect=dump.max_mass_defect)
    assert main(["run", str(cfg_path), "--restart", str(poisoned)]) == 2
    assert "non-finite" in capsys.readouterr().err
    # So is a time stamp the output schedule cannot start from.
    for t in (float("nan"), -0.5):
        stamped = tmp_path / "stamped.chk"
        dumpio.write_dump(stamped, dump.values, t, grid, dump.eps, dump.scenario,
                          steps=dump.steps, max_mass_defect=dump.max_mass_defect)
        assert main(["run", str(cfg_path), "--restart", str(stamped)]) == 2
        assert "time stamp" in capsys.readouterr().err


def test_restart_and_compare_reject_a_negative_cell(tmp_path, capsys):
    # One check in read_dump serves both readers: a negative cell is a bad
    # config (exit 2) for --restart and for compare alike.
    from chemokin import dumpio
    from chemokin.model import build_scenario
    cfg_path = write_config(tmp_path)
    assert main(["run", str(cfg_path)]) == 0
    dump = dumpio.read_dump(tmp_path / "out" / "dump_0.1.chk")
    values = dump.values.copy()
    values[2, 1, 3] = -1e-3
    grid, _, _ = build_scenario(parse_config(cfg_path))
    poisoned = str(tmp_path / "bad.chk")
    dumpio.write_dump(poisoned, values, dump.t, grid, dump.eps, dump.scenario,
                      steps=dump.steps, max_mass_defect=dump.max_mass_defect)
    capsys.readouterr()
    assert main(["run", str(cfg_path), "--restart", poisoned]) == 2
    err = capsys.readouterr().err
    assert poisoned in err and "negative" in err
    clean = str(tmp_path / "out" / "final.chk")
    for pair in ((clean, poisoned), (poisoned, clean)):
        assert main(["compare", *pair]) == 2
        captured = capsys.readouterr()
        assert "L1 distance" not in captured.out
        assert poisoned in captured.err and "negative" in captured.err


def test_run_envelope_failure_exits_4_and_keeps_outputs(tmp_path, monkeypatch, capsys):
    # A margin below its envelope is a verification failure; the outputs of
    # the run that found it are still written.
    from chemokin import diagnostics
    real_growth = diagnostics.growth_factor
    monkeypatch.setattr(diagnostics, "growth_factor",
                        lambda rate, t: 0.5 * real_growth(rate, t))
    assert main(["run", str(write_config(tmp_path))]) == 4
    captured = capsys.readouterr()
    fails = [line for line in captured.err.splitlines() if line.startswith("FAIL envelope: ")]
    assert fails and len(fails) == len(captured.err.splitlines())
    assert any("margin_pbar" in line for line in fails)
    assert "run complete" not in captured.out
    out = tmp_path / "out"
    assert (out / "final.chk").exists()
    assert len((out / "diagnostics.csv").read_text().splitlines()) == 1 + 3  # t = 0, 0.1, 0.2


def test_study_envelope_failure_exits_4_and_keeps_the_table(tmp_path, monkeypatch, capsys):
    # As in run: a member's margin below its envelope is a verification
    # failure, named with its eps, and study_eps.csv is still written.
    from chemokin import diagnostics
    real_growth = diagnostics.growth_factor
    monkeypatch.setattr(diagnostics, "growth_factor",
                        lambda rate, t: 0.5 * real_growth(rate, t))
    assert main(["study-eps", str(write_config(tmp_path)), "--eps", "0.2,0.1"]) == 4
    captured = capsys.readouterr()
    fails = captured.err.splitlines()
    assert fails and all(line.startswith("FAIL envelope: eps = ") for line in fails)
    for eps in ("0.2", "0.1"):
        assert any(line.startswith(f"FAIL envelope: eps = {eps}: t=") and "margin_pbar" in line
                   for line in fails), fails
    assert captured.out == ""
    table = (tmp_path / "out" / "study_eps.csv").read_text().splitlines()
    assert len(table) == 1 + 2 * 3  # two members at t = 0, 0.1, 0.2


def test_cfl_violation_mid_run_is_verification_failure(tmp_path, monkeypatch, capsys):
    # A step beyond the CFL bound is a solver failure (exit 4), not a bad
    # config.
    from chemokin.kinetic import StepperState
    real_cfl_dt = StepperState.cfl_dt
    monkeypatch.setattr(StepperState, "cfl_dt", lambda self: 2.0 * real_cfl_dt(self))
    path = write_config(tmp_path, t_end=1.0)
    # One output interval spans two CFL-limited steps, so the doubled step
    # really exceeds the bound.
    path.write_text(path.read_text().replace("output_every = 0.1", "output_every = 1.0"))
    assert main(["run", str(path)]) == 4
    assert "exceeds" in capsys.readouterr().err
