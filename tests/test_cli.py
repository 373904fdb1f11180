import concurrent.futures
import contextlib
import csv
import gc
import json
import logging
import os
import pickle
import re
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

import mepsim.analysis
import mepsim.cli
from mepsim import DelayModel, simulate
from mepsim.analysis import required_horizon
from mepsim.cli import (_CONFIG, EXIT_CHECK_FAILURE, EXIT_HORIZON,
                        EXIT_INVALID, EXIT_IO, EXIT_NOT_STABILIZED, EXIT_OK,
                        load_config, main, resolve_config)
from mepsim.errors import ConfigError, ParameterError
from mepsim.timing import SimParams
from mepsim.topology import build_ring, from_edge_list, topology_stats
from mepsim.trace import Trace, read_trace, write_trace

FAST = ["--override", "topology=ring:4", "--override", "d_max=100",
        "--override", "rho=0.0", "--override", "drift.mode=zero"]


def test_load_config_defaults_and_overrides():
    cfg = load_config(overrides=["topology=grid:4x4", "rho=0.01",
                                 "delay.kind=adversarial-max"])
    assert cfg["topology"] == "grid:4x4"
    assert cfg["rho"] == 0.01
    assert cfg["delay"]["kind"] == "adversarial-max"


def test_load_config_rejects_unknown_keys(tmp_path):
    with pytest.raises(ConfigError):
        load_config(overrides=["no_such_key=1"])
    bad = tmp_path / "cfg.json"
    bad.write_text('{"frobnicate": true}')
    with pytest.raises(ConfigError):
        load_config(bad)


def test_config_file_precedence(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"topology": "ring:6", "seed": 9}))
    cfg = load_config(path, overrides=["seed=11"])
    assert cfg["topology"] == "ring:6" and cfg["seed"] == 11


def test_object_override_merges_like_a_config_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"delay": {"kind": "adversarial-max"}}')
    cfg = load_config(overrides=['delay={"kind": "adversarial-max"}'])
    assert cfg["delay"] == {"kind": "adversarial-max", "schedule_file": None,
                            "cycle": False}
    assert cfg == load_config(path)


@pytest.mark.parametrize("text", ['{"delay.kind": "fixed"}',
                                  '{"delay": {"kind.x": "fixed"}}'])
def test_config_file_rejects_dotted_keys(tmp_path, text):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    with pytest.raises(ConfigError, match="unknown config key"):
        load_config(path)
    argv = ["run", "--out", str(tmp_path / "o"), "--config", str(path)]
    assert main(argv + FAST) == EXIT_INVALID


def test_unknown_init_mode_exits_invalid(tmp_path):
    argv = ["run", "--out", str(tmp_path / "o"), "--override", "init.mode=bogus"]
    assert main(argv + FAST) == EXIT_INVALID


def test_nan_drift_exits_invalid(tmp_path):
    argv = ["run", "--out", str(tmp_path / "o"),
            "--override", "topology=ring:4", "--override", "d_max=100",
            "--override", "drift.mode=explicit",
            "--override", "drift.values=[NaN,0,0,0]"]
    assert main(argv) == EXIT_INVALID
    assert not (tmp_path / "o").exists()


def test_negative_elapsed_exits_invalid(tmp_path):
    argv = ["run", "--out", str(tmp_path / "o"),
            "--override", "init.mode=adversarial-explicit",
            "--override", "init.elapsed=[-1000000000,0,0,0]"]
    assert main(argv + FAST) == EXIT_INVALID


def test_drifted_one_tick_excitation_exits_invalid(tmp_path, capsys):
    """At rho = 0.5 a restoration tau0 = 100 ticks and a liveness deadline
    tau2 = 101 ticks can round to one real instant: rejected, not run."""
    argv = ["run", "--out", str(tmp_path / "o"),
            "--override", "topology=ring:4", "--override", "d_max=10",
            "--override", "rho=0.5", "--override", "tau0=100",
            "--override", "tau1=67", "--override", "tau2=101",
            "--override", "drift.mode=extremal"]
    assert main(argv) == EXIT_INVALID
    assert "tau0=100, tau2=101" in capsys.readouterr().err


def test_compensation_with_tau0_below_d_min_exits_invalid(tmp_path, capsys):
    argv = ["run", "--out", str(tmp_path / "o"), "--override", "d_min=50",
            "--override", "dmin_compensation=true", "--override", "tau0=40",
            "--override", "tau1=1000", "--override", "tau2=1000"]
    assert main(argv + FAST) == EXIT_INVALID
    assert "got tau0=40 < d_min=50" in capsys.readouterr().err


@pytest.mark.parametrize("overrides, message", [
    (["delay.kind=fixed", "d_min=50"],
     "unknown delay model kind 'fixed'"),
    (["delay.kind=adversarial-schedule", "delay.schedule_file={schedule}"],
     "outside [0, 100]"),
], ids=["fixed-unequal-bounds", "schedule-out-of-bounds"])
def test_delay_model_outside_the_bounds_exits_invalid(tmp_path, capsys,
                                                      overrides, message):
    """The delay model draws within the params' [d_min, d_max]: every
    scheduled delay must lie inside.  "fixed" is no kind (a fixed delay
    is adversarial-max at d_min == d_max), whatever the bounds."""
    schedule = tmp_path / "sched.txt"
    schedule.write_text("0 1 150\n")
    argv = FAST + [arg for item in overrides
                   for arg in ("--override", item.format(schedule=schedule))]
    assert main(["run", "--out", str(tmp_path / "o")] + argv) == EXIT_INVALID
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    assert main(["sweep", "--axis", "p", "--values", "0", "--jobs", "1",
                 "--out", str(tmp_path / "s")] + argv) == EXIT_INVALID
    assert message in capsys.readouterr().err


def test_explicit_timing_outside_the_constraint_warns(tmp_path, caplog):
    """Explicit timing that breaks the paper's constraint still runs; one
    WARNING names the broken inequality and L_G, and stays out of
    metrics.json.  Derived timing never warns."""
    explicit = ["--override", "tau0=60", "--override", "tau1=1000",
                "--override", "tau2=1000"]

    def run(out, argv):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="mepsim"):
            rc = main(["run", "--out", str(tmp_path / out)] + FAST + argv)
        return rc, [r.getMessage() for r in caplog.records]

    rc, logged = run("weak", explicit)
    assert rc in (EXIT_OK, EXIT_NOT_STABILIZED, EXIT_CHECK_FAILURE)
    assert logged == [
        "constraint violated: tau0 = 60 must exceed (1+rho)*(L_G+1)*d_max "
        "= 400.0 (L_G=3); the paper's bounds do not cover this timing"]
    metrics = json.loads((tmp_path / "weak" / "metrics.json").read_text())
    assert "constraint" not in json.dumps(metrics)
    assert run("derived", [])[1] == []
    derived = resolve_config(load_config(overrides=FAST[1::2])).params
    rc, logged = run("same", [
        arg for key in ("tau0", "tau1", "tau2")
        for arg in ("--override", f"{key}={getattr(derived, key)}")])
    assert logged == []


def test_resolve_config_produces_runnable_objects():
    cfg = load_config(overrides=["topology=ring:4", "d_max=100", "rho=0.0"])
    spec = resolve_config(cfg)
    assert spec._fields[:3] == ("graph", "stats", "params")
    assert spec.graph.node_count == 4
    assert spec.params.tau0 > 0 and spec.horizon > spec.params.tau2
    assert spec.seed == cfg["seed"] and spec.record_arrivals is True
    assert spec.run().triggers


@pytest.mark.parametrize("values", [
    {"d_max": "abc"},
    {"init.mode": "adversarial-explicit", "init.elapsed": ["a", 0, 0, 0]},
    {"init.mode": "adversarial-explicit", "init.elapsed": [0.5, 0, 0, 0]},
    {"init.signals": [[0, 1]]},
    {"rho": "x"},
    {"omission_p": []},
    {"d_min": True},
    {"tau0": 500.5, "tau1": 1800, "tau2": 1800},
    {"topology": 5},
    {"lg_override": "x"},
    {"delay": 5},
    {"delay.cycle": "yes"},
    {"drift.values": ["x"]},
    {"horizon_ns": 1e9},
    {"record_arrivals": 1},
], ids=lambda v: ",".join(f"{k}={json.dumps(x)}" for k, x in v.items()))
def test_resolve_config_rejects_mistyped_values(tmp_path, values):
    cfg = load_config(overrides=["topology=ring:4"])
    for key, value in values.items():
        *parents, leaf = key.split(".")
        node = cfg
        for part in parents:
            node = node[part]
        node[leaf] = value
    with pytest.raises(ConfigError):
        resolve_config(cfg)
    argv = ["--override", "topology=ring:4"]
    for key, value in values.items():
        argv += ["--override", f"{key}={json.dumps(value)}"]
    assert main(["run", "--out", str(tmp_path / "o")] + argv) == EXIT_INVALID


@pytest.mark.parametrize("name, text, flags", [
    ("cfg.json", "[1]", ["--config", "{path}"]),
    ("cfg.json", "\udcff", ["--config", "{path}"]),
    ("sched.txt", "0 1 x\n", ["--override", "delay.kind=adversarial-schedule",
                               "--override", "delay.schedule_file={path}"]),
    ("edges.txt", "4 x\n", ["--override", "topology_file={path}"]),
    ("sched.txt", "0 1 5\n\udcff\n",
     ["--override", "delay.kind=adversarial-schedule",
      "--override", "delay.schedule_file={path}"]),
    ("edges.txt", "4 4\n0 1\n\udcff\n", ["--override", "topology_file={path}"]),
], ids=["config-not-object", "config-not-utf8", "schedule-not-int",
        "edge-list-not-int", "schedule-not-utf8", "edge-list-not-utf8"])
def test_malformed_input_files_exit_invalid(tmp_path, name, text, flags):
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    argv = [flag.format(path=path) for flag in flags]
    assert main(["run", "--out", str(tmp_path / "o")] + argv) == EXIT_INVALID


def test_resolved_spec_survives_pickle():
    """A --jobs sweep's process pool pickles each RunSpec to a worker."""
    spec = resolve_config(load_config(overrides=[
        "topology=ring:4", "d_max=100", "init.mode=adversarial-explicit",
        "init.elapsed=[0,10,20,30]", "init.signals=[[0,1,5]]"]))
    back = pickle.loads(pickle.dumps(spec))
    assert back == spec and list(map(type, back)) == list(map(type, spec))
    assert back.run() == spec.run()


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    """Every CLI process pays its imports; these cost milliseconds, and
    only the tests run the oracle."""
    src = os.path.dirname(os.path.dirname(mepsim.cli.__file__))
    code = ("import sys, mepsim.cli; print(sorted("
            "{'dataclasses', 'inspect', 'mepsim.oracle'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], check=True, text=True,
                         capture_output=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out == "[]\n"


def test_run_success_and_artifacts(tmp_path):
    out = tmp_path / "run"
    rc = main(["run", "--out", str(out), "--seed", "5"] + FAST)
    assert rc == EXIT_OK
    for name in ("trace.csv", "metrics.json", "manifest.json",
                 "plotdata/offsets.csv", "plotdata/pattern_map.csv"):
        assert (out / name).exists()
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["stabilization"]["stabilized"] is True
    assert metrics["checks"]["all_passed"] is True


def test_seed_flag_and_seed_override_write_the_same_trace(tmp_path):
    a, b = tmp_path / "flag", tmp_path / "override"
    assert main(["run", "--out", str(a), "--seed", "7"] + FAST) == EXIT_OK
    assert main(["run", "--out", str(b), "--override", "seed=7"] + FAST) \
        == EXIT_OK
    assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()
    assert "#seed=7\n" in (a / "trace.csv").read_text()


@pytest.mark.parametrize("overrides", [
    [f"d_max={10**400}"],
    ["tau0=500", "tau2=2000", f"tau1={10**400}"]])
def test_run_rejects_huge_integer_params(tmp_path, capsys, overrides):
    argv = [a for o in overrides for a in ("--override", o)]
    assert main(["run", "--out", str(tmp_path / "o"), "--override",
                 "topology=ring:4"] + argv) == EXIT_INVALID
    assert "0" * 400 not in capsys.readouterr().err


def test_run_repeats_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--out", str(a), "--seed", "7"] + FAST) == EXIT_OK
    assert main(["run", "--out", str(b), "--seed", "7"] + FAST) == EXIT_OK
    assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()
    assert (a / "metrics.json").read_bytes() == (b / "metrics.json").read_bytes()


def test_analyze_roundtrip_identical(tmp_path):
    run_dir, an_dir = tmp_path / "run", tmp_path / "an"
    assert main(["run", "--out", str(run_dir), "--seed", "3"] + FAST) == EXIT_OK
    rc = main(["analyze", str(run_dir / "trace.csv"), "--out", str(an_dir)]
              + FAST)
    assert rc == EXIT_OK
    assert (run_dir / "metrics.json").read_bytes() == \
        (an_dir / "metrics.json").read_bytes()
    assert (run_dir / "plotdata/offsets.csv").read_bytes() == \
        (an_dir / "plotdata/offsets.csv").read_bytes()


def test_analyze_rejects_garbage(tmp_path):
    bad = tmp_path / "junk.csv"
    bad.write_text("hello\n")
    rc = main(["analyze", str(bad), "--out", str(tmp_path / "o")])
    assert rc == EXIT_INVALID


def test_short_horizon_exit_code(tmp_path):
    rc = main(["run", "--out", str(tmp_path / "o"), "--horizon-ns", "5000"]
              + FAST)
    assert rc == EXIT_HORIZON


@pytest.mark.parametrize("enabled", [True, False])
def test_commands_run_with_gc_paused(tmp_path, monkeypatch, enabled):
    """Each command runs with the cyclic GC paused, as build_metrics sees
    it; main restores the prior state after a verdict and after an error
    raised mid-command."""
    seen = []
    build_metrics = mepsim.cli.build_metrics

    def spy(*args, **kwargs):
        seen.append(gc.isenabled())
        return build_metrics(*args, **kwargs)

    monkeypatch.setattr(mepsim.cli, "build_metrics", spy)
    run_dir = tmp_path / "run"
    was_enabled = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        assert main(["run", "--out", str(run_dir)] + FAST) == EXIT_OK
        assert gc.isenabled() is enabled
        assert main(["analyze", str(run_dir / "trace.csv"),
                     "--out", str(tmp_path / "an")] + FAST) == EXIT_OK
        assert gc.isenabled() is enabled
        assert main(["run", "--out", str(tmp_path / "short"),
                     "--horizon-ns", "5000"] + FAST) == EXIT_HORIZON
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was_enabled else gc.disable()
    assert seen == [False, False, False]


def test_analyze_without_a_verdict_leaves_no_output(tmp_path):
    """A run too short for a verdict keeps its trace; analyzing that trace
    fails the same way and creates no --out directory."""
    argv = ["--override", "topology=ring:4", "--override", "d_max=100"]
    assert main(["run", "--out", str(tmp_path / "r"), "--horizon-ns", "5000"]
                + argv) == EXIT_HORIZON
    assert main(["analyze", str(tmp_path / "r" / "trace.csv"),
                 "--out", str(tmp_path / "a")] + argv) == EXIT_HORIZON
    assert not (tmp_path / "a").exists()


def _files(outdir) -> dict:
    """Every file under outdir, by its path relative to it, with its bytes."""
    return {path.relative_to(outdir).as_posix(): path.read_bytes()
            for path in outdir.rglob("*") if path.is_file()}


def test_rerun_too_short_keeps_nothing_of_the_earlier_run(tmp_path):
    """A rerun into the same --out that exits 6 leaves its own trace and
    manifest there and none of the earlier run's outputs."""
    out = tmp_path / "o"
    assert main(["run", "--out", str(out), "--seed", "1"] + FAST) == EXIT_OK
    assert "metrics.json" in _files(out)
    assert main(["run", "--out", str(out), "--seed", "2",
                 "--horizon-ns", "5000"] + FAST) == EXIT_HORIZON
    assert sorted(_files(out)) == ["manifest.json", "trace.csv"]
    assert "#seed=2\n" in (out / "trace.csv").read_text()


def test_rerun_leaves_no_stale_round_pattern(tmp_path):
    """A rerun with fewer rounds, and an analysis of its trace into the
    earlier analysis' --out, write exactly what a fresh directory gets:
    no pattern file of a round the rerun does not have survives."""
    out, an, fresh = tmp_path / "o", tmp_path / "an", tmp_path / "fresh"
    assert main(["run", "--out", str(out), "--horizon-ns", "200000"]
                + FAST) == EXIT_OK
    assert main(["analyze", str(out / "trace.csv"), "--out", str(an)]
                + FAST) == EXIT_OK
    assert main(["run", "--out", str(fresh)] + FAST) == EXIT_OK
    assert set(_files(out)) - set(_files(fresh))  # a later round's pattern
    assert main(["run", "--out", str(out)] + FAST) == EXIT_OK
    assert _files(out) == _files(fresh)
    assert main(["analyze", str(out / "trace.csv"), "--out", str(an)]
                + FAST) == EXIT_OK
    analyzed = _files(an)
    assert analyzed.pop("manifest.json")
    assert analyzed == {name: data for name, data in _files(fresh).items()
                        if name not in ("trace.csv", "manifest.json")}
    # round 100000 on, a pattern file has six digits; a file that is no
    # round's pattern stays
    (out / "patterns" / "k100000.txt").write_text("stale")
    mine = {"patterns/notes.txt": b"mine", "patterns/kept.txt": b"mine"}
    for name, data in mine.items():
        (out / name).write_bytes(data)
    assert main(["run", "--out", str(out)] + FAST) == EXIT_OK
    assert _files(out) == {**_files(fresh), **mine}


@contextlib.contextmanager
def _bare_root_logger():
    """The root logger without handlers, as in a fresh process, so that
    main's logging.basicConfig takes effect; restored afterwards."""
    root = logging.getLogger()
    handlers, level = root.handlers[:], root.level
    root.handlers.clear()
    try:
        yield root
    finally:
        root.handlers[:] = handlers
        root.setLevel(level)


@pytest.mark.parametrize("value, level", [
    ("info", logging.INFO), ("Debug", logging.DEBUG),
    ("WARNING", logging.WARNING), ("verbose", None), ("10", None),
    ("", None)])
def test_mepsim_log_takes_level_names_in_any_case(tmp_path, capsys,
                                                  monkeypatch, value, level):
    """MEPSIM_LOG names a logging level in any case; any other value is a
    usage error: exit 4 with one stderr line, before any command runs."""
    monkeypatch.setenv("MEPSIM_LOG", value)
    out = tmp_path / "o"
    with _bare_root_logger() as root:
        rc = main(["run", "--out", str(out)] + FAST)
        root_level = root.level
    err = capsys.readouterr().err
    if level is None:
        assert rc == EXIT_INVALID and not out.exists()
        assert err == f"error=usage detail=MEPSIM_LOG={value} is not a log " \
                      f"level\n"
    else:
        assert rc == EXIT_OK and root_level == level
        assert ("INFO:mepsim:run: ring:4 seed=0" in err) is \
            (level <= logging.INFO)


def test_invalid_topology_exit_code(tmp_path):
    rc = main(["run", "--out", str(tmp_path / "o"),
               "--override", "topology=moebius:4"])
    assert rc == EXIT_INVALID


def test_analyze_flags_duplicate_trigger(tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert main(["run", "--out", str(run_dir), "--seed", "1"] + FAST) == EXIT_OK
    lines = (run_dir / "trace.csv").read_text().splitlines()
    start = lines.index("seq,time_ns,cell,kind,pioneer") + 1
    end = lines.index("[arrivals]")
    # duplicate every trigger so no round can be complete: seq s becomes
    # 2s and 2s + 1, and a rejection naming s now names 2s
    rows = []
    seq = 0
    for line in lines[start:end]:
        _, t, cell, kind, pio = line.split(",")
        for _ in range(2):
            rows.append(f"{seq},{t},{cell},{kind},{pio}")
            seq += 1
    arrivals = lines[end:end + 2]
    for line in lines[end + 2:]:
        t, frm, to, outcome, rej = line.split(",")
        rej = str(2 * int(rej)) if rej else ""
        arrivals.append(f"{t},{frm},{to},{outcome},{rej}")
    doctored = tmp_path / "doctored.csv"
    doctored.write_text("\n".join(lines[:start] + rows + arrivals) + "\n")
    capsys.readouterr()
    rc = main(["analyze", str(doctored), "--out", str(tmp_path / "an")] + FAST)
    assert rc == EXIT_NOT_STABILIZED
    out, err = capsys.readouterr()
    assert out == "not-stabilized\n"
    assert err.startswith("violation=invalid-") and " k=" in err


def test_plotdata_offsets_match_per_k(tmp_path):
    out = tmp_path / "run"
    assert main(["run", "--out", str(out), "--seed", "1"] + FAST) == EXIT_OK
    per_k = json.loads((out / "metrics.json").read_text())["per_k"]
    lines = (out / "plotdata/offsets.csv").read_text().splitlines()
    assert lines[0] == "k,t_min_ns,cell,t_tilde_ns,is_source"
    rows = [tuple(int(x) for x in line.split(",")) for line in lines[1:]]
    assert {r[0] for r in rows} == {row["k"] for row in per_k}
    for row in per_k:
        mine = [r for r in rows if r[0] == row["k"]]
        assert [r[2] for r in mine] == [0, 1, 2, 3]
        assert all(r[1] == row["t_min_ns"] and r[3] >= 0 for r in mine)
        assert sum(r[4] for r in mine) == row["source_fraction"] * 4


def test_run_extracts_each_round_once(tmp_path, monkeypatch):
    calls = {"extract_propagation": [], "classify_patterns": []}

    def counter(name, original):
        def counted(*args):
            calls[name].append(args)
            return original(*args)
        return counted

    for name in calls:  # cli holds its own reference to classify_patterns
        counted = counter(name, getattr(mepsim.analysis, name))
        for module in (mepsim.analysis, mepsim.cli):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    out = tmp_path / "run"
    assert main(["run", "--out", str(out), "--seed", "5"] + FAST) == EXIT_OK
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["stabilization"]["stabilized"]
    assert len(calls["extract_propagation"]) == len(metrics["per_k"])
    assert len(calls["classify_patterns"]) == len(metrics["per_k"])


@pytest.mark.parametrize("association", ["false", "true"])
def test_analyze_rejects_contract_breaks(tmp_path, association):
    run_dir = tmp_path / "run"
    assert main(["run", "--out", str(run_dir), "--seed", "2"] + FAST) == EXIT_OK
    lines = (run_dir / "trace.csv").read_text().splitlines()
    first_trigger = lines.index("seq,time_ns,cell,kind,pioneer") + 1
    rejection = next(k for k, line in enumerate(lines)
                     if ",rejected," in line and not line.endswith(","))
    first_arrival = lines.index("time_ns,from,to,outcome,rejecting_seq") + 1
    meta = next(k for k, line in enumerate(lines) if line.startswith("#meta="))
    seed = next(k for k, line in enumerate(lines) if line.startswith("#seed="))
    internal = next(k for k, line in enumerate(lines) if ",internal," in line)
    triggers = [line.split(",")
                for line in lines[first_trigger:lines.index("[arrivals]")]]
    last_seq = len(triggers) - 1
    horizon = json.loads(lines[meta].partition("=")[2])["horizon"]

    def other_cells_trigger(p):
        """The seq of a trigger no later than the arrival, of a cell
        other than its receiver."""
        return next(seq for seq, t, cell, _, _ in triggers
                    if cell != p[2] and int(t) <= int(p[0]))

    def meta_set(key, value):
        """Set the scalar (or empty list) at #meta member `key`, wherever
        it sits in its comma-separated part."""
        return lambda p: [re.sub(f'"{key}": [^,}}]*', f'"{key}": {value}', q)
                          for q in p]

    mutations = {
        "seq": (first_trigger, lambda p: ["5"] + p[1:]),
        "pioneer": (first_trigger, lambda p: p[:4] + ["77"]),
        "rejecting_seq": (rejection, lambda p: p[:4] + ["99999"]),
        "arrival_from": (first_arrival, lambda p: p[:1] + ["77"] + p[2:]),
        "meta_json": (meta, lambda p: [p[0].replace("{", "{{", 1)] + p[1:]),
        "seed_json": (seed, lambda p: [p[0] + "}"]),
        "meta_no_n": (meta, lambda p: [q for q in p if q != ' "n": 4']),
        "pioneer_external": (first_trigger,
                              lambda p: p[:4] + [str((int(p[2]) + 1) % 4)]),
        "pioneer_internal": (internal, lambda p: p[:4] + [p[2]]),
        "rejecting_seq_on_acceptance": (
            rejection, lambda p: p[:3] + ["accepted", p[4]]),
        "rejecting_seq_later": (rejection, lambda p: p[:4] + [str(last_seq)]),
        "rejecting_seq_other_cell": (
            rejection, lambda p: p[:4] + [other_cells_trigger(p)]),
        "arrivals_unsorted": (first_arrival, lambda p: [str(horizon)] + p[1:]),
        "time_after_horizon": (first_trigger,
                               lambda p: p[:1] + [str(horizon + 1)] + p[2:]),
        "meta_horizon_str": (meta, meta_set("horizon", '"x"')),
        "meta_warnings_int": (meta, meta_set("warnings", 5)),
        "meta_d_max_infinite": (meta, meta_set("d_max", "1e400")),
        "meta_d_max_fraction": (meta, meta_set("d_max", "100.5")),
        "meta_d_max_bool": (meta, meta_set("d_max", "true")),
        "meta_tau0_fraction": (meta, meta_set("tau0", "501.5")),
        "meta_tau1_huge": (meta, meta_set("tau1", "1" + "0" * 400)),
        "meta_compensation_int": (meta, meta_set("dmin_compensation", "7")),
    }
    for name, (row, mutate) in mutations.items():
        doctored = list(lines)
        doctored[row] = ",".join(mutate(doctored[row].split(",")))
        path = tmp_path / f"{name}.csv"
        path.write_text("\n".join(doctored) + "\n")
        assert doctored[row] != lines[row], name
        rc = main(["analyze", str(path), "--out", str(tmp_path / name),
                   "--override", f"association_checks={association}"] + FAST)
        assert rc == EXIT_INVALID, name


def test_failed_verdicts_name_the_failure(tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert main(["run", "--out", str(run_dir), "--seed", "2"] + FAST) == EXIT_OK
    lines = (run_dir / "trace.csv").read_text().splitlines()
    triggers = [line.split(",") for line in lines[
        lines.index("seq,time_ns,cell,kind,pioneer") + 1:
        lines.index("[arrivals]")]]
    # point the last rejection at its receiver's previous trigger: a weak
    # pair that joins two rounds' classes, inside the reader's contract
    k = max(k for k, line in enumerate(lines)
            if ",rejected," in line and not line.endswith(","))
    t, frm, to, outcome, rej = lines[k].split(",")
    prev = max(int(seq) for seq, _, cell, _, _ in triggers
               if cell == to and int(seq) < int(rej))
    lines[k] = ",".join([t, frm, to, outcome, str(prev)])
    doctored = tmp_path / "doctored.csv"
    doctored.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    argv = ["analyze", str(doctored), "--out", str(tmp_path / "an")] + FAST
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().err == ""
    rc = main(argv + ["--override", "association_checks=true"])
    out, err = capsys.readouterr()
    assert rc == EXIT_CHECK_FAILURE and out == "check-failure\n"
    assert err.startswith("check=association partition_witness=(")
    assert err.count("\n") == 1


def test_paths_stabilize(tmp_path):
    """A 7-cell path's rounds may span diameter * d_max = 600 ns, and the
    span bound is that product on every graph, so each seed's rounds
    (seed 2's span 500 ns) fit within it."""
    edges = tmp_path / "path7.txt"
    edges.write_text("7 6\n" + "".join(f"{i} {i + 1}\n" for i in range(6)))
    argv = ["--override", f"topology_file={edges}", "--override", "d_min=100",
            "--override", "d_max=100", "--override",
            "delay.kind=adversarial-max", "--override", "rho=0.0"]
    failed = [seed for seed in range(8) if main(
        ["run", "--out", str(tmp_path / str(seed)), "--seed", str(seed)]
        + argv) != EXIT_OK]
    assert failed == []


def test_timing_without_a_separation_window_exits_invalid(tmp_path, capsys,
                                                         caplog):
    """Rounds are cut at gaps above tau1 // 2, which must exceed the span
    bound diameter * d_max; on ring:16 at d_max = 100 and tau1 = 1600
    both are 800, so neither run nor analyze of such a trace has a
    verdict.  run and sweep reject the timing before they simulate, and
    do not warn that it breaks the paper's constraint (tau0 = 1000 exceeds
    tau1/3), since it never runs."""
    run = tmp_path / "run"
    argv = ["--override", "topology=ring:16", "--override", "d_max=100",
            "--override", "rho=0.0", "--override", "tau0=1000",
            "--override", "tau1=1600", "--override", "tau2=1600"]
    named = "tau1 // 2 = 800 <= diameter * d_max = 800"
    with caplog.at_level(logging.WARNING, logger="mepsim"):
        assert main(["run", "--out", str(run)] + argv) == EXIT_INVALID
        assert named in capsys.readouterr().err
        assert main(["sweep", "--axis", "p", "--values", "0", "--jobs", "1",
                     "--out", str(tmp_path / "sweep")] + argv) == EXIT_INVALID
        assert named in capsys.readouterr().err
    assert not [r for r in caplog.records
                if "constraint violated" in r.getMessage()]
    assert not run.exists()
    graph = build_ring(16)
    params = SimParams(d_min=0, d_max=100, rho=0.0, tau0=1000, tau1=1600,
                       tau2=1600)
    trace = simulate(graph, params, delay_model=DelayModel(kind="uniform"),
                     horizon=required_horizon(params, topology_stats(graph)))
    write_trace(trace, tmp_path / "trace.csv")
    assert main(["analyze", str(tmp_path / "trace.csv"),
                 "--out", str(tmp_path / "an")]) == EXIT_INVALID
    assert named in capsys.readouterr().err


def test_resolve_config_rejects_timing_without_a_separation_window(caplog):
    """resolve_config is the one gate from config to run: it raises on
    no-window timing itself, and warns of nothing."""
    cfg = load_config(overrides=[
        "topology=ring:16", "d_max=100", "rho=0.0", "tau0=1000",
        "tau1=1600", "tau2=1600"])
    with caplog.at_level(logging.WARNING, logger="mepsim"), \
            pytest.raises(ParameterError,
                          match=re.escape("tau1 // 2 = 800 <= "
                                          "diameter * d_max = 800")):
        resolve_config(cfg)
    assert caplog.records == []


def test_timing_checks_come_after_every_other_check(tmp_path, capsys,
                                                    caplog):
    """A config rejected for another reason logs no constraint WARNING,
    even when its explicit timing breaks the paper's constraint."""
    with caplog.at_level(logging.WARNING, logger="mepsim"):
        rc = main(["run", "--out", str(tmp_path / "o")] + FAST + [
            "--override", "tau0=60", "--override", "tau1=1000",
            "--override", "tau2=1000", "--override", "init.mode=bogus"])
    assert rc == EXIT_INVALID
    assert "unknown init mode" in capsys.readouterr().err
    assert not [r for r in caplog.records
                if "constraint violated" in r.getMessage()]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("override, detail", [
    ("delay.kind=bogus", "unknown delay model kind 'bogus'"),
    ("drift.mode=bogus", "unknown drift mode 'bogus'"),
], ids=["delay-kind", "drift-mode"])
def test_unknown_model_is_rejected_before_any_warning(tmp_path, capsys,
                                                      caplog, override,
                                                      detail):
    """resolve_config rejects an unknown delay kind or drift mode while
    building its record, before the explicit-timing WARNING and before
    anything is simulated."""
    with caplog.at_level(logging.WARNING, logger="mepsim"):
        rc = main(["run", "--out", str(tmp_path / "o")] + FAST + [
            "--override", "tau0=60", "--override", "tau1=1000",
            "--override", "tau2=1000", "--override", override])
    assert rc == EXIT_INVALID
    assert detail in capsys.readouterr().err
    assert caplog.records == []
    assert not (tmp_path / "o").exists()


def test_not_stabilized_run_names_its_first_violation(tmp_path, capsys):
    """Omissions at p = 0.3 leave seed 1's first round on grid:16x16
    invalid: run exits 2, prints not-stabilized and names the round."""
    out = tmp_path / "run"
    assert main(["run", "--out", str(out), "--seed", "1",
                 "--override", "topology=grid:16x16", "--override",
                 "d_max=100", "--override", "omission_p=0.3"]) == \
        EXIT_NOT_STABILIZED
    assert capsys.readouterr() == (
        "not-stabilized\n", "violation=invalid-cluster k=0 t1=191\n")
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["stabilization"]["first_violation"] == {
        "kind": "invalid-cluster", "k": 0, "t1": 191}
    assert len(metrics["per_k"]) == 7
    assert not any(row["valid"] for row in metrics["per_k"])


def test_longest_path_bound_is_logged_not_written(tmp_path, caplog):
    """A bound in place of the exact longest simple path is named once on
    the mepsim logger, with its reason, and kept out of metrics.json."""
    k79 = tmp_path / "k79.txt"  # K(7,9): the exact search runs out of budget
    pairs = [(i, 7 + j) for i in range(7) for j in range(9)]
    k79.write_text(f"16 {len(pairs)}\n" + "".join(f"{i} {j}\n" for i, j in pairs))
    run = tmp_path / "run"

    def warnings(argv):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="mepsim"):
            rc = main(argv)
        return rc, [r.getMessage() for r in caplog.records
                    if r.levelno == logging.WARNING]

    verdicts = (EXIT_OK, EXIT_NOT_STABILIZED, EXIT_CHECK_FAILURE)
    budget = "the exact search ran out of its budget of 1000000 expansions"
    rc, logged = warnings(["run", "--out", str(run), "--override",
                           f"topology_file={k79}", "--override", "d_max=100"])
    assert rc in verdicts and logged == [
        f"longest_simple_path=15 is the bound n-1, not exact: {budget}"]
    assert "not exact" not in (run / "metrics.json").read_text()
    rc, logged = warnings(["analyze", str(run / "trace.csv"), "--out",
                           str(tmp_path / "an"), "--override", "lg_override=14"])
    assert rc in verdicts and logged == [
        f"longest_simple_path=14 is lg_override, not exact: {budget}"]
    assert "not exact" not in (tmp_path / "an" / "metrics.json").read_text()
    assert warnings(["run", "--out", str(tmp_path / "ring")] + FAST) == (EXIT_OK, [])

    # a 65-cell star is above the search cap; the horizon is too short for
    # a verdict, but the warning comes before the analysis
    star = from_edge_list(65, [(0, i) for i in range(1, 65)])
    params = SimParams(d_min=0, d_max=100, rho=0.0, tau0=1000, tau1=40000,
                       tau2=40000)
    path = tmp_path / "star.csv"
    write_trace(Trace(graph=star, params=params, triggers=[], arrivals=[],
                      horizon=1000, seed=0), path)
    assert warnings(["analyze", str(path), "--out", str(tmp_path / "star")]) == (
        EXIT_HORIZON, ["longest_simple_path=64 is the bound n-1, not exact: "
                       "65 cells are above the exact-search cap of 64"])


def test_association_checks_without_arrivals_warn(tmp_path, caplog, capsys):
    """association_checks cannot run on a trace without arrivals: a WARNING
    says so, and metrics.json and stdout stay as without the option."""
    base = FAST + ["--override", "record_arrivals=false"]
    checks = ["--override", "association_checks=true"]
    skipped = ["association_checks skipped: the trace holds no arrivals"]

    def outcome(command, out, argv):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="mepsim"):
            rc = main([command, *argv, "--out", str(tmp_path / out)])
        logged = [r.getMessage() for r in caplog.records]
        return (rc, capsys.readouterr().out, logged,
                (tmp_path / out / "metrics.json").read_bytes())

    rc, stdout, logged, metrics = outcome("run", "plain", base)
    assert rc == EXIT_OK and logged == []
    assert outcome("run", "checked", base + checks) == (
        rc, stdout, skipped, metrics)
    trace = str(tmp_path / "plain" / "trace.csv")
    assert outcome("analyze", "an", [trace]) == (rc, "ok\n", [], metrics)
    assert outcome("analyze", "an-checked", [trace] + checks) == (
        rc, "ok\n", skipped, metrics)


def _two_cell_trace(path, triggers):
    """Write a trace of the 2-cell graph at tau0 = 1000, tau1 = tau2 = 4000
    and d_max = 100, with a horizon that leaves room for a verdict and
    the rows `triggers` gives for that horizon."""
    g = from_edge_list(2, [(0, 1)])
    params = SimParams(d_min=0, d_max=100, rho=0.0, tau0=1000, tau1=4000,
                       tau2=4000)
    horizon = required_horizon(params, topology_stats(g)) + 4000
    write_trace(Trace(graph=g, params=params, triggers=triggers(horizon),
                      arrivals=[], horizon=horizon, seed=0), path)


def test_span_only_violation_names_span_and_bound(tmp_path, capsys):
    # every round is one-shot valid but spans 150 ns > diameter * d_max
    path = tmp_path / "trace.csv"
    _two_cell_trace(path, lambda horizon: [
        row for t in range(0, horizon - 150, 4000)
        for row in ((t, 0, 0), (t + 150, 1, 1))])
    capsys.readouterr()
    out = tmp_path / "an"
    assert main(["analyze", str(path), "--out", str(out)]) == \
        EXIT_NOT_STABILIZED
    assert capsys.readouterr().err == \
        "violation=invalid-cluster k=0 t1=0 span=150 bound=100\n"
    metrics = json.loads((out / "metrics.json").read_text())
    assert all(row["valid"] for row in metrics["per_k"])
    assert metrics["stabilization"]["first_violation"]["span"] == 150


@pytest.mark.parametrize("triggers, violation", [
    (lambda horizon: [], "no-complete-clusters"),
    (lambda horizon: [row for t in range(0, horizon, 4000) if t != 8000
                      for row in ((t, 0, 0), (t, 1, 1))],
     "inter-trigger-gap gap=8000 bound=4000"),
], ids=["no-triggers", "round-missing"])
def test_verdicts_name_their_violation(tmp_path, capsys, triggers,
                                       violation):
    """A trace without triggers has no round; one whose rounds every 4000
    ns skip t = 8000 has a gap above the liveness bound.  Both exit 2 and
    name their violation."""
    path = tmp_path / "trace.csv"
    _two_cell_trace(path, triggers)
    capsys.readouterr()
    out = tmp_path / "an"
    assert main(["analyze", str(path), "--out", str(out)]) == \
        EXIT_NOT_STABILIZED
    assert capsys.readouterr() == ("not-stabilized\n",
                                   f"violation={violation}\n")
    assert (out / "plotdata" / "offsets.csv").exists()


def test_trace_read_without_arrivals_says_so(tmp_path, caplog):
    """A trace read without its arrivals reports arrivals_recorded false,
    so writing it gives a file whose association checks are skipped with
    a WARNING rather than run on no arrivals."""
    run = tmp_path / "run"
    argv = FAST + ["--override", "omission_p=0.1"]
    assert main(["run", "--out", str(run), "--seed", "2"] + argv) == EXIT_OK
    trace = read_trace(run / "trace.csv", keep_arrivals=False)
    assert trace.arrivals == [] and trace.arrivals_recorded is False
    path = tmp_path / "rewritten.csv"
    write_trace(trace, path)
    assert read_trace(path) == trace

    def analyze(out, checks):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="mepsim"):
            assert main(["analyze", str(path), "--out", str(tmp_path / out),
                         "--override", f"association_checks={checks}"]
                        + argv) == EXIT_OK
        return ([r.getMessage() for r in caplog.records],
                (tmp_path / out / "metrics.json").read_bytes())

    logged, metrics = analyze("checked", "true")
    assert logged == [
        "association_checks skipped: the trace holds no arrivals"]
    assert analyze("plain", "false") == ([], metrics)


@pytest.mark.parametrize("name, argv", [
    ("simulate", ["run"] + FAST),
    ("read_trace", ["analyze", "trace.csv"]),
    ("simulate", ["sweep", "--axis", "p", "--values", "0", "--jobs", "1"]
     + FAST),
], ids=["run", "analyze", "sweep"])
def test_out_of_memory_exits_io(tmp_path, monkeypatch, capsys, name, argv):
    """Running out of memory exits 5 with one error line, no traceback,
    and leaves no output directory."""
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(mepsim.cli, name, exhausted)
    argv = [str(tmp_path / a) if a == "trace.csv" else a for a in argv]
    assert main(argv + ["--out", str(tmp_path / "o")]) == EXIT_IO
    assert capsys.readouterr() == ("", "error=out-of-memory\n")
    assert not (tmp_path / "o").exists()


# Input files, each breaking one rule its reader checks.
_BAD_FILES = {
    "disconnected.txt": "4 3\n0 1\n1 2\n0 2\n",
    "out-of-range.txt": "3 2\n0 1\n1 5\n",
    "bad-header.txt": "3\n",
    "truncated.txt": "3 2\n0 1\n",
    "one-cell.txt": "1 1\n0 1\n",
    "no-edges.txt": "2 0\n",
    "extra-lines.txt": "4 3\n0 1\n1 2\n2 3\n3 0\n",  # the ring's 4th edge
    "two-fields.sched": "0 1\n",
    "header-only.csv": "#mepsim-trace=1\n",
}
# (argv, exit code, error kind, a piece of the detail); {d} is the test's
# directory, and every command writes to {d}/o unless it says otherwise
_RAISES = {
    "out-under-a-file": (["run", "--out", "{d}/file/x"], EXIT_IO, "io",
                         "Not a directory"),
    "missing-trace": (["analyze", "{d}/missing.csv"], EXIT_IO, "io",
                      "No such file"),
    "missing-config": (["run", "--config", "{d}/missing.json"], EXIT_IO,
                       "io", "No such file"),
    "override-not-key-val": (["run", "--override", "foo"], EXIT_INVALID,
                             "invalid-config", "'foo' is not KEY=VAL"),
    "tau0-alone": (["run", "--override", "tau0=1000"], EXIT_INVALID,
                   "invalid-config", "needs all of tau0, tau1, tau2"),
    "sweep-no-values": (["sweep", "--axis", "p", "--values", ","],
                        EXIT_INVALID, "invalid-config",
                        "nonempty value list"),
    "sweep-no-replicas": (["sweep", "--axis", "p", "--values", "0",
                           "--replicas", "0"], EXIT_INVALID,
                          "invalid-config", "replicas >= 1"),
    "horizon-zero": (["run", "--horizon-ns", "0"], EXIT_INVALID,
                     "invalid-config", "need horizon > 0, got 0"),
    "horizon-beyond-2-53": (["run", "--horizon-ns", str(2**53 + 1)],
                            EXIT_INVALID, "invalid-config",
                            "horizon is above 2**53 ns"),
    # rho near 1 derives a liveness period, and so a horizon, near 3.6e18 ns
    "derived-horizon-beyond-2-53": (["run", "--override", "rho=0.9999999"],
                                    EXIT_INVALID, "invalid-config",
                                    "horizon is above 2**53 ns"),
    "adversarial-init-no-elapsed": (
        ["run", "--override", "init.mode=adversarial-explicit"],
        EXIT_INVALID, "invalid-config", "one elapsed reading per cell"),
    "rho-one": (["run", "--override", "rho=1.0"], EXIT_INVALID,
                "invalid-config", "need 0 <= rho < 1, got 1.0"),
    "topology-rho-one": (["topology", "ring:4", "--d", "100", "--rho",
                          "1.0"], EXIT_INVALID, "invalid-config",
                         "need 0 <= rho < 1, got 1.0"),
    "schedule-missing": (["run", "--override",
                          "delay.kind=adversarial-schedule"], EXIT_INVALID,
                         "invalid-config", "requires a schedule"),
    "schedule-two-fields": (["run", "--override",
                             "delay.kind=adversarial-schedule", "--override",
                             "delay.schedule_file={d}/two-fields.sched"],
                            EXIT_INVALID, "invalid-config",
                            "two-fields.sched:1: expected 'src dst delay_ns'"),
    "explicit-drift-no-values": (["run", "--override", "drift.mode=explicit"],
                                 EXIT_INVALID, "invalid-config",
                                 "needs one value per cell"),
    "unknown-drift-mode": (["run", "--override", "drift.mode=bogus"],
                           EXIT_INVALID, "invalid-config",
                           "unknown drift mode 'bogus'"),
    "d-max-zero": (["run", "--override", "d_max=0"], EXIT_INVALID,
                   "invalid-config", "need d > 0, got 0"),
    "fixed-delay": (["run", "--override", "delay.kind=fixed"], EXIT_INVALID,
                    "invalid-config", "unknown delay model kind 'fixed'"),
    **{f"edge-list-{name[:-4]}": (
        ["run", "--override", f"topology_file={{d}}/{name}"], EXIT_INVALID,
        "invalid-config", detail) for name, detail in [
            ("disconnected.txt", "graph is disconnected; unreachable nodes"),
            ("out-of-range.txt", "edge (1,5) out of range for n=3"),
            ("bad-header.txt", "expected header 'n m'"),
            ("truncated.txt", "truncated edge list"),
            ("one-cell.txt", "need n >= 2, got 1"),
            ("no-edges.txt", "empty edge list"),
            ("extra-lines.txt", "extra-lines.txt: more than 3 edge lines")]},
    "grid-one-row": (["run", "--override", "topology=grid:1x5"], EXIT_INVALID,
                     "invalid-config", "grid needs rows, cols >= 2"),
    "hypercube-one": (["run", "--override", "topology=hypercube:1"],
                      EXIT_INVALID, "invalid-config",
                      "hypercube needs dim >= 2"),
    "trace-header-only": (["analyze", "{d}/header-only.csv"], EXIT_INVALID,
                          "trace-parse", "missing #meta header"),
    "trace-arrivals-header": (["analyze", "{d}/arrivals-header.csv"],
                              EXIT_INVALID, "trace-parse",
                              "missing arrivals header row"),
    "trace-models-not-object": (["analyze", "{d}/models.csv"], EXIT_INVALID,
                                "trace-parse",
                                "#meta models must be an object"),
    "trace-named-ring-2": (["analyze", "{d}/ring2.csv"], EXIT_INVALID,
                           "trace-parse",
                           "#meta graph name 'ring:2' does not build"),
}


@pytest.mark.parametrize("argv, code, error, detail", _RAISES.values(),
                         ids=_RAISES)
def test_each_input_error_exits_with_its_code(tmp_path, capsys, argv, code,
                                              error, detail):
    """Each error a bad input raises reaches main, which exits with its
    code and one error= line naming it, prints no traceback and leaves no
    output directory."""
    for name, text in _BAD_FILES.items():
        (tmp_path / name).write_text(text)
    (tmp_path / "file").write_text("")
    _two_cell_trace(tmp_path / "good.csv", lambda horizon: [])
    lines = (tmp_path / "good.csv").read_text().splitlines()
    meta = next(k for k, line in enumerate(lines) if line.startswith("#meta="))
    edits = {"arrivals-header.csv": (lines.index("[arrivals]") + 1,
                                     "time_ns,from,to,outcome"),
             "models.csv": (meta, "#meta=" + json.dumps(
                 {**json.loads(lines[meta].partition("=")[2]), "models": []})),
             "ring2.csv": (meta, lines[meta].replace('"name": null',
                                                     '"name": "ring:2"'))}
    for name, (k, line) in edits.items():
        assert line != lines[k]
        (tmp_path / name).write_text(
            "\n".join(lines[:k] + [line] + lines[k + 1:]) + "\n")
    argv = [a.format(d=tmp_path) for a in argv]
    if argv[0] != "topology":  # the row's own overrides come after FAST's
        argv[1:1] = FAST
        if "--out" not in argv:
            argv += ["--out", str(tmp_path / "o")]
    capsys.readouterr()
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert err.startswith(f"error={error} detail=") and detail in err
    assert "Traceback" not in out + err
    assert out == ""  # no partial answer on stdout either
    assert not (tmp_path / "o").exists()
    assert not (tmp_path / "file" / "x").exists()


@pytest.fixture(scope="module")
def valid_trace_lines(tmp_path_factory):
    out = tmp_path_factory.mktemp("valid")
    assert main(["run", "--out", str(out), "--seed", "2"] + FAST) == EXIT_OK
    return (out / "trace.csv").read_text().splitlines()


@settings(max_examples=200, deadline=None)
@given(data=st.data(), association=st.booleans())
def test_analyze_survives_perturbed_traces(tmp_path_factory, valid_trace_lines,
                                           data, association):
    """Delete, duplicate or swap a row of a valid trace, replace one of its
    comma-separated fields with random text or a random integer, or
    replace one #meta number (a params member, the horizon, graph.n or an
    edge endpoint) with a negative, zero, huge, fractional or non-finite
    one: analyze must answer with a documented exit code, never a
    traceback."""
    lines = list(valid_trace_lines)
    rows = st.integers(0, len(lines) - 1)
    k = data.draw(rows)
    action = data.draw(st.sampled_from(["delete", "duplicate", "swap",
                                        "field", "meta"]))
    if action == "meta":
        k = next(k for k, line in enumerate(lines) if line.startswith("#meta="))
        meta = json.loads(lines[k].partition("=")[2])
        holder, key = data.draw(st.one_of(
            st.sampled_from(sorted(meta["params"])).map(
                lambda key: (meta["params"], key)),
            st.just((meta, "horizon")), st.just((meta["graph"], "n")),
            st.tuples(st.sampled_from(meta["graph"]["edges"]),
                      st.integers(0, 1))))
        holder[key] = data.draw(st.one_of(
            st.integers(max_value=0), st.integers(min_value=2**53),
            st.integers(), st.floats()))
        lines[k] = "#meta=" + json.dumps(meta, sort_keys=True)
    elif action == "delete":
        del lines[k]
    elif action == "duplicate":
        lines.insert(k, lines[k])
    elif action == "swap":
        j = data.draw(rows)
        lines[k], lines[j] = lines[j], lines[k]
    else:
        parts = lines[k].split(",")
        field = data.draw(st.integers(0, len(parts) - 1))
        parts[field] = data.draw(st.one_of(st.text(),
                                           st.integers().map(str)))
        lines[k] = ",".join(parts)
    out = tmp_path_factory.mktemp("perturbed")
    path = out / "trace.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    rc = main(["analyze", str(path), "--out", str(out / "an"),
               "--override", f"association_checks={str(association).lower()}"]
              + FAST)
    assert rc in (EXIT_OK, EXIT_NOT_STABILIZED, EXIT_CHECK_FAILURE,
                  EXIT_INVALID, EXIT_HORIZON)


@pytest.mark.parametrize("axis, values", [
    ("n", "4,6"), ("p", "0,0.1"), ("rho", "0,0.0001"),
    ("topology", "ring:4,grid:2x2")], ids=["n", "p", "rho", "topology"])
def test_sweep_aggregates(tmp_path, axis, values):
    out = tmp_path / "sweep"
    rc = main(["sweep", "--axis", axis, "--values", values, "--replicas", "2",
               "--jobs", "1", "--out", str(out)] + FAST)
    assert rc == EXIT_OK
    rows = (out / "sweep.csv").read_text().splitlines()
    assert rows[0].startswith("point,replica,seed,stabilized")
    assert [r.split(",")[0] for r in rows[1:]] == \
        [v for v in values.split(",") for _ in range(2)]
    assert all("True" in r for r in rows[1:])


def _sweep_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_sweep_resolves_each_point_once(tmp_path, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return topology_stats(*args, **kwargs)

    monkeypatch.setattr(mepsim.cli, "topology_stats", counted)
    rc = main(["sweep", "--axis", "p", "--values", "0,0.1", "--replicas", "2",
               "--jobs", "1", "--out", str(tmp_path / "sweep")] + FAST)
    assert rc == EXIT_OK
    assert len(calls) == 2  # one per point, not one per replica
    rows = _sweep_rows(tmp_path / "sweep" / "sweep.csv")
    assert [r[2] for r in rows[1:]] == ["0-0-0", "0-0-1", "0-0.1-0",
                                        "0-0.1-1"]


def test_sweep_warns_of_an_inexact_longest_path(tmp_path, caplog):
    path = tmp_path / "path65.txt"  # one cell above the exact-search cap
    path.write_text("65 64\n" + "".join(f"{i} {i + 1}\n" for i in range(64)))
    with caplog.at_level(logging.WARNING, logger="mepsim"):
        rc = main(["sweep", "--axis", "p", "--values", "0", "--jobs", "1",
                   "--out", str(tmp_path / "sweep"),
                   "--override", f"topology_file={path}"] + FAST)
    assert rc in (EXIT_OK, EXIT_NOT_STABILIZED)
    assert [r.levelno for r in caplog.records] == [logging.WARNING]
    assert "longest_simple_path=64" in caplog.records[0].getMessage()


@pytest.mark.parametrize("axis, values", [("n", "5,7"),
                                          ("topology", "ring:5,ring:7")])
def test_sweep_rejects_topology_axis_with_topology_file(tmp_path, capsys,
                                                        axis, values):
    square = tmp_path / "sq.txt"
    square.write_text("4 4\n0 1\n1 2\n2 3\n3 0\n")
    rc = main(["sweep", "--axis", axis, "--values", values, "--jobs", "1",
               "--out", str(tmp_path / "sweep"),
               "--override", f"topology_file={square}",
               "--override", "d_max=100"])
    assert rc == EXIT_INVALID
    err = capsys.readouterr().err
    assert "'topology'" in err and "'topology_file'" in err
    assert not (tmp_path / "sweep").exists()


def test_sweep_csv_quotes_a_seed_with_a_comma(tmp_path):
    out = tmp_path / "sweep"
    rc = main(["sweep", "--axis", "p", "--values", "0,0.1", "--jobs", "1",
               "--out", str(out), "--override", "seed=[1,2]"] + FAST)
    assert rc == EXIT_OK
    rows = _sweep_rows(out / "sweep.csv")
    assert [len(r) for r in rows] == [8, 8, 8]
    assert [r[2] for r in rows[1:]] == ["[1, 2]-0-0", "[1, 2]-0.1-0"]


def test_sweep_ignores_record_arrivals(tmp_path, monkeypatch):
    """A sweep's runs record no arrivals, which it never reads: sweep.csv
    is the same whatever record_arrivals says, and the manifest keeps the
    config as given."""
    recorded = []
    detect = mepsim.cli.detect_stabilization

    def spy(trace, stats):
        recorded.append(trace.arrivals_recorded)
        return detect(trace, stats)

    monkeypatch.setattr(mepsim.cli, "detect_stabilization", spy)
    argv = ["sweep", "--axis", "p", "--values", "0,0.1", "--replicas", "2",
            "--jobs", "1"] + FAST
    for record in ("true", "false"):
        assert main(argv + ["--out", str(tmp_path / record), "--override",
                            f"record_arrivals={record}"]) == EXIT_OK
    assert recorded == [False] * 8
    assert (tmp_path / "true" / "sweep.csv").read_bytes() == \
        (tmp_path / "false" / "sweep.csv").read_bytes()
    manifest = json.loads((tmp_path / "true" / "manifest.json").read_text())
    assert manifest["config"]["record_arrivals"] is True


def test_sweep_process_pool_matches_one_process(tmp_path):
    argv = ["sweep", "--axis", "p", "--values", "0,0.1", "--replicas", "2"]
    assert main(argv + ["--jobs", "1", "--out", str(tmp_path / "one")]
                + FAST) == EXIT_OK
    assert main(argv + ["--jobs", "2", "--out", str(tmp_path / "two")]
                + FAST) == EXIT_OK
    assert (tmp_path / "two" / "sweep.csv").read_bytes() == \
        (tmp_path / "one" / "sweep.csv").read_bytes()


def test_sweep_starts_no_more_workers_than_runs(tmp_path, monkeypatch):
    """A process pool forks all its workers at the first task, so a sweep
    asks for no more of them than it has runs."""
    sizes = []

    class InProcessPool:  # records its size, maps here, starts no process
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        InProcessPool)
    argv = ["sweep", "--axis", "p", "--values", "0,0.1"] + FAST
    assert main(argv + ["--jobs", "64", "--out", str(tmp_path / "many")]) \
        == EXIT_OK
    assert sizes == [2]
    assert main(argv + ["--jobs", "1", "--out", str(tmp_path / "one")]) \
        == EXIT_OK
    assert (tmp_path / "many" / "sweep.csv").read_bytes() == \
        (tmp_path / "one" / "sweep.csv").read_bytes()
    assert main(["sweep", "--axis", "p", "--values", "0", "--jobs", "64",
                 "--out", str(tmp_path / "single")] + FAST) == EXIT_OK
    assert sizes == [2]  # one run builds no pool


# Every config key but those naming files and the topology (the run stays
# on FAST's ring:4) and the horizon (pinned below, so no run is long).
_FUZZED_KEYS = sorted(set(_CONFIG) - {"topology", "topology_file",
                                      "delay.schedule_file", "horizon_ns"})
_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 10**6),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=4),
    st.sampled_from(["explicit", "extremal", "zero", "fixed",
                     "adversarial-max", "adversarial-explicit"]))
_JSON_VALUES = st.one_of(
    _JSON_SCALARS, st.lists(_JSON_SCALARS, max_size=5),
    st.lists(st.lists(st.integers(-1, 200), min_size=3, max_size=3),
             max_size=2))
# A value each fuzzed key accepts on its own, on FAST's ring:4
_TAU = st.one_of(st.none(), st.integers(1000, 4000))
_VALID = {
    "association_checks": st.booleans(),
    "d_max": st.integers(20, 150),
    "d_min": st.integers(0, 100),
    "delay.cycle": st.booleans(),
    "delay.kind": st.sampled_from(["uniform", "adversarial-max"]),
    "dmin_compensation": st.booleans(),
    "drift.mode": st.sampled_from(["zero", "uniform", "extremal"]),
    "drift.values": st.sampled_from([None, [0, 0, 0, 0]]),
    "init.elapsed": st.lists(st.integers(0, 4000), min_size=4, max_size=4),
    "init.mode": st.sampled_from(["random-uniform", "adversarial-explicit"]),
    "init.signals": st.lists(st.tuples(
        st.integers(0, 3), st.sampled_from([1, 3]), st.integers(0, 100)).map(
            lambda s: [s[0], (s[0] + s[1]) % 4, s[2]]), max_size=3),
    "lg_override": st.sampled_from([None, 2, 3, 5]),
    "omission_p": st.sampled_from([0.0, 0.1, 0.3, 1.0]),
    "record_arrivals": st.booleans(),
    "rho": st.sampled_from([0.0, 1e-4, 0.01]),
    "seed": st.integers(0, 5),
    "tau0": st.one_of(st.none(), st.integers(60, 600)),
    "tau1": _TAU,
    "tau2": _TAU,
}


@st.composite
def _override(draw):
    """A fuzzed key and, half the time, a value it accepts on its own."""
    key = draw(st.sampled_from(_FUZZED_KEYS))
    return key, draw(_VALID[key] if draw(st.booleans()) else _JSON_VALUES)


# explicit timing outside the paper's constraint, with omissions: seed 0
# is not stabilized, and seed 1 fails its association checks
_WEAK = [("omission_p", 0.3), ("association_checks", True), ("tau0", 60),
         ("tau1", 1800), ("tau2", 1800)]


@settings(max_examples=200, deadline=None)
@given(overrides=st.lists(_override(), max_size=4))
@example(overrides=_WEAK + [("seed", 0)])
@example(overrides=_WEAK + [("seed", 1)])
def test_run_survives_random_config_overrides(tmp_path_factory, overrides):
    """Random JSON values, NaN and the infinities included, or values each
    key accepts, for up to four config keys: run must answer with a
    documented exit code, never a traceback.  A run with a verdict
    re-analyzes, under the same overrides, to the same exit code and the
    same outputs."""
    out = tmp_path_factory.mktemp("fuzzed")
    argv = FAST[:]
    for key, value in overrides:
        argv += ["--override", f"{key}={json.dumps(value)}"]
    rc = main(["run", "--out", str(out / "run"), "--horizon-ns", "20000"]
              + argv)
    assert rc in (EXIT_OK, EXIT_NOT_STABILIZED, EXIT_CHECK_FAILURE,
                  EXIT_INVALID, EXIT_HORIZON)
    if rc in (EXIT_INVALID, EXIT_HORIZON):
        return
    assert main(["analyze", str(out / "run" / "trace.csv"),
                 "--out", str(out / "an")] + argv) == rc

    def outputs(outdir):
        files = [outdir / "metrics.json", *sorted(outdir.glob("plotdata/*")),
                 *sorted(outdir.glob("patterns/*"))]
        return {str(f.relative_to(outdir)): f.read_bytes() for f in files}

    assert outputs(out / "an") == outputs(out / "run")


@pytest.mark.parametrize("argv", [
    ["--axis", "n", "--values", "abc"],
    ["--axis", "p", "--values", "x"],
    ["--axis", "n", "--values", "4", "--jobs", "-1"],
    ["--axis", "p", "--values", "0", "--jobs", "2", "--override",
     "topology=ring:16", "--override", "d_max=100", "--override", "rho=0.0",
     "--override", "tau0=1000", "--override", "tau1=1600", "--override",
     "tau2=1600"],
    ["--axis", "p", "--values", "0,0.1", "--jobs", "2"] + FAST
    + ["--override", "drift.mode=bogus"],
], ids=["n-not-int", "p-not-float", "negative-jobs", "no-separation-window",
        "unknown-drift-mode"])
def test_sweep_rejects_bad_input(tmp_path, monkeypatch, argv):
    def no_pool(*args, **kwargs):
        raise AssertionError("sweep started a worker pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    rc = main(["sweep", "--out", str(tmp_path / "o")] + argv)
    assert rc == EXIT_INVALID


@pytest.mark.parametrize("argv", [
    ["run", "--horizon-ns", "abc"],
    ["sweep", "--axis", "bogus", "--values", "1"],
    [],
], ids=["run-bad-int", "sweep-bad-axis", "no-command"])
def test_usage_errors_exit_invalid(argv, capsys):
    """A malformed command line exits 4, since argparse's own 2 would read
    as "not stabilized"; the usage and the error go to stderr."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("usage: mepsim") and "error=usage detail=" in err
    with pytest.raises(SystemExit) as exc:
        main(argv[:1] + ["--help"])
    assert exc.value.code == EXIT_OK


def test_topology_subcommand(capsys):
    assert main(["topology", "ring:64"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "diameter=32" in out and "longest_simple_path=63" in out
    assert main(["topology", "hypercube:6", "--d", "1000", "--rho", "0.0001"]) \
        == EXIT_OK
    out = capsys.readouterr().out
    assert "tau0=" in out and "diameter=6" in out
