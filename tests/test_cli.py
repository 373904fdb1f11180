import concurrent.futures
import json
import os

import pytest

import mepsim.analysis
from mepsim.cli import (EXIT_HORIZON, EXIT_INVALID, EXIT_NOT_STABILIZED,
                        EXIT_OK, load_config, main, resolve_config)
from mepsim.errors import ConfigError

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


def test_resolve_config_produces_runnable_objects():
    cfg = load_config(overrides=["topology=ring:4", "d_max=100", "rho=0.0"])
    spec = resolve_config(cfg)
    assert spec._fields[:3] == ("graph", "stats", "params")
    assert spec.graph.node_count == 4
    assert spec.params.tau0 > 0 and spec.horizon > spec.params.tau2
    assert spec.seed == cfg["seed"] and spec.record_arrivals is True
    assert spec.run().triggers


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


def test_invalid_topology_exit_code(tmp_path):
    rc = main(["run", "--out", str(tmp_path / "o"),
               "--override", "topology=moebius:4"])
    assert rc == EXIT_INVALID


def test_analyze_flags_duplicate_trigger(tmp_path):
    run_dir = tmp_path / "run"
    assert main(["run", "--out", str(run_dir), "--seed", "1"] + FAST) == EXIT_OK
    lines = (run_dir / "trace.csv").read_text().splitlines()
    start = lines.index("seq,time_ns,cell,kind,pioneer") + 1
    end = lines.index("[arrivals]")
    # duplicate every trigger so no round can be complete
    rows = []
    seq = 0
    for line in lines[start:end]:
        _, t, cell, kind, pio = line.split(",")
        for _ in range(2):
            rows.append(f"{seq},{t},{cell},{kind},{pio}")
            seq += 1
    doctored = tmp_path / "doctored.csv"
    doctored.write_text("\n".join(lines[:start] + rows + lines[end:]) + "\n")
    rc = main(["analyze", str(doctored), "--out", str(tmp_path / "an")] + FAST)
    assert rc == EXIT_NOT_STABILIZED


def test_run_extracts_each_round_once(tmp_path, monkeypatch):
    calls = []
    original = mepsim.analysis.extract_propagation

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(mepsim.analysis, "extract_propagation", counted)
    out = tmp_path / "run"
    assert main(["run", "--out", str(out), "--seed", "5"] + FAST) == EXIT_OK
    metrics = json.loads((out / "metrics.json").read_text())
    assert len(calls) == len(metrics["per_k"])


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
    mutations = {
        "seq": (first_trigger, lambda p: ["5"] + p[1:]),
        "pioneer": (first_trigger, lambda p: p[:4] + ["77"]),
        "rejecting_seq": (rejection, lambda p: p[:4] + ["99999"]),
        "arrival_from": (first_arrival, lambda p: p[:1] + ["77"] + p[2:]),
        "meta_json": (meta, lambda p: [p[0].replace("{", "{{", 1)] + p[1:]),
        "seed_json": (seed, lambda p: [p[0] + "}"]),
        "meta_no_n": (meta, lambda p: [q for q in p if q != ' "n": 4']),
    }
    for name, (row, mutate) in mutations.items():
        doctored = list(lines)
        doctored[row] = ",".join(mutate(doctored[row].split(",")))
        path = tmp_path / f"{name}.csv"
        path.write_text("\n".join(doctored) + "\n")
        rc = main(["analyze", str(path), "--out", str(tmp_path / name),
                   "--override", f"association_checks={association}"] + FAST)
        assert rc == EXIT_INVALID, name


def test_sweep_aggregates(tmp_path):
    out = tmp_path / "sweep"
    rc = main(["sweep", "--axis", "n", "--values", "4,6", "--replicas", "2",
               "--jobs", "1", "--out", str(out),
               "--override", "d_max=100", "--override", "rho=0.0",
               "--override", "drift.mode=zero"])
    assert rc == EXIT_OK
    rows = (out / "sweep.csv").read_text().splitlines()
    assert rows[0].startswith("point,replica,seed,stabilized")
    assert len(rows) == 5
    assert all("True" in r for r in rows[1:])


@pytest.mark.parametrize("argv", [
    ["--axis", "n", "--values", "abc"],
    ["--axis", "p", "--values", "x"],
    ["--axis", "n", "--values", "4", "--jobs", "-1"],
], ids=["n-not-int", "p-not-float", "negative-jobs"])
def test_sweep_rejects_bad_input(tmp_path, monkeypatch, argv):
    def no_pool(*args, **kwargs):
        raise AssertionError("sweep started a worker pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    rc = main(["sweep", "--out", str(tmp_path / "o")] + argv)
    assert rc == EXIT_INVALID


def test_topology_subcommand(capsys):
    assert main(["topology", "ring:64"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "diameter=32" in out and "longest_simple_path=63" in out
    assert main(["topology", "hypercube:6", "--d", "1000", "--rho", "0.0001"]) \
        == EXIT_OK
    out = capsys.readouterr().out
    assert "tau0=" in out and "diameter=6" in out
