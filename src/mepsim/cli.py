"""Command-line front end: run, analyze, sweep, topology.

A run is described by one JSON config (documented in the README) plus
command-line overrides; precedence is CLI flag > --override KEY=VAL >
config file > default.  Every output directory receives a manifest with
the resolved config echo so results stay regenerable.

Exit codes: 0 stabilized and all property checks pass; 2 not
stabilized; 3 a structural or association check failed; 4 invalid
config/parameters/trace; 5 I/O failure; 6 horizon too short for a
stabilization verdict.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import copy
import json
import logging
import os
import sys
from typing import NamedTuple

from . import __version__
from .analysis import (association_classes, check_pattern_properties,
                       classify_patterns, detect_stabilization,
                       required_horizon, series_metrics)
from .engine import INIT_ADVERSARIAL, INIT_RANDOM_UNIFORM, InitState, simulate
from .errors import (ConfigError, InsufficientHorizonError, MepsimError,
                     TraceParseError)
from .timing import (DelayModel, DriftAssignment, SimParams, derive_params,
                     read_schedule_file)
from .topology import (Graph, TopologyStats, parse_topology, read_edge_list,
                       topology_stats)
from .trace import SCHEMA_VERSION, read_trace, write_trace

EXIT_OK = 0
EXIT_NOT_STABILIZED = 2
EXIT_CHECK_FAILURE = 3
EXIT_INVALID = 4
EXIT_IO = 5
EXIT_HORIZON = 6

log = logging.getLogger("mepsim")

_DEFAULT_CONFIG = {
    "topology": "ring:16",
    "topology_file": None,
    "lg_override": None,
    "d_min": 0,
    "d_max": 1_000_000,
    "rho": 1e-4,
    "param_mode": "paper-sim",
    "tau0": None,
    "tau1": None,
    "tau2": None,
    "delay": {"kind": "uniform", "schedule_file": None, "cycle": False},
    "omission_p": 0.0,
    "drift": {"mode": "uniform", "values": None},
    "init": {"mode": INIT_RANDOM_UNIFORM, "elapsed": None, "signals": []},
    "dmin_compensation": False,
    "horizon_ns": None,
    "seed": 0,
    "record_arrivals": True,
    "association_checks": False,
}


def _deep_update(base: dict, extra: dict, path="") -> dict:
    for key, value in extra.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key {where!r}")
        if isinstance(base[key], dict) and isinstance(value, dict):
            _deep_update(base[key], value, where)
        else:
            base[key] = value
    return base


def load_config(path=None, overrides=()) -> dict:
    cfg = copy.deepcopy(_DEFAULT_CONFIG)
    if path is not None:
        try:
            with open(path) as fh:
                _deep_update(cfg, json.load(fh))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    for item in overrides:
        key, sep, raw = item.partition("=")
        if not sep:
            raise ConfigError(f"override {item!r} is not KEY=VAL")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw  # bare strings are convenient on the command line
        node = cfg
        parts = key.split(".")
        for part in parts[:-1]:
            if part not in node or not isinstance(node[part], dict):
                raise ConfigError(f"unknown config key {key!r}")
            node = node[part]
        if parts[-1] not in node:
            raise ConfigError(f"unknown config key {key!r}")
        node[parts[-1]] = value
    return cfg


class RunSpec(NamedTuple):
    """A validated run: the simulator's inputs plus the topology stats."""

    graph: Graph
    stats: TopologyStats
    params: SimParams
    delay_model: DelayModel
    drift: DriftAssignment
    init: InitState
    horizon: int
    seed: object
    record_arrivals: bool

    def run(self):
        """Simulate this run; `run` and `sweep` both simulate through here."""
        return simulate(self.graph, self.params, delay_model=self.delay_model,
                        horizon=self.horizon, seed=self.seed, drift=self.drift,
                        init=self.init, record_arrivals=self.record_arrivals)


def resolve_config(cfg: dict) -> RunSpec:
    """Turn a config dict into runnable objects, validating everything."""
    if cfg["topology_file"]:
        graph = read_edge_list(cfg["topology_file"])
    else:
        graph = parse_topology(cfg["topology"])
    stats = topology_stats(graph, lg_override=cfg["lg_override"])

    if cfg["tau0"] is not None or cfg["tau1"] is not None or cfg["tau2"] is not None:
        if None in (cfg["tau0"], cfg["tau1"], cfg["tau2"]):
            raise ConfigError("explicit timing needs all of tau0, tau1, tau2")
        params = SimParams(d_min=cfg["d_min"], d_max=cfg["d_max"],
                           rho=cfg["rho"], tau0=cfg["tau0"], tau1=cfg["tau1"],
                           tau2=cfg["tau2"], omission_p=cfg["omission_p"],
                           dmin_compensation=cfg["dmin_compensation"])
    else:
        params = derive_params(stats, cfg["d_max"], cfg["rho"],
                               cfg["param_mode"], d_min=cfg["d_min"],
                               omission_p=cfg["omission_p"],
                               dmin_compensation=cfg["dmin_compensation"])

    dcfg = cfg["delay"]
    schedule = None
    if dcfg.get("schedule_file"):
        schedule = read_schedule_file(dcfg["schedule_file"])
    delay_model = DelayModel(kind=dcfg["kind"], d_min=cfg["d_min"],
                             d_max=cfg["d_max"], schedule=schedule,
                             cycle=bool(dcfg.get("cycle", False)))

    drift_cfg = cfg["drift"]
    values = drift_cfg.get("values")
    drift = DriftAssignment(mode=drift_cfg["mode"], rho=cfg["rho"],
                            values=tuple(values) if values else None)

    icfg = cfg["init"]
    init = InitState(
        mode=icfg["mode"],
        elapsed=tuple(icfg["elapsed"]) if icfg.get("elapsed") else None,
        signals=tuple(tuple(s) for s in icfg.get("signals") or ()))
    if init.mode not in (INIT_RANDOM_UNIFORM, INIT_ADVERSARIAL):
        raise ConfigError(f"unknown init mode {init.mode!r}")

    horizon = cfg["horizon_ns"]
    if horizon is None:
        horizon = required_horizon(params, stats) + 3 * params.liveness_real_max
    return RunSpec(graph, stats, params, delay_model, drift, init, horizon,
                   cfg["seed"], cfg["record_arrivals"])


def _json_dump(obj, path) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _grid_dims(graph):
    if graph.name and graph.name.startswith("grid:"):
        rows, cols = graph.name.split(":")[1].split("x")
        return int(rows), int(cols)
    return None


def build_metrics(trace, stats, association=False) -> tuple:
    """(metrics document, per-round series); a pure function of (trace, stats).

    The series is returned so the plot data reuses it instead of
    analyzing the rounds again.
    """
    params = trace.params
    graph = trace.graph
    report = detect_stabilization(trace, params, stats)
    series = series_metrics(report, graph)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "params": params.as_dict(),
        "graph": {"n": graph.node_count, "edges": graph.edge_count,
                  "name": graph.name, "diameter": stats.diameter,
                  "longest_simple_path": stats.longest_simple_path},
        "stabilization": {
            "stabilized": report.stabilized,
            "t_stab_ns": report.t_stab,
            "bound_ns": report.convergence_bound,
            "bound_slack_ns": report.bound_slack,
            "within_bound": report.within_bound,
            "tau_pi_used": report.tau_pi_used,
            "tau_delta_used": report.tau_delta_used,
            "tau_nabla": report.tau_nabla,
            "tau_pi_measured": report.tau_pi_measured,
            "tau_nabla_measured": report.tau_nabla_measured,
            "first_violation": report.first_violation,
        },
        "per_k": series["per_k"],
        "checks": {},
    }
    checks_ok = True
    if report.stabilized:
        prop = report.propagations[-1]
        pattern = classify_patterns(prop, graph)
        props = check_pattern_properties(pattern, prop, graph)
        doc["checks"]["pattern_properties"] = [
            {"name": c.name, "passed": c.passed, "detail": c.detail}
            for c in props]
        checks_ok = all(c.passed for c in props)
        if association and trace.arrivals_recorded:
            ac = association_classes(trace, graph, (report.t_stab, trace.horizon),
                                     stats=stats)
            doc["checks"]["association"] = {
                "partitions_coincide": ac.partitions_coincide,
                "spans_ok": ac.spans_ok,
                "span_bound": ac.span_bound,
                "class_count": len(ac.classes),
            }
            checks_ok = checks_ok and ac.partitions_coincide and ac.spans_ok
    doc["checks"]["all_passed"] = checks_ok
    return doc, series


def _write_plotdata(outdir, trace, series) -> None:
    plotdir = os.path.join(outdir, "plotdata")
    os.makedirs(plotdir, exist_ok=True)
    with open(os.path.join(plotdir, "offsets.csv"), "w", newline="\n") as fh:
        fh.write("k,t_min_ns,cell,t_tilde_ns,is_source\n")
        for k, t_min, cell, t_tilde, is_source in series["scatter"]:
            fh.write(f"{k},{t_min},{cell},{t_tilde},{int(is_source)}\n")
    dims = _grid_dims(trace.graph)
    with open(os.path.join(plotdir, "pattern_map.csv"), "w", newline="\n") as fh:
        fh.write("k,row,col,is_source\n")
        for k, _, cell, _, is_source in series["scatter"]:
            if dims:
                r, c = divmod(cell, dims[1])
            else:
                r, c = 0, cell
            fh.write(f"{k},{r},{c},{int(is_source)}\n")
    _write_patterns(outdir, trace, series)


def _write_patterns(outdir, trace, series) -> None:
    patdir = os.path.join(outdir, "patterns")
    os.makedirs(patdir, exist_ok=True)
    per_k = series["per_k"]
    if not per_k:
        return
    sources_by_k = {}
    for k, _, cell, _, is_source in series["scatter"]:
        if is_source:
            sources_by_k.setdefault(k, set()).add(cell)
    dims = _grid_dims(trace.graph)
    n = trace.graph.node_count
    for k in {per_k[0]["k"], per_k[-1]["k"]}:
        sources = sources_by_k.get(k, set())
        lines = []
        if dims:
            rows, cols = dims
            for r in range(rows):
                lines.append("".join(
                    "#" if r * cols + c in sources else "."
                    for c in range(cols)))
        else:
            lines.append("".join("#" if i in sources else "." for i in range(n)))
        with open(os.path.join(patdir, f"k{k:05d}.txt"), "w", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    _write_svg(os.path.join(patdir, "final.svg"), trace, dims,
               sources_by_k.get(per_k[-1]["k"], set()))


def _write_svg(path, trace, dims, sources) -> None:
    cell_px = 12
    n = trace.graph.node_count
    if dims:
        rows, cols = dims
    else:
        rows, cols = 1, n
    width, height = cols * cell_px, rows * cell_px
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" '
             f'width="{width}" height="{height}">']
    for i in range(n):
        r, c = divmod(i, cols)
        color = "#d62728" if i in sources else "#dddddd"
        parts.append(f'<rect x="{c * cell_px}" y="{r * cell_px}" '
                     f'width="{cell_px - 1}" height="{cell_px - 1}" '
                     f'fill="{color}"/>')
    parts.append("</svg>")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")


def _write_manifest(outdir, cfg, extra=None) -> None:
    manifest = {
        "tool": "mepsim",
        "version": __version__,
        "trace_schema": SCHEMA_VERSION,
        "config": cfg,
    }
    if extra:
        manifest.update(extra)
    _json_dump(manifest, os.path.join(outdir, "manifest.json"))


def cmd_run(args) -> int:
    cfg = load_config(args.config, args.override)
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.horizon_ns is not None:
        cfg["horizon_ns"] = args.horizon_ns
    spec = resolve_config(cfg)
    outdir = args.out
    os.makedirs(outdir, exist_ok=True)
    log.info("run: %s seed=%s horizon=%d", spec.graph.name, spec.seed,
             spec.horizon)

    trace = spec.run()
    write_trace(trace, os.path.join(outdir, "trace.csv"))
    _write_manifest(outdir, cfg, {"horizon_ns": spec.horizon, "seed": spec.seed})
    return _report(outdir, trace, spec.stats, cfg["association_checks"],
                   "stabilized t_stab_ns={t_stab_ns}")


def cmd_analyze(args) -> int:
    cfg = load_config(args.config, args.override)
    trace = read_trace(args.trace)
    stats = topology_stats(trace.graph, lg_override=cfg["lg_override"])
    outdir = args.out
    os.makedirs(outdir, exist_ok=True)
    _write_manifest(outdir, cfg, {"analyzed_trace": os.path.abspath(args.trace)})
    return _report(outdir, trace, stats, cfg["association_checks"], "ok")


def _report(outdir, trace, stats, association, ok_line) -> int:
    """Write metrics.json and the plot data; print the verdict and return
    its exit code.  ok_line is formatted with the stabilization metrics."""
    metrics, series = build_metrics(trace, stats, association=association)
    _json_dump(metrics, os.path.join(outdir, "metrics.json"))
    _write_plotdata(outdir, trace, series)
    if not metrics["stabilization"]["stabilized"]:
        print("not-stabilized")
        return EXIT_NOT_STABILIZED
    if not metrics["checks"]["all_passed"]:
        print("check-failure")
        return EXIT_CHECK_FAILURE
    print(ok_line.format(**metrics["stabilization"]))
    return EXIT_OK


def _sweep_point_config(cfg: dict, axis: str, value) -> dict:
    point = copy.deepcopy(cfg)
    try:
        if axis == "topology":
            point["topology"] = value
        elif axis == "n":
            point["topology"] = f"ring:{int(value)}"
        elif axis == "p":
            point["omission_p"] = float(value)
        elif axis == "rho":
            point["rho"] = float(value)
        else:
            raise ConfigError(f"unknown sweep axis {axis!r}")
    except ValueError as exc:
        raise ConfigError(f"bad {axis} sweep value {value!r}") from exc
    return point


def _sweep_worker(task):
    point_label, replica, cfg = task
    spec = resolve_config(cfg)
    report = detect_stabilization(spec.run(), spec.params, spec.stats)
    valid = [k for k, ok in enumerate(report.valid_series) if ok]
    final_e1 = report.e1_series[valid[-1]] if valid else None
    final_frac = report.source_fraction_series[valid[-1]] if valid else None
    spans = [report.segments[k].span for k in valid]
    mean_tau_pi = sum(spans) / len(spans) if spans else None
    return {
        "point": point_label,
        "replica": replica,
        "seed": spec.seed,
        "stabilized": report.stabilized,
        "t_stab_ns": report.t_stab,
        "final_e1_ns": final_e1,
        "final_source_fraction": final_frac,
        "mean_tau_pi_ns": mean_tau_pi,
    }


def cmd_sweep(args) -> int:
    cfg = load_config(args.config, args.override)
    values = [v for v in args.values.split(",") if v]
    if not values or args.replicas < 1:
        raise ConfigError("sweep needs a nonempty value list and replicas >= 1")
    if args.jobs is not None and args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    tasks = []
    for value in values:
        point = _sweep_point_config(cfg, args.axis, value)
        for replica in range(args.replicas):
            rcfg = copy.deepcopy(point)
            rcfg["seed"] = f"{cfg['seed']}-{value}-{replica}"
            tasks.append((str(value), replica, rcfg))
    jobs = args.jobs or os.cpu_count() or 1
    rows = []
    if jobs == 1:
        rows = [_sweep_worker(t) for t in tasks]
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_sweep_worker, tasks))
    os.makedirs(args.out, exist_ok=True)
    _write_manifest(args.out, cfg, {
        "sweep": {"axis": args.axis, "values": values,
                  "replicas": args.replicas}})
    path = os.path.join(args.out, "sweep.csv")
    cols = ["point", "replica", "seed", "stabilized", "t_stab_ns",
            "final_e1_ns", "final_source_fraction", "mean_tau_pi_ns"]
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join("" if row[c] is None else str(row[c])
                              for c in cols) + "\n")
    print(f"sweep complete: {len(rows)} runs -> {path}")
    return EXIT_OK


def cmd_topology(args) -> int:
    graph = parse_topology(args.spec)
    stats = topology_stats(graph)
    print(f"topology {args.spec}: n={graph.node_count} edges={graph.edge_count}")
    print(f"diameter={stats.diameter} longest_simple_path="
          f"{stats.longest_simple_path} exact={stats.lg_is_exact}")
    if args.d is not None:
        params = derive_params(stats, args.d, args.rho)
        print(f"tau0={params.tau0} tau1={params.tau1} tau2={params.tau2}"
              f" (d={args.d} rho={args.rho})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mepsim",
        description="simulate and analyze self-stabilizing trigger propagation")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--override", action="append", default=[],
                       metavar="KEY=VAL", help="config override (dotted keys)")
        p.add_argument("--out", default="out", help="output directory")

    p = sub.add_parser("run", help="simulate one configuration and analyze it")
    common(p)
    p.add_argument("--seed", default=None)
    p.add_argument("--horizon-ns", type=int, default=None)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("analyze", help="re-analyze a persisted trace file")
    common(p)
    p.add_argument("trace", help="trace.csv produced by run")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sweep", help="run a parameter sweep")
    common(p)
    p.add_argument("--axis", required=True,
                   choices=["n", "p", "rho", "topology"])
    p.add_argument("--values", required=True,
                   help="comma-separated axis values")
    p.add_argument("--replicas", type=int, default=1)
    p.add_argument("--jobs", type=int, default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("topology", help="print graph statistics")
    p.add_argument("spec", help="e.g. ring:16, grid:4x4, hypercube:6")
    p.add_argument("--d", type=int, default=None,
                   help="delay bound for parameter derivation (ns)")
    p.add_argument("--rho", type=float, default=0.0)
    p.set_defaults(func=cmd_topology)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("MEPSIM_LOG", "WARNING"))
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InsufficientHorizonError as exc:
        print(f"error=insufficient-horizon detail={exc}", file=sys.stderr)
        return EXIT_HORIZON
    except TraceParseError as exc:
        print(f"error=trace-parse detail={exc}", file=sys.stderr)
        return EXIT_INVALID
    except MepsimError as exc:
        print(f"error=invalid-config detail={exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"error=io detail={exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
