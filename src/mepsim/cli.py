"""Command-line front end: run, analyze, sweep, topology.

A run is described by one JSON config (documented in the README) plus
command-line overrides; precedence is CLI flag > --override KEY=VAL >
config file > default.  Every output directory receives a manifest with
the resolved config echo so results stay regenerable.

Exit codes: 0 stabilized and all property checks pass; 2 not
stabilized; 3 a structural or association check failed; 4 invalid
config/parameters/trace/command line; 5 I/O failure or out of memory;
6 horizon too short for a stabilization verdict.

Each command runs with the cyclic GC paused: its cyclic garbage is a few
objects whatever its input, so a collection would only scan the records
it builds.  Forked sweep workers inherit the pause.
"""

from __future__ import annotations

import argparse
import copy
import glob
import json
import logging
import os
import re
import sys
from typing import NamedTuple

from . import __version__
from .analysis import (association_classes, check_pattern_properties,
                       classify_patterns, detect_stabilization,
                       required_horizon, segmentation_params, series_metrics)
from .engine import INIT_RANDOM_UNIFORM, InitState, simulate
from .errors import (ConfigError, InsufficientHorizonError, MepsimError,
                     ParameterError, TraceParseError)
from .timing import (MAX_NS, DelayModel, DriftAssignment, SimParams,
                     check_strict_constraint, derive_params,
                     read_schedule_file)
from .topology import (Graph, TopologyStats, grid_shape, parse_topology,
                       read_edge_list, topology_stats)
from .trace import SCHEMA_VERSION, paused_gc, read_trace, write_trace

EXIT_OK = 0
EXIT_NOT_STABILIZED = 2
EXIT_CHECK_FAILURE = 3
EXIT_INVALID = 4
EXIT_IO = 5
EXIT_HORIZON = 6

log = logging.getLogger("mepsim")

def _is_int(v) -> bool:
    return type(v) is int  # bool is an int subclass but not a count


def _is_number(v) -> bool:
    return type(v) in (int, float)


def _is_str(v) -> bool:
    return isinstance(v, str)


def _list_of(ok):
    return lambda v: isinstance(v, list) and all(ok(x) for x in v)


def _or_null(ok):
    return lambda v: v is None or ok(v)


_INT = (_is_int, "an integer")
_NUMBER = (_is_number, "a number")
_STRING = (_is_str, "a string")
_BOOL = (lambda v: type(v) is bool, "true or false")
_INT_OR_NULL = (_or_null(_is_int), "an integer or null")
_STRING_OR_NULL = (_or_null(_is_str), "a string or null")
_ANY = (lambda v: True, "any JSON value")

# The one list of config keys (dotted for a member of an object), each
# with its default and its JSON type.
_CONFIG = {
    "topology": ("ring:16", _STRING),
    "topology_file": (None, _STRING_OR_NULL),
    "lg_override": (None, _INT_OR_NULL),
    "d_min": (0, _INT),
    "d_max": (1_000_000, _INT),
    "rho": (1e-4, _NUMBER),
    "tau0": (None, _INT_OR_NULL),
    "tau1": (None, _INT_OR_NULL),
    "tau2": (None, _INT_OR_NULL),
    "delay.kind": ("uniform", _STRING),
    "delay.schedule_file": (None, _STRING_OR_NULL),
    "delay.cycle": (False, _BOOL),
    "omission_p": (0.0, _NUMBER),
    "drift.mode": ("uniform", _STRING),
    "drift.values": (None, (_or_null(_list_of(_is_number)),
                            "a list of numbers or null")),
    "init.mode": (INIT_RANDOM_UNIFORM, _STRING),
    "init.elapsed": (None, (_or_null(_list_of(_is_int)),
                            "a list of integers or null")),
    "init.signals": ([], (_list_of(lambda s: isinstance(s, list)
                                   and len(s) == 3
                                   and all(_is_int(x) for x in s)),
                          "a list of [from, to, arrival_ns] integer triples")),
    "dmin_compensation": (False, _BOOL),
    "horizon_ns": (None, _INT_OR_NULL),
    "seed": (0, _ANY),
    "record_arrivals": (True, _BOOL),
    "association_checks": (False, _BOOL),
}

# The keys that name objects: "" (the whole config), "delay", "drift", "init".
_OBJECTS = {key.rpartition(".")[0] for key in _CONFIG}


def _set(cfg: dict, key: str, value) -> None:
    """Set the dotted config key `key` to `value`.  An object value for an
    object key sets each of its members in turn, so an object override
    merges the way a config file (the object at key "") does."""
    if key in _CONFIG:
        *parents, leaf = key.split(".")
        for part in parents:
            cfg = cfg.setdefault(part, {})
        cfg[leaf] = value
    elif key not in _OBJECTS:
        raise ConfigError(f"unknown config key {key!r}")
    elif not isinstance(value, dict):
        raise ConfigError(f"config key {key!r} must be an object")
    else:
        for member, item in value.items():
            if "." in member:  # a member is one name, never a path
                raise ConfigError(f"unknown config key {member!r}")
            _set(cfg, f"{key}.{member}" if key else member, item)


def _check_config_types(cfg: dict) -> None:
    """Raise ConfigError on a config value of the wrong JSON type."""
    for key, (_, (ok, what)) in _CONFIG.items():
        *parents, leaf = key.split(".")
        node = cfg
        for part in parents:
            node = node.get(part)
            if not isinstance(node, dict):
                raise ConfigError(f"config key {part!r} must be an object")
        value = node.get(leaf)
        if not ok(value):
            raise ConfigError(f"config key {key!r} must be {what}, "
                              f"got {value!r}")


def _parse_value(raw: str):
    """A command-line config value: JSON, else the bare string."""
    try:
        return json.loads(raw)
    except (ValueError, RecursionError):
        return raw  # bare strings are convenient on the command line


def load_config(path=None, overrides=()) -> dict:
    cfg = {}
    for key, (default, _) in _CONFIG.items():
        _set(cfg, key, copy.copy(default))
    if path is not None:
        try:
            with open(path) as fh:
                extra = json.load(fh)
        except (ValueError, RecursionError) as exc:  # JSON or text encoding
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
        if not isinstance(extra, dict):
            raise ConfigError(f"{path}: the config is not a JSON object")
        _set(cfg, "", extra)
    for item in overrides:
        key, sep, raw = item.partition("=")
        if not sep:
            raise ConfigError(f"override {item!r} is not KEY=VAL")
        _set(cfg, key, _parse_value(raw))
    _check_config_types(cfg)
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
    """Turn a config dict into a run that `run` and `sweep` accept.

    Timing with no separation window raises ParameterError.  Explicit
    timing outside the paper's constraint only logs a WARNING; derived
    timing always meets both.  Both checks come last, so a config
    rejected for any other reason warns of nothing."""
    _check_config_types(cfg)
    if cfg["topology_file"]:
        graph = read_edge_list(cfg["topology_file"])
    else:
        graph = parse_topology(cfg["topology"])
    stats = topology_stats(graph, lg_override=cfg["lg_override"])

    if cfg["tau0"] is not None or cfg["tau1"] is not None or cfg["tau2"] is not None:
        if None in (cfg["tau0"], cfg["tau1"], cfg["tau2"]):
            raise ConfigError("explicit timing needs all of tau0, tau1, tau2")
        params = SimParams.from_dict(cfg)  # cfg holds every field by name
    else:
        params = derive_params(stats, cfg["d_max"], cfg["rho"],
                               d_min=cfg["d_min"],
                               omission_p=cfg["omission_p"],
                               dmin_compensation=cfg["dmin_compensation"])

    dcfg = cfg["delay"]
    schedule = None
    if dcfg["schedule_file"]:
        schedule = read_schedule_file(dcfg["schedule_file"])
    delay_model = DelayModel(kind=dcfg["kind"], schedule=schedule,
                             cycle=dcfg["cycle"])

    drift_cfg = cfg["drift"]
    values = drift_cfg["values"]
    drift = DriftAssignment(mode=drift_cfg["mode"],
                            values=tuple(values) if values else None)

    icfg = cfg["init"]
    init = InitState(
        mode=icfg["mode"],
        elapsed=tuple(icfg["elapsed"]) if icfg["elapsed"] else None,
        signals=tuple(tuple(s) for s in icfg["signals"]))

    horizon = cfg["horizon_ns"]
    if horizon is None:
        horizon = required_horizon(params, stats) + 3 * params.liveness_real_max
    if horizon > MAX_NS:  # not echoed: a given horizon may be huge
        raise ConfigError("horizon is above 2**53 ns")
    if cfg["tau0"] is not None:  # derived timing meets both checks
        segmentation_params(params, stats)
        try:
            check_strict_constraint(params.tau0, params.tau1, stats,
                                    params.d_max, params.rho)
        except ParameterError as exc:  # simulated, but outside the theorem
            log.warning("%s (L_G=%d); the paper's bounds do not cover this "
                        "timing", exc, stats.longest_simple_path)
    return RunSpec(graph, stats, params, delay_model, drift, init, horizon,
                   cfg["seed"], cfg["record_arrivals"])


def _json_dump(obj, path) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")


def build_metrics(trace, stats, association=False) -> tuple:
    """(metrics document, stabilization report, failed-check lines); a
    pure function of (trace, stats).

    The report is returned so the plot data reads its rounds instead of
    analyzing them again.  Each failed check gets one `check=<name> ...`
    line, which names its witness; the lines stay out of the document.
    Association checks asked of a trace without arrivals are skipped with
    a WARNING.
    """
    if association and not trace.arrivals_recorded:
        log.warning("association_checks skipped: the trace holds no arrivals")
    graph = trace.graph
    report = detect_stabilization(trace, stats)
    counts = []  # classify each round once, keeping only the last one's roles
    for r in report.rounds:
        final = classify_patterns(r.propagation, graph)
        counts.append(final.counts)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "params": trace.params._asdict(),
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
        "per_k": series_metrics(report, counts),
        "checks": {},
    }
    failed = []
    if report.stabilized:  # so rounds exist; final holds the last one's roles
        props = check_pattern_properties(final, report.rounds[-1].propagation,
                                         graph)
        doc["checks"]["pattern_properties"] = [
            {"name": c.name, "passed": c.passed, "detail": c.detail}
            for c in props]
        failed = [f"check={c.name} detail={c.detail}"
                  for c in props if not c.passed]
        if association and trace.arrivals_recorded:
            ac = association_classes(trace, (report.t_stab, trace.horizon),
                                     stats=stats)
            doc["checks"]["association"] = {
                "partitions_coincide": ac.partitions_coincide,
                "spans_ok": ac.spans_ok,
                "span_bound": ac.span_bound,
                "class_count": len(ac.classes),
            }
            witnesses = [f"{name}={w}" for name, w in (
                ("partition_witness", ac.partition_witness),
                ("span_witness", ac.span_witness)) if w is not None]
            if witnesses:
                failed.append(" ".join(["check=association", *witnesses]))
    doc["checks"]["all_passed"] = not failed
    return doc, report, failed


def _remove_outputs(outdir) -> None:
    """Remove what an earlier run or analysis wrote to `outdir` besides
    trace.csv and manifest.json, so no file outlives the run it is from."""
    patdir = os.path.join(outdir, "patterns")
    rounds = [name for name in glob.glob("k*.txt", root_dir=patdir)
              if re.fullmatch(r"k[0-9]{5,}\.txt", name)]
    for path in [os.path.join(outdir, "metrics.json"),
                 os.path.join(outdir, "plotdata", "offsets.csv"),
                 os.path.join(outdir, "plotdata", "pattern_map.csv"),
                 os.path.join(patdir, "final.svg"),
                 *(os.path.join(patdir, name) for name in rounds)]:
        try:
            os.remove(path)
        except FileNotFoundError:
            pass


def _write_plotdata(outdir, graph, report) -> None:
    """Write plotdata/ (every round's trigger offsets and source map) and
    patterns/ (the source maps of the first and the last round)."""
    plotdir = os.path.join(outdir, "plotdata")
    patdir = os.path.join(outdir, "patterns")
    os.makedirs(plotdir, exist_ok=True)
    os.makedirs(patdir, exist_ok=True)
    rows, cols = grid_shape(graph)
    rounds = report.rounds
    offsets = os.path.join(plotdir, "offsets.csv")
    pattern_map = os.path.join(plotdir, "pattern_map.csv")
    cells = range(graph.node_count)
    ids = [str(i) for i in cells]
    row_col = ["%d,%d" % divmod(i, cols) for i in cells]
    is_source = ("0\n", "1\n")  # the last column, by s == i
    with open(offsets, "w", newline="\n") as off, \
            open(pattern_map, "w", newline="\n") as pmap:
        off.write("k,t_min_ns,cell,t_tilde_ns,is_source\n")
        pmap.write("k,row,col,is_source\n")
        for k, r in enumerate(rounds):
            t_min, p = r.segment.t1, r.propagation
            off_head, map_head = f"{k},{t_min},", f"{k},"
            off_rows, map_rows = [], []
            for i, t, s in zip(cells, p.times, p.source):
                if t is not None:
                    end = is_source[s == i]
                    off_rows.append(f"{off_head}{ids[i]},{t - t_min},{end}")
                    map_rows.append(f"{map_head}{row_col[i]},{end}")
            off.write("".join(off_rows))
            pmap.write("".join(map_rows))
    if not rounds:
        return
    for k in {0, len(rounds) - 1}:
        source = rounds[k].propagation.source
        with open(os.path.join(patdir, f"k{k:05d}.txt"), "w", newline="\n") as fh:
            for r in range(rows):
                fh.write("".join("#" if source[i] == i else "."
                                 for i in range(r * cols, (r + 1) * cols)))
                fh.write("\n")
    _write_svg(os.path.join(patdir, "final.svg"), rows, cols,
               rounds[-1].propagation.source)


def _write_svg(path, rows, cols, source) -> None:
    cell_px = 12
    width, height = cols * cell_px, rows * cell_px
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" '
             f'width="{width}" height="{height}">']
    for i in range(rows * cols):
        r, c = divmod(i, cols)
        color = "#d62728" if source[i] == i else "#dddddd"
        parts.append(f'<rect x="{c * cell_px}" y="{r * cell_px}" '
                     f'width="{cell_px - 1}" height="{cell_px - 1}" '
                     f'fill="{color}"/>')
    parts.append("</svg>")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")


def _write_manifest(outdir, cfg, extra) -> None:
    manifest = {
        "tool": "mepsim",
        "version": __version__,
        "trace_schema": SCHEMA_VERSION,
        "config": cfg,
        **extra,
    }
    _json_dump(manifest, os.path.join(outdir, "manifest.json"))


def cmd_run(args) -> int:
    cfg = load_config(args.config, args.override)
    if args.seed is not None:
        cfg["seed"] = _parse_value(args.seed)  # as --override seed=... does
    if args.horizon_ns is not None:
        cfg["horizon_ns"] = args.horizon_ns
    spec = resolve_config(cfg)
    log.info("run: %s seed=%s horizon=%d", spec.graph.name, spec.seed,
             spec.horizon)
    trace = spec.run()  # a run its inputs reject leaves no output directory
    outdir = args.out
    os.makedirs(outdir, exist_ok=True)
    _remove_outputs(outdir)
    write_trace(trace, os.path.join(outdir, "trace.csv"))
    _write_manifest(outdir, cfg, {"horizon_ns": spec.horizon, "seed": spec.seed})
    # the trace is written first, so a run too short for a verdict keeps it
    built = build_metrics(trace, spec.stats, cfg["association_checks"])
    return _report(outdir, trace.graph, built,
                   "stabilized t_stab_ns={t_stab_ns}")


def cmd_analyze(args) -> int:
    cfg = load_config(args.config, args.override)
    # only association checks read arrivals
    trace = read_trace(args.trace, keep_arrivals=cfg["association_checks"])
    stats = topology_stats(trace.graph, lg_override=cfg["lg_override"])
    # an analysis that fails leaves no output directory
    built = build_metrics(trace, stats, cfg["association_checks"])
    outdir = args.out
    os.makedirs(outdir, exist_ok=True)
    _remove_outputs(outdir)
    _write_manifest(outdir, cfg, {"analyzed_trace": os.path.abspath(args.trace)})
    return _report(outdir, trace.graph, built, "ok")


def _report(outdir, graph, built, ok_line) -> int:
    """Write metrics.json and the plot data of build_metrics' result
    `built`; print the verdict and return its exit code.  ok_line is
    formatted with the stabilization metrics."""
    metrics, report, failed = built
    _json_dump(metrics, os.path.join(outdir, "metrics.json"))
    _write_plotdata(outdir, graph, report)
    if not report.stabilized:
        print("not-stabilized")
        print(" ".join(f"{'violation' if k == 'kind' else k}={v}"
                       for k, v in report.first_violation.items()),
              file=sys.stderr)
        return EXIT_NOT_STABILIZED
    if failed:
        print("check-failure")
        print("\n".join(failed), file=sys.stderr)
        return EXIT_CHECK_FAILURE
    print(ok_line.format(**metrics["stabilization"]))
    return EXIT_OK


# Each sweep axis: the config key it sets and how it parses one --values item.
_SWEEP_AXES = {
    "n": ("topology", lambda value: f"ring:{int(value)}"),
    "p": ("omission_p", float),
    "rho": ("rho", float),
    "topology": ("topology", str),
}


def _sweep_worker(task):
    point_label, replica, spec = task
    # a sweep reads only triggers, which recording arrivals never changes
    trace = spec._replace(record_arrivals=False).run()
    report = detect_stabilization(trace, spec.stats)
    valid = [r for r in report.rounds if r.valid]
    spans = [r.segment.span for r in valid]
    return {
        "point": point_label,
        "replica": replica,
        "seed": spec.seed,
        "stabilized": report.stabilized,
        "t_stab_ns": report.t_stab,
        "final_e1_ns": valid[-1].e1 if valid else None,
        "final_source_fraction": valid[-1].source_fraction if valid else None,
        "mean_tau_pi_ns": sum(spans) / len(spans) if spans else None,
    }


def cmd_sweep(args) -> int:
    cfg = load_config(args.config, args.override)
    values = [v for v in args.values.split(",") if v]
    if not values or args.replicas < 1:
        raise ConfigError("sweep needs a nonempty value list and replicas >= 1")
    if args.jobs is not None and args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    key, parse = _SWEEP_AXES[args.axis]
    if key == "topology" and cfg["topology_file"]:
        raise ConfigError(f"sweep axis {args.axis} sets 'topology', which "
                          "'topology_file' overrides; unset topology_file")
    tasks = []
    for value in values:
        try:
            point = parse(value)
        except ValueError as exc:
            raise ConfigError(f"bad {args.axis} sweep value {value!r}") from exc
        spec = resolve_config({**cfg, key: point})  # before any task runs
        for replica in range(args.replicas):
            seed = f"{cfg['seed']}-{value}-{replica}"
            tasks.append((str(value), replica, spec._replace(seed=seed)))
    jobs = min(args.jobs or os.cpu_count() or 1, len(tasks))
    if jobs == 1:
        rows = [_sweep_worker(t) for t in tasks]
    else:
        import concurrent.futures  # only sweeps use it; keeps startup lean
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_sweep_worker, tasks))
    os.makedirs(args.out, exist_ok=True)
    _write_manifest(args.out, cfg, {
        "sweep": {"axis": args.axis, "values": values,
                  "replicas": args.replicas}})
    path = os.path.join(args.out, "sweep.csv")
    import csv  # as concurrent.futures: only sweeps use it
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(rows[0])  # the columns: every row's keys
        writer.writerows(row.values() for row in rows)
    print(f"sweep complete: {len(rows)} runs -> {path}")
    return EXIT_OK


def cmd_topology(args) -> int:
    graph = parse_topology(args.spec)
    stats = topology_stats(graph)
    # derived before any print, so timing that fails prints nothing
    params = None if args.d is None else derive_params(stats, args.d, args.rho)
    print(f"topology {args.spec}: n={graph.node_count} edges={graph.edge_count}")
    print(f"diameter={stats.diameter} longest_simple_path="
          f"{stats.longest_simple_path} exact={stats.lg_is_exact}")
    if params is not None:
        print(f"tau0={params.tau0} tau1={params.tau1} tau2={params.tau2}"
              f" (d={args.d} rho={args.rho})")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit EXIT_INVALID, not
    argparse's 2, which would read as "not stabilized"."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"error=usage detail={message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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

    p = sub.add_parser("analyze", help="re-analyze a persisted trace file",
                       description="Of its config, analyze reads only "
                       "lg_override and association_checks; the trace's "
                       "#meta fixes the graph, the timing and the horizon.")
    common(p)
    p.add_argument("trace", help="trace.csv produced by run")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sweep", help="run a parameter sweep")
    common(p)
    p.add_argument("--axis", required=True, choices=_SWEEP_AXES)
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
    level = os.environ.get("MEPSIM_LOG", "WARNING")
    if not isinstance(logging.getLevelName(level.upper()), int):
        print(f"error=usage detail=MEPSIM_LOG={level} is not a log level",
              file=sys.stderr)
        return EXIT_INVALID
    logging.basicConfig(level=level.upper())
    args = build_parser().parse_args(argv)
    try:
        with paused_gc():
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
    except MemoryError:
        pass  # the traceback's frames hold the run's records until here
    print("error=out-of-memory", file=sys.stderr)
    return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
