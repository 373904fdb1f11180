"""Drive mepsim's CLI in this process, time it, and check its outputs.

run.py starts this script in a fresh process per measurement:

  child.py ops --workload W --seed N --seconds S --trace 0|1 --work DIR
               --result FILE [--scale full|tiny]
      Repeat the workload's operation for at least S seconds and write the
      timings, layer metrics and check failures to FILE.
  child.py setup CONFIG
      Print the seconds taken by `import mepsim.cli` plus load_config and
      resolve_config of CONFIG.  `ops` starts it between operations.

To record the output digests that later runs are checked against:

  python3 perfbench/child.py record
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DIGESTS = os.path.join(HERE, "digests.json")
SPANS_DIR = os.path.join(HERE, "_out")

import reference  # noqa: E402  (perfbench/ is this script's directory)
import tracing  # noqa: E402
import workloads  # noqa: E402

VERDICT_CODES = (0, 2, 3)  # stabilized, not stabilized, check failure
SETUP_PROBES = 20  # per run, spread evenly over --seconds


def _import_mepsim():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import mepsim.cli
    return mepsim.cli


# ------------------------------------------------------------------ setup


def cmd_setup(config_path):
    start = time.perf_counter()
    cli = _import_mepsim()
    cli.resolve_config(cli.load_config(config_path))
    print(repr(time.perf_counter() - start))


def probe_setup(config_path):
    """Seconds of import + load_config + resolve_config in a fresh process."""
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "setup",
                           config_path], capture_output=True, text=True,
                          check=True, timeout=60)
    return float(proc.stdout)


# ------------------------------------------------------------------ commands


class Workload:
    """One operation: `mepsim run`, then `mepsim analyze` of its trace."""

    def __init__(self, name, seed, work, scale, cli):
        from mepsim.analysis import required_horizon
        self.work = work
        self.config = os.path.join(work, "config.json")
        with open(self.config, "w") as fh:
            json.dump(workloads.make_config(name, seed), fh, sort_keys=True)
        _, stats, params, *_ = cli.resolve_config(cli.load_config(self.config))
        rounds = workloads.SIZES[scale][name]
        self.horizon = required_horizon(params, stats) + rounds * params.tau2

    def out(self, command):
        return os.path.join(self.work, "out", command)

    def commands(self):
        return [
            ("run", ["run", "--config", self.config, "--horizon-ns",
                     str(self.horizon), "--out", self.out("run")]),
            ("analyze", ["analyze", "--config", self.config,
                         os.path.join(self.out("run"), "trace.csv"),
                         "--out", self.out("analyze")])]


def call_main(cli, argv, tracer):
    """Run `mepsim <argv>`; returns (exit code or error text, seconds)."""
    sink = io.StringIO()
    # A command run from the shell starts with an empty heap; collecting the
    # previous command's garbage here keeps its collections out of this one.
    gc.collect()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        span = tracer.span("cli.main") if tracer else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with span:
                code = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = f"exit {exc.code}: {sink.getvalue().strip()}"
        except Exception:  # a traceback is a failed operation, not a crash
            code = "exception: " + traceback.format_exc(limit=3)
        seconds = time.perf_counter() - start
    return code, seconds


def run_op(cli, wl, tracer, clock=None):
    """Every command once.  Returns ({command: exit}, {command: seconds}).

    With a ReferenceClock the seconds are at the reference kernel's speed.
    """
    shutil.rmtree(os.path.join(wl.work, "out"), ignore_errors=True)
    codes, seconds = {}, {}
    if clock:
        clock.start()
    for command, argv in wl.commands():
        codes[command], seconds[command] = call_main(cli, argv, tracer)
        if clock:
            seconds[command] = clock.scale(seconds[command])
    return codes, seconds


# ------------------------------------------------------------------ checks


def output_digests(outdir):
    """{relative path: sha256} of a command's outputs, manifest excluded.

    The manifest echoes absolute paths, so it differs between checkouts.
    """
    digests = {}
    for dirpath, _, files in os.walk(outdir):
        for fname in files:
            path = os.path.join(dirpath, fname)
            rel = os.path.relpath(path, outdir).replace(os.sep, "/")
            if rel == "manifest.json":
                continue
            with open(path, "rb") as fh:
                digests[rel] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def _mismatch(want, got):
    return sorted(rel for rel in set(want) | set(got)
                  if want.get(rel) != got.get(rel))


def check_op(wl, codes, expected):
    """Failure messages per command, and the run's output digests.

    expected: the recorded {"exit", "files"} of the run for this seed, or
    None for a seed without a record.
    """
    failures = {}
    for command, code in codes.items():
        if code not in VERDICT_CODES:
            failures[command] = [f"exit code {code!r}"]
    run_files = output_digests(wl.out("run"))
    if "run" not in failures and expected is not None:
        bad = _mismatch(expected["files"], run_files)
        if codes["run"] != expected["exit"] or bad:
            failures["run"] = [f"exit {codes['run']} (recorded "
                               f"{expected['exit']}); digest mismatch: "
                               f"{', '.join(bad) or 'none'}"]
    if "analyze" not in failures:
        messages = []
        if codes["analyze"] != codes["run"]:
            messages.append(f"exit {codes['analyze']} differs from run exit "
                            f"{codes['run']}")
        want = {rel: d for rel, d in run_files.items() if rel != "trace.csv"}
        bad = _mismatch(want, output_digests(wl.out("analyze")))
        if bad:
            messages.append("re-analysis outputs differ from the run's: "
                            + ", ".join(bad))
        if messages:
            failures["analyze"] = messages
    return failures, run_files


# ------------------------------------------------------------------ metrics


def median_times(ops):
    """End-to-end timings: each command's median over the run's repeats."""
    return {f"{command}_s": statistics.median(seconds[command]
                                              for _, seconds in ops)
            for command in ("run", "analyze")}


def _finish_counts(spans, first):
    """Replace the arrival lists kept by simulate spans with outcome counts."""
    for span in spans[first:]:
        attrs = span[5]
        if attrs and isinstance(attrs.get("arrivals"), list):
            outcomes = [a.outcome for a in attrs["arrivals"]]
            attrs["arrivals"] = len(outcomes)
            attrs["accepted"] = outcomes.count("accepted")
            attrs["omitted"] = outcomes.count("omitted")


def layer_metrics(spans):
    """Per-layer metrics of one traced operation; spans: [(span, self s)]."""
    total, calls, counts, layer_self = {}, {}, {}, {}
    output_self = 0.0
    for span, own in spans:
        name, start, end, _, _, attrs = span
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        layer = name.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + own
        if name in ("cli.cmd_run", "cli.cmd_analyze"):
            output_self += own
        for key, value in (attrs or {}).items():
            counts[key] = counts.get(key, 0) + value

    def t(name):
        return total.get(name, 0.0)

    triggers, arrivals = counts["triggers"], counts["arrivals"]
    m = {
        "cli.resolve_config_s": t("cli.resolve_config"),
        "topology.topology_stats_s": t("topology.topology_stats"),
        "engine.simulate_s": t("engine.simulate"),
        "engine.triggers_per_s": triggers / t("engine.simulate"),
        "engine.triggers": triggers,
        "engine.arrivals": arrivals,
        "engine.omitted": counts.get("omitted", 0),
        "engine.accept_ratio": (counts.get("accepted", 0) / arrivals
                                if arrivals else 0.0),
        "trace.write_s": t("trace.write_trace"),
        "trace.bytes": counts["bytes"],
        "trace.read_s": t("trace.read_trace"),
        "trace.read_rows_per_s": counts["rows"] / t("trace.read_trace"),
        "analysis.detect_stabilization_s": t("analysis.detect_stabilization"),
        "analysis.series_metrics_s": t("analysis.series_metrics"),
        "analysis.series_metrics_calls": calls.get("analysis.series_metrics", 0),
        "analysis.extract_propagation_calls":
            calls.get("analysis.extract_propagation", 0),
        "analysis.rounds": counts["rounds"],
        "analysis.association_classes_s": t("analysis.association_classes"),
        "cli.build_metrics_s": t("cli.build_metrics"),
        "cli.output_self_s": output_self,
        "tracing.spans": len(spans),
    }
    for layer in tracing.MODULES:
        m[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
    return m


# ------------------------------------------------------------------ ops


def cmd_ops(args):
    cli = _import_mepsim()
    os.makedirs(args.work, exist_ok=True)
    wl = Workload(args.workload, args.seed, args.work, args.scale, cli)
    expected = None
    if args.scale == "full":
        with open(DIGESTS) as fh:
            expected = json.load(fh)[args.workload].get(str(args.seed))

    tracer = tracing.Tracer() if args.trace else None
    clock = reference.ReferenceClock(
        reference.EVENTS if args.scale == "full" else 1000)
    untraced, traced, setup, failures = [], [], [], []
    attempted = failed = 0
    warm_up = True  # the first operation fills caches: checked, not timed
    while True:
        trace_this = tracer is not None and not warm_up \
            and len(untraced) > len(traced)
        if trace_this:
            tracer.op += 1
            first = len(tracer.spans)
            with tracer.installed():
                op = run_op(cli, wl, tracer, clock)
            _finish_counts(tracer.spans, first)
        else:
            op = run_op(cli, wl, None, clock)
        op_failures, _ = check_op(wl, op[0], expected)
        attempted += len(op[0])
        failed += len(op_failures)
        failures.extend(f"{command}: {m}" for command, ms in op_failures.items()
                        for m in ms)
        if warm_up:
            warm_up = False
            if tracer is None:
                probe_setup(wl.config)  # may compile bytecode
            next_probe = time.perf_counter()
            deadline = next_probe + args.seconds
            continue
        (traced if trace_this else untraced).append(op)
        if tracer is None and time.perf_counter() >= next_probe:
            clock.start()
            setup.append(clock.scale(probe_setup(wl.config)))
            next_probe += args.seconds / SETUP_PROBES
        if (tracer is None or traced) and time.perf_counter() >= deadline:
            break

    report = {"attempted": attempted, "failed": failed,
              "failures": failures[:20],
              "ops": 1 + len(untraced) + len(traced),
              "kernel_s": statistics.median(clock.kernel_s)}
    times = median_times(untraced)
    if tracer is None:
        usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                    resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        report["metrics"] = dict(
            times,
            peak_rss_mb=usage / 1024.0,  # ru_maxrss is in KiB on Linux
            setup_s=statistics.median(setup))
    else:
        spans = tracer.spans
        by_op = {}
        for span, own in zip(spans, tracing.self_times(spans)):
            by_op.setdefault(span[4], []).append((span, own))
        layers = [layer_metrics(op_spans) for op_spans in by_op.values()]
        m = {key: statistics.median(op[key] for op in layers)
             for key in layers[0]}
        m["tracing.overhead_s"] = median_times(traced)["run_s"] - times["run_s"]
        report["metrics"] = m
        os.makedirs(SPANS_DIR, exist_ok=True)
        spans_path = os.path.join(
            SPANS_DIR, f"spans-{args.workload}-seed{args.seed}.json")
        with open(spans_path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "op",
                                  "counts"], "spans": spans}, fh)
        report["spans_file"] = os.path.relpath(spans_path, ROOT)
    with open(args.result, "w") as fh:
        json.dump(report, fh)


# ------------------------------------------------------------------ record


def cmd_record():
    """Run each workload once per recorded seed and store its digests."""
    cli = _import_mepsim()
    recorded = {}
    for name in workloads.WORKLOADS:
        recorded[name] = {}
        for seed in workloads.RECORDED_SEEDS:
            work = os.path.join(HERE, "_work", f"record-{name}")
            shutil.rmtree(work, ignore_errors=True)
            os.makedirs(work)
            wl = Workload(name, seed, work, "full", cli)
            codes, _ = run_op(cli, wl, None)
            failures, run_files = check_op(wl, codes, None)
            if failures:
                sys.exit(f"{name} seed {seed}: {failures}")
            recorded[name][str(seed)] = {"exit": codes["run"], "files": run_files}
            shutil.rmtree(work)
            print(name, seed, codes, flush=True)
    with open(DIGESTS, "w") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("ops")
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--scale", choices=sorted(workloads.SIZES), default="full")
    p = sub.add_parser("setup")
    p.add_argument("config")
    sub.add_parser("record")
    args = parser.parse_args(argv)
    if args.mode == "ops":
        cmd_ops(args)
    elif args.mode == "setup":
        cmd_setup(args.config)
    else:
        cmd_record()


if __name__ == "__main__":
    main()
