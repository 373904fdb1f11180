"""Quick self-check of the benchmark harness at tiny sizes.

  python3 perfbench/selfcheck.py

Checks that every declared metric is emitted on every workload, traced and
untraced; that the output checks catch a corrupted output and a re-analysis
that differs from its run; and that tracing restores the functions it
wrapped, also when the traced code raises.
"""

import json
import os
import shutil
import sys
import time

import child
import run
import tracing
import workloads

WORK = os.path.join(child.HERE, "_work", "selfcheck")


def require(ok, detail):
    if not ok:
        raise SystemExit(f"self-check failed: {detail}")


def check_metrics_emitted():
    with open(os.path.join(child.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    for workload in workloads.WORKLOADS:
        start = time.perf_counter()
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, _ = run.run(workload, seed=1, seconds=0, trace=trace,
                                scale="tiny")
            require(result["correct"] and result["failed"] == 0, result)
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            require(got == want, (workload, trace, set(got) ^ set(want)))
            for name, metric in result["metrics"].items():
                require(isinstance(metric["value"], (int, float)),
                        (name, metric))
        print(f"metrics emitted: {workload} "
              f"({time.perf_counter() - start:.1f} s, traced and untraced)")


def check_digests_catch_corruption(cli):
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    wl = child.Workload("grid-long", 1, WORK, "tiny", cli)
    codes, _ = child.run_op(cli, wl, None)
    failures, run_files = child.check_op(wl, codes, None)
    require(not failures, failures)
    expected = {"exit": codes["run"], "files": run_files}
    failures, _ = child.check_op(wl, codes, expected)
    require(not failures, failures)

    with open(os.path.join(wl.out("run"), "trace.csv"), "a") as fh:
        fh.write("\n")
    failures, _ = child.check_op(wl, codes, expected)
    require("trace.csv" in " ".join(failures.get("run", ())), failures)

    with open(os.path.join(wl.out("analyze"), "metrics.json"), "a") as fh:
        fh.write(" ")
    failures, _ = child.check_op(wl, codes, None)
    require("metrics.json" in " ".join(failures.get("analyze", ())), failures)

    failures, _ = child.check_op(wl, dict(codes, run=2), expected)
    require("recorded 0" in " ".join(failures.get("run", ())), failures)
    shutil.rmtree(WORK)
    print("digest check: corrupted trace, diverging re-analysis and a wrong "
          "exit code are each reported")


def check_tracing_restores(cli):
    import importlib
    modules = [importlib.import_module(f"mepsim.{m}") for m in tracing.MODULES]
    before = [dict(vars(m)) for m in modules]
    tracer = tracing.Tracer()
    original = cli.simulate
    try:
        with tracer.installed():
            patched = cli.simulate
            require(patched is not original, "cli.simulate was not wrapped")
            require(patched is sys.modules["mepsim.engine"].simulate,
                    "cli and engine bindings got different wrappers")
            raise KeyboardInterrupt  # restore must survive any exception
    except KeyboardInterrupt:
        pass
    for module, saved in zip(modules, before):
        for name, value in saved.items():
            require(vars(module)[name] is value, (module.__name__, name))
    print(f"tracing: {len(tracing.TRACED)} functions wrapped and restored")


def main():
    cli = child._import_mepsim()
    check_tracing_restores(cli)
    check_digests_catch_corruption(cli)
    check_metrics_emitted()
    print("self-check passed")


if __name__ == "__main__":
    main()
