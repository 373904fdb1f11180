"""mepsim benchmark: one workload, one seed, one JSON result line.

  python3 perfbench/run.py --workload grid-long --seed 1 --seconds 55 --trace 0

Run from the repository root.  With --trace 0 the result holds the
end-to-end metrics; with --trace 1 the per-layer metrics of a traced run
(spans are written to perfbench/_out/).  Every CLI command the benchmark
issues is one attempted operation; a wrong exit code, an output that
differs from its recorded digest, or a re-analysis that differs from its
run counts it as failed.  See perfbench/README.md for the metrics.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")

sys.path.insert(0, HERE)
import reference  # noqa: E402
import workloads  # noqa: E402

CHILD_GRACE_S = 120  # an operation started just before the deadline


def _run_child(argv, timeout):
    """Run child.py in its own session so a timeout kills its pool too."""
    proc = subprocess.Popen([sys.executable, CHILD, *argv], cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"child {argv[0]} timed out after {timeout} s")
    if proc.returncode != 0:
        raise SystemExit(f"child {argv[0]} failed ({proc.returncode}):\n{err}")
    return out


def run(workload, seed, seconds, trace, scale="full"):
    """Measure one workload; returns the result object that run.py prints."""
    if not os.path.isfile(os.path.join(ROOT, "src", "mepsim", "cli.py")):
        raise SystemExit("mepsim sources not found under src/mepsim")
    work = os.path.join(HERE, "_work", f"{workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        result_path = os.path.join(work, "result.json")
        _run_child(["ops", "--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace),
                    "--work", work, "--result", result_path,
                    "--scale", scale], seconds + CHILD_GRACE_S)
        with open(result_path) as fh:
            report = json.load(fh)
        metrics = report["metrics"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    missing = set(units) ^ set(metrics)
    if missing:
        raise SystemExit(f"metric set mismatch: {sorted(missing)}")
    for message in report["failures"]:
        print(f"FAILED {message}", file=sys.stderr)
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }, report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, report = run(args.workload, args.seed, args.seconds, args.trace)
    print(f"workload={args.workload} seed={args.seed} ops={report['ops']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    print(f"reference kernel: median {report['kernel_s']:.4f} s here, "
          f"{reference.REFERENCE_S} s at the reference speed; "
          f"timings below are at the reference speed")
    if "spans_file" in report:
        print(f"spans written to {report['spans_file']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:38s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
