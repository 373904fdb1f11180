"""Run the benchmark over several seeds and summarize each metric.

  python3 perfbench/collect.py --workloads grid-long,sweep-omission \
      --seeds 1-10 --trace 0 --out perfbench/_out/summary.json

For each workload and metric it reports the median, the quartiles (as
statistics.quantiles(values, n=4) gives them), the sample count and the
quartile spread as a share of the median, and marks an end-to-end metric
whose spread is not below a third of its bound in BENCHMARK.json.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 1,3,5")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="summary JSON file")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    summary = {"machine": {"cpus": os.cpu_count(), "python": sys.version.split()[0],
                           "platform": platform.platform()},
               "seconds": seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            result["wall_s"] = time.perf_counter() - start
            runs.append(result)
            print(f"{workload} seed={seed} wall={result['wall_s']:.1f}s "
                  f"correct={result['correct']} " + " ".join(
                      f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                      if k in bounds), flush=True)
        metrics = {}
        for name, first in runs[0]["metrics"].items():
            metrics[name] = summarize([r["metrics"][name]["value"] for r in runs])
            metrics[name]["unit"] = first["unit"]
        summary["workloads"][workload] = {
            "seeds": [r["seed"] for r in runs],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "error_rate": (sum(r["failed"] for r in runs)
                           / sum(r["attempted"] for r in runs)),
            "max_wall_s": max(r["wall_s"] for r in runs),
            "metrics": metrics}
        for name, s in metrics.items():
            flag = ""
            if name in bounds:
                flag = "ok" if s["spread"] < bounds[name] / 3 else \
                    f"SPREAD >= bound/3 ({bounds[name] / 3:.3f})"
            print(f"  {workload:20s} {name:36s} median={s['median']:.6g} "
                  f"q1={s['q1']:.6g} q3={s['q3']:.6g} spread={s['spread']:.4f} "
                  f"{flag}")
    with open(args.out, "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
