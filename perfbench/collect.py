"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py --seeds 1-10 [--workloads a,b] \
        [--seconds 24] [--trace] [--out perfbench/BASELINE.json]

Each run is a fresh `run.py` process, one after another. For every metric
the table gives the median over seeds and the spread (third minus first
quartile, as statistics.quantiles(n=4) gives them, over the median). With
--out the medians, quartiles and values are stored under "end_to_end" (or
"per_layer" with --trace) for each workload; other keys of an existing file
are kept.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=os.path.dirname(HERE), text=True,
                          capture_output=True, timeout=600, check=True)
    return json.loads(proc.stdout.strip().split("\n")[-1])


def summarise(results):
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else (med, med, med))
        out[name] = {"unit": results[0]["metrics"][name]["unit"],
                     "median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else 0.0,
                     "values": values}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    key = "per_layer" if args.trace else "end_to_end"
    table = {}
    for workload in args.workloads.split(","):
        results = [run_once(workload, seed, args.seconds, args.trace)
                   for seed in args.seeds]
        bad = [r for r in results if not r["correct"]]
        table[workload] = summarise(results)
        table[workload]["_runs"] = {
            "seeds": args.seeds, "incorrect": len(bad),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results)}
        for name, row in table[workload].items():
            if not name.startswith("_"):
                print(f"{workload:18s} {name:34s} {row['median']:12.6g} "
                      f"{row['unit']:10s} spread {row['spread']:.3f}")
        print(f"{workload:18s} runs {len(results)}, incorrect {len(bad)}",
              flush=True)
    if args.out:
        data = {}
        if os.path.exists(args.out):
            with open(args.out, encoding="utf-8") as fh:
                data = json.load(fh)
        for workload, rows in table.items():
            data.setdefault(workload, {})[key] = rows
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
