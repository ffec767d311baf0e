"""Measure every workload twice over ten seeds and write the medians, spreads
and the agreement of the two sets.

    python3 perfbench/baseline.py

Each run is one ``run.py`` process, as long as BENCHMARK.json's
``run_seconds``.  Two sets of untraced runs on seeds 1-10 give the end-to-end
metrics; traced runs on seeds 1-2 give the per-layer ones.  The first set
runs on every workload before the second starts.  For each metric and set
the output gives the values, their median and quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance between
the quartiles as a share of the median.  ``worse_by`` is how much worse the
second set's median is than the first's, as a share of the first.  The
result goes to ``perfbench/baseline.json``.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import END_TO_END_UNITS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = range(1, 11)
TRACED_SEEDS = range(1, 3)
SETS = ("first", "second")


def one_run(workload, seed, seconds, trace):
    """The run's full record."""
    subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, check=True)
    with open(BENCH / "out" / f"{workload}-seed{seed}-trace{trace}.json",
              encoding="utf-8") as fh:
        return json.load(fh)


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def measure(report, workload, seeds, seconds, trace):
    entry = {"seeds": list(seeds), "attempted": [], "failed": [], "witness_ratio": []}
    metrics = {}
    for seed in seeds:
        record = one_run(workload, seed, seconds, trace)
        report.setdefault("provenance", record["provenance"])
        jobs = record["jobs"]
        entry["attempted"].append(len(jobs))
        entry["failed"].append(sum(j["error"] is not None for j in jobs))
        entry["witness_ratio"].append(record["witness_ratio"])
        for name, value in record["metrics"].items():
            metrics.setdefault(name, []).append(value)
        print(workload, "traced" if trace else "untraced", seed, len(jobs),
              entry["failed"][-1], file=sys.stderr, flush=True)
    entry["metrics"] = {name: summarize(values) for name, values in metrics.items()}
    return entry


def main():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    report = {"seconds": seconds, "workloads": {name: {} for name in names}}
    for set_name in SETS:
        for workload in names:
            report["workloads"][workload][set_name] = measure(
                report, workload, SEEDS, seconds, 0)
    for workload in names:
        report["workloads"][workload]["traced"] = measure(
            report, workload, TRACED_SEEDS, seconds, 1)
    for key in ("seed", "workload", "trace"):
        report["provenance"].pop(key, None)

    for workload, entry in report["workloads"].items():
        entry["worse_by"] = {}
        for metric in bench["end_to_end"]:
            name, sign = metric["name"], 1.0 if metric["better"] == "lower" else -1.0
            first, second = (entry[s]["metrics"][name]["median"] for s in SETS)
            entry["worse_by"][name] = sign * (second - first) / first
    with open(BENCH / "baseline.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for workload, entry in report["workloads"].items():
        for name, bound in bounds.items():
            first, second = (entry[s]["metrics"][name] for s in SETS)
            print(f"{workload:16s} {name:12s} {END_TO_END_UNITS[name]:4s} "
                  f"median {first['median']:10.4f} / {second['median']:10.4f}  "
                  f"spread {first['spread']:.4f} / {second['spread']:.4f}  "
                  f"worse_by {entry['worse_by'][name]:+.4f}  bound {bound}")
        for s in SETS:
            runs = entry[s]
            print(f"{workload:16s} {s:6s} failed_share {sum(runs['failed'])}/"
                  f"{sum(runs['attempted'])} jobs, worst witness_ratio "
                  f"{max(runs['witness_ratio']):.4g}")


if __name__ == "__main__":
    main()
