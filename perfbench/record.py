"""Run the benchmark twice over seeds 1 to 10 and record the numbers in a JSON file.

Run from the repository root:

    python3 perfbench/record.py --out perfbench/baseline.json

Every workload in ``workloads.WORKLOADS`` runs untraced once per seed in
each of two sets, with the ``run_seconds`` of ``BENCHMARK.json``.  The
runs are interleaved: for each seed, set a then set b, each over every
workload, so both sets and all workloads sample the same stretches of the
host's speed.  Then each workload runs once traced.  The file keeps every
run's metrics; per set and metric the median, the quartiles and the
quartile spread as a share of the median
(``statistics.quantiles(values, n=4)``); and per metric the relative
difference between the two sets' medians, checked against the metric's
bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETS = ("a", "b")
SEEDS = range(1, 11)


def run_once(workload, seed, seconds, trace):
    """One benchmark process; returns its result object and human lines."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True,
        text=True,
        timeout=900,
        check=True,
    )
    lines = done.stdout.splitlines()
    return json.loads(lines[-1]), lines[:-1]


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
    }


def agreement(summaries, bound):
    a, b = (summaries[s]["median"] for s in SETS)
    difference = b / a - 1
    return {"median_a": a, "median_b": b, "difference": difference, "bound": bound,
            "within_bound": abs(difference) <= bound}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    with open(os.path.join(os.getcwd(), "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    seconds = benchmark["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}

    runs = {w: {s: [] for s in SETS} for w in workloads.WORKLOADS}
    record = {"run_seconds": seconds, "workloads": {}}
    for seed in SEEDS:
        for label in SETS:
            for workload in workloads.WORKLOADS:
                result, lines = run_once(workload, seed, seconds, 0)
                failures = [l.strip() for l in lines if l.startswith("  ")]
                runs[workload][label].append({"seed": seed, **result, "failures": failures})
                record.setdefault("environment", lines[1])
                print(f"{workload} set {label} seed {seed}: {json.dumps(result)}", file=sys.stderr)

    for workload in workloads.WORKLOADS:
        names = list(runs[workload]["a"][0]["metrics"])
        sets = {
            label: {n: summarize([r["metrics"][n]["value"] for r in runs[workload][label]]) for n in names}
            for label in SETS
        }
        every = runs[workload]["a"] + runs[workload]["b"]
        traced, lines = run_once(workload, SEEDS[0], seconds, 1)
        record["workloads"][workload] = {
            "sets": sets,
            "agreement": {n: agreement({s: sets[s][n] for s in SETS}, bounds[n]) for n in names},
            "failed_ratio": sum(r["failed"] for r in every) / sum(r["attempted"] for r in every),
            "runs": runs[workload],
            "traced": {"seed": SEEDS[0], **traced, "report": lines},
        }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
