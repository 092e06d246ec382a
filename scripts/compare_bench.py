#!/usr/bin/env python3
"""Paired benchmark comparison of two commits.

    python3 scripts/compare_bench.py --parent REV --change REV --workload W \\
        --pairs N --seed-base S [--seconds 18] [--claim METRIC] [--out DIR]

Run from the root of the git repository.
Each side's src/, perfbench/ and BENCHMARK.json are exported with
``git archive`` into DIR/parent and DIR/change.  Pair i (counted from 0)
runs ``perfbench/run.py --workload W --seed S+i --seconds T --trace 0`` on
both sides, one run at a time, the parent first on even pairs and the
change first on odd ones, so that a run's place in its pair does not
favour either side.  Every run's stdout and stderr are kept under
DIR/logs, and each WRONG OUTPUT, CLOCK or failed line is echoed as it
appears.  ``--workload`` may be given more than once; the workloads run
in turn.

The summary, written to DIR/compare.json, has the layout
of the repository's BENCH_*.json files: per workload and end-to-end
metric of BENCHMARK.json, the pairs, the change's wins (better in the
direction BENCHMARK.json gives), both medians, both quartiles
(statistics.quantiles, n=4) and the ratio of the medians; with
``--claim METRIC``, the ``claim`` block for that metric on the first
workload adds the parent's quartile spread and the median gain; and
``pairs`` holds every run's metrics, correctness and failed requests.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys
import tarfile

EXPORTED = ("src", "perfbench", "BENCHMARK.json")
SIDES = ("parent", "change")
# perfbench/run.py's lines that say a run is not clean.
ALERTS = ("WRONG OUTPUT", "CLOCK", "failed:")


def export(rev: str, dest: str) -> None:
    """Extract EXPORTED at ``rev`` into ``dest``."""
    os.makedirs(dest)
    argv = ["git", "archive", "--format=tar", rev, *EXPORTED]
    with subprocess.Popen(argv, stdout=subprocess.PIPE) as archive:
        with tarfile.open(fileobj=archive.stdout, mode="r|") as tar:
            if hasattr(tarfile, "data_filter"):
                tar.extractall(dest, filter="data")
            else:
                tar.extractall(dest)
    if archive.returncode:
        raise SystemExit(f"git archive {rev} failed")


def resolve(rev: str) -> dict[str, str]:
    """The commit and the src/ tree that ``rev`` names."""

    def parse(name):
        return subprocess.run(
            ["git", "rev-parse", name], capture_output=True, text=True, check=True
        ).stdout.strip()

    return {"rev": rev, "commit": parse(f"{rev}^{{commit}}"), "src_tree": parse(f"{rev}:src")}


def subprocess_runner(argv, cwd, stdout, stderr, on_line) -> int:
    """Run ``argv`` in ``cwd``, writing its stdout line by line to the
    file ``stdout`` and passing each line to ``on_line``, and its stderr
    to the file ``stderr``.  Returns the exit code."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    with subprocess.Popen(
        argv, cwd=cwd, stdout=subprocess.PIPE, stderr=stderr, text=True, env=env
    ) as process:
        for line in process.stdout:
            stdout.write(line)
            stdout.flush()
            on_line(line)
    return process.returncode


def run_once(runner, root, side, workload, seed, seconds, logs) -> dict:
    """One benchmark run of one side: its closing JSON, or a failed record."""
    name = f"{workload}-{seed}-{side}"
    argv = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", f"{seconds:g}", "--trace", "0",
    ]
    lines = []

    def on_line(line):
        lines.append(line)
        if any(alert in line for alert in ALERTS):
            print(f"{name}: {line.strip()}", flush=True)

    with open(os.path.join(logs, f"{name}.out"), "w") as out, open(
        os.path.join(logs, f"{name}.err"), "w"
    ) as err:
        code = runner(argv, os.path.join(root, side), out, err, on_line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if code != 0 or result is None:
        print(f"{name}: exit code {code}, no closing JSON line", flush=True)
        return {"correct": False, "failed": None, "metrics": {}}
    result["metrics"] = {metric: entry["value"] for metric, entry in result["metrics"].items()}
    return result


def summary(parent: list[float], change: list[float], better: str) -> dict:
    wins = sum((c < p) if better == "lower" else (c > p) for p, c in zip(parent, change))
    parent_median, change_median = statistics.median(parent), statistics.median(change)

    def quartiles(values):
        if len(values) < 2:
            return [round(values[0], 6)] * 2
        q = statistics.quantiles(values, n=4)
        return [round(q[0], 6), round(q[2], 6)]

    return {
        "pairs": len(parent),
        "change_wins": wins,
        "parent_median": round(parent_median, 6),
        "change_median": round(change_median, 6),
        "parent_quartiles": quartiles(parent),
        "change_quartiles": quartiles(change),
        "ratio": round(change_median / parent_median, 4) if parent_median else None,
    }


def compare(args, runner=subprocess_runner) -> dict:
    root = os.path.abspath(args.out)
    logs = os.path.join(root, "logs")
    os.makedirs(logs, exist_ok=True)
    revs = {"parent": args.parent, "change": args.change}
    for side in SIDES:
        export(revs[side], os.path.join(root, side))
    with open(os.path.join(root, "change", "BENCHMARK.json")) as f:
        better = {m["name"]: m["better"] for m in json.load(f)["end_to_end"]}

    pairs, end_to_end = {}, {}
    for workload in args.workload:
        records = pairs[workload] = []
        for i in range(args.pairs):
            seed = args.seed_base + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            runs = {
                side: run_once(runner, root, side, workload, seed, args.seconds, logs)
                for side in order
            }
            records.append(
                {"seed": seed, "first": order[0]}
                | {side: runs[side]["metrics"] for side in SIDES}
                | {f"{side}_correct": runs[side]["correct"] for side in SIDES}
                | {f"{side}_failed": runs[side]["failed"] for side in SIDES}
            )
            print(
                f"{workload} seed {seed}: "
                + ", ".join(f"{side} correct={runs[side]['correct']}" for side in SIDES),
                flush=True,
            )
        blocks = end_to_end[workload] = {}
        for metric, direction in better.items():
            complete = [r for r in records if metric in r["parent"] and metric in r["change"]]
            if complete:
                blocks[metric] = summary(
                    [r["parent"][metric] for r in complete],
                    [r["change"][metric] for r in complete],
                    direction,
                )

    report = {
        "command": shlex.join(["python3", "scripts/compare_bench.py", *args.argv]),
        "python": f"{platform.python_version()}, {platform.machine()}",
        "parent": resolve(args.parent),
        "change": resolve(args.change),
    }
    if args.claim:
        workload = args.workload[0]
        block = dict(end_to_end[workload][args.claim])
        q1, q3 = block["parent_quartiles"]
        gain = block["change_median"] - block["parent_median"]
        if better[args.claim] == "lower":
            gain = -gain
        report["claim"] = {"workload": workload, "metric": args.claim, "better": better[args.claim]}
        report["claim"] |= block | {
            "parent_quartile_spread": round(q3 - q1, 6),
            "median_gain": round(gain, 6),
        }
    report["end_to_end"] = end_to_end
    report["pairs"] = pairs
    return report


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the commit compared against")
    parser.add_argument("--change", required=True, help="the commit measured")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed-base", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--claim", help="an end-to-end metric to test on the first workload")
    parser.add_argument("--out", default=".compare-bench", help="the output directory")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if os.path.exists(args.out) and os.listdir(args.out):
        parser.error(f"--out {args.out} is not empty")
    args.argv = list(argv)
    return args


def main(argv=None, runner=subprocess_runner) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse(argv)
    report = compare(args, runner)
    path = os.path.join(args.out, "compare.json")
    with open(path, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    if "claim" in report:
        claim = report["claim"]
        holds = (
            10 * claim["change_wins"] >= 9 * claim["pairs"]
            and claim["median_gain"] > claim["parent_quartile_spread"]
        )
        print(
            f"claim {claim['metric']} on {claim['workload']}: {claim['change_wins']} of "
            f"{claim['pairs']} pairs won, median gain {claim['median_gain']:g} against the "
            f"parent's quartile spread {claim['parent_quartile_spread']:g}: "
            + ("holds" if holds else "does not hold")
        )
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
