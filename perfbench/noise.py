#!/usr/bin/env python3
"""Noise evidence: runs every workload on several seeds and prints, per
end-to-end metric, the median and quartiles and the spread (interquartile
range over median), with the raw (un-normalized) figure beside each timed
metric.

    python3 perfbench/noise.py [--runs 10] [--first-seed 1] [--same-seed]
                               [--workload NAME]... [--log FILE]

Seeds are `first-seed`, `first-seed + 1`, ... (or `first-seed` every time
with `--same-seed`, which isolates host noise from seed-to-seed variance).
`--log` appends each run's metadata and metrics to FILE as JSON lines.
Run from the root of a checkout; each run is one `perfbench/run.py`
invocation, so this takes `runs × workloads` runs of `run_seconds` each.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Timed end-to-end metrics and the metadata field holding their raw twin.
RAW = {
    "execs_per_s": "raw_execs_per_s",
    "ticks_per_s": "raw_ticks_per_s",
    "setup_s": "raw_setup_s",
}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, (q3 - q1) / statistics.median(values)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--same-seed", action="store_true")
    parser.add_argument("--workload", action="append")
    parser.add_argument("--log")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    print("| workload | metric | bound | median | Q1 | Q3 | spread | raw spread |")
    print("|---|---|---|---|---|---|---|---|")
    for workload in workloads:
        runs = []
        for run in range(args.runs):
            seed = args.first_seed + (0 if args.same_seed else run)
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            ).stdout.strip().splitlines()
            meta, result = json.loads(out[-2])["meta"], json.loads(out[-1])
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: {result['failed']} checks failed")
            runs.append((meta, result["metrics"]))
            if args.log:
                with open(args.log, "a") as log:
                    log.write(json.dumps({"meta": meta, "metrics": result["metrics"]}) + "\n")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            q1, med, q3, rel = spread([m[name]["value"] for _, m in runs])
            raw = ""
            if name in RAW:
                raw = f"{spread([float(meta[RAW[name]]) for meta, _ in runs])[3]:.3f}"
            print(f"| {workload} | {name} | {metric['bound']} | {med:.6g} | {q1:.6g} | {q3:.6g} "
                  f"| {rel:.3f} | {raw} |")
        mops = spread([float(meta["ref_mops"]) for meta, _ in runs])
        print(f"| {workload} | host.ref_mops | | {mops[1]:.4g} | {mops[0]:.4g} | {mops[2]:.4g} "
              f"| {mops[3]:.3f} | |", flush=True)


if __name__ == "__main__":
    main()
