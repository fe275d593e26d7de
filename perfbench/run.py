#!/usr/bin/env python3
"""Build and run the CFTCG fuzzing-loop benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the benchmark crate in
`perfbench/` (release, offline) into `$CARGO_TARGET_DIR`, default
`.bench_build`, runs one workload, checks that the result names exactly the
metrics `BENCHMARK.json` lists for the mode (`end_to_end` untraced,
`per_layer` traced), and prints the benchmark's output; its last line is
the result object. Exits non-zero, without a result, when the build, the
run or that check fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run(cmd, timeout, **kwargs):
    """Runs `cmd` in its own process group; on timeout kills the whole
    group (cargo's compiler children too) and waits for it."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"run.py: {cmd[0]} timed out after {timeout} s")
    return proc.returncode, out


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check(result, expected):
    """Returns why `result` breaks the output contract, or None."""
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are not correct/attempted/failed/metrics"
    if not isinstance(result["correct"], bool):
        return "correct is not a boolean"
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool) or result[key] < 0:
            return f"{key} is not a whole number"
    if result["attempted"] < 1:
        return "no check was attempted"
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        return f"metrics {sorted(metrics)} are not {sorted(expected)}"
    for name, unit in expected.items():
        if metrics[name].get("unit") != unit or not isinstance(metrics[name].get("value"), (int, float)):
            return f"metric {name} is not a {unit} value"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    os.chdir(ROOT)
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    code, _ = run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
        BUILD_TIMEOUT_S, env=env, stdout=sys.stderr,
    )
    if code != 0:
        raise SystemExit(f"run.py: build failed (exit {code})")

    binary = os.path.join(target, "release", "cftcg-perfbench")
    code, out = run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--models", "models", "--out", os.path.join(target, "perfbench")],
        RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True,
    )
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        raise SystemExit(f"run.py: benchmark failed (exit {code})")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        raise SystemExit(f"run.py: last line is not JSON: {e}")
    problem = check(result, expected_metrics(args.trace == 1))
    if problem:
        raise SystemExit(f"run.py: {problem}")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
