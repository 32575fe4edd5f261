#!/usr/bin/env python3
"""Builds and runs the repo benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout.  Configures and builds perfbench/
(which compiles the library sources under src/) in Release into
.bench_build/perfbench, runs one workload, and prints the binary's output.
The last line is the JSON result.  Its metric set is checked against
BENCHMARK.json: the end-to-end metrics when --trace 0, the per-layer metrics
when --trace 1.  A per-layer metric that the workload does not produce is
reported as 0, meaning the layer is not on that workload's path.  Before an
untraced run, the workload's set-up (warm-up included) is run alone in
fresh processes, and setup_s is the median of those cold set-ups and the
run's own.
Exits non-zero, without a result line, when the sources are missing, the
build fails, or the output breaks the contract; exits with the binary's
code when a correctness check fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 150
SETUP_TIMEOUT_S = 30
# Cold set-ups in fresh processes before an untraced run; with the run's own
# set-up, setup_s is the median of SETUP_REPEATS + 1 cold set-ups.
SETUP_REPEATS = 4


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def source_sha():
    """git HEAD when this is a git checkout, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, check=True)
        return "git:" + out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for root in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(path.encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree:" + digest.hexdigest()[:16]


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs],
    ]
    for step in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))


def cold_setup(command, env):
    """Runs the workload's set-up alone in a fresh process; returns setup_s."""
    run = subprocess.run(command + ["--setup-only", "1"], capture_output=True,
                         text=True, env=env, timeout=SETUP_TIMEOUT_S)
    try:
        if run.returncode != 0:
            raise ValueError
        result = json.loads(run.stdout.splitlines()[-1])
        return result["metrics"]["setup_s"]["value"]
    except (ValueError, IndexError, KeyError):
        sys.stderr.write(run.stdout + run.stderr)
        fail(f"set-up-only run failed (exit code {run.returncode})")


def complete(result, spec, trace):
    """Checks the result line against BENCHMARK.json; fills absent per-layer
    metrics with 0.  Returns an error message or None."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys differ from the contract"
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    metrics = result["metrics"]
    for name, entry in metrics.items():
        if name not in units:
            return f"metric {name} is not declared in BENCHMARK.json"
        if entry["unit"] != units[name]:
            return f"metric {name} has unit {entry['unit']}, declared {units[name]}"
    for name, unit in units.items():
        if name not in metrics:
            if not trace:
                return f"end-to-end metric {name} is missing"
            metrics[name] = {"value": 0, "unit": unit}
    return None


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("no library sources at src/; run from the root of a checkout")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")

    build()
    out_dir = os.path.join(BUILD_DIR, "out")
    os.makedirs(out_dir, exist_ok=True)
    env = dict(os.environ, PERFBENCH_SOURCE_SHA=source_sha())
    command = [os.path.join(BUILD_DIR, "perfbench"), "--workload",
               args.workload, "--seed", str(args.seed), "--seconds",
               str(args.seconds), "--trace", args.trace, "--out", out_dir]
    if args.trace == "0":
        samples = [cold_setup(command, env) for _ in range(SETUP_REPEATS)]
        command += ["--setup-samples", ",".join(repr(s) for s in samples)]
    run = subprocess.run(command, capture_output=True, text=True, env=env,
                         timeout=RUN_TIMEOUT_S)
    sys.stderr.write(run.stderr)
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stderr.write(run.stdout)
        fail(f"no result line (exit code {run.returncode})")
    error = complete(result, spec, args.trace == "1")
    if error is not None:
        sys.stderr.write(run.stdout)
        fail(error)
    print("\n".join(lines[:-1]))
    print(json.dumps(result, separators=(",", ":")))
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
