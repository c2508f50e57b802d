#!/usr/bin/env python3
"""The repository benchmark: builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload <wdc|abt> --seed N --seconds S --trace <0|1>

Run from the root of a checkout. The first run configures and builds the
emba libraries and the driver into .bench_build/perfbench (a few minutes);
later runs only check that the build is current. Reports and traces go to
.bench_out/.

--trace 0 prints the end-to-end metrics. --trace 1 first runs the same seed
untraced, then the traced run, which prints the per-layer metrics and its
tracing overhead against the untraced numbers.

The last line of stdout is the result object
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}};
the exit status is nonzero when any output check failed or the run could not
be completed.
"""
import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
DEADLINE_S = 170.0  # every run after the build must end within 180 s


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no emba sources next to the benchmark (src/CMakeLists.txt)")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    with open(log_path, "a") as log:
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                          "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "-j", "4",
                      "--target", "perfbench"])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                fail("build failed; see " + log_path)
    return os.path.join(BUILD_DIR, "perfbench")


def run_driver(binary, args, trace, deadline, baseline=None):
    """Runs the driver; returns its result line (a dict) and exit status."""
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace),
               "--out", OUT_DIR]
    if baseline:
        command += ["--baseline", baseline]
    # The program's EMBA_* knobs change what it computes; the benchmark pins
    # them by running with none set.
    env = {k: v for k, v in os.environ.items() if not k.startswith("EMBA_")}
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, env=env,
                              cwd=ROOT, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("workload %s did not finish in time" % args.workload)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        fail("driver printed no result (exit status %d)" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("driver's last line is not JSON: " + lines[-1][:200])
    return result, lines[-1], proc.returncode


def check_names(result, expected):
    names = set(result.get("metrics", {}))
    missing = sorted(set(expected) - names)
    extra = sorted(names - set(expected))
    if missing or extra:
        fail("metric names differ from BENCHMARK.json: missing %s, extra %s"
             % (missing, extra))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)

    binary = build()
    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(OUT_DIR, exist_ok=True)
    baseline = None
    if args.trace:
        _, line, _ = run_driver(binary, args, 0, deadline)
        baseline = os.path.join(
            OUT_DIR, "%s-seed%d-baseline.json" % (args.workload, args.seed))
        with open(baseline, "w") as f:
            f.write(line + "\n")
    result, line, status = run_driver(binary, args, args.trace, deadline,
                                      baseline)
    key = "per_layer" if args.trace else "end_to_end"
    check_names(result, [m["name"] for m in spec[key]])
    print(line)
    sys.exit(0 if status == 0 and result.get("correct") else 1)


if __name__ == "__main__":
    main()
