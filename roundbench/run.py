#!/usr/bin/env python3
"""Entry point of the round benchmark (README.md in this directory).

Builds round_bench from the sources of this checkout into .bench_build/
(the first run configures and compiles; later runs rebuild only what
changed), runs one workload in its own process and prints its metrics.

    python3 roundbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 roundbench/run.py --workload all --seed 1 --seconds 30 --trace 0

NAME is cifar_cnn_rfedavgp, sent140_lstm_fedavg or mnist_mlp_fedavg_serve;
`all` runs the three in turn. The last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics
are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer list.
Result files and the traced run's Chrome trace go to .bench_build/results/.
Exits non-zero, without a result line, when the program cannot be built.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "roundbench")
RESULTS = os.path.join(ROOT, ".bench_build", "results")
BINARY = os.path.join(BUILD, "round_bench")
WORKLOADS = ["cifar_cnn_rfedavgp", "sent140_lstm_fedavg",
             "mnist_mlp_fedavg_serve"]
# A run measures for --seconds plus set-up and the output checks; this
# bounds a hung run.
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds round_bench; build logs go to stderr."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "round_bench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return os.path.exists(BINARY)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def check_result(result, trace):
    """Problems with the shape of one result line (empty when sound)."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys are %s" % sorted(result))
        return problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        problems.append("failed must be a whole number >= 0")
    names = expected_metrics(trace)
    if sorted(result["metrics"]) != sorted(names):
        problems.append("metrics %s differ from BENCHMARK.json's %s"
                        % (sorted(result["metrics"]), sorted(names)))
    for name, m in result["metrics"].items():
        if not math.isfinite(m["value"]):
            problems.append("%s is not finite" % name)
    return problems


def run_workload(workload, args):
    """Runs one workload; returns (exit code, result line or None)."""
    os.makedirs(RESULTS, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", RESULTS]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("%s: no result within %d s" % (workload, RUN_TIMEOUT_S),
              file=sys.stderr)
        return 1, None
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print("%s: last output line is not JSON: %r" % (workload, lines[-1]),
              file=sys.stderr)
        return 1, None
    problems = check_result(result, args.trace)
    for p in problems:
        print("%s: %s" % (workload, p), file=sys.stderr)
    if problems:
        result["correct"] = False
    code = proc.returncode or (1 if problems or not result["correct"] else 0)
    return code, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not build():
        print("round_bench could not be built", file=sys.stderr)
        return 1
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    code = 0
    results = []
    for workload in workloads:
        rc, result = run_workload(workload, args)
        code = code or rc
        if result is not None:
            results.append(result)
    if len(results) == len(workloads):
        # One result line per workload; the last line is the last one's.
        for result in results:
            print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
