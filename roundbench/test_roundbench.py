#!/usr/bin/env python3
"""Tests of the round benchmark itself. Run from anywhere:

    python3 roundbench/test_roundbench.py

Builds round_bench like run.py does, then checks:
  * the trace fold flags phases that sum to more than their round
    (round_bench --selftest runs it on hand-made traces);
  * determinism: each workload runs briefly twice with seed 1 and once
    with seed 2, traced and untraced. The exact fields must match between
    the two seed-1 runs; bytes and GEMM calls must not change with the
    seed (FLOPs only where the seed cannot move partial batches), and the
    loss must;
  * reconciliation: in every traced run the top-level phases plus
    fl.round_residual_ms sum to fl.round_ms, the residual is not negative,
    and the Chrome trace written next to the results parses;
  * every run passes its own output checks (the served run matches the
    in-process run byte for byte) and reports BENCHMARK.json's metrics.
Exits non-zero on the first failed expectation.
"""

import glob
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark's entry point)

# Short runs: only the minimum number of rounds, 2 of them traced.
MIN_ROUNDS = "8"
# Exact fields: counts and values that are a pure function of the seed.
EXACT_UNTRACED = ["train_loss_final", "wire_bytes_per_round"]
EXACT_TRACED = ["tensor.flops_per_round", "serve.jobs_per_round",
                "tensor.gemm_calls_per_round", "core.map_bytes_per_round"]
# A client's last batch of a local epoch is partial, so a round's FLOPs
# (not its GEMM call count) depend on where each sampled client stands in
# its epoch. That follows the seed when the seed picks the cohort (cifar
# samples half the clients) or the client data sizes (sent140 splits by
# user). The served workload trains every client on equal shards, so its
# FLOPs are seed-invariant.
FLOPS_FOLLOW_SEED = {"cifar_cnn_rfedavgp", "sent140_lstm_fedavg"}


def fail(message):
    print("FAIL: " + message)
    sys.exit(1)


def bench(workload, seed, trace):
    out = subprocess.run(
        [run.BINARY, "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--min_rounds", MIN_ROUNDS,
         "--out", run.RESULTS],
        stdout=subprocess.PIPE, text=True, timeout=run.RUN_TIMEOUT_S)
    lines = out.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    if out.returncode != 0 or not result["correct"]:
        fail("%s seed %d trace %d: checks failed\n%s"
             % (workload, seed, trace, out.stdout))
    problems = run.check_result(result, trace)
    if problems:
        fail("%s: %s" % (workload, "; ".join(problems)))
    return {k: m["value"] for k, m in result["metrics"].items()}, lines


def check_reconciled(workload, metrics, lines):
    round_ms = metrics["fl.round_ms"]
    residual = metrics["fl.round_residual_ms"]
    if residual < 0:
        fail("%s: phases sum to more than the round (residual %g ms)"
             % (workload, residual))
    # The printed phase table: every top-level phase, then the residual.
    start = next(i for i, l in enumerate(lines) if l.startswith("phases of"))
    phases = 0.0
    for line in lines[start + 1:]:
        name, value = line.split()[:2]
        if name == "residual":
            break
        phases += float(value)
    if abs(phases + residual - round_ms) > 1e-3 * round_ms:
        fail("%s: phases %g + residual %g != round %g"
             % (workload, phases, residual, round_ms))


def main():
    os.makedirs(run.RESULTS, exist_ok=True)
    if not run.build():
        fail("round_bench did not build")
    if subprocess.run([run.BINARY, "--selftest"]).returncode != 0:
        fail("trace fold self-test")
    for workload in run.WORKLOADS:
        for old in glob.glob(os.path.join(run.RESULTS, workload + ".*")):
            os.remove(old)
        a, _ = bench(workload, 1, 0)
        b, _ = bench(workload, 1, 0)
        c, _ = bench(workload, 2, 0)
        ta, lines = bench(workload, 1, 1)
        tb, _ = bench(workload, 1, 1)
        tc, _ = bench(workload, 2, 1)
        for key in EXACT_UNTRACED:
            if a[key] != b[key]:
                fail("%s: %s differs between runs of one seed: %r vs %r"
                     % (workload, key, a[key], b[key]))
        for key in EXACT_TRACED:
            if ta[key] != tb[key]:
                fail("%s: %s differs between runs of one seed: %r vs %r"
                     % (workload, key, ta[key], tb[key]))
        if a["wire_bytes_per_round"] != c["wire_bytes_per_round"]:
            fail("%s: wire bytes change with the seed" % workload)
        if workload not in FLOPS_FOLLOW_SEED and \
                ta["tensor.flops_per_round"] != tc["tensor.flops_per_round"]:
            fail("%s: FLOPs change with the seed" % workload)
        if ta["tensor.gemm_calls_per_round"] != tc["tensor.gemm_calls_per_round"]:
            fail("%s: GEMM calls change with the seed" % workload)
        if a["train_loss_final"] == c["train_loss_final"]:
            fail("%s: the loss does not depend on the seed" % workload)
        check_reconciled(workload, ta, lines)
        with open(os.path.join(run.RESULTS,
                               workload + ".trace1.chrome.json")) as f:
            if not json.load(f):
                fail("%s: empty Chrome trace" % workload)
        print("ok  %s" % workload)
    print("all round benchmark tests passed")


if __name__ == "__main__":
    main()
