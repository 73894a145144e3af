#ifndef RFED_FL_TYPES_H_
#define RFED_FL_TYPES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "fl/adversary.h"
#include "fl/channel.h"
#include "fl/robust_agg.h"
#include "nn/optimizer.h"
#include "sim/options.h"

namespace rfed {

/// One client's view of the shared corpus: the examples it owns for local
/// training and an optional private test slice used by the fairness
/// evaluation (Fig. 11).
struct ClientView {
  std::vector<int> train_indices;
  std::vector<int> test_indices;
};

/// Autograd execution strategy for local training (see docs/AUTOGRAD.md
/// and autograd/tape.h). Both knobs are bit-identical on/off by
/// construction — replay reruns the same kernels over the same bytes in
/// the same order, and checkpointing never changes the backward
/// schedule — so they only trade wall time and peak memory.
struct AutogradOptions {
  /// Record each client bout's step-0 graph and replay it (same nodes,
  /// cached backward order, fresh batch data) for the remaining local
  /// steps; rebuilt automatically when the batch shape changes. On by
  /// default.
  bool static_graph = true;
  /// Gradient checkpointing for LSTM BPTT: drop per-timestep gate
  /// activations at segment close and rematerialize them just before
  /// their backward runs. Roughly one extra forward per timestep in
  /// exchange for O(1)-per-timestep activation memory. Off by default.
  bool checkpoint = false;
};

/// Hyperparameters shared by all federated algorithms; mirrors the paper's
/// experimental settings (Sec. VI-A): C communication rounds, E local
/// steps, mini-batch size B, sample ratio SR and the local optimizer.
struct FlConfig {
  int rounds = 60;            ///< C
  int local_steps = 5;        ///< E
  int batch_size = 32;        ///< B
  double sample_ratio = 1.0;  ///< SR; 1.0 = full participation
  double lr = 0.1;
  OptimizerKind optimizer = OptimizerKind::kSgd;
  uint64_t seed = 1;
  /// Max examples per client used when computing δ maps / local losses
  /// that require a full-data pass (caps simulator cost; 0 = no cap).
  int64_t max_examples_per_pass = 256;
  /// Lossy compressor applied to client->server model updates (see
  /// fl/compression.h): "none", "q8", "q4", "topk10", "topk1", "sketch".
  std::string upload_compressor = "none";
  /// How the server picks the round's cohort (see fl/selection.h):
  /// "uniform" (FedAvg's sampling) or "loss" (adaptive, biased toward
  /// high-loss clients — the paper's future-work direction).
  std::string client_selection = "uniform";
  /// Message-level fault injection (see fl/channel.h): every simulated
  /// transfer can be dropped, corrupted, duplicated, or delayed past the
  /// round deadline, with retry + backoff. All algorithms aggregate over
  /// whichever clients' updates actually arrive. Defaults to a
  /// transparent channel (no faults, bit-identical to the direct path).
  FaultOptions fault;
  /// Adversarial *client* fault injection (see fl/adversary.h): a seeded
  /// fraction of clients misbehaves — NaN/Inf emission, sign-flipped or
  /// scaled updates, Gaussian update noise, or label-flipped local
  /// training. Defaults to no adversaries (bit-identical clean runs).
  AdversaryOptions adversary;
  /// Server-side defenses (see fl/robust_agg.h): the non-finite update
  /// screen and the robust aggregation rule. The defaults (validate on,
  /// aggregator "mean") leave clean runs bit-identical to the undefended
  /// simulator.
  RobustAggOptions robust;
  /// Discrete-event simulation runtime (see sim/options.h): virtual
  /// clock, per-client compute-time models, byte->latency network model,
  /// and the server's round-termination policy (sync barrier, deadline
  /// cut, or staleness-weighted buffered async). Defaults to sync mode
  /// with free compute/network — bit-identical to the pre-sim simulator.
  SimOptions sim;
  /// Worker threads for the sampled clients' local training. <= 1 runs
  /// the sequential in-caller path (the default); > 1 trains clients of
  /// a round in parallel on per-client scratch models with per-client
  /// RNG streams, bit-identical to the sequential path.
  int num_threads = 1;
  /// Streaming aggregation chunk: when > 0, the barrier round trains and
  /// uploads the cohort in chunks of this many clients, folding each
  /// chunk's updates into the server's O(log n) tree mean (see
  /// fl/shard_agg.h) before training the next, so the server never holds
  /// more than one chunk of updates. 0 (the default) trains the whole
  /// cohort before folding. Bit-identical for every value on fault-free
  /// channels; algorithms that buffer the cohort for their own Aggregate
  /// (robust rules, FedAvgM, FedNova, q-FedAvg) ignore it.
  int stream_chunk = 0;
  /// Worker threads *inside* the tensor kernels (blocked GEMM / conv;
  /// see tensor/kernels.h). <= 1 keeps every kernel on its calling
  /// thread (the default). Any value is bit-identical — the kernels'
  /// deterministic partition never splits a reduction — so this only
  /// trades wall time, pinned by the golden suite across {1, 2, 4}.
  int kernel_threads = 1;
  /// Turns on the observability layer (obs/trace.h) for the run: phase
  /// and kernel trace spans plus FLOP counters. Purely additive — spans
  /// consume no RNG draws and touch no tensor state, so a seeded run is
  /// byte-identical with tracing on or off (pinned by tests/obs_test.cc).
  /// The per-round metric snapshots in RoundMetrics::metrics are
  /// collected regardless of this flag.
  bool trace = false;
  /// Autograd tape strategy for the local-training loops (static-graph
  /// replay and LSTM gradient checkpointing; both bit-identical knobs).
  AutogradOptions autograd;
};

}  // namespace rfed

#endif  // RFED_FL_TYPES_H_
