// Round benchmark: wall time of one federated round on three fixed
// workloads, plus a traced run that attributes the round to layers. All
// of it is measured from outside src/: the benchmark times calls into public
// functions and reads the spans and counters the program already records
// (obs::CollectTrace, obs::MetricsRegistry, CommStats, ServeStats). The
// workloads, the metrics and the host facts behind the design are in
// README.md beside this file.
//
// Usage:
//   round_bench --workload NAME --seed N --seconds S --trace 0|1
//               [--out DIR] [--min_rounds R] [--method FedAvg|rFedAvg+]
//   round_bench --selftest
//
// --trace 0 reports the end-to-end metrics with tracing off throughout.
// --trace 1 reports the per-layer metrics: an untraced stretch of rounds
// (the base of obs.trace_overhead_ratio) followed by a traced stretch
// whose spans are folded into per-round self times; the last traced
// round is written to DIR as a Chrome trace. --method swaps the
// workload's algorithm (the Fig. 10(c,d) FedAvg comparison in README.md).
// Every run checks its outputs after the timed region and exits 1 when a
// check fails. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/rfedavg.h"
#include "data/partition.h"
#include "data/synthetic_images.h"
#include "data/synthetic_text.h"
#include "fl/fedavg.h"
#include "net/socket.h"
#include "nn/models.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/remote_executor.h"
#include "serve/worker_loop.h"
#include "tensor/buffer_pool.h"
#include "tensor/kernels.h"
#include "util/backoff.h"
#include "util/check.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace rfed {
namespace roundbench {
namespace {

// Set-up is repeated and its median reported: one set-up is a single
// sample of a noisy host.
constexpr int kSetupReps = 5;
// Rounds run inside set-up and excluded from the round metrics: the first
// rounds grow scratch arenas, buffer pools and tapes.
constexpr int kWarmupRounds = 3;
constexpr int kServeWorkers = 2;
constexpr int kTrainExamples = 1500;
constexpr int kTestExamples = 100;
// Both ends of the loopback deployment are built here; they only need to
// agree on the value.
constexpr uint64_t kFingerprint = 0x726f756e64ull;  // "round"

struct WorkloadSpec {
  const char* name;
  const char* dataset;  // cifar | sent140 | mnist
  const char* method;   // FedAvg | rFedAvg+
  bool mlp;             // image datasets: MLP instead of the CNN
  int clients;
  double sample_ratio;
  int local_steps;
  int batch;
  bool serve;  // pipelined RemoteExecutor over loopback TCP
};

// Why each workload exists is recorded in README.md.
constexpr WorkloadSpec kWorkloads[] = {
    {"cifar_cnn_rfedavgp", "cifar", "rFedAvg+", false, 10, 0.5, 5, 24, false},
    {"sent140_lstm_fedavg", "sent140", "FedAvg", false, 10, 1.0, 5, 10, false},
    {"mnist_mlp_fedavg_serve", "mnist", "FedAvg", true, 32, 1.0, 5, 8, true},
};

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

int CohortSize(const WorkloadSpec& w) {
  const int cohort = static_cast<int>(std::lround(w.sample_ratio * w.clients));
  return std::clamp(cohort, 1, w.clients);
}

// ---- Inputs --------------------------------------------------------------

/// Data, partition, model and algorithm settings of one workload — what
/// the server, every worker replica and the in-process oracle share. The
/// construction follows serve::BuildScenario's defaults (the repository's
/// CNN and LSTM sizes, learning rates and the paper's λ per dataset).
struct Federation {
  std::string method;
  std::unique_ptr<Dataset> train;
  std::vector<ClientView> views;
  ModelFactory factory;
  FlConfig config;
  RegularizerOptions reg;
};

Federation MakeFederation(const WorkloadSpec& w, uint64_t seed,
                          const std::string& method) {
  Federation f;
  f.method = method;
  FlConfig& c = f.config;
  c.local_steps = w.local_steps;
  c.batch_size = w.batch;
  c.sample_ratio = w.sample_ratio;
  c.seed = seed;
  c.num_threads = 1;
  c.kernel_threads = 1;
  Rng rng(seed);
  if (std::strcmp(w.dataset, "sent140") == 0) {
    TextProfile profile = Sent140LikeProfile();
    profile.num_users = std::max(4 * w.clients, 40);
    SyntheticTextData data =
        GenerateTextData(profile, kTrainExamples, kTestExamples, &rng);
    ClientSplit split = NaturalPartition(data.train_users, profile.num_users,
                                         w.clients, &rng);
    for (std::vector<int>& idx : split.client_indices) {
      f.views.push_back(ClientView{std::move(idx), {}});
    }
    LstmConfig mc;
    mc.vocab_size = profile.vocab_size;
    mc.embed_dim = 8;
    mc.hidden_dim = 16;
    mc.feature_dim = 16;
    f.factory = MakeLstmFactory(mc);
    f.train = std::make_unique<Dataset>(std::move(data.train));
    c.lr = 0.01;
    c.optimizer = OptimizerKind::kRmsProp;
    f.reg.lambda = 1e-4;
  } else {
    const ImageProfile profile = std::strcmp(w.dataset, "cifar") == 0
                                     ? CifarLikeProfile()
                                     : MnistLikeProfile();
    SyntheticImageData data =
        GenerateImageData(profile, kTrainExamples, kTestExamples, &rng);
    ClientSplit split = SimilarityPartition(data.train, w.clients,
                                            /*similarity=*/0.0, &rng);
    for (std::vector<int>& idx : split.client_indices) {
      f.views.push_back(ClientView{std::move(idx), {}});
    }
    if (w.mlp) {
      MlpConfig mc;
      mc.in_channels = profile.channels;
      mc.image_size = profile.image_size;
      f.factory = MakeMlpFactory(mc);
    } else {
      CnnConfig mc;
      mc.in_channels = profile.channels;
      mc.image_size = profile.image_size;
      mc.conv1_channels = 4;
      mc.conv2_channels = 8;
      mc.feature_dim = 16;
      f.factory = MakeCnnFactory(mc);
    }
    f.train = std::make_unique<Dataset>(std::move(data.train));
    c.lr = 0.08;
    f.reg.lambda = 1e-3;
  }
  return f;
}

std::unique_ptr<FederatedAlgorithm> MakeAlgorithm(const Federation& f) {
  if (f.method == "FedAvg") {
    return std::make_unique<FedAvg>(f.config, f.train.get(), f.views,
                                    f.factory);
  }
  RFED_CHECK(f.method == "rFedAvg+") << "unknown --method " << f.method;
  return std::make_unique<RFedAvgPlus>(f.config, f.reg, f.train.get(),
                                       f.views, f.factory);
}

// ---- Loopback deployment ---------------------------------------------------

/// Server-side TrainExecutor decorator: spans around the executor's two
/// halves, so the traced run splits the server's wait into submit and
/// collect without touching src/serve.
class SpanExecutor : public TrainExecutor {
 public:
  explicit SpanExecutor(TrainExecutor* inner) : inner_(inner) {}

  void Submit(int round, int client, const Tensor& init_state,
              const std::vector<uint8_t>& context,
              const std::vector<uint8_t>& batcher_base) override {
    obs::TraceSpan span("bench.submit");
    inner_->Submit(round, client, init_state, context, batcher_base);
  }
  std::pair<Tensor, double> Collect(int round, int client) override {
    obs::TraceSpan span("bench.collect");
    return inner_->Collect(round, client);
  }
  bool pipelined() const override { return inner_->pipelined(); }

 private:
  TrainExecutor* inner_;
};

/// kServeWorkers in-process RunWorkerLoop threads on localhost sockets,
/// serving one server algorithm through a pipelined RemoteExecutor.
class Loopback {
 public:
  /// Builds the worker replicas and starts their threads (they connect
  /// and wait for the handshake).
  Loopback(const Federation& fed, FederatedAlgorithm* server)
      : server_(server), listener_("127.0.0.1", 0), executor_(true) {
    const int port = listener_.bound_port();
    for (int w = 0; w < kServeWorkers; ++w) {
      replicas_.push_back(MakeAlgorithm(fed));
    }
    for (int w = 0; w < kServeWorkers; ++w) {
      FederatedAlgorithm* replica = replicas_[static_cast<size_t>(w)].get();
      threads_.emplace_back([replica, port, w] {
        BackoffPolicy policy;
        policy.initial_ms = 1.0;
        policy.max_ms = 10.0;
        net::TcpConnection conn = net::TcpConnection::ConnectWithRetry(
            "127.0.0.1", port, 100, policy);
        serve::RunWorkerLoop(replica, &conn, w, kServeWorkers, kFingerprint);
      });
    }
  }
  ~Loopback() {
    executor_.Shutdown();
    for (std::thread& t : threads_) t.join();
  }
  Loopback(const Loopback&) = delete;
  Loopback& operator=(const Loopback&) = delete;

  /// HELLO/HELLO_ACK with every worker, then routes the server's local
  /// training through the executor.
  void Handshake() {
    std::vector<uint8_t> state;
    server_->SaveRunState(&state);
    executor_.AcceptWorkers(&listener_, kServeWorkers, kFingerprint, state);
    server_->set_train_executor(&spans_);
  }

  const serve::ServeStats& stats() const { return executor_.stats(); }

  /// CPU seconds the worker threads have used: their busy time, since a
  /// worker waiting for a JOB blocks in poll().
  double WorkerCpuSeconds() {
    double total = 0.0;
    for (std::thread& t : threads_) {
      clockid_t clock;
      timespec ts{};
      RFED_CHECK(pthread_getcpuclockid(t.native_handle(), &clock) == 0 &&
                 clock_gettime(clock, &ts) == 0)
          << "cannot read a worker thread's CPU clock";
      total += static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
    }
    return total;
  }

 private:
  FederatedAlgorithm* server_;
  net::TcpListener listener_;
  serve::RemoteExecutor executor_;
  SpanExecutor spans_{&executor_};
  std::vector<std::unique_ptr<FederatedAlgorithm>> replicas_;
  std::vector<std::thread> threads_;
};

// ---- Set-up and timed rounds ----------------------------------------------

/// One set-up federation, ready for timed rounds. Members are destroyed
/// in reverse order: the deployment (which joins its workers) before the
/// algorithm and the data they read.
struct Run {
  Federation fed;
  std::unique_ptr<FederatedAlgorithm> algo;
  std::unique_ptr<Loopback> loopback;
  int next_round = 0;
};

/// Everything setup_s counts: data synthesis and partition,
/// model and algorithm construction, worker replicas and handshake (serve
/// only), and the warm-up rounds.
std::unique_ptr<Run> SetUp(const WorkloadSpec& w, uint64_t seed,
                           const std::string& method) {
  auto run = std::make_unique<Run>();
  {
    obs::TraceSpan span("bench.data_setup");
    run->fed = MakeFederation(w, seed, method);
  }
  {
    obs::TraceSpan span("bench.build");
    run->algo = MakeAlgorithm(run->fed);
    if (w.serve) run->loopback = std::make_unique<Loopback>(run->fed, run->algo.get());
  }
  if (w.serve) {
    obs::TraceSpan span("bench.handshake");
    run->loopback->Handshake();
  }
  {
    obs::TraceSpan span("bench.warmup");
    while (run->next_round < kWarmupRounds) {
      run->algo->RunRound(run->next_round++);
    }
  }
  return run;
}

int64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Get().GetCounter(name)->value();
}

/// Updates attempted but not aggregated, as the registry and the round
/// results count them: stragglers cut, quarantined updates and messages
/// the channel dropped. All stay zero on these fault-free workloads.
int64_t LostUpdatesCounter() {
  return CounterValue("fl.quarantined_updates") +
         CounterValue("channel.dropped");
}

struct Timed {
  std::vector<double> round_ms;
  std::vector<double> loss;
  int64_t lost_updates = 0;
  int64_t ledger_bytes = 0;  ///< CommStats total over the timed rounds
};

/// Runs rounds until `seconds` have passed and at least `min_rounds` ran.
/// `between` runs before every round after the first, outside the timing.
Timed TimeRounds(Run* run, double seconds, int min_rounds,
                 const std::function<void()>& between = nullptr) {
  Timed t;
  const int64_t bytes0 = run->algo->comm().total_bytes();
  const int64_t lost0 = LostUpdatesCounter();
  double elapsed_ms = 0.0;
  while (static_cast<int>(t.round_ms.size()) < min_rounds ||
         elapsed_ms < seconds * 1e3) {
    if (!t.round_ms.empty() && between) between();
    Stopwatch watch;
    RoundResult result;
    {
      obs::TraceSpan span("bench.round");
      result = run->algo->RunRound(run->next_round++);
    }
    const double ms = watch.ElapsedMillis();
    t.round_ms.push_back(ms);
    t.loss.push_back(result.train_loss);
    t.lost_updates += result.stragglers_cut;
    elapsed_ms += ms;
  }
  t.ledger_bytes = run->algo->comm().total_bytes() - bytes0;
  t.lost_updates += LostUpdatesCounter() - lost0;
  return t;
}

/// Linear-interpolated percentile, q in [0, 1].
double Percentile(std::vector<double> v, double q) {
  RFED_CHECK(!v.empty());
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---- Trace folding ---------------------------------------------------------

struct SpanSum {
  double incl_ms = 0.0;
  double self_ms = 0.0;
  int64_t count = 0;
};

/// Spans folded into self times. A span's self time is its duration minus
/// the durations of its direct children; `phases` holds the direct
/// children of each bench.round span (the round's top-level phases), and
/// a round's residual — the part no phase covers — is bench.round's self
/// time, so phases + residual == round by construction.
struct Fold {
  std::map<std::string, SpanSum> spans;   ///< every lane, by name
  std::map<std::string, SpanSum> phases;  ///< direct children of bench.round
  int64_t nesting_errors = 0;  ///< spans whose children outlast them
};

// Children may not outlast their parent; timestamps are whole
// nanoseconds, so anything past this is a nesting or measurement bug.
constexpr double kNestingToleranceMs = 1e-5;

void FoldTrace(const std::vector<obs::LaneTrace>& lanes, Fold* fold) {
  for (const obs::LaneTrace& lane : lanes) {
    // Events arrive in end order, so a span's children precede it:
    // child_ms[d] sums the completed, not yet claimed spans at depth d,
    // and `pending` holds the depth-1 spans awaiting their parent.
    std::vector<double> child_ms;
    std::vector<const obs::TraceEvent*> pending;
    for (const obs::TraceEvent& e : lane.events) {
      const size_t d = static_cast<size_t>(e.depth);
      if (child_ms.size() < d + 2) child_ms.resize(d + 2, 0.0);
      const double dur = e.dur_us / 1e3;
      const double self = dur - child_ms[d + 1];
      child_ms[d + 1] = 0.0;
      child_ms[d] += dur;
      if (self < -kNestingToleranceMs) ++fold->nesting_errors;
      SpanSum& s = fold->spans[e.name];
      s.incl_ms += dur;
      s.self_ms += self;
      ++s.count;
      if (d == 1) pending.push_back(&e);
      if (d == 0) {
        if (std::strcmp(e.name, "bench.round") == 0) {
          for (const obs::TraceEvent* p : pending) {
            SpanSum& ps = fold->phases[p->name];
            ps.incl_ms += p->dur_us / 1e3;
            ++ps.count;
          }
        }
        pending.clear();
      }
    }
  }
}

// ---- Metrics ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  const char* unit = "";
  int64_t samples = 0;
};

/// Per-layer metrics, in report order, with the end-to-end metric each
/// should move. The traced run reports every row on every workload; a
/// layer a workload does not use reads 0.
struct LayerMetric {
  const char* name;
  const char* unit;
  const char* moves;
};

constexpr LayerMetric kLayerMetrics[] = {
    {"tensor.conv2d_fwd_ms", "ms", "round_ms.*, samples_per_s on cifar; none elsewhere"},
    {"tensor.conv2d_bwd_ms", "ms", "round_ms.*, samples_per_s on cifar; none elsewhere"},
    {"tensor.conv_gflops", "GFLOP/s", "round_ms.*, samples_per_s on cifar; none elsewhere"},
    {"core.map_sync_ms", "ms", "round_ms.* on cifar; none elsewhere"},
    {"core.map_broadcast_ms", "ms", "round_ms.* on cifar; none elsewhere"},
    {"core.mmd_penalty_ms", "ms", "round_ms.* on cifar; none elsewhere"},
    {"core.map_bytes_per_round", "B", "wire_bytes_per_round on cifar; none elsewhere"},
    {"tensor.gemm_ms", "ms", "round_ms.* on sent140 most; serve via worker busy"},
    {"tensor.gemm_calls_per_round", "count", "round_ms.* on sent140 most; serve via worker busy"},
    {"tensor.gemm_gflops", "GFLOP/s", "round_ms.* on sent140 most; serve via worker busy"},
    {"autograd.backward_self_ms", "ms", "round_ms.* on sent140 most; serve via worker busy"},
    {"fl.local_train_self_ms", "ms", "round_ms.* on sent140 most; serve via worker busy"},
    {"autograd.tape_peak_bytes", "B", "peak_rss_mb, mostly on sent140"},
    {"tensor.scratch_peak_bytes", "B", "peak_rss_mb, mostly on sent140"},
    {"autograd.allocs_per_step", "count", "exact count (claimable as a count)"},
    {"autograd.tape_reuse_hits_per_round", "count", "exact count (claimable as a count)"},
    {"tensor.flops_per_round", "FLOP", "exact count (claimable as a count)"},
    {"serve.submit_ms", "ms", "round_ms.*, samples_per_s on serve; none in-process"},
    {"serve.collect_ms", "ms", "round_ms.*, samples_per_s on serve; none in-process"},
    {"serve.worker_busy_share", "ratio", "round_ms.*, samples_per_s on serve; none in-process"},
    {"serve.jobs_per_round", "count", "round_ms.*, samples_per_s on serve; none in-process"},
    {"serve.jobs_reassigned", "count", "round_ms.*, samples_per_s on serve; none in-process"},
    {"net.bytes_per_round", "B", "round_ms.* on serve; none in-process"},
    {"net.framing_overhead_ratio", "ratio", "round_ms.* on serve; none in-process"},
    {"fl.broadcast_ms", "ms", "round_ms.* on serve; none in-process"},
    {"fl.upload_ms", "ms", "round_ms.* on serve; none in-process"},
    {"fl.aggregate_ms", "ms", "round_ms.* on serve; none in-process"},
    {"fl.round_ms", "ms", "round_ms.* on all"},
    {"fl.select_ms", "ms", "round_ms.* on all"},
    {"fl.local_train_ms", "ms", "round_ms.* on all"},
    {"fl.round_residual_ms", "ms", "round_ms.* on all"},
    {"data.setup_ms", "ms", "setup_s on all"},
    {"fl.build_ms", "ms", "setup_s on all"},
    {"serve.handshake_ms", "ms", "setup_s on all"},
    {"fl.warmup_ms", "ms", "setup_s on all"},
    {"serve.inprocess_round_ms", "ms", "none (single-worker baseline of serve)"},
    {"obs.trace_overhead_ratio", "ratio", "none (tracing is off in end-to-end runs)"},
};

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintTable(const std::string& title, const std::vector<Metric>& metrics,
                bool with_moves) {
  std::printf("%s\n", title.c_str());
  for (const Metric& m : metrics) {
    std::printf("  %-36s %16.6g %-8s n=%-6lld", m.name.c_str(), m.value,
                m.unit, static_cast<long long>(m.samples));
    if (with_moves) {
      for (const LayerMetric& l : kLayerMetrics) {
        if (m.name == l.name) std::printf("  moves: %s", l.moves);
      }
    }
    std::printf("\n");
  }
}

std::string ResultJson(bool correct, int64_t attempted, int64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    json += (i > 0 ? ", \"" : "\"") + m.name + "\": {\"value\": " +
            JsonNumber(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  return json + "}}";
}

/// The full result with sample counts, written next to the trace.
/// `trace_round` is the round the Chrome trace holds (-1: no trace).
void WriteResultFile(const std::string& path, const std::string& workload,
                     uint64_t seed, bool correct, int trace_round,
                     const std::vector<std::string>& failures,
                     const std::vector<Metric>& metrics) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  RFED_CHECK(f != nullptr) << "cannot write " << path;
  std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, \"correct\": %s,\n",
               workload.c_str(), static_cast<unsigned long long>(seed),
               correct ? "true" : "false");
  std::fprintf(f, " \"chrome_trace_round\": %d,\n", trace_round);
  std::fprintf(f, " \"failures\": [");
  for (size_t i = 0; i < failures.size(); ++i) {
    std::fprintf(f, "%s\"%s\"", i > 0 ? ", " : "", failures[i].c_str());
  }
  std::fprintf(f, "],\n \"metrics\": [\n");
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::fprintf(f, "  {\"name\": \"%s\", \"value\": %s, \"unit\": \"%s\", "
                    "\"samples\": %lld}%s\n",
                 m.name.c_str(), JsonNumber(m.value).c_str(), m.unit,
                 static_cast<long long>(m.samples),
                 i + 1 < metrics.size() ? "," : "");
  }
  std::fprintf(f, " ]\n}\n");
  std::fclose(f);
}

// ---- The benchmark ---------------------------------------------------------

struct Options {
  const WorkloadSpec* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  std::string out_dir;
  int min_rounds = 100;
  std::string method;
};

/// Output checks, made after the timed region. Each failure is a line.
struct Checks {
  std::vector<std::string> failures;
  void Expect(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

/// Cross-entropy is finite and never negative. Exactly 0 is legitimate:
/// once a model fits its clients' data, the loss rounds to 0 in float
/// (Sent140 with seed 6 does so after about 230 rounds).
void CheckLosses(const std::vector<double>& losses, Checks* checks) {
  for (double l : losses) {
    if (!std::isfinite(l) || l < 0.0) {
      checks->Expect(false, "non-finite or negative round loss " + JsonNumber(l));
      return;
    }
  }
}

/// Replays the run in process — same federation, same seed, same number
/// of rounds — and requires the served run's final global state to match
/// it byte for byte. Returns the oracle's median timed-round ms.
double CheckAgainstOracle(const Run& run, Checks* checks) {
  std::unique_ptr<FederatedAlgorithm> oracle = MakeAlgorithm(run.fed);
  std::vector<double> ms;
  for (int r = 0; r < run.next_round; ++r) {
    Stopwatch watch;
    oracle->RunRound(r);
    if (r >= kWarmupRounds) ms.push_back(watch.ElapsedMillis());
  }
  const Tensor& a = run.algo->global_state();
  const Tensor& b = oracle->global_state();
  checks->Expect(a.size() == b.size() &&
                     std::memcmp(a.data(), b.data(),
                                 sizeof(float) * static_cast<size_t>(a.size())) == 0,
                 "served global state differs from the in-process run");
  return Percentile(ms, 0.5);
}

/// Set-up kSetupReps times; the last set-up is kept for the timed rounds.
std::unique_ptr<Run> SetUpRepeated(const Options& o, std::vector<double>* setup_s) {
  std::unique_ptr<Run> run;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    run.reset();
    Stopwatch watch;
    run = SetUp(*o.workload, o.seed, o.method);
    setup_s->push_back(watch.ElapsedSeconds());
  }
  return run;
}

int RunBenchmark(const Options& o) {
  const WorkloadSpec& w = *o.workload;
  const std::string tag = std::string(w.name) + (o.trace ? ".trace1" : ".trace0");
  obs::EnableTracing(o.trace);
  obs::ClearTrace();
  obs::MetricsRegistry::Get().ResetAll();

  std::vector<double> setup_s;
  std::unique_ptr<Run> run = SetUpRepeated(o, &setup_s);
  Fold setup_fold;
  if (o.trace) {
    FoldTrace(obs::CollectTrace(), &setup_fold);
    obs::ClearTrace();
    obs::EnableTracing(false);
  }

  Checks checks;
  std::vector<Metric> metrics;
  const int64_t samples_per_round =
      static_cast<int64_t>(CohortSize(w)) * w.local_steps * w.batch;
  int64_t timed_rounds = 0;
  int64_t lost = 0;
  int trace_round = -1;  // the round the Chrome trace holds

  if (!o.trace) {
    const Timed t = TimeRounds(run.get(), o.seconds, o.min_rounds);
    const double rss_mb = PeakRssMb();
    const int64_t n = static_cast<int64_t>(t.round_ms.size());
    timed_rounds = n;
    lost = t.lost_updates;
    CheckLosses(t.loss, &checks);
    if (w.serve) CheckAgainstOracle(*run, &checks);
    // Mean loss of the first min_rounds timed rounds: a fixed number of
    // samples, so exact for a seed, and less spread across seeds than the
    // last few rounds alone (README.md).
    const std::vector<double> window(t.loss.begin(),
                                     t.loss.begin() + o.min_rounds);
    metrics = {
        {"setup_s", Percentile(setup_s, 0.5), "s", kSetupReps},
        {"round_ms.p50", Percentile(t.round_ms, 0.5), "ms", n},
        {"round_ms.p90", Percentile(t.round_ms, 0.9), "ms", n},
        {"samples_per_s",
         static_cast<double>(n * samples_per_round) / (Sum(t.round_ms) / 1e3),
         "1/s", n},
        {"wire_bytes_per_round",
         static_cast<double>(t.ledger_bytes) / static_cast<double>(n), "B", n},
        {"peak_rss_mb", rss_mb, "MB", 1},
        {"train_loss_final", Sum(window) / o.min_rounds, "nats", o.min_rounds},
        // Filled in once the checks are final.
        {"aggregated_update_ratio", 0.0, "ratio", n},
    };
  } else {
    // The traced stretch runs straight after set-up, so the counts over
    // its first exact_rounds rounds depend on the seed alone (the last,
    // partial batch of a client's epoch changes the work of a round). An
    // untraced stretch follows: the base of the tracing overhead ratio.
    const int exact_rounds = o.min_rounds / 4;
    obs::MetricsRegistry::Get().ResetAll();
    const serve::ServeStats stats0 =
        w.serve ? run->loopback->stats() : serve::ServeStats{};
    const double cpu0 = w.serve ? run->loopback->WorkerCpuSeconds() : 0.0;
    obs::EnableTracing(true);
    Fold fold;
    int folded = 0;
    double exact_flops = 0.0, exact_reuse_hits = 0.0, exact_gemm_calls = 0.0;
    const auto fold_round = [&] {
      FoldTrace(obs::CollectTrace(), &fold);
      if (++folded != exact_rounds) return;
      exact_flops = static_cast<double>(CounterValue("kernel.gemm_flops") +
                                        CounterValue("kernel.conv_flops"));
      exact_reuse_hits =
          static_cast<double>(CounterValue("autograd.tape_reuse_hits"));
      for (const char* gemm : {"gemm_add", "gemm_ta", "gemm_tb"}) {
        exact_gemm_calls += static_cast<double>(fold.spans[gemm].count);
      }
    };
    const Timed t = TimeRounds(run.get(), o.seconds / 2, exact_rounds, [&] {
      fold_round();
      obs::ClearTrace();
    });
    obs::EnableTracing(false);
    // The last traced round is still buffered: fold it and keep it as the
    // run's trace artifact.
    fold_round();
    trace_round = run->next_round - 1;
    if (!o.out_dir.empty()) {
      obs::WriteChromeTrace(o.out_dir + "/" + tag + ".chrome.json");
    }
    obs::ClearTrace();
    const double cpu1 = w.serve ? run->loopback->WorkerCpuSeconds() : 0.0;
    const serve::ServeStats stats1 =
        w.serve ? run->loopback->stats() : serve::ServeStats{};
    const double map_bytes =
        static_cast<double>(CounterValue("comm.down_bytes.map") +
                            CounterValue("comm.up_bytes.map"));
    const Timed base = TimeRounds(run.get(), o.seconds / 2, exact_rounds);
    CheckLosses(base.loss, &checks);
    CheckLosses(t.loss, &checks);
    const double oracle_p50 = w.serve ? CheckAgainstOracle(*run, &checks) : 0.0;

    const int64_t n = static_cast<int64_t>(t.round_ms.size());
    timed_rounds = n + static_cast<int64_t>(base.round_ms.size());
    lost = base.lost_updates + t.lost_updates;
    const double rounds = static_cast<double>(n);
    const double wall_ms = Sum(t.round_ms);
    auto span = [&](const char* name) {
      auto it = fold.spans.find(name);
      return it == fold.spans.end() ? SpanSum{} : it->second;
    };
    auto phase_ms = [&](const char* name) {
      auto it = fold.phases.find(name);
      return it == fold.phases.end() ? 0.0 : it->second.incl_ms / rounds;
    };
    auto setup_ms = [&](const char* name) {
      auto it = setup_fold.spans.find(name);
      return it == setup_fold.spans.end() ? 0.0 : it->second.incl_ms / kSetupReps;
    };
    const double gemm_ms = span("gemm_add").self_ms + span("gemm_ta").self_ms +
                           span("gemm_tb").self_ms;
    const double conv_ms = span("conv2d_fwd").self_ms + span("conv2d_bwd").self_ms;
    const double gemm_flops = static_cast<double>(CounterValue("kernel.gemm_flops"));
    const double conv_flops = static_cast<double>(CounterValue("kernel.conv_flops"));
    const double net_bytes = static_cast<double>(
        (stats1.bytes_sent - stats0.bytes_sent) +
        (stats1.bytes_received - stats0.bytes_received));
    const SpanSum round = span("bench.round");
    double phases_ms = 0.0;
    for (const auto& [name, s] : fold.phases) phases_ms += s.incl_ms;
    const double residual_ms = round.self_ms / rounds;
    checks.Expect(round.count == n, "traced rounds missing from the trace");
    // Phases summing to more than their round show up here: bench.round
    // is then a span whose children outlast it.
    checks.Expect(fold.nesting_errors == 0 && setup_fold.nesting_errors == 0,
                  "child spans outlast their parent (" +
                      std::to_string(fold.nesting_errors + setup_fold.nesting_errors) +
                      " spans)");
    checks.Expect(std::fabs(phases_ms + round.self_ms - round.incl_ms) <=
                      1e-6 * round.incl_ms,
                  "top-level phases plus residual do not sum to the round");

    std::map<std::string, double> v = {
        {"tensor.conv2d_fwd_ms", span("conv2d_fwd").self_ms / rounds},
        {"tensor.conv2d_bwd_ms", span("conv2d_bwd").self_ms / rounds},
        {"tensor.conv_gflops", conv_ms > 0 ? conv_flops / conv_ms / 1e6 : 0.0},
        {"core.map_sync_ms", span("map_sync").incl_ms / rounds},
        {"core.map_broadcast_ms", span("map_broadcast").incl_ms / rounds},
        {"core.mmd_penalty_ms", span("mmd_penalty").incl_ms / rounds},
        {"core.map_bytes_per_round", map_bytes / rounds},
        {"tensor.gemm_ms", gemm_ms / rounds},
        {"tensor.gemm_calls_per_round", exact_gemm_calls / exact_rounds},
        {"tensor.gemm_gflops", gemm_ms > 0 ? gemm_flops / gemm_ms / 1e6 : 0.0},
        {"autograd.backward_self_ms", span("backward").self_ms / rounds},
        {"fl.local_train_self_ms", span("local_train").self_ms / rounds},
        {"autograd.tape_peak_bytes", static_cast<double>(BufferPool::PeakBytes())},
        {"tensor.scratch_peak_bytes", static_cast<double>(ScratchArena::PeakBytes())},
        {"autograd.allocs_per_step",
         obs::MetricsRegistry::Get().GetGauge("autograd.allocs_per_step")->value()},
        {"autograd.tape_reuse_hits_per_round", exact_reuse_hits / exact_rounds},
        {"tensor.flops_per_round", exact_flops / exact_rounds},
        {"serve.submit_ms", span("bench.submit").incl_ms / rounds},
        {"serve.collect_ms", span("bench.collect").incl_ms / rounds},
        {"serve.worker_busy_share",
         w.serve ? (cpu1 - cpu0) * 1e3 / (kServeWorkers * wall_ms) : 0.0},
        {"serve.jobs_per_round",
         static_cast<double>(stats1.jobs_sent - stats0.jobs_sent) / rounds},
        {"serve.jobs_reassigned",
         static_cast<double>(stats1.jobs_reassigned - stats0.jobs_reassigned)},
        {"net.bytes_per_round", net_bytes / rounds},
        {"net.framing_overhead_ratio",
         w.serve ? net_bytes / static_cast<double>(t.ledger_bytes) - 1.0 : 0.0},
        {"fl.broadcast_ms", phase_ms("broadcast")},
        {"fl.upload_ms", phase_ms("upload")},
        {"fl.aggregate_ms", phase_ms("aggregate")},
        {"fl.round_ms", round.incl_ms / rounds},
        {"fl.select_ms", phase_ms("select")},
        {"fl.local_train_ms", phase_ms("local_train")},
        {"fl.round_residual_ms", residual_ms},
        {"data.setup_ms", setup_ms("bench.data_setup")},
        {"fl.build_ms", setup_ms("bench.build")},
        {"serve.handshake_ms", setup_ms("bench.handshake")},
        {"fl.warmup_ms", setup_ms("bench.warmup")},
        {"serve.inprocess_round_ms", oracle_p50},
        {"obs.trace_overhead_ratio",
         round.incl_ms / rounds / Percentile(base.round_ms, 0.5)},
    };
    // Set-up rows count set-ups, the oracle row its rounds, peaks are one
    // reading; every other row is averaged over the traced rounds.
    const std::map<std::string, int64_t> samples = {
        {"data.setup_ms", kSetupReps},
        {"fl.build_ms", kSetupReps},
        {"serve.handshake_ms", kSetupReps},
        {"fl.warmup_ms", kSetupReps},
        {"autograd.tape_peak_bytes", 1},
        {"tensor.scratch_peak_bytes", 1},
        {"autograd.allocs_per_step", 1},
        {"serve.inprocess_round_ms",
         w.serve ? run->next_round - kWarmupRounds : 0},
        {"tensor.gemm_calls_per_round", exact_rounds},
        {"autograd.tape_reuse_hits_per_round", exact_rounds},
        {"tensor.flops_per_round", exact_rounds},
    };
    for (const LayerMetric& l : kLayerMetrics) {
      const auto it = samples.find(l.name);
      metrics.push_back(
          {l.name, v.at(l.name), l.unit, it == samples.end() ? n : it->second});
    }
    // The reconciliation, printed so the artifact answers where the
    // round went: every top-level phase, then the residual.
    std::printf("phases of bench.round (ms/round over %lld traced rounds)\n",
                static_cast<long long>(n));
    for (const auto& [name, s] : fold.phases) {
      std::printf("  %-16s %10.4f\n", name.c_str(), s.incl_ms / rounds);
    }
    std::printf("  %-16s %10.4f\n  %-16s %10.4f  (= sum of the above)\n",
                "residual", residual_ms, "round", round.incl_ms / rounds);
    if (!o.out_dir.empty()) {
      std::printf("Chrome trace of round %d: %s/%s.chrome.json\n", trace_round,
                  o.out_dir.c_str(), tag.c_str());
    }
  }

  const int64_t attempted =
      std::max<int64_t>(1, timed_rounds * CohortSize(w));
  const bool correct = checks.failures.empty();
  // A failed output check counts every update in the run as failed.
  const int64_t failed = correct ? std::min(lost, attempted) : attempted;
  for (Metric& m : metrics) {
    if (m.name == "aggregated_update_ratio") {
      m.value = 1.0 - static_cast<double>(failed) / static_cast<double>(attempted);
    }
  }
  PrintTable(tag + " seed=" + std::to_string(o.seed) +
                 (o.method != w.method ? " method=" + o.method : ""),
             metrics, o.trace);
  for (const std::string& f : checks.failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  if (!o.out_dir.empty()) {
    WriteResultFile(o.out_dir + "/" + tag + ".result.json", w.name, o.seed,
                    correct, trace_round, checks.failures, metrics);
  }
  std::printf("%s\n", ResultJson(correct, attempted, failed, metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

// ---- Self-test -------------------------------------------------------------

obs::TraceEvent Event(const char* name, int depth, double start_ms,
                      double dur_ms) {
  obs::TraceEvent e;
  e.name = name;
  e.depth = depth;
  e.start_us = start_ms * 1e3;
  e.dur_us = dur_ms * 1e3;
  return e;
}

/// The fold must reconcile a well-nested round exactly and must flag a
/// phase that outlasts its round (the nesting bug the reconciliation
/// guards against).
int SelfTest() {
  int failures = 0;
  auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "selftest FAILED: %s\n", what);
      ++failures;
    }
  };
  {
    // round 10 ms = select 1 + local_train 6 (backward 4 inside) + 3 residual
    obs::LaneTrace lane;
    lane.events = {Event("select", 1, 0, 1), Event("backward", 2, 2, 4),
                   Event("local_train", 1, 1, 6), Event("bench.round", 0, 0, 10)};
    Fold fold;
    FoldTrace({lane}, &fold);
    expect(fold.nesting_errors == 0, "well-nested trace flagged");
    expect(fold.spans["bench.round"].self_ms == 3.0, "residual is not 3 ms");
    expect(fold.spans["local_train"].self_ms == 2.0, "local_train self is not 2 ms");
    expect(fold.phases.size() == 2 && fold.phases["local_train"].incl_ms == 6.0,
           "top-level phases not attributed to the round");
  }
  {
    // Phases summing to 12 ms inside a 10 ms round.
    obs::LaneTrace lane;
    lane.events = {Event("select", 1, 0, 5), Event("aggregate", 1, 5, 7),
                   Event("bench.round", 0, 0, 10)};
    Fold fold;
    FoldTrace({lane}, &fold);
    expect(fold.nesting_errors == 1, "phases longer than the round not flagged");
  }
  std::printf("selftest %s\n", failures == 0 ? "OK" : "FAILED");
  return failures == 0 ? 0 : 1;
}

/// Pins the process to one CPU, the last it may use, before any thread
/// starts; threads created later inherit the mask. On a shared 4-vCPU
/// guest a round spread over several vCPUs pays a wake-up of an idle,
/// possibly descheduled vCPU at every hand-off, which made the served
/// round's median swing by 40% between runs (README.md has the numbers).
void PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  RFED_CHECK(sched_getaffinity(0, sizeof(allowed), &allowed) == 0)
      << "cannot read the CPU affinity mask";
  int last = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) last = cpu;
  }
  RFED_CHECK_GE(last, 0);
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(last, &one);
  RFED_CHECK(sched_setaffinity(0, sizeof(one), &one) == 0)
      << "cannot pin to CPU " << last;
}

int Main(int argc, char** argv) {
  PinToOneCpu();
  const FlagParser flags(argc, argv);
  static const char* const kKnown[] = {"workload", "seed", "seconds", "trace",
                                       "out", "min_rounds", "method",
                                       "selftest"};
  for (const std::string& key : flags.Keys()) {
    RFED_CHECK(std::find_if(std::begin(kKnown), std::end(kKnown),
                            [&](const char* k) { return key == k; }) !=
               std::end(kKnown))
        << "unknown flag --" << key;
  }
  if (flags.GetBool("selftest", false)) return SelfTest();

  Options o;
  o.workload = FindWorkload(flags.GetString("workload", ""));
  RFED_CHECK(o.workload != nullptr)
      << "--workload must be one of cifar_cnn_rfedavgp, sent140_lstm_fedavg, "
         "mnist_mlp_fedavg_serve";
  o.seed = std::stoull(flags.GetString("seed", "1"));
  o.seconds = flags.GetDouble("seconds", 30.0);
  o.trace = flags.GetInt("trace", 0) != 0;
  o.out_dir = flags.GetString("out", "");
  o.min_rounds = flags.GetIntInRange("min_rounds", 100, 4, 1000000);
  o.method = flags.GetString("method", o.workload->method);
  return RunBenchmark(o);
}

}  // namespace
}  // namespace roundbench
}  // namespace rfed

int main(int argc, char** argv) { return rfed::roundbench::Main(argc, argv); }
