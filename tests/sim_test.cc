// Tests of the discrete-event simulation runtime (src/sim/) and its
// integration into the FederatedAlgorithm round loop: event-queue
// determinism, compute-model call-order independence, parallel-vs-
// sequential bit-identity of local training (clean and faulty
// channels), participant-schedule invariance across thread counts,
// SCAFFOLD's once-per-round control update, and deadline cuts being a
// function of virtual time only.

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/rfedavg.h"
#include "data/partition.h"
#include "data/synthetic_images.h"
#include "fl/fedavg.h"
#include "fl/fedprox.h"
#include "fl/qfedavg.h"
#include "fl/scaffold.h"
#include "sim/clock.h"
#include "sim/compute_model.h"
#include "sim/event_queue.h"
#include "sim/network_model.h"
#include "sim/options.h"
#include "util/rng.h"

namespace rfed {
namespace {

// ---- Event queue ----

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue queue;
  queue.Push(30.0, 0, 100);
  queue.Push(10.0, 1, 101);
  queue.Push(20.0, 2, 102);
  EXPECT_EQ(queue.size(), 3u);
  EXPECT_DOUBLE_EQ(queue.NextTimeMs(), 10.0);
  EXPECT_EQ(queue.Pop().client, 1);
  EXPECT_EQ(queue.Pop().client, 2);
  EXPECT_EQ(queue.Pop().client, 0);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueueTest, TiesBreakInInsertionOrder) {
  EventQueue queue;
  for (int i = 0; i < 16; ++i) queue.Push(5.0, i, 0);
  for (int i = 0; i < 16; ++i) {
    const SimEvent event = queue.Pop();
    EXPECT_EQ(event.client, i);
    EXPECT_EQ(event.seq, i);
  }
}

TEST(EventQueueTest, PushReturnsMonotoneSequenceAcrossPops) {
  EventQueue queue;
  const int64_t a = queue.Push(1.0, 0, 0);
  queue.Pop();
  const int64_t b = queue.Push(1.0, 0, 0);
  EXPECT_LT(a, b);  // seq never recycles, even after pops
}

// ---- Virtual clock ----

TEST(VirtualClockTest, AdvancesMonotonically) {
  VirtualClock clock;
  EXPECT_DOUBLE_EQ(clock.now_ms(), 0.0);
  clock.AdvanceTo(5.0);
  clock.AdvanceBy(2.5);
  EXPECT_DOUBLE_EQ(clock.now_ms(), 7.5);
  clock.AdvanceTo(7.5);  // standing still is allowed
  EXPECT_DOUBLE_EQ(clock.now_ms(), 7.5);
}

TEST(VirtualClockDeathTest, RunningBackwardsAborts) {
  VirtualClock clock;
  clock.AdvanceTo(10.0);
  EXPECT_DEATH(clock.AdvanceTo(9.0), "RFED_CHECK failed");
}

// ---- Compute-time model ----

TEST(ComputeModelTest, ConstantZeroIsFree) {
  ComputeModelConfig config;  // kConstant, mean 0
  EXPECT_TRUE(config.free());
  ComputeTimeModel model(config, 42, 8);
  for (int client = 0; client < 8; ++client) {
    EXPECT_DOUBLE_EQ(model.SampleMs(client, 3, 5), 0.0);
  }
}

TEST(ComputeModelTest, DrawsAreCallOrderIndependent) {
  ComputeModelConfig config;
  config.kind = ComputeModelKind::kLognormal;
  config.mean_ms_per_step = 10.0;
  config.sigma = 1.0;
  config.hetero_spread = 0.5;
  ComputeTimeModel model(config, 7, 4);
  // Forward then reverse order: per-(client, round) keyed streams mean
  // the draws cannot depend on evaluation order (the thread-count
  // independence contract).
  std::vector<double> forward, reverse;
  for (int round = 0; round < 3; ++round) {
    for (int client = 0; client < 4; ++client) {
      forward.push_back(model.SampleMs(client, round, 2));
    }
  }
  for (int round = 2; round >= 0; --round) {
    for (int client = 3; client >= 0; --client) {
      reverse.push_back(model.SampleMs(client, round, 2));
    }
  }
  std::reverse(reverse.begin(), reverse.end());
  ASSERT_EQ(forward.size(), reverse.size());
  for (size_t i = 0; i < forward.size(); ++i) {
    EXPECT_DOUBLE_EQ(forward[i], reverse[i]);
  }
}

TEST(ComputeModelTest, LognormalIsRoughlyMeanPreserving) {
  ComputeModelConfig config;
  config.kind = ComputeModelKind::kLognormal;
  config.mean_ms_per_step = 10.0;
  config.sigma = 1.0;
  ComputeTimeModel model(config, 99, 1);
  double sum = 0.0;
  const int rounds = 4000;
  for (int round = 0; round < rounds; ++round) {
    sum += model.SampleMs(0, round, 1);
  }
  // E[x * exp(sigma z - sigma^2/2)] = x; loose band for 4000 draws.
  EXPECT_NEAR(sum / rounds, 10.0, 1.5);
}

TEST(ComputeModelTest, DriftCompoundsOverRounds) {
  ComputeModelConfig config;
  config.kind = ComputeModelKind::kDrift;
  config.mean_ms_per_step = 10.0;
  config.drift = 0.2;
  ComputeTimeModel model(config, 5, 6);
  // Each client's per-step cost moves geometrically with its own rate;
  // by round 50 at least one client must have drifted measurably.
  double max_ratio = 0.0;
  for (int client = 0; client < 6; ++client) {
    const double early = model.SampleMs(client, 0, 1);
    const double late = model.SampleMs(client, 50, 1);
    ASSERT_GT(early, 0.0);
    max_ratio = std::max(max_ratio, std::abs(late / early - 1.0));
  }
  EXPECT_GT(max_ratio, 0.5);
}

TEST(ComputeModelTest, HeteroSpreadSeparatesClients) {
  ComputeModelConfig config;
  config.mean_ms_per_step = 10.0;
  config.hetero_spread = 0.5;
  ComputeTimeModel model(config, 11, 8);
  double lo = 1e300, hi = 0.0;
  for (int client = 0; client < 8; ++client) {
    const double ms = model.SampleMs(client, 0, 1);
    lo = std::min(lo, ms);
    hi = std::max(hi, ms);
  }
  EXPECT_LT(lo, hi);   // devices actually differ
  EXPECT_GE(lo, 0.5);  // clipped away from zero (0.05 speed floor)
}

TEST(SimOptionsTest, ParseRoundTrips) {
  SimMode mode;
  EXPECT_TRUE(ParseSimMode("deadline", &mode));
  EXPECT_EQ(mode, SimMode::kDeadline);
  EXPECT_TRUE(ParseSimMode(ToString(SimMode::kAsync), &mode));
  EXPECT_EQ(mode, SimMode::kAsync);
  EXPECT_FALSE(ParseSimMode("bogus", &mode));
  ComputeModelKind kind;
  EXPECT_TRUE(ParseComputeModelKind("lognormal", &kind));
  EXPECT_EQ(kind, ComputeModelKind::kLognormal);
  EXPECT_TRUE(ParseComputeModelKind(ToString(ComputeModelKind::kDrift), &kind));
  EXPECT_EQ(kind, ComputeModelKind::kDrift);
  EXPECT_FALSE(ParseComputeModelKind("bogus", &kind));
}

TEST(NetworkModelTest, ConvertsBytesToLatency) {
  NetworkModelConfig config;
  config.down_bytes_per_ms = 500.0;
  config.up_bytes_per_ms = 250.0;
  config.base_latency_ms = 3.0;
  NetworkModel model(config);
  EXPECT_DOUBLE_EQ(model.DownMs(1000), 3.0 + 2.0);
  EXPECT_DOUBLE_EQ(model.UpMs(1000), 3.0 + 4.0);
  NetworkModel free_model(NetworkModelConfig{});
  EXPECT_DOUBLE_EQ(free_model.DownMs(1 << 20), 0.0);
  EXPECT_DOUBLE_EQ(free_model.UpMs(1 << 20), 0.0);
}

// ---- Round-loop integration ----

/// Small 4-client image fixture; enough rounds of a tiny CNN to make any
/// divergence between execution paths visible in the global state.
struct SimFixture {
  SimFixture()
      : rng(4321),
        data(GenerateImageData(MnistLikeProfile(), 160, 80, &rng)),
        split(SimilarityPartition(data.train, 4, 0.5, &rng)) {
    for (auto& idx : split.client_indices) {
      views.push_back(ClientView{idx, {}});
    }
    CnnConfig mc;
    mc.conv1_channels = 2;
    mc.conv2_channels = 4;
    mc.feature_dim = 8;
    factory = MakeCnnFactory(mc);
  }
  Rng rng;
  SyntheticImageData data;
  ClientSplit split;
  std::vector<ClientView> views;
  ModelFactory factory;
};

FlConfig SimConfig(int num_threads) {
  FlConfig config;
  config.local_steps = 2;
  config.batch_size = 8;
  config.lr = 0.05;
  config.seed = 17;
  config.max_examples_per_pass = 64;
  config.num_threads = num_threads;
  return config;
}

std::unique_ptr<FederatedAlgorithm> MakeByName(const std::string& name,
                                               const FlConfig& config,
                                               SimFixture* fx) {
  const Dataset* train = &fx->data.train;
  if (name == "fedavg") {
    return std::make_unique<FedAvg>(config, train, fx->views, fx->factory);
  }
  if (name == "fedprox") {
    return std::make_unique<FedProx>(config, 0.01, train, fx->views,
                                     fx->factory);
  }
  if (name == "qfedavg") {
    return std::make_unique<QFedAvg>(config, 1.0, train, fx->views,
                                     fx->factory);
  }
  if (name == "scaffold") {
    return std::make_unique<Scaffold>(config, train, fx->views, fx->factory);
  }
  RegularizerOptions reg;
  reg.lambda = 0.01;
  if (name == "rfedavg") {
    return std::make_unique<RFedAvg>(config, reg, train, fx->views,
                                     fx->factory);
  }
  if (name == "rfedavg_plus") {
    return std::make_unique<RFedAvgPlus>(config, reg, train, fx->views,
                                         fx->factory);
  }
  ADD_FAILURE() << "unknown algorithm " << name;
  return nullptr;
}

void ExpectBitIdentical(const Tensor& a, const Tensor& b,
                        const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (int64_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.at(i), b.at(i)) << label << " diverges at element " << i;
  }
}

// Parallel local training must be bit-identical to the sequential
// path — per-client batcher streams, per-slot scratch models, no shared
// mutable state in the training hooks — on a clean channel and on a
// faulty one (both thread counts must consume the channel's fault
// lottery in the same order).
class ParallelTrainingTest
    : public ::testing::TestWithParam<std::tuple<const char*, bool>> {};

TEST_P(ParallelTrainingTest, ParallelMatchesSequentialBitForBit) {
  const std::string name = std::get<0>(GetParam());
  const bool faulted = std::get<1>(GetParam());
  FlConfig seq_config = SimConfig(1), par_config = SimConfig(4);
  if (faulted) {
    for (FlConfig* config : {&seq_config, &par_config}) {
      config->fault.drop_prob = 0.3;
      config->fault.max_retries = 1;
      config->fault.round_timeout_ms = 0.0;
    }
  }
  SimFixture fx_seq, fx_par;
  auto seq = MakeByName(name, seq_config, &fx_seq);
  auto par = MakeByName(name, par_config, &fx_par);
  for (int round = 0; round < 3; ++round) {
    const RoundResult a = seq->RunRound(round);
    const RoundResult b = par->RunRound(round);
    ASSERT_DOUBLE_EQ(a.train_loss, b.train_loss) << name << " round " << round;
    ExpectBitIdentical(seq->global_state(), par->global_state(), name);
  }
  if (faulted) {
    // Non-vacuous: the lottery actually lost or retried something.
    const ChannelStats& stats = std::as_const(*seq).channel().stats();
    EXPECT_GT(stats.dropped + stats.retried, 0) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Algorithms, ParallelTrainingTest,
    ::testing::Combine(::testing::Values("fedavg", "fedprox", "qfedavg",
                                         "scaffold", "rfedavg",
                                         "rfedavg_plus"),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<ParallelTrainingTest::ParamType>& info) {
      return std::string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_faulted" : "_clean");
    });

/// FedAvg that records each round's cohort (OnRoundStart) and survivors
/// (OnRoundEnd) — the participant schedule.
class RecordingFedAvg : public FedAvg {
 public:
  using FedAvg::FedAvg;
  std::vector<std::vector<int>> cohorts;
  std::vector<std::vector<int>> survivors;

 protected:
  void OnRoundStart(int round, const std::vector<int>& selected) override {
    cohorts.push_back(selected);
  }
  void OnRoundEnd(int round, const std::vector<int>& selected) override {
    survivors.push_back(selected);
  }
};

// The participant schedule (fl/selection.cc under the sim runtime) is a
// function of the seed only, never of the thread count.
TEST(SelectionUnderSimTest, ScheduleInvariantAcrossThreadCounts) {
  FlConfig reference_config = SimConfig(1);
  reference_config.sample_ratio = 0.5;
  SimFixture reference_fx;
  RecordingFedAvg reference(reference_config, &reference_fx.data.train,
                            reference_fx.views, reference_fx.factory);
  for (int round = 0; round < 4; ++round) reference.RunRound(round);

  FlConfig config = SimConfig(4);
  config.sample_ratio = 0.5;
  SimFixture fx;
  RecordingFedAvg threaded(config, &fx.data.train, fx.views, fx.factory);
  for (int round = 0; round < 4; ++round) threaded.RunRound(round);

  EXPECT_EQ(threaded.cohorts, reference.cohorts);
  EXPECT_EQ(threaded.survivors, reference.survivors);
  // Sampling actually happened (4 clients, ratio 0.5 -> cohorts of 2).
  ASSERT_EQ(reference.cohorts.size(), 4u);
  EXPECT_EQ(reference.cohorts[0].size(), 2u);
}

/// Scaffold that records what its reference server update (Karimireddy
/// et al. 2020, Alg. 1) is checked against: the c every PostBackward of
/// the round reads, and the sum of option II's (c_k+ - c_k) over the
/// clients whose control upload was delivered.
class RecordingScaffold : public Scaffold {
 public:
  using Scaffold::Scaffold;
  Tensor round_start_control;         ///< c_r
  std::vector<Tensor> seen_controls;  ///< c read by this round's steps
  Tensor delivered_sum;               ///< sum over delivered k of c_k+ - c_k
  int lost_uploads = 0;

 protected:
  void OnRoundStart(int round, const std::vector<int>& selected) override {
    round_start_control = global_control();
    round_start_state_ = global_state();
    seen_controls.clear();
    delivered_sum = Tensor(global_state().shape());
    Scaffold::OnRoundStart(round, selected);
  }
  void PostBackward(int client,
                    const std::vector<Variable*>& params) override {
    seen_controls.push_back(global_control());
    Scaffold::PostBackward(client, params);
  }
  void OnClientTrained(int round, int client,
                       const Tensor& new_state) override {
    const int64_t delivered_before = channel().stats().delivered;
    Scaffold::OnClientTrained(round, client, new_state);
    if (channel().stats().delivered == delivered_before) {
      ++lost_uploads;
      return;
    }
    // Option II: c_k+ - c_k = -c + (x - y_k) / (E * lr).
    Tensor delta = round_start_state_;
    delta.SubInPlace(new_state);
    delta.MulInPlace(
        static_cast<float>(1.0 / (config().local_steps * config().lr)));
    delta.SubInPlace(round_start_control);
    delivered_sum.AddInPlace(delta);
  }

 private:
  Tensor round_start_state_;
};

// SCAFFOLD updates the server control once per round: every client of
// a round corrects with the round-start c, and
// c_{r+1} - c_r == (1/N) * sum over delivered k of (c_k+ - c_k).
TEST(ScaffoldReferenceTest, ControlCommitsOncePerRound) {
  FlConfig config = SimConfig(1);
  config.fault.drop_prob = 0.3;  // some control uploads get lost
  config.fault.round_timeout_ms = 0.0;
  SimFixture fx;
  RecordingScaffold algo(config, &fx.data.train, fx.views, fx.factory);
  const double inv_n = 1.0 / algo.num_clients();
  for (int round = 0; round < 4; ++round) {
    algo.RunRound(round);
    ASSERT_FALSE(algo.seen_controls.empty());
    for (const Tensor& seen : algo.seen_controls) {
      ExpectBitIdentical(seen, algo.round_start_control,
                         "c seen in round " + std::to_string(round));
    }
    const Tensor& next = algo.global_control();
    for (int64_t i = 0; i < next.size(); ++i) {
      const double step = next.at(i) - algo.round_start_control.at(i);
      const double want = inv_n * algo.delivered_sum.at(i);
      ASSERT_NEAR(step, want, 1e-5 + 1e-4 * std::fabs(want))
          << "round " << round << " element " << i;
    }
  }
  // Non-vacuous: c moved, and at least one control upload was lost.
  EXPECT_GT(algo.lost_uploads, 0);
  double control_norm = 0.0;
  for (int64_t i = 0; i < algo.global_control().size(); ++i) {
    control_norm += std::fabs(algo.global_control().at(i));
  }
  EXPECT_GT(control_norm, 0.0);
}

// With free models and sync mode the sim runtime is invisible: zero
// virtual time, no cuts, no staleness.
TEST(SimRoundTest, FreeSyncRoundHasZeroVirtualTime) {
  SimFixture fx;
  FedAvg algo(SimConfig(1), &fx.data.train, fx.views, fx.factory);
  const RoundResult result = algo.RunRound(0);
  EXPECT_DOUBLE_EQ(result.virtual_ms, 0.0);
  EXPECT_DOUBLE_EQ(result.client_p50_ms, 0.0);
  EXPECT_DOUBLE_EQ(result.client_p95_ms, 0.0);
  EXPECT_EQ(result.stragglers_cut, 0);
  EXPECT_DOUBLE_EQ(algo.clock().now_ms(), 0.0);
}

FlConfig StragglerConfig(int num_threads, SimMode mode) {
  FlConfig config = SimConfig(num_threads);
  config.sim.mode = mode;
  config.sim.compute.kind = ComputeModelKind::kLognormal;
  config.sim.compute.mean_ms_per_step = 10.0;
  config.sim.compute.sigma = 1.0;
  config.sim.network.down_bytes_per_ms = 1000.0;
  config.sim.network.up_bytes_per_ms = 1000.0;
  config.sim.network.base_latency_ms = 1.0;
  if (mode == SimMode::kDeadline) config.sim.deadline_ms = 35.0;
  if (mode == SimMode::kAsync) config.sim.async_buffer = 2;
  return config;
}

// In sync mode the round's virtual duration is the slowest client
// (barrier), so it dominates the straggler tail.
TEST(SimRoundTest, SyncVirtualTimeIsBarrierOnSlowestClient) {
  SimFixture fx;
  FedAvg algo(StragglerConfig(1, SimMode::kSync), &fx.data.train, fx.views,
              fx.factory);
  double elapsed = 0.0;
  for (int round = 0; round < 3; ++round) {
    const RoundResult result = algo.RunRound(round);
    EXPECT_GT(result.virtual_ms, 0.0);
    EXPECT_GE(result.virtual_ms, result.client_p95_ms);
    EXPECT_GE(result.client_p95_ms, result.client_p50_ms);
    EXPECT_EQ(result.stragglers_cut, 0);
    elapsed += result.virtual_ms;
    EXPECT_DOUBLE_EQ(algo.clock().now_ms(), elapsed);  // clock is monotone
  }
}

// Deadline cuts are a function of virtual time only — identical across
// thread counts and bounded by the deadline itself.
TEST(SimRoundTest, DeadlineCutsAreVirtualTimeDeterministic) {
  std::vector<int> cuts_by_threads[2];
  std::vector<double> vms_by_threads[2];
  for (const int threads : {1, 4}) {
    const int slot = threads == 1 ? 0 : 1;
    SimFixture fx;
    FedAvg algo(StragglerConfig(threads, SimMode::kDeadline), &fx.data.train,
                fx.views, fx.factory);
    for (int round = 0; round < 5; ++round) {
      const RoundResult result = algo.RunRound(round);
      EXPECT_LE(result.virtual_ms, 35.0 + 1e-9);
      cuts_by_threads[slot].push_back(result.stragglers_cut);
      vms_by_threads[slot].push_back(result.virtual_ms);
    }
  }
  EXPECT_EQ(cuts_by_threads[0], cuts_by_threads[1]);
  EXPECT_EQ(vms_by_threads[0], vms_by_threads[1]);
  // The lognormal tail at sigma=1 with a 35 ms cut must actually cut
  // someone across 5 rounds x 4 clients, or the test is vacuous.
  int total = 0;
  for (int c : cuts_by_threads[0]) total += c;
  EXPECT_GT(total, 0);
}

// Async mode: the server updates after K arrivals; staleness is
// nonnegative, the clock advances, and a fixed seed reproduces the run
// bit-for-bit.
TEST(SimRoundTest, AsyncRunsAreSeedDeterministic) {
  SimFixture fx_a, fx_b;
  FedAvg a(StragglerConfig(1, SimMode::kAsync), &fx_a.data.train, fx_a.views,
           fx_a.factory);
  FedAvg b(StragglerConfig(1, SimMode::kAsync), &fx_b.data.train, fx_b.views,
           fx_b.factory);
  for (int round = 0; round < 5; ++round) {
    const RoundResult ra = a.RunRound(round);
    const RoundResult rb = b.RunRound(round);
    ASSERT_DOUBLE_EQ(ra.train_loss, rb.train_loss);
    ASSERT_DOUBLE_EQ(ra.virtual_ms, rb.virtual_ms);
    ASSERT_DOUBLE_EQ(ra.mean_staleness, rb.mean_staleness);
    EXPECT_GE(ra.mean_staleness, 0.0);
    ExpectBitIdentical(a.global_state(), b.global_state(), "async");
  }
  EXPECT_GT(a.clock().now_ms(), 0.0);
  EXPECT_EQ(a.server_version(), 5);
}

}  // namespace
}  // namespace rfed
