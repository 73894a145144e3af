// Seeded golden-run regression suite. Each algorithm runs 3 rounds on a
// tiny fixed synthetic partition; the final train loss, final test
// accuracy, cumulative communicated bytes and an exact hash of the final
// global state must match the checked-in golden values. Any kernel,
// aggregation, or accounting refactor that silently changes the training
// math trips these immediately; the hash also catches a change in float
// association that moves no printed digit.
//
// Regenerating after an *intentional* numeric change:
//   RFED_PRINT_GOLDEN=1 ./build/tests/golden_test
// then paste the printed rows over kGoldens, kFiveClientGoldens and
// kSimGoldens below.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/rfedavg.h"
#include "data/partition.h"
#include "data/synthetic_images.h"
#include "fl/checkpoint.h"
#include "fl/fedavg.h"
#include "fl/fedavgm.h"
#include "fl/fednova.h"
#include "fl/fedprox.h"
#include "fl/qfedavg.h"
#include "fl/scaffold.h"
#include "fl/trainer.h"
#include "util/hash.h"
#include "util/rng.h"

namespace rfed {
namespace {

constexpr const char* kAlgorithms[] = {
    "fedavg", "fedprox", "scaffold", "qfedavg",
    "fedavgm", "fednova", "rfedavg", "rfedavg_plus",
};

struct Golden {
  const char* name;
  double final_loss;
  double final_accuracy;
  int64_t total_bytes;
  uint32_t state_hash;  ///< Fnv1a32 of the final global state's bytes
};

// Checked-in golden values for 3 rounds under the fixture below
// (data seed 1234, algorithm seed 77). Tolerance 1e-5 on the doubles,
// exact on the byte ledger and the state hash.
constexpr Golden kGoldens[] = {
    {"fedavg", 2.3046531280, 0.1083333333, 46224, 0x51210b3fu},
    {"fedprox", 2.3046712875, 0.1083333333, 46224, 0xe77a7077u},
    {"scaffold", 2.3275221189, 0.0916666667, 92448, 0xc36b73bcu},
    {"qfedavg", 2.3179347515, 0.0833333333, 46224, 0xe2b419e4u},
    {"fedavgm", 2.2837883631, 0.1666666667, 46224, 0xfd2a0bfeu},
    {"fednova", 2.2734843294, 0.1583333333, 46224, 0x4149a17fu},
    {"rfedavg", 2.3133333524, 0.0916666667, 47088, 0xf63d1fd9u},
    {"rfedavg_plus", 2.3111237685, 0.0916666667, 69912, 0xfa148259u},
};

// The same fixture split over 5 clients. On 3 clients whose weights sum
// to exactly 1 the server's canonical pairwise tree gives the bytes of a
// flat left fold, so only these rows can see the order in which the
// weighted mean adds its leaves.
constexpr Golden kFiveClientGoldens[] = {
    {"fedavg", 2.3643252373, 0.0833333333, 77040, 0xe0cd05bfu},
    {"rfedavg_plus", 2.3578410149, 0.0833333333, 116520, 0x8e11f7fdu},
};

/// The shared tiny fixture: 240 train / 120 test MNIST-like examples
/// over `num_clients` (3 unless a row says otherwise) moderately non-IID
/// clients, a minimal CNN.
struct GoldenFixture {
  explicit GoldenFixture(int num_clients = 3)
      : rng(1234),
        data(GenerateImageData(MnistLikeProfile(), 240, 120, &rng)),
        split(SimilarityPartition(data.train, num_clients, 0.5, &rng)) {
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

FlConfig GoldenConfig() {
  FlConfig config;
  config.local_steps = 2;
  config.batch_size = 8;
  config.lr = 0.05;
  config.seed = 77;
  config.max_examples_per_pass = 64;
  return config;
}

std::unique_ptr<FederatedAlgorithm> MakeAlgorithm(const std::string& name,
                                                  const FlConfig& config,
                                                  GoldenFixture* fx) {
  const Dataset* train = &fx->data.train;
  if (name == "fedavg") {
    return std::make_unique<FedAvg>(config, train, fx->views, fx->factory);
  }
  if (name == "fedprox") {
    return std::make_unique<FedProx>(config, 0.01, train, fx->views,
                                     fx->factory);
  }
  if (name == "scaffold") {
    return std::make_unique<Scaffold>(config, train, fx->views, fx->factory);
  }
  if (name == "qfedavg") {
    return std::make_unique<QFedAvg>(config, 1.0, train, fx->views,
                                     fx->factory);
  }
  if (name == "fedavgm") {
    return std::make_unique<FedAvgM>(config, 0.9, train, fx->views,
                                     fx->factory);
  }
  if (name == "fednova") {
    return std::make_unique<FedNova>(config, 4, train, fx->views,
                                     fx->factory);
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

/// Exact fingerprint of a model state: FNV-1a over its float bytes.
uint32_t StateHash(const Tensor& state) {
  return Fnv1a32(reinterpret_cast<const uint8_t*>(state.data()),
                 static_cast<size_t>(state.size()) * sizeof(float));
}

struct GoldenRun {
  RunHistory history;
  uint32_t state_hash = 0;
};

GoldenRun RunGolden(const std::string& name, const FlConfig& config,
                    int rounds, int num_clients = 3) {
  GoldenFixture fx(num_clients);
  auto algo = MakeAlgorithm(name, config, &fx);
  TrainerOptions options;
  options.eval_max_examples = 120;
  FederatedTrainer trainer(algo.get(), &fx.data.test, options);
  GoldenRun run;
  run.history = trainer.Run(rounds);
  run.state_hash = StateHash(algo->global_state());
  return run;
}

/// Runs `name` for 3 rounds on `num_clients` clients and checks it
/// against its row of `table` (or prints the row to regenerate it).
template <size_t N>
void CheckGoldenRun(const std::string& name, int num_clients,
                    const Golden (&table)[N]) {
  const GoldenRun run = RunGolden(name, GoldenConfig(), 3, num_clients);
  const RunHistory& history = run.history;
  const double loss = history.rounds.back().train_loss;
  const double accuracy = history.FinalAccuracy();
  const int64_t bytes = history.TotalBytes();

  if (std::getenv("RFED_PRINT_GOLDEN") != nullptr) {
    std::printf("    {\"%s\", %.10f, %.10f, %lld, 0x%08xu},\n", name.c_str(),
                loss, accuracy, static_cast<long long>(bytes),
                run.state_hash);
    return;
  }
  const Golden* golden = nullptr;
  for (const Golden& g : table) {
    if (name == g.name) golden = &g;
  }
  ASSERT_NE(golden, nullptr) << "no golden entry for " << name;
  EXPECT_NEAR(loss, golden->final_loss, 1e-5) << name;
  EXPECT_NEAR(accuracy, golden->final_accuracy, 1e-5) << name;
  EXPECT_EQ(bytes, golden->total_bytes) << name;
  EXPECT_EQ(run.state_hash, golden->state_hash) << name;
  // A fault-free run delivers every message and drops/retries none.
  EXPECT_EQ(history.TotalDropped(), 0);
  EXPECT_EQ(history.TotalRetried(), 0);
  EXPECT_GT(history.TotalDelivered(), 0);
}

class GoldenRunTest : public ::testing::TestWithParam<const char*> {};

TEST_P(GoldenRunTest, ThreeRoundRunMatchesCheckedInValues) {
  CheckGoldenRun(GetParam(), 3, kGoldens);
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, GoldenRunTest,
                         ::testing::ValuesIn(kAlgorithms));

class FiveClientGoldenTest : public ::testing::TestWithParam<const char*> {};

TEST_P(FiveClientGoldenTest, ThreeRoundRunMatchesCheckedInValues) {
  CheckGoldenRun(GetParam(), 5, kFiveClientGoldens);
}

INSTANTIATE_TEST_SUITE_P(TreeMean, FiveClientGoldenTest,
                         ::testing::Values("fedavg", "rfedavg_plus"));

// ---- Fault sweep: the acceptance scenario ----
// With drop probability 0.3 and a fixed seed, every algorithm completes
// 10 rounds without crashing, the global state stays finite, and the
// history reports nonzero dropped and retried message counts.

class FaultSweepTest : public ::testing::TestWithParam<const char*> {};

TEST_P(FaultSweepTest, TenRoundsUnderHeavyDropsStayFinite) {
  const std::string name = GetParam();
  FlConfig config = GoldenConfig();
  config.fault.drop_prob = 0.3;
  config.fault.max_retries = 2;
  config.fault.round_timeout_ms = 0.0;

  GoldenFixture fx;
  auto algo = MakeAlgorithm(name, config, &fx);
  TrainerOptions options;
  options.eval_max_examples = 120;
  options.eval_every = 5;
  FederatedTrainer trainer(algo.get(), &fx.data.test, options);
  RunHistory history = trainer.Run(10);

  ASSERT_EQ(history.rounds.size(), 10u);
  for (int64_t i = 0; i < algo->global_state().size(); ++i) {
    ASSERT_TRUE(std::isfinite(algo->global_state().at(i))) << name;
  }
  EXPECT_GT(history.TotalDropped(), 0) << name;
  EXPECT_GT(history.TotalRetried(), 0) << name;
  EXPECT_GT(history.TotalDelivered(), 0) << name;
  const double accuracy = history.FinalAccuracy();
  EXPECT_GE(accuracy, 0.0);
  EXPECT_LE(accuracy, 1.0);
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, FaultSweepTest,
                         ::testing::ValuesIn(kAlgorithms));

// ---- Sim-runtime goldens ----
// One deadline-mode and one async-mode row pin the virtual-time
// semantics: any change to the event model, the straggler draws, or the
// staleness weighting trips these. Regenerate like the main table:
//   RFED_PRINT_GOLDEN=1 ./build/tests/golden_test

struct SimGolden {
  const char* algorithm;
  SimMode mode;
  double final_loss;
  double virtual_ms;  ///< TotalVirtualMs over the 3 rounds
  int64_t total_bytes;
  int64_t stragglers_cut;
  uint32_t state_hash;  ///< Fnv1a32 of the final global state's bytes
};

constexpr SimGolden kSimGoldens[] = {
    {"fedavg", SimMode::kDeadline, 2.3187667529, 81.5907334654, 46224, 2,
     0xd9c011eeu},
    {"rfedavg_plus", SimMode::kAsync, 2.2693005800, 81.6421905083, 51776, 0,
     0x1c68ae4fu},
};

/// Lognormal stragglers over a finite network; deadline cuts at 40
/// virtual ms, async buffers 2 arrivals per server update.
FlConfig SimGoldenConfig(SimMode mode) {
  FlConfig config = GoldenConfig();
  config.sim.mode = mode;
  config.sim.compute.kind = ComputeModelKind::kLognormal;
  config.sim.compute.mean_ms_per_step = 10.0;
  config.sim.compute.sigma = 1.0;
  config.sim.network.down_bytes_per_ms = 1000.0;
  config.sim.network.up_bytes_per_ms = 1000.0;
  config.sim.network.base_latency_ms = 2.0;
  if (mode == SimMode::kDeadline) config.sim.deadline_ms = 40.0;
  if (mode == SimMode::kAsync) config.sim.async_buffer = 2;
  return config;
}

class SimGoldenTest : public ::testing::TestWithParam<int> {};

TEST_P(SimGoldenTest, SeededSimRunMatchesCheckedInValues) {
  const SimGolden& golden = kSimGoldens[GetParam()];
  const GoldenRun run =
      RunGolden(golden.algorithm, SimGoldenConfig(golden.mode), 3);
  const RunHistory& history = run.history;
  const double loss = history.rounds.back().train_loss;
  const double virtual_ms = history.TotalVirtualMs();
  const int64_t bytes = history.TotalBytes();
  const int64_t cut = history.TotalStragglersCut();

  if (std::getenv("RFED_PRINT_GOLDEN") != nullptr) {
    std::printf(
        "    {\"%s\", SimMode::%s, %.10f, %.10f, %lld, %lld, 0x%08xu},\n",
        golden.algorithm,
        golden.mode == SimMode::kDeadline ? "kDeadline" : "kAsync", loss,
        virtual_ms, static_cast<long long>(bytes), static_cast<long long>(cut),
        run.state_hash);
    return;
  }
  EXPECT_NEAR(loss, golden.final_loss, 1e-5) << golden.algorithm;
  EXPECT_NEAR(virtual_ms, golden.virtual_ms, 1e-3) << golden.algorithm;
  EXPECT_EQ(bytes, golden.total_bytes) << golden.algorithm;
  EXPECT_EQ(cut, golden.stragglers_cut) << golden.algorithm;
  EXPECT_EQ(run.state_hash, golden.state_hash) << golden.algorithm;
  // Simulated time actually elapsed.
  EXPECT_GT(virtual_ms, 0.0);
}

INSTANTIATE_TEST_SUITE_P(SimModes, SimGoldenTest, ::testing::Range(0, 2));

// ---- Kill-and-resume determinism goldens ----
// Checkpoint at round 3, throw the whole process state away (fresh
// fixture, fresh algorithm, fresh model init), restore, and continue to
// round 6: every deterministic per-round field and every model
// coordinate must match the uninterrupted 6-round run bit for bit. The
// config includes wire faults and a compute-time model so the channel
// RNG, the comm ledger, and the virtual clock restores are all load-
// bearing. (round_seconds is wall-clock and excluded.) The
// "fedavg_loss_nan" scenario is FedAvg under loss-adaptive selection with
// a NaN-emitting adversary and the validation screen on, so the
// per-client loss table and rejection reputation restores are
// load-bearing too.

constexpr const char* kResumeAlgorithms[] = {"fedavg", "scaffold",
                                             "rfedavg_plus",
                                             "fedavg_loss_nan"};

FlConfig ResumeGoldenConfig(const std::string& name) {
  FlConfig config = GoldenConfig();
  config.fault.drop_prob = 0.2;
  config.fault.max_retries = 1;
  config.fault.round_timeout_ms = 0.0;
  config.sim.compute.kind = ComputeModelKind::kLognormal;
  config.sim.compute.mean_ms_per_step = 10.0;
  config.sim.network.down_bytes_per_ms = 1000.0;
  config.sim.network.up_bytes_per_ms = 1000.0;
  if (name == "fedavg_loss_nan") {
    config.client_selection = "loss";
    config.sample_ratio = 0.67;  // 2 of the 3 clients per round
    config.adversary.mode = "nan";
    config.adversary.fraction = 0.34;  // 1 of the 3 clients
    config.robust.validate = true;
  }
  return config;
}

struct ResumeRun {
  RunHistory history;
  Tensor state;
  std::vector<int64_t> rejections;  ///< rejection_count(k) per client
};

ResumeRun RunWithOptionalResume(const std::string& name, int rounds,
                                const TrainerOptions& options,
                                const RunCheckpoint* resume) {
  GoldenFixture fx;
  auto algo = MakeAlgorithm(name == "fedavg_loss_nan" ? "fedavg" : name,
                            ResumeGoldenConfig(name), &fx);
  FederatedTrainer trainer(algo.get(), &fx.data.test, options);
  ResumeRun run;
  run.history = trainer.Run(rounds, resume);
  run.state = algo->global_state();
  for (int k = 0; k < algo->num_clients(); ++k) {
    run.rejections.push_back(algo->rejection_count(k));
  }
  return run;
}

/// A round's delta of a deterministic counter (0 when absent).
double RoundCounter(const RoundMetrics& m, const std::string& name) {
  for (const auto& [metric, value] : m.metrics) {
    if (metric == name) return value;
  }
  return 0.0;
}

class ResumeGoldenTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ResumeGoldenTest, KillAtRoundThreeThenResumeIsBitIdentical) {
  const std::string name = GetParam();
  const std::string path =
      ::testing::TempDir() + "golden_resume_" + name + ".ckpt";
  TrainerOptions options;
  options.eval_max_examples = 120;

  // Uninterrupted 6-round reference.
  ResumeRun full = RunWithOptionalResume(name, 6, options, nullptr);

  // "Crashed" run: checkpoints after round 3, then its entire process
  // state (algorithm, model, RNGs, channel) goes out of scope.
  TrainerOptions ck_options = options;
  ck_options.checkpoint_every = 3;
  ck_options.checkpoint_path = path;
  const ResumeRun crashed = RunWithOptionalResume(name, 3, ck_options, nullptr);
  if (name == "fedavg_loss_nan") {
    // The checkpoint carries a nonzero rejection reputation.
    EXPECT_GT(*std::max_element(crashed.rejections.begin(),
                                crashed.rejections.end()),
              0);
  }

  // Fresh state, restore, continue to round 6.
  RunCheckpoint resume = RunCheckpoint::Load(path);
  ASSERT_EQ(resume.next_round, 3);
  ResumeRun resumed = RunWithOptionalResume(name, 6, options, &resume);

  ASSERT_EQ(resumed.history.rounds.size(), full.history.rounds.size());
  for (size_t i = 0; i < full.history.rounds.size(); ++i) {
    const RoundMetrics& a = full.history.rounds[i];
    const RoundMetrics& b = resumed.history.rounds[i];
    EXPECT_EQ(a.train_loss, b.train_loss) << name << " round " << i;
    EXPECT_EQ(a.test_accuracy, b.test_accuracy) << name << " round " << i;
    EXPECT_EQ(a.round_bytes, b.round_bytes) << name << " round " << i;
    EXPECT_EQ(a.delivered_messages, b.delivered_messages) << name;
    EXPECT_EQ(a.dropped_messages, b.dropped_messages) << name;
    EXPECT_EQ(a.retried_messages, b.retried_messages) << name;
    EXPECT_EQ(a.virtual_ms, b.virtual_ms) << name << " round " << i;
    // Counters read off the per-client loss table (clients without a
    // known loss at selection) and the validation screen.
    for (const char* counter :
         {"fl.nonfinite_loss", "fl.quarantined_updates"}) {
      EXPECT_EQ(RoundCounter(a, counter), RoundCounter(b, counter))
          << name << " " << counter << " round " << i;
    }
  }
  EXPECT_EQ(resumed.rejections, full.rejections) << name;
  ASSERT_EQ(resumed.state.size(), full.state.size());
  for (int64_t i = 0; i < full.state.size(); ++i) {
    ASSERT_EQ(full.state.at(i), resumed.state.at(i))
        << name << " model coordinate " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(KillAndResume, ResumeGoldenTest,
                         ::testing::ValuesIn(kResumeAlgorithms));

}  // namespace
}  // namespace rfed
