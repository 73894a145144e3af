// Observability-layer suite (`ctest -L obs`).
//
// Pins the contracts in docs/OBSERVABILITY.md: histogram bucket edges,
// span nesting/ordering determinism of the per-(lane, seq) merge across
// `num_threads`/`kernel_threads`, Chrome trace-JSON well-formedness, and
// the golden guarantee that tracing never perturbs training — the final
// global model is byte-identical with tracing on and off.

#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/rfedavg.h"
#include "data/partition.h"
#include "data/synthetic_images.h"
#include "fl/trainer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/rng.h"

namespace rfed {
namespace {

// Tracing state is process-global; every test starts dark and empty.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::EnableTracing(false);
    obs::ClearTrace();
  }
  void TearDown() override {
    obs::EnableTracing(false);
    obs::ClearTrace();
  }
};

// ---- Metrics registry ----

TEST_F(ObsTest, HistogramBucketEdges) {
  obs::Histogram h({1.0, 2.0, 4.0});
  // v lands in the first bucket with v <= edge.
  h.Observe(0.0);   // bucket 0 (le 1)
  h.Observe(1.0);   // bucket 0: boundary is inclusive
  h.Observe(1.5);   // bucket 1 (le 2)
  h.Observe(2.0);   // bucket 1
  h.Observe(3.999); // bucket 2 (le 4)
  h.Observe(4.0);   // bucket 2
  h.Observe(4.001); // overflow
  h.Observe(1e12);  // overflow
  EXPECT_EQ(h.BucketCount(0), 2);
  EXPECT_EQ(h.BucketCount(1), 2);
  EXPECT_EQ(h.BucketCount(2), 2);
  EXPECT_EQ(h.BucketCount(3), 2);  // overflow bucket
  EXPECT_EQ(h.TotalCount(), 8);
  h.Reset();
  EXPECT_EQ(h.TotalCount(), 0);
}

TEST_F(ObsTest, RegistryHandlesAreStableAndTyped) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Get();
  obs::Counter* c = reg.GetCounter("obs_test.counter");
  EXPECT_EQ(c, reg.GetCounter("obs_test.counter"));
  c->Add(3);
  c->Increment();
  EXPECT_EQ(c->value(), 4);
  obs::Gauge* g = reg.GetGauge("obs_test.gauge");
  g->Set(2.5);
  EXPECT_DOUBLE_EQ(g->value(), 2.5);
}

TEST_F(ObsTest, SnapshotDeltaSubtractsCumulativeKeepsGauges) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Get();
  obs::Counter* c = reg.GetCounter("obs_test.delta_counter");
  obs::Gauge* g = reg.GetGauge("obs_test.delta_gauge");
  c->Add(10);
  g->Set(100.0);
  const auto base = reg.Snapshot();
  c->Add(7);
  g->Set(42.0);
  const auto now = reg.Snapshot();
  const auto delta = obs::SnapshotDelta(base, now);
  std::map<std::string, double> by_name(delta.begin(), delta.end());
  EXPECT_DOUBLE_EQ(by_name.at("obs_test.delta_counter"), 7.0);  // 17 - 10
  EXPECT_DOUBLE_EQ(by_name.at("obs_test.delta_gauge"), 42.0);   // absolute
  // Snapshots are sorted by name.
  for (size_t i = 1; i < now.size(); ++i) {
    EXPECT_LT(now[i - 1].name, now[i].name);
  }
}

TEST_F(ObsTest, HistogramSnapshotFlattensBuckets) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Get();
  obs::Histogram* h = reg.GetHistogram("obs_test.hist", {0.5, 2.5});
  h->Observe(0.0);
  h->Observe(1.0);
  h->Observe(9.0);
  std::map<std::string, double> by_name;
  for (const auto& s : reg.Snapshot()) by_name[s.name] = s.value;
  EXPECT_DOUBLE_EQ(by_name.at("obs_test.hist.le0.5"), 1.0);
  EXPECT_DOUBLE_EQ(by_name.at("obs_test.hist.le2.5"), 1.0);
  EXPECT_DOUBLE_EQ(by_name.at("obs_test.hist.over"), 1.0);
  EXPECT_DOUBLE_EQ(by_name.at("obs_test.hist.count"), 3.0);
}

// ---- Trace spans ----

TEST_F(ObsTest, DisabledTracingRecordsNothing) {
  {
    obs::TraceSpan outer("outer");
    obs::TraceSpan inner("inner");
  }
  EXPECT_TRUE(obs::CollectTrace().empty());
}

TEST_F(ObsTest, SpanNestingDepthsAndSeqOrder) {
  obs::EnableTracing(true);
  {
    obs::TraceSpan a("a");
    { obs::TraceSpan b("b"); }
    { obs::TraceSpan c("c"); }
  }
  { obs::TraceSpan d("d"); }
  const auto lanes = obs::CollectTrace();
  ASSERT_EQ(lanes.size(), 1u);
  const auto& events = lanes[0].events;
  ASSERT_EQ(events.size(), 4u);
  // Events append at span end: children precede their parent.
  EXPECT_STREQ(events[0].name, "b");
  EXPECT_EQ(events[0].depth, 1);
  EXPECT_STREQ(events[1].name, "c");
  EXPECT_EQ(events[1].depth, 1);
  EXPECT_STREQ(events[2].name, "a");
  EXPECT_EQ(events[2].depth, 0);
  EXPECT_STREQ(events[3].name, "d");
  EXPECT_EQ(events[3].depth, 0);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, static_cast<int64_t>(i));
    EXPECT_GE(events[i].dur_us, 0.0);
  }
  obs::ClearTrace();
  EXPECT_TRUE(obs::CollectTrace().empty());
}

TEST_F(ObsTest, SummaryAggregatesByName) {
  obs::EnableTracing(true);
  { obs::TraceSpan a("alpha"); }
  { obs::TraceSpan a("alpha"); }
  { obs::TraceSpan b("beta"); }
  const auto stats = obs::SummarizeTrace();
  ASSERT_EQ(stats.size(), 2u);
  int64_t total = 0;
  for (const auto& s : stats) total += s.count;
  EXPECT_EQ(total, 3);
  const std::string table = obs::FormatTraceSummary();
  EXPECT_NE(table.find("alpha"), std::string::npos);
  EXPECT_NE(table.find("beta"), std::string::npos);
}

// ---- Federated runs: determinism and non-perturbation ----

/// Tiny rFedAvg+ fixture (the algorithm exercising the most span kinds:
/// map broadcast/sync, MMD penalty, conv/GEMM kernels).
struct ObsFixture {
  ObsFixture()
      : rng(1234),
        data(GenerateImageData(MnistLikeProfile(), 120, 60, &rng)),
        split(SimilarityPartition(data.train, 3, 0.5, &rng)) {
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

FlConfig ObsConfig(int num_threads, int kernel_threads) {
  FlConfig config;
  config.local_steps = 2;
  config.batch_size = 8;
  config.lr = 0.05;
  config.seed = 77;
  config.max_examples_per_pass = 32;
  config.num_threads = num_threads;
  config.kernel_threads = kernel_threads;
  return config;
}

Tensor RunFixture(const FlConfig& config, int rounds) {
  ObsFixture fx;
  RegularizerOptions reg;
  reg.lambda = 0.01;
  RFedAvgPlus algo(config, reg, &fx.data.train, fx.views, fx.factory);
  TrainerOptions options;
  options.eval_max_examples = 60;
  FederatedTrainer trainer(&algo, &fx.data.test, options);
  trainer.Run(rounds);
  return algo.global_state();
}

void ExpectBitIdentical(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.size(), b.size());
  for (int64_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.at(i), b.at(i)) << "element " << i;
  }
}

TEST_F(ObsTest, GoldenModelByteIdenticalTracingOnVsOff) {
  FlConfig config = ObsConfig(1, 1);
  const Tensor untraced = RunFixture(config, 2);
  config.trace = true;
  const Tensor traced = RunFixture(config, 2);
  EXPECT_FALSE(obs::CollectTrace().empty());
  ExpectBitIdentical(untraced, traced);
}

/// Per-name span counts from a traced run of the fixture.
std::map<std::string, int64_t> SpanCounts(int num_threads,
                                          int kernel_threads) {
  obs::ClearTrace();
  FlConfig config = ObsConfig(num_threads, kernel_threads);
  config.trace = true;
  RunFixture(config, 2);
  std::map<std::string, int64_t> counts;
  for (const auto& lane : obs::CollectTrace()) {
    for (const auto& ev : lane.events) ++counts[ev.name];
  }
  obs::EnableTracing(false);
  return counts;
}

TEST_F(ObsTest, SpanCountsInvariantAcrossThreadCounts) {
  const auto serial = SpanCounts(1, 1);
  // The serial run covers every span kind the round loop emits.
  for (const char* name :
       {"round", "select", "broadcast", "local_train", "upload", "aggregate",
        "evaluate", "mmd_penalty", "map_broadcast", "map_sync", "backward",
        "optimizer_step", "relu_fwd", "relu_bwd", "conv2d_fwd",
        "conv2d_bwd"}) {
    EXPECT_GT(serial.count(name), 0u) << name;
  }
  // The CNN's ReLU and pool run inside conv2d_fwd's epilogue, and their
  // backward inside conv2d_bwd.
  EXPECT_EQ(serial.count("maxpool_fwd"), 0u);
  EXPECT_EQ(serial.count("maxpool_bwd"), 0u);
  EXPECT_EQ(serial.count("relu_pool_bwd"), 0u);
  EXPECT_GE(serial.size(), 6u);
  for (const int num_threads : {1, 4}) {
    for (const int kernel_threads : {1, 4}) {
      if (num_threads == 1 && kernel_threads == 1) continue;
      const auto counts = SpanCounts(num_threads, kernel_threads);
      EXPECT_EQ(counts, serial)
          << "num_threads=" << num_threads
          << " kernel_threads=" << kernel_threads;
    }
  }
}

TEST_F(ObsTest, SerialEventStreamIsDeterministic) {
  using Sig = std::vector<std::pair<std::string, std::pair<int, int64_t>>>;
  const auto signature = [] {
    obs::ClearTrace();
    FlConfig config = ObsConfig(1, 1);
    config.trace = true;
    RunFixture(config, 2);
    Sig sig;
    for (const auto& lane : obs::CollectTrace()) {
      for (const auto& ev : lane.events) {
        sig.emplace_back(ev.name, std::make_pair(ev.depth, ev.seq));
      }
    }
    return sig;
  };
  const Sig first = signature();
  const Sig second = signature();
  // Two serial runs produce the exact same (name, depth, seq) stream;
  // only wall timestamps may differ.
  EXPECT_EQ(first, second);
  EXPECT_FALSE(first.empty());
}

TEST_F(ObsTest, SpansNestProperlyWithinEachLane) {
  FlConfig config = ObsConfig(4, 1);
  config.trace = true;
  RunFixture(config, 2);
  for (const auto& lane : obs::CollectTrace()) {
    // Replay the stream against a stack: an event of depth d closes when
    // every deeper event before it has closed, and (end-append order)
    // must lie inside the wall interval of the parent that closes later.
    std::vector<const obs::TraceEvent*> open;
    for (const auto& ev : lane.events) {
      EXPECT_GE(ev.dur_us, 0.0);
      while (!open.empty() && open.back()->depth >= ev.depth) {
        open.pop_back();
      }
      open.push_back(&ev);
    }
    // Stronger containment check: for consecutive events where the next
    // has smaller depth, the earlier (child) interval is inside it.
    for (size_t i = 0; i + 1 < lane.events.size(); ++i) {
      const auto& child = lane.events[i];
      const auto& next = lane.events[i + 1];
      if (next.depth < child.depth) {
        const double slack_us = 1e3;  // clock granularity headroom
        EXPECT_GE(child.start_us + slack_us, next.start_us);
        EXPECT_LE(child.start_us + child.dur_us,
                  next.start_us + next.dur_us + slack_us);
      }
    }
  }
}

// ---- Chrome trace export ----

/// Minimal structural JSON scan: balanced {} and [] outside strings.
void ExpectBalancedJson(const std::string& text) {
  int brace = 0, bracket = 0;
  bool in_string = false, escaped = false;
  for (char c : text) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (in_string) {
      if (c == '\\') escaped = true;
      if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{') ++brace;
    if (c == '}') --brace;
    if (c == '[') ++bracket;
    if (c == ']') --bracket;
    EXPECT_GE(brace, 0);
    EXPECT_GE(bracket, 0);
  }
  EXPECT_EQ(brace, 0);
  EXPECT_EQ(bracket, 0);
  EXPECT_FALSE(in_string);
}

TEST_F(ObsTest, ChromeTraceJsonIsWellFormed) {
  FlConfig config = ObsConfig(1, 1);
  config.trace = true;
  RunFixture(config, 2);
  const std::string path = ::testing::TempDir() + "/obs_trace.json";
  obs::WriteChromeTrace(path);

  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string text;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());

  ExpectBalancedJson(text);
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"M\""), std::string::npos);

  // >= 6 distinct phase span names in the export (acceptance criterion).
  std::set<std::string> names;
  const std::string needle = "\"name\":\"";
  for (size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + 1)) {
    const size_t begin = pos + needle.size();
    const size_t end = text.find('"', begin);
    ASSERT_NE(end, std::string::npos);
    names.insert(text.substr(begin, end - begin));
  }
  names.erase("thread_name");  // metadata, not a phase
  EXPECT_GE(names.size(), 6u) << "distinct span names: " << names.size();
}

// ---- Per-round metric snapshots ----

TEST_F(ObsTest, RoundMetricsCarryRegistryDeltas) {
  ObsFixture fx;
  RegularizerOptions reg;
  reg.lambda = 0.01;
  RFedAvgPlus algo(ObsConfig(1, 1), reg, &fx.data.train, fx.views,
                   fx.factory);
  TrainerOptions options;
  options.eval_max_examples = 60;
  FederatedTrainer trainer(&algo, &fx.data.test, options);
  RunHistory history = trainer.Run(2);
  ASSERT_EQ(history.rounds.size(), 2u);
  for (const RoundMetrics& round : history.rounds) {
    ASSERT_FALSE(round.metrics.empty());
    std::map<std::string, double> by_name(round.metrics.begin(),
                                          round.metrics.end());
    // The registry's byte deltas must agree with the legacy ledger-based
    // fields: FaultChannel::Charge is the single path for both.
    EXPECT_DOUBLE_EQ(by_name.at("comm.down_bytes") + by_name.at("comm.up_bytes"),
                     static_cast<double>(round.round_bytes));
    EXPECT_DOUBLE_EQ(by_name.at("channel.delivered"),
                     static_cast<double>(round.delivered_messages));
    EXPECT_DOUBLE_EQ(by_name.at("channel.dropped"),
                     static_cast<double>(round.dropped_messages));
    // rFedAvg+ ships δ-maps both ways every round.
    EXPECT_GT(by_name.at("comm.down_bytes.map"), 0.0);
    EXPECT_GT(by_name.at("comm.up_bytes.map"), 0.0);
  }
}

}  // namespace
}  // namespace rfed
