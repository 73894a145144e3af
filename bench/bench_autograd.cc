// Autograd-layer sweep: the same tiny federated workloads executed under
// each tape strategy — per-step graph rebuild (the pre-arena behavior),
// static-graph replay, and replay + gradient checkpointing — timing
// ms/round and reading the autograd.* gauges so the arena's two claims
// are measured, not asserted: replay cuts round time and allocations,
// checkpointing cuts tape_peak_bytes. Results land in
// BENCH_autograd.json and the headline rows are quoted in
// EXPERIMENTS.md; the strategies are bit-identical by contract
// (docs/AUTOGRAD.md), which the smoke gate re-proves on every CI run.
//
// Each row also times one client's local training alone
// (us_per_job_best): after the rounds, the process is pinned to the CPU
// it runs on and blocks of back-to-back ExecuteLocalTraining calls are
// timed; the best block's mean is the per-job cost with the least host
// noise. The `mlp` rows train the served round benchmark's MLP
// (mnist_mlp_fedavg_serve: 32 clients, batch 8, 5 local steps), whose
// jobs run on the workers, where a traced round cannot attribute them.
//
// Usage:
//   ./build/bench/bench_autograd                  # full sweep
//   ./build/bench/bench_autograd --out path.json  # custom output
//   ./build/bench/bench_autograd --smoke          # <2 s gate: static
//       on/off bit-identity plus the O(1) allocs-per-replayed-step
//       invariant for the CNN and the MLP, no JSON (the
//       `bench_autograd_smoke` ctest target, label "autograd")

#include <sched.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "data/partition.h"
#include "data/synthetic_images.h"
#include "data/synthetic_text.h"
#include "fl/fedavg.h"
#include "fl/trainer.h"
#include "nn/models.h"
#include "obs/metrics.h"
#include "tensor/buffer_pool.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace rfed {
namespace {

// us_per_job_best: the best of kJobBlocks blocks; a block is kBlockJobs
// calls for the MLP (about 85 us each) and kBlockJobs / 8 for the CNN
// and LSTM, whose jobs cost milliseconds.
constexpr int kJobBlocks = 60;
constexpr int kBlockJobs = 64;

struct SweepCase {
  const char* model;       ///< "cnn" | "lstm" | "mlp"
  bool static_graph;
  bool checkpoint;
};

struct SweepResult {
  SweepCase spec;
  int rounds = 0;
  double ms_per_round = 0.0;
  double final_loss = 0.0;
  long tape_peak_bytes = 0;
  long allocs_per_step = 0;  ///< last recorded per-step delta
  double us_per_job_best = 0.0;  ///< 0 when not timed (smoke)
};

std::vector<ClientView> ViewsOf(const ClientSplit& split) {
  std::vector<ClientView> views;
  for (const auto& idx : split.client_indices) views.push_back({idx, {}});
  return views;
}

FlConfig BaseConfig(const SweepCase& spec) {
  FlConfig config;
  config.local_steps = 8;
  config.batch_size = 16;
  config.lr = 0.05;
  config.seed = 77;
  config.max_examples_per_pass = 128;
  config.autograd.static_graph = spec.static_graph;
  config.autograd.checkpoint = spec.checkpoint;
  if (std::strcmp(spec.model, "lstm") == 0) {
    config.lr = 0.01;
    config.optimizer = OptimizerKind::kRmsProp;
  } else if (std::strcmp(spec.model, "mlp") == 0) {
    config.local_steps = 5;
    config.batch_size = 8;
    config.lr = 0.08;
  }
  return config;
}

/// Pins the process to the CPU it is running on, so the timed blocks
/// do not migrate mid-block.
void PinToCurrentCpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  sched_setaffinity(0, sizeof(one), &one);
}

/// Best-of-blocks microseconds per ExecuteLocalTraining call, cycling
/// over the clients with the trained global model installed.
double BestMicrosPerJob(FederatedAlgorithm* algo, int round, int block_jobs) {
  double best_us = 0.0;
  int client = 0;
  for (int block = 0; block < kJobBlocks; ++block) {
    Stopwatch sw;
    for (int j = 0; j < block_jobs; ++j) {
      algo->ExecuteLocalTraining(round, client);
      client = (client + 1) % algo->num_clients();
    }
    const double us = sw.ElapsedMillis() * 1000.0 / block_jobs;
    if (block == 0 || us < best_us) best_us = us;
  }
  return best_us;
}

SweepResult RunCase(const SweepCase& spec, int rounds, bool time_jobs) {
  SweepResult result;
  result.spec = spec;
  result.rounds = rounds;
  BufferPool::ResetPeak();

  FlConfig config = BaseConfig(spec);
  std::unique_ptr<FederatedAlgorithm> algo;
  Rng rng(1234);
  std::unique_ptr<SyntheticImageData> image_data;
  std::unique_ptr<SyntheticTextData> text_data;
  const Dataset* test = nullptr;
  if (std::strcmp(spec.model, "cnn") == 0) {
    image_data = std::make_unique<SyntheticImageData>(
        GenerateImageData(MnistLikeProfile(), 640, 160, &rng));
    auto split = SimilarityPartition(image_data->train, 4, 0.5, &rng);
    CnnConfig mc;
    mc.conv1_channels = 4;
    mc.conv2_channels = 8;
    mc.feature_dim = 16;
    algo = std::make_unique<FedAvg>(config, &image_data->train, ViewsOf(split),
                                    MakeCnnFactory(mc));
    test = &image_data->test;
  } else if (std::strcmp(spec.model, "mlp") == 0) {
    const ImageProfile profile = MnistLikeProfile();
    image_data = std::make_unique<SyntheticImageData>(
        GenerateImageData(profile, 1500, 100, &rng));
    auto split = SimilarityPartition(image_data->train, 32, 0.0, &rng);
    MlpConfig mc;
    mc.in_channels = profile.channels;
    mc.image_size = profile.image_size;
    algo = std::make_unique<FedAvg>(config, &image_data->train, ViewsOf(split),
                                    MakeMlpFactory(mc));
    test = &image_data->test;
  } else {
    TextProfile profile = Sent140LikeProfile();
    profile.num_users = 20;
    text_data = std::make_unique<SyntheticTextData>(
        GenerateTextData(profile, 640, 160, &rng));
    auto split =
        NaturalPartition(text_data->train_users, profile.num_users, 4, &rng);
    LstmConfig mc;
    mc.vocab_size = profile.vocab_size;
    mc.embed_dim = 8;
    mc.hidden_dim = 16;
    mc.feature_dim = 16;
    algo = std::make_unique<FedAvg>(config, &text_data->train, ViewsOf(split),
                                    MakeLstmFactory(mc));
    test = &text_data->test;
  }

  TrainerOptions options;
  options.eval_max_examples = 0;  // time the training path only
  FederatedTrainer trainer(algo.get(), test, options);
  Stopwatch sw;
  RunHistory history = trainer.Run(rounds);
  const double total_ms = sw.ElapsedMillis();
  result.ms_per_round = total_ms / rounds;
  result.final_loss = history.rounds.back().train_loss;
  auto& registry = obs::MetricsRegistry::Get();
  result.tape_peak_bytes =
      static_cast<long>(registry.GetGauge("autograd.tape_peak_bytes")->value());
  result.allocs_per_step =
      static_cast<long>(registry.GetGauge("autograd.allocs_per_step")->value());
  if (time_jobs) {
    const bool mlp = std::strcmp(spec.model, "mlp") == 0;
    result.us_per_job_best = BestMicrosPerJob(
        algo.get(), rounds, mlp ? kBlockJobs : kBlockJobs / 8);
  }
  return result;
}

void WriteJson(const std::string& path, const std::vector<SweepResult>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"autograd\",\n");
  std::fprintf(f,
               "  \"note\": \"identical federated workloads under each tape "
               "strategy; losses match bitwise across rows of the same model "
               "while ms_per_round, tape_peak_bytes and allocs_per_step "
               "differ\",\n");
  std::fprintf(f, "  \"cases\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const SweepResult& r = rows[i];
    std::fprintf(
        f,
        "    {\"model\": \"%s\", \"static_graph\": %s, \"checkpoint\": %s, "
        "\"rounds\": %d, \"ms_per_round\": %.1f, \"final_loss\": %.6f, "
        "\"tape_peak_bytes\": %ld, \"allocs_per_step\": %ld, "
        "\"us_per_job_best\": %.1f}%s\n",
        r.spec.model, r.spec.static_graph ? "true" : "false",
        r.spec.checkpoint ? "true" : "false", r.rounds, r.ms_per_round,
        r.final_loss, r.tape_peak_bytes, r.allocs_per_step,
        r.us_per_job_best, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

int Smoke() {
  for (const char* model : {"cnn", "mlp"}) {
    // Gate 1: static replay == per-step rebuild, bit for bit.
    const SweepResult replayed = RunCase({model, true, false}, 2, false);
    const SweepResult rebuilt = RunCase({model, false, false}, 2, false);
    if (replayed.final_loss != rebuilt.final_loss) {
      std::fprintf(stderr, "smoke FAILED: %s static %.17g != rebuilt %.17g\n",
                   model, replayed.final_loss, rebuilt.final_loss);
      return 1;
    }
    // Gate 2: replayed steps allocate nothing after warm-up.
    if (replayed.allocs_per_step != 0) {
      std::fprintf(stderr,
                   "smoke FAILED: %s: %ld allocs on a warmed-up replayed "
                   "step\n",
                   model, replayed.allocs_per_step);
      return 1;
    }
  }
  std::printf("smoke OK: static == rebuilt bitwise, 0 allocs per replayed "
              "step (cnn, mlp)\n");
  return 0;
}

int Main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  const bool smoke = flags.GetBool("smoke", false);
  const std::string out =
      flags.GetString("out", smoke ? "" : "BENCH_autograd.json");
  if (smoke) return Smoke();

  PinToCurrentCpu();
  const SweepCase cases[] = {
      {"cnn", false, false}, {"cnn", true, false},
      {"lstm", false, false}, {"lstm", true, false}, {"lstm", true, true},
      {"mlp", false, false}, {"mlp", true, false},
  };
  std::vector<SweepResult> rows;
  for (const SweepCase& spec : cases) {
    const SweepResult r = RunCase(spec, /*rounds=*/4, /*time_jobs=*/true);
    rows.push_back(r);
    std::printf(
        "%-5s static=%d ckpt=%d  %7.1f ms/round  loss=%.6f  "
        "tape_peak=%ldB  allocs/step=%ld  best %.1f us/job\n",
        r.spec.model, r.spec.static_graph ? 1 : 0, r.spec.checkpoint ? 1 : 0,
        r.ms_per_round, r.final_loss, r.tape_peak_bytes, r.allocs_per_step,
        r.us_per_job_best);
  }
  if (!out.empty()) WriteJson(out, rows);
  return 0;
}

}  // namespace
}  // namespace rfed

int main(int argc, char** argv) { return rfed::Main(argc, argv); }
