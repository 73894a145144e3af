// Cross-device scale sweep: pool-mode FedAvg (and rFedAvg+ at the
// smaller sizes) over enrolled populations N in {1k, 10k, 100k, 1M}
// with a *fixed* sampled cohort, demonstrating that lazy client state
// plus the streaming tree mean make per-round cost a
// function of the cohort, not of N: ms/round and ms/sampled-client stay
// flat while N grows 1000x, and resident client state tracks the
// sampled set only. Results land in BENCH_scale.json.
//
// Usage:
//   ./build/bench/bench_scale                  # full sweep
//   ./build/bench/bench_scale --out path.json  # custom output
//   ./build/bench/bench_scale --smoke          # <2 s gate: N=1k run plus
//       a lazy-vs-eager bit-identity differential, no JSON (the
//       `bench_scale_smoke` ctest target, label "scale")

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "data/client_pool.h"
#include "data/synthetic_images.h"
#include "fl/fedavg.h"
#include "core/rfedavg.h"
#include "nn/models.h"
#include "obs/metrics.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace rfed {
namespace {

/// Reads a kB-valued row ("VmHWM:   12345 kB") from /proc/self/status;
/// 0 when unavailable (non-Linux).
long ProcStatusKb(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  long kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, key, std::strlen(key)) == 0) {
      std::sscanf(line + std::strlen(key), " %ld", &kb);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

struct SweepCase {
  const char* algorithm;
  int clients;
};

struct SweepResult {
  SweepCase spec;
  int cohort = 0;
  int rounds = 0;
  double ms_per_round = 0.0;
  double ms_per_sampled_client = 0.0;
  double final_loss = 0.0;
  int materialized_clients = 0;
  long client_state_bytes = 0;
  long vm_rss_kb = 0;  ///< resident set after the case
};

FlConfig ScaleConfig(int clients, int cohort) {
  FlConfig config;
  config.local_steps = 2;
  config.batch_size = 8;
  config.lr = 0.05;
  config.seed = 77;
  config.max_examples_per_pass = 64;
  config.sample_ratio = static_cast<double>(cohort) / clients;
  config.stream_chunk = 32;  // never buffer the whole cohort
  return config;
}

ClientPoolOptions PoolOpts(int clients) {
  ClientPoolOptions o;
  o.num_clients = clients;
  o.examples_per_client = 32;
  o.similarity = 0.3;
  o.seed = 99;
  return o;
}

ModelFactory TinyCnnFactory() {
  CnnConfig mc;
  mc.conv1_channels = 2;
  mc.conv2_channels = 4;
  mc.feature_dim = 8;
  return MakeCnnFactory(mc);
}

SweepResult RunCase(const SweepCase& spec, const Dataset& train, int cohort,
                    int rounds) {
  const ModelFactory factory = TinyCnnFactory();
  ClientPool pool(&train, nullptr, PoolOpts(spec.clients));
  FlConfig config = ScaleConfig(spec.clients, cohort);
  std::unique_ptr<FederatedAlgorithm> algo;
  if (std::strcmp(spec.algorithm, "rFedAvg+") == 0) {
    RegularizerOptions reg;
    reg.lambda = 1e-3;
    // rFedAvg+'s second map-sync exchange makes it the heavier client of
    // the same lazy/sharded machinery; streaming stays on (mean path).
    algo = std::make_unique<RFedAvgPlus>(config, reg, &pool, factory);
  } else {
    algo = std::make_unique<FedAvg>(config, &pool, factory);
  }

  SweepResult result;
  result.spec = spec;
  result.cohort = cohort;
  result.rounds = rounds;
  Stopwatch sw;
  for (int r = 0; r < rounds; ++r) {
    result.final_loss = algo->RunRound(r).train_loss;
  }
  const double total_ms = sw.ElapsedMillis();
  result.ms_per_round = total_ms / rounds;
  result.ms_per_sampled_client = total_ms / rounds / cohort;
  result.materialized_clients = algo->materialized_clients();
  result.client_state_bytes = static_cast<long>(
      obs::MetricsRegistry::Get().GetGauge("data.client_state_bytes")->value());
  result.vm_rss_kb = ProcStatusKb("VmRSS:");
  return result;
}

void WriteJson(const std::string& path, const std::vector<SweepResult>& rows,
               long vm_hwm_kb) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"scale\",\n");
  std::fprintf(f,
               "  \"note\": \"fixed sampled cohort over growing enrolled "
               "populations; flat ms_per_round and materialized state prove "
               "per-round cost is O(cohort), not O(N)\",\n");
  std::fprintf(f, "  \"vm_hwm_kb\": %ld,\n", vm_hwm_kb);
  std::fprintf(f, "  \"cases\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const SweepResult& r = rows[i];
    std::fprintf(
        f,
        "    {\"algorithm\": \"%s\", \"clients\": %d, \"cohort\": %d, "
        "\"rounds\": %d, \"ms_per_round\": %.1f, "
        "\"ms_per_sampled_client\": %.3f, \"final_loss\": %.6f, "
        "\"materialized_clients\": %d, \"client_state_bytes\": %ld, "
        "\"vm_rss_kb\": %ld}%s\n",
        r.spec.algorithm, r.spec.clients, r.cohort, r.rounds, r.ms_per_round,
        r.ms_per_sampled_client, r.final_loss, r.materialized_clients,
        r.client_state_bytes, r.vm_rss_kb, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

int Smoke(const Dataset& train) {
  // Gate 1: a pool run at N=1k must only materialize its cohorts.
  const SweepResult r = RunCase({"FedAvg", 1000}, train, 32, 2);
  if (r.materialized_clients > 2 * 32) {
    std::fprintf(stderr, "smoke FAILED: %d clients materialized for two "
                         "32-client cohorts\n", r.materialized_clients);
    return 1;
  }
  // Gate 2: lazy == eager, bit for bit, on a small pool.
  const ModelFactory factory = TinyCnnFactory();
  ClientPool pool(&train, nullptr, PoolOpts(200));
  const FlConfig config = ScaleConfig(200, 16);
  FedAvg lazy(config, &pool, factory);
  FedAvg eager(config, &pool, factory);
  eager.MaterializeAllClients();
  for (int round = 0; round < 2; ++round) {
    lazy.RunRound(round);
    eager.RunRound(round);
  }
  const Tensor& a = lazy.global_state();
  const Tensor& b = eager.global_state();
  for (int64_t i = 0; i < a.size(); ++i) {
    if (a.at(i) != b.at(i)) {
      std::fprintf(stderr, "smoke FAILED: lazy != eager at coordinate %lld\n",
                   static_cast<long long>(i));
      return 1;
    }
  }
  std::printf("smoke OK: O(cohort) materialization, lazy == eager bitwise\n");
  return 0;
}

int Main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  const bool smoke = flags.GetBool("smoke", false);
  const std::string out = flags.GetString("out", smoke ? "" : "BENCH_scale.json");

  Rng rng(4321);
  const SyntheticImageData data =
      GenerateImageData(MnistLikeProfile(), 4096, 512, &rng);
  if (smoke) return Smoke(data.train);

  const SweepCase cases[] = {
      {"FedAvg", 1000},       {"FedAvg", 10000}, {"FedAvg", 100000},
      {"FedAvg", 1000000},    {"rFedAvg+", 1000}, {"rFedAvg+", 10000},
  };
  std::vector<SweepResult> rows;
  for (const SweepCase& spec : cases) {
    const SweepResult r = RunCase(spec, data.train, /*cohort=*/128,
                                  /*rounds=*/2);
    rows.push_back(r);
    std::printf(
        "%-8s N=%-8d cohort=%d  %7.1f ms/round  %6.3f ms/client  "
        "materialized=%d  state=%ldB  rss=%ldkB\n",
        r.spec.algorithm, r.spec.clients, r.cohort, r.ms_per_round,
        r.ms_per_sampled_client, r.materialized_clients, r.client_state_bytes,
        r.vm_rss_kb);
  }
  if (!out.empty()) WriteJson(out, rows, ProcStatusKb("VmHWM:"));
  return 0;
}

}  // namespace
}  // namespace rfed

int main(int argc, char** argv) { return rfed::Main(argc, argv); }
