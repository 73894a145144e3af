// Configurable experiment runner — the "downstream user" entry point.
// Pick a dataset profile, partition, algorithm and hyperparameters from
// the command line and get the training curve plus communication totals.
//
// Examples:
//   ./build/examples/experiment_cli --dataset cifar --method rFedAvg+
//       --clients 10 --similarity 0 --rounds 20 --lambda 1e-3
//   ./build/examples/experiment_cli --dataset sent140 --method FedAvg
//       --clients 20 --sample_ratio 0.2 --rounds 10
//   ./build/examples/experiment_cli --dataset mnist --method Scaffold
//       --compressor topk10 --selection loss
//
// Flags (defaults in parentheses):
//   --dataset mnist|cifar|femnist|sent140 (mnist)   --method <name> (rFedAvg+)
//   --clients N (10)        --similarity 0..1 (0)   --rounds C (15)
//   --local_steps E (5)     --batch B (24)          --sample_ratio SR (1.0)
//   --lr (0.08 / 0.01 text) --lambda (1e-3 / 1e-4)  --dp_sigma (0)
//   --compressor none|q8|q4|topk10|topk1|sketch (none)
//   --selection uniform|loss (uniform)
//   --model cnn|mlp (cnn, image datasets only)
//   --train_examples (1500) --test_examples (400)   --seed (1)
//   --fine_tune (false: also report personalized accuracy)
//   --drop/--corrupt/--duplicate/--delay 0..1 (0)   fault channel probs
//   --mean_delay_ms (50)    --timeout_ms (250, 0=off) --retries (0)
//   --sim_mode sync|deadline|async (sync)           round policy
//   --compute_model constant|lognormal|drift (constant)
//   --compute_ms per-step virtual ms (0 = free)     --compute_sigma (1.0)
//   --compute_drift (0.05)  --compute_spread (0)    device heterogeneity
//   --down_bw/--up_bw bytes per virtual ms (0 = infinite)
//   --base_latency_ms (0)   --deadline_ms (deadline mode, required > 0)
//   --async_buffer K arrivals per server update (2)
//   --num_threads parallel local training (1 = sequential)
//   --kernel_threads intra-op GEMM/conv threads (1 = serial kernels;
//       any value is bit-identical, see docs/KERNELS.md)
//   --trace / --trace_out / --csv_out observability outputs
//       (docs/OBSERVABILITY.md); run `--help` for the full list

#include <cstdio>
#include <cstring>

#include "core/personalization.h"
#include "core/rfedavg.h"
#include "data/partition.h"
#include "data/synthetic_images.h"
#include "data/synthetic_text.h"
#include "fl/checkpoint.h"
#include "fl/fedavg.h"
#include "fl/fednova.h"
#include "fl/fedprox.h"
#include "fl/qfedavg.h"
#include "fl/scaffold.h"
#include "fl/trainer.h"
#include "obs/trace.h"
#include "util/flags.h"

namespace {

using namespace rfed;

// Every flag the CLI accepts, in --help order. docs_check greps the
// --help output for the flag names referenced in docs/, so keep this
// list in sync with the Get*() calls in main().
constexpr const char* kUsage = R"(usage: experiment_cli [--flag value | --flag=value ...]

Experiment (defaults in parentheses):
  --dataset mnist|cifar|femnist|sent140 (mnist)
  --method FedAvg|FedProx|Scaffold|q-FedAvg|FedNova|rFedAvg|rFedAvg+ (rFedAvg+)
  --clients N (10)          --similarity 0..1 (0)     --rounds C (15)
  --local_steps E (5)       --batch B (24; 10 text)   --sample_ratio SR (1.0)
  --lr (0.08; 0.01 text)    --lambda (1e-3; 1e-4 text) --dp_sigma (0)
  --compressor none|q8|q4|topk10|topk1|sketch (none)
  --selection uniform|loss (uniform)
  --model cnn|mlp (cnn, image datasets only)
  --train_examples (1500)   --test_examples (400)     --seed (1)
  --eval_every (1)          --fine_tune (false: also report personalized acc)

Fault channel (per-attempt probabilities):
  --drop/--corrupt/--duplicate/--delay 0..1 (0)
  --mean_delay_ms (50)      --timeout_ms (250, 0=off) --retries (0)

Sim runtime:
  --sim_mode sync|deadline|async (sync)
  --compute_model constant|lognormal|drift (constant)
  --compute_ms per-step virtual ms (0 = free)         --compute_sigma (1.0)
  --compute_drift (0.05)    --compute_spread (0)
  --down_bw/--up_bw bytes per virtual ms (0 = infinite)
  --base_latency_ms (0)     --deadline_ms (deadline mode, required > 0)
  --async_buffer K arrivals per server update (2)

Adversarial clients (seeded, deterministic; docs/ARCHITECTURE.md):
  --adversary none|nan|sign_flip|scale|noise|label_flip (none)
  --adversary_frac fraction of clients compromised (0.2)
  --adversary_scale delta blow-up of the scale attack (100)
  --adversary_sigma stddev of the noise attack (1)

Robust aggregation (server side):
  --aggregator mean|trimmed_mean|median|norm_clip (mean)
  --trim_fraction per-side trim of trimmed_mean (0.2)
  --clip_multiplier norm bound as a multiple of the median delta norm (3)
  --validate screen non-finite updates/maps before aggregation (true)

Checkpoint / resume (bit-identical crash recovery):
  --checkpoint_every write a run checkpoint every k rounds (0 = never)
  --checkpoint_path PATH of the checkpoint file (required with the above)
  --resume_from PATH restore a checkpoint and continue to --rounds

Parallelism (bit-identical at any setting):
  --num_threads parallel local training (1 = sequential)
  --kernel_threads intra-op GEMM/conv threads (1 = serial kernels)

Autograd (bit-identical at any setting; docs/AUTOGRAD.md):
  --autograd_static record each client bout's step-0 graph and replay it
      for the remaining local steps (true)
  --grad_checkpoint drop LSTM per-timestep activations at segment close
      and rematerialize them during backward; ~one extra forward per
      timestep for O(1)-per-timestep activation memory (false)

Scale (hierarchical aggregation; docs/ARCHITECTURE.md):
  --shard_fanout updates per shard task of the canonical aggregation
      tree (power of two; 0 = flat loop, byte-identical to goldens;
      any power of two yields one canonical tree result)
  --stream_chunk train/fold the cohort in chunks of this many clients
      (requires --shard_fanout > 0; mean-aggregating methods only;
      0 = all-at-once)

Observability (docs/OBSERVABILITY.md):
  --trace record phase/kernel spans and print the per-phase summary (false)
  --trace_out PATH write spans as Chrome trace_event JSON (implies --trace;
      load in chrome://tracing or https://ui.perfetto.dev)
  --csv_out PATH write the per-round history, including the metric
      registry's per-round snapshots, as CSV

  --help print this message and exit
)";

constexpr const char* kKnownFlags[] = {
    "dataset", "method", "clients", "similarity", "rounds", "local_steps",
    "batch", "sample_ratio", "lr", "lambda", "dp_sigma", "compressor",
    "selection", "model", "train_examples", "test_examples", "seed",
    "eval_every", "fine_tune", "drop", "corrupt", "duplicate", "delay",
    "mean_delay_ms", "timeout_ms", "retries", "sim_mode", "compute_model",
    "compute_ms", "compute_sigma", "compute_drift", "compute_spread",
    "down_bw", "up_bw", "base_latency_ms", "deadline_ms", "async_buffer",
    "adversary", "adversary_frac", "adversary_scale", "adversary_sigma",
    "aggregator", "trim_fraction", "clip_multiplier", "validate",
    "checkpoint_every", "checkpoint_path", "resume_from",
    "num_threads", "kernel_threads", "autograd_static", "grad_checkpoint",
    "shard_fanout", "stream_chunk",
    "trace", "trace_out", "csv_out", "help"};

std::unique_ptr<FederatedAlgorithm> Build(
    const std::string& method, const FlConfig& fl,
    const RegularizerOptions& reg, const Dataset* train,
    const std::vector<ClientView>& views, const ModelFactory& factory) {
  if (method == "FedAvg") {
    return std::make_unique<FedAvg>(fl, train, views, factory);
  }
  if (method == "FedProx") {
    return std::make_unique<FedProx>(fl, 1.0, train, views, factory);
  }
  if (method == "Scaffold") {
    return std::make_unique<Scaffold>(fl, train, views, factory);
  }
  if (method == "q-FedAvg") {
    return std::make_unique<QFedAvg>(fl, 1.0, train, views, factory);
  }
  if (method == "FedNova") {
    return std::make_unique<FedNova>(fl, 4 * fl.local_steps, train, views,
                                     factory);
  }
  if (method == "rFedAvg") {
    return std::make_unique<RFedAvg>(fl, reg, train, views, factory);
  }
  if (method == "rFedAvg+") {
    return std::make_unique<RFedAvgPlus>(fl, reg, train, views, factory);
  }
  std::fprintf(stderr, "unknown --method %s\n", method.c_str());
  std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  if (flags.GetBool("help", false)) {
    std::fputs(kUsage, stdout);
    return 0;
  }
  for (const std::string& key : flags.Keys()) {
    bool known = false;
    for (const char* k : kKnownFlags) {
      if (key == k) {
        known = true;
        break;
      }
    }
    if (!known) {
      std::fprintf(stderr, "unknown flag --%s (see --help)\n", key.c_str());
      return 1;
    }
  }
  const std::string dataset = flags.GetString("dataset", "mnist");
  const std::string method = flags.GetString("method", "rFedAvg+");
  const int clients = flags.GetInt("clients", 10);
  const double similarity = flags.GetDouble("similarity", 0.0);
  const int rounds = flags.GetInt("rounds", 15);
  const int train_examples = flags.GetInt("train_examples", 1500);
  const int test_examples = flags.GetInt("test_examples", 400);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const bool is_text = dataset == "sent140";

  FlConfig fl;
  fl.local_steps = flags.GetInt("local_steps", 5);
  fl.batch_size = flags.GetInt("batch", is_text ? 10 : 24);
  fl.sample_ratio = flags.GetDouble("sample_ratio", 1.0);
  fl.lr = flags.GetDouble("lr", is_text ? 0.01 : 0.08);
  fl.optimizer = is_text ? OptimizerKind::kRmsProp : OptimizerKind::kSgd;
  fl.seed = seed;
  fl.upload_compressor = flags.GetString("compressor", "none");
  fl.client_selection = flags.GetString("selection", "uniform");
  fl.fault.drop_prob = flags.GetDouble("drop", 0.0);
  fl.fault.corrupt_prob = flags.GetDouble("corrupt", 0.0);
  fl.fault.duplicate_prob = flags.GetDouble("duplicate", 0.0);
  fl.fault.delay_prob = flags.GetDouble("delay", 0.0);
  fl.fault.mean_delay_ms = flags.GetDouble("mean_delay_ms", 50.0);
  fl.fault.round_timeout_ms = flags.GetDouble("timeout_ms", 250.0);
  fl.fault.max_retries = flags.GetInt("retries", 0);
  const std::string sim_mode = flags.GetString("sim_mode", "sync");
  if (!ParseSimMode(sim_mode, &fl.sim.mode)) {
    std::fprintf(stderr, "unknown --sim_mode %s\n", sim_mode.c_str());
    return 1;
  }
  const std::string compute_model =
      flags.GetString("compute_model", "constant");
  if (!ParseComputeModelKind(compute_model, &fl.sim.compute.kind)) {
    std::fprintf(stderr, "unknown --compute_model %s\n",
                 compute_model.c_str());
    return 1;
  }
  fl.sim.compute.mean_ms_per_step = flags.GetDouble("compute_ms", 0.0);
  fl.sim.compute.sigma = flags.GetDouble("compute_sigma", 1.0);
  fl.sim.compute.drift = flags.GetDouble("compute_drift", 0.05);
  fl.sim.compute.hetero_spread = flags.GetDouble("compute_spread", 0.0);
  fl.sim.network.down_bytes_per_ms = flags.GetDouble("down_bw", 0.0);
  fl.sim.network.up_bytes_per_ms = flags.GetDouble("up_bw", 0.0);
  fl.sim.network.base_latency_ms = flags.GetDouble("base_latency_ms", 0.0);
  fl.sim.deadline_ms = flags.GetDouble("deadline_ms", 0.0);
  fl.sim.async_buffer = flags.GetInt("async_buffer", 2);
  fl.adversary.mode = flags.GetString("adversary", "none");
  fl.adversary.fraction = flags.GetDouble("adversary_frac", 0.2);
  fl.adversary.scale = flags.GetDouble("adversary_scale", 100.0);
  fl.adversary.noise_sigma = flags.GetDouble("adversary_sigma", 1.0);
  if (!KnownAdversaryMode(fl.adversary.mode)) {
    std::fprintf(stderr, "unknown --adversary %s\n",
                 fl.adversary.mode.c_str());
    return 1;
  }
  fl.robust.aggregator = flags.GetString("aggregator", "mean");
  fl.robust.trim_fraction = flags.GetDouble("trim_fraction", 0.2);
  fl.robust.clip_multiplier = flags.GetDouble("clip_multiplier", 3.0);
  fl.robust.validate = flags.GetBool("validate", true);
  if (!KnownAggregator(fl.robust.aggregator)) {
    std::fprintf(stderr, "unknown --aggregator %s\n",
                 fl.robust.aggregator.c_str());
    return 1;
  }
  fl.num_threads = flags.GetInt("num_threads", 1);
  fl.kernel_threads = flags.GetInt("kernel_threads", 1);
  fl.autograd.static_graph = flags.GetBool("autograd_static", true);
  fl.autograd.checkpoint = flags.GetBool("grad_checkpoint", false);
  fl.shard_fanout = flags.GetInt("shard_fanout", 0);
  fl.stream_chunk = flags.GetInt("stream_chunk", 0);
  const std::string trace_out = flags.GetString("trace_out", "");
  const std::string csv_out = flags.GetString("csv_out", "");
  fl.trace = flags.GetBool("trace", false) || !trace_out.empty();

  RegularizerOptions reg;
  reg.lambda = flags.GetDouble("lambda", is_text ? 1e-4 : 1e-3);
  reg.dp.sigma = flags.GetDouble("dp_sigma", 0.0);
  reg.dp.batch_size = fl.batch_size;

  // Data + partition + model.
  Rng rng(seed);
  std::unique_ptr<Dataset> train, test;
  std::vector<ClientView> views;
  ModelFactory factory;
  if (is_text) {
    TextProfile profile = Sent140LikeProfile();
    profile.num_users = std::max(4 * clients, 40);
    auto data = GenerateTextData(profile, train_examples, test_examples, &rng);
    auto split = NaturalPartition(data.train_users, profile.num_users,
                                  clients, &rng);
    for (auto& idx : split.client_indices) views.push_back({idx, {}});
    LstmConfig mc;
    mc.vocab_size = profile.vocab_size;
    mc.embed_dim = 8;
    mc.hidden_dim = 16;
    mc.feature_dim = 16;
    factory = MakeLstmFactory(mc);
    train = std::make_unique<Dataset>(std::move(data.train));
    test = std::make_unique<Dataset>(std::move(data.test));
  } else {
    ImageProfile profile = dataset == "cifar"    ? CifarLikeProfile()
                           : dataset == "femnist" ? FemnistLikeProfile()
                                                  : MnistLikeProfile();
    auto data = GenerateImageData(profile, train_examples, test_examples,
                                  &rng);
    ClientSplit split =
        dataset == "femnist"
            ? NaturalPartition(data.train_writers, profile.num_writers,
                               clients, &rng)
            : SimilarityPartition(data.train, clients, similarity, &rng);
    ClientSplit test_split = SimilarityPartition(data.test, clients,
                                                 similarity, &rng);
    for (int k = 0; k < clients; ++k) {
      views.push_back(ClientView{split.client_indices[k],
                                 test_split.client_indices[k]});
    }
    if (flags.GetString("model", "cnn") == "mlp") {
      MlpConfig mc;
      mc.in_channels = profile.channels;
      mc.image_size = profile.image_size;
      factory = MakeMlpFactory(mc);
    } else {
      CnnConfig mc;
      mc.in_channels = profile.channels;
      mc.image_size = profile.image_size;
      mc.conv1_channels = 4;
      mc.conv2_channels = 8;
      mc.feature_dim = 16;
      factory = MakeCnnFactory(mc);
    }
    train = std::make_unique<Dataset>(std::move(data.train));
    test = std::make_unique<Dataset>(std::move(data.test));
  }

  auto algorithm = Build(method, fl, reg, train.get(), views, factory);
  TrainerOptions options;
  options.eval_every = flags.GetInt("eval_every", 1);
  options.eval_max_examples = 400;
  options.verbose = true;
  options.checkpoint_every = flags.GetInt("checkpoint_every", 0);
  options.checkpoint_path = flags.GetString("checkpoint_path", "");
  if (options.checkpoint_every > 0 && options.checkpoint_path.empty()) {
    std::fprintf(stderr, "--checkpoint_every needs --checkpoint_path\n");
    return 1;
  }
  const std::string resume_from = flags.GetString("resume_from", "");
  FederatedTrainer trainer(algorithm.get(), test.get(), options);
  RunHistory history;
  if (!resume_from.empty()) {
    RunCheckpoint resume = RunCheckpoint::Load(resume_from);
    std::printf("resuming from %s at round %d\n", resume_from.c_str(),
                resume.next_round);
    history = trainer.Run(rounds, &resume);
  } else {
    history = trainer.Run(rounds);
  }

  std::printf("\n%s on %s: final=%.3f best=%.3f total_comm=%lld bytes "
              "kernel_scratch_peak=%lld bytes\n",
              method.c_str(), dataset.c_str(), history.FinalAccuracy(),
              history.BestAccuracy(),
              static_cast<long long>(algorithm->comm().total_bytes()),
              static_cast<long long>(history.PeakKernelScratchBytes()));
  if (fl.fault.enabled()) {
    std::printf("channel: delivered=%lld dropped=%lld retried=%lld\n",
                static_cast<long long>(history.TotalDelivered()),
                static_cast<long long>(history.TotalDropped()),
                static_cast<long long>(history.TotalRetried()));
  }
  if (fl.adversary.enabled() || !fl.robust.mean()) {
    int64_t rejected = 0;
    for (int k = 0; k < algorithm->num_clients(); ++k) {
      rejected += algorithm->rejection_count(k);
    }
    std::printf(
        "resilience: adversary=%s adversarial_clients=%d aggregator=%s "
        "rejected_updates=%lld\n",
        fl.adversary.mode.c_str(), algorithm->adversary().num_adversarial(),
        fl.robust.aggregator.c_str(), static_cast<long long>(rejected));
  }
  if (!fl.sim.compute.free() || !fl.sim.network.free()) {
    std::printf(
        "sim (%s): virtual=%.1f ms, last round p50=%.1f ms p95=%.1f ms, "
        "stragglers_cut=%lld\n",
        ToString(fl.sim.mode), history.TotalVirtualMs(),
        history.rounds.back().client_p50_ms,
        history.rounds.back().client_p95_ms,
        static_cast<long long>(history.TotalStragglersCut()));
  }
  if (fl.trace) {
    std::printf("\ntrace summary (wall vs virtual per phase):\n%s",
                obs::FormatTraceSummary().c_str());
    if (!trace_out.empty()) {
      obs::WriteChromeTrace(trace_out);
      std::printf("chrome trace written to %s (load in chrome://tracing)\n",
                  trace_out.c_str());
    }
  }
  if (!csv_out.empty()) {
    SaveHistoryCsv(history, csv_out);
    std::printf("per-round history written to %s\n", csv_out.c_str());
  }

  if (flags.GetBool("fine_tune", false) && !views[0].test_indices.empty()) {
    PersonalizationOptions popt;
    popt.seed = seed;
    PersonalizationReport report = PersonalizeAndEvaluate(
        algorithm.get(), *train, *test, views, popt);
    std::printf("personalization: global=%.3f -> fine-tuned=%.3f\n",
                report.MeanGlobal(), report.MeanPersonalized());
  }
  return 0;
}
