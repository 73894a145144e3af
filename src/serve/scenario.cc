#include "serve/scenario.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "core/rfedavg.h"
#include "data/partition.h"
#include "data/synthetic_images.h"
#include "data/synthetic_text.h"
#include "fl/fedavg.h"
#include "fl/fednova.h"
#include "fl/fedprox.h"
#include "fl/qfedavg.h"
#include "fl/scaffold.h"
#include "util/check.h"
#include "util/hash.h"

namespace rfed {
namespace serve {

namespace {

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
  RFED_CHECK(false) << "unknown --method " << method;
  return nullptr;
}

constexpr const char* kScenarioUsage =
    R"(Scenario (identical vocabulary and defaults to experiment_cli; every
process of a deployment must pass the same values — the HELLO handshake
verifies a fingerprint over them):
  --dataset mnist|cifar|femnist|sent140 (mnist)
  --method FedAvg|FedProx|Scaffold|q-FedAvg|FedNova|rFedAvg|rFedAvg+ (rFedAvg+)
  --clients N (10)          --similarity 0..1 (0)     --rounds C (15)
  --local_steps E (5)       --batch B (24; 10 text)   --sample_ratio SR (1.0)
  --lr (0.08; 0.01 text)    --lambda (1e-3; 1e-4 text) --dp_sigma (0)
  --compressor none|q8|q4|topk10|topk1|sketch (none)
  --selection uniform|loss (uniform)
  --model cnn|mlp (cnn, image datasets only)
  --train_examples (1500)   --test_examples (400)     --seed (1)
  --eval_every (1)
  --drop/--corrupt/--duplicate/--delay 0..1 (0)
  --mean_delay_ms (50)      --timeout_ms (250, 0=off) --retries (0)
  --sim_mode sync|deadline|async (sync)
  --compute_model constant|lognormal|drift (constant)
  --compute_ms (0)          --compute_sigma (1.0)
  --compute_drift (0.05)    --compute_spread (0)
  --down_bw/--up_bw (0)     --base_latency_ms (0)
  --deadline_ms (0)         --async_buffer (2)
  --adversary none|nan|sign_flip|scale|noise|label_flip (none)
  --adversary_frac (0.2)    --adversary_scale (100)   --adversary_sigma (1)
  --aggregator mean|trimmed_mean|median|norm_clip (mean)
  --trim_fraction (0.2)     --clip_multiplier (3)     --validate (true)
  --checkpoint_every (0)    --checkpoint_path PATH    --resume_from PATH
  --num_threads (1)         --kernel_threads (1)
  --autograd_static (true)  --grad_checkpoint (false)
  --shard_fanout (0)        --stream_chunk (0)
  --csv_out PATH write the per-round history as CSV
  --worker_timeout_ms (0, 0=off) failure-detector deadline: a worker
      silent this long (PING/PONG probes cover idle links) is declared
      dead and its jobs are reassigned; fingerprint-exempt
  --max_worker_restarts (0) mid-run worker rejoins accepted before the
      run aborts; fingerprint-exempt
)";

const char* const kScenarioFlags[] = {
    "dataset", "method", "clients", "similarity", "rounds", "local_steps",
    "batch", "sample_ratio", "lr", "lambda", "dp_sigma", "compressor",
    "selection", "model", "train_examples", "test_examples", "seed",
    "eval_every", "drop", "corrupt", "duplicate", "delay",
    "mean_delay_ms", "timeout_ms", "retries", "sim_mode", "compute_model",
    "compute_ms", "compute_sigma", "compute_drift", "compute_spread",
    "down_bw", "up_bw", "base_latency_ms", "deadline_ms", "async_buffer",
    "adversary", "adversary_frac", "adversary_scale", "adversary_sigma",
    "aggregator", "trim_fraction", "clip_multiplier", "validate",
    "checkpoint_every", "checkpoint_path", "resume_from",
    "num_threads", "kernel_threads", "autograd_static", "grad_checkpoint",
    "shard_fanout", "stream_chunk",
    "csv_out", "worker_timeout_ms", "max_worker_restarts"};

}  // namespace

const std::vector<std::string>& ScenarioFlagNames() {
  static const std::vector<std::string>* names = [] {
    auto* v = new std::vector<std::string>();
    for (const char* name : kScenarioFlags) v->push_back(name);
    return v;
  }();
  return *names;
}

const char* ScenarioUsage() { return kScenarioUsage; }

Scenario BuildScenario(const FlagParser& flags) {
  Scenario s;
  s.dataset = flags.GetString("dataset", "mnist");
  s.method = flags.GetString("method", "rFedAvg+");
  const int clients = flags.GetInt("clients", 10);
  const double similarity = flags.GetDouble("similarity", 0.0);
  s.rounds = flags.GetInt("rounds", 15);
  const int train_examples = flags.GetInt("train_examples", 1500);
  const int test_examples = flags.GetInt("test_examples", 400);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const bool is_text = s.dataset == "sent140";

  FlConfig& fl = s.fl;
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
  RFED_CHECK(ParseSimMode(sim_mode, &fl.sim.mode))
      << "unknown --sim_mode " << sim_mode;
  const std::string compute_model =
      flags.GetString("compute_model", "constant");
  RFED_CHECK(ParseComputeModelKind(compute_model, &fl.sim.compute.kind))
      << "unknown --compute_model " << compute_model;
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
  RFED_CHECK(KnownAdversaryMode(fl.adversary.mode))
      << "unknown --adversary " << fl.adversary.mode;
  fl.robust.aggregator = flags.GetString("aggregator", "mean");
  fl.robust.trim_fraction = flags.GetDouble("trim_fraction", 0.2);
  fl.robust.clip_multiplier = flags.GetDouble("clip_multiplier", 3.0);
  fl.robust.validate = flags.GetBool("validate", true);
  RFED_CHECK(KnownAggregator(fl.robust.aggregator))
      << "unknown --aggregator " << fl.robust.aggregator;
  fl.num_threads = flags.GetInt("num_threads", 1);
  fl.kernel_threads = flags.GetInt("kernel_threads", 1);
  fl.autograd.static_graph = flags.GetBool("autograd_static", true);
  fl.autograd.checkpoint = flags.GetBool("grad_checkpoint", false);
  fl.shard_fanout = flags.GetInt("shard_fanout", 0);
  fl.stream_chunk = flags.GetInt("stream_chunk", 0);

  RegularizerOptions reg;
  reg.lambda = flags.GetDouble("lambda", is_text ? 1e-4 : 1e-3);
  reg.dp.sigma = flags.GetDouble("dp_sigma", 0.0);
  reg.dp.batch_size = fl.batch_size;

  s.eval_every = flags.GetInt("eval_every", 1);
  s.checkpoint_every = flags.GetInt("checkpoint_every", 0);
  s.checkpoint_path = flags.GetString("checkpoint_path", "");
  s.resume_from = flags.GetString("resume_from", "");
  s.csv_out = flags.GetString("csv_out", "");
  // Fingerprint-exempt (like the worker count): failure handling moves
  // jobs between processes but never changes what a job computes.
  s.worker_timeout_ms = flags.GetIntInRange("worker_timeout_ms", 0, 0,
                                            3600 * 1000);
  s.max_worker_restarts = flags.GetIntInRange("max_worker_restarts", 0, 0,
                                              1000000);

  // Data + partition + model — verbatim the experiment_cli construction,
  // consuming Rng(seed) draws in the identical order.
  Rng rng(seed);
  if (is_text) {
    TextProfile profile = Sent140LikeProfile();
    profile.num_users = std::max(4 * clients, 40);
    auto data = GenerateTextData(profile, train_examples, test_examples, &rng);
    auto split = NaturalPartition(data.train_users, profile.num_users,
                                  clients, &rng);
    for (auto& idx : split.client_indices) s.views.push_back({idx, {}});
    LstmConfig mc;
    mc.vocab_size = profile.vocab_size;
    mc.embed_dim = 8;
    mc.hidden_dim = 16;
    mc.feature_dim = 16;
    s.factory = MakeLstmFactory(mc);
    s.train = std::make_unique<Dataset>(std::move(data.train));
    s.test = std::make_unique<Dataset>(std::move(data.test));
  } else {
    ImageProfile profile = s.dataset == "cifar"    ? CifarLikeProfile()
                           : s.dataset == "femnist" ? FemnistLikeProfile()
                                                    : MnistLikeProfile();
    auto data = GenerateImageData(profile, train_examples, test_examples,
                                  &rng);
    ClientSplit split =
        s.dataset == "femnist"
            ? NaturalPartition(data.train_writers, profile.num_writers,
                               clients, &rng)
            : SimilarityPartition(data.train, clients, similarity, &rng);
    ClientSplit test_split = SimilarityPartition(data.test, clients,
                                                 similarity, &rng);
    for (int k = 0; k < clients; ++k) {
      s.views.push_back(ClientView{split.client_indices[k],
                                   test_split.client_indices[k]});
    }
    if (flags.GetString("model", "cnn") == "mlp") {
      MlpConfig mc;
      mc.in_channels = profile.channels;
      mc.image_size = profile.image_size;
      s.factory = MakeMlpFactory(mc);
    } else {
      CnnConfig mc;
      mc.in_channels = profile.channels;
      mc.image_size = profile.image_size;
      mc.conv1_channels = 4;
      mc.conv2_channels = 8;
      mc.feature_dim = 16;
      s.factory = MakeCnnFactory(mc);
    }
    s.train = std::make_unique<Dataset>(std::move(data.train));
    s.test = std::make_unique<Dataset>(std::move(data.test));
  }

  s.algorithm = Build(s.method, fl, reg, s.train.get(), s.views, s.factory);

  // Canonical spec string -> fingerprint. Covers every flag that shapes
  // the data, the model, or the round trajectory; deliberately excludes
  // output paths (csv_out, checkpoint_path) and resume_from, which only
  // direct artifacts.
  std::ostringstream spec;
  spec << "dataset=" << s.dataset << ";method=" << s.method
       << ";clients=" << clients << ";similarity=" << similarity
       << ";rounds=" << s.rounds << ";train_examples=" << train_examples
       << ";test_examples=" << test_examples << ";seed=" << seed
       << ";local_steps=" << fl.local_steps << ";batch=" << fl.batch_size
       << ";sample_ratio=" << fl.sample_ratio << ";lr=" << fl.lr
       << ";lambda=" << reg.lambda << ";dp_sigma=" << reg.dp.sigma
       << ";compressor=" << fl.upload_compressor
       << ";selection=" << fl.client_selection
       << ";model=" << flags.GetString("model", "cnn")
       << ";eval_every=" << s.eval_every
       << ";drop=" << fl.fault.drop_prob << ";corrupt=" << fl.fault.corrupt_prob
       << ";duplicate=" << fl.fault.duplicate_prob
       << ";delay=" << fl.fault.delay_prob
       << ";mean_delay_ms=" << fl.fault.mean_delay_ms
       << ";timeout_ms=" << fl.fault.round_timeout_ms
       << ";retries=" << fl.fault.max_retries << ";sim_mode=" << sim_mode
       << ";compute_model=" << compute_model
       << ";compute_ms=" << fl.sim.compute.mean_ms_per_step
       << ";compute_sigma=" << fl.sim.compute.sigma
       << ";compute_drift=" << fl.sim.compute.drift
       << ";compute_spread=" << fl.sim.compute.hetero_spread
       << ";down_bw=" << fl.sim.network.down_bytes_per_ms
       << ";up_bw=" << fl.sim.network.up_bytes_per_ms
       << ";base_latency_ms=" << fl.sim.network.base_latency_ms
       << ";deadline_ms=" << fl.sim.deadline_ms
       << ";async_buffer=" << fl.sim.async_buffer
       << ";adversary=" << fl.adversary.mode
       << ";adversary_frac=" << fl.adversary.fraction
       << ";adversary_scale=" << fl.adversary.scale
       << ";adversary_sigma=" << fl.adversary.noise_sigma
       << ";aggregator=" << fl.robust.aggregator
       << ";trim_fraction=" << fl.robust.trim_fraction
       << ";clip_multiplier=" << fl.robust.clip_multiplier
       << ";validate=" << fl.robust.validate
       << ";shard_fanout=" << fl.shard_fanout
       << ";stream_chunk=" << fl.stream_chunk;
  const std::string text = spec.str();
  s.fingerprint = static_cast<uint64_t>(
      Fnv1a32(reinterpret_cast<const uint8_t*>(text.data()), text.size()));
  return s;
}

}  // namespace serve
}  // namespace rfed
