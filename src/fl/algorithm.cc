#include "fl/algorithm.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "autograd/tape.h"
#include "fl/checkpoint.h"
#include "fl/model_state.h"
#include "fl/robust_agg.h"
#include "fl/selection.h"
#include "fl/shard_agg.h"
#include "nn/loss.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/buffer_pool.h"
#include "tensor/kernels.h"
#include "tensor/tensor_ops.h"
#include "util/check.h"
#include "util/stopwatch.h"

namespace rfed {

namespace {

/// Nearest-rank percentile of a latency sample; 0 on an empty sample.
double PercentileMs(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(
      std::clamp<double>(rank - 1.0, 0.0,
                         static_cast<double>(values.size() - 1)));
  return values[index];
}

// Staleness of each aggregated async update, in server versions. Edges
// sit between integers so bucket k holds exactly staleness == k (0, 1,
// 2, 3–4, 5–8, >8).
obs::Histogram* StalenessHistogram() {
  static obs::Histogram* h = obs::MetricsRegistry::Get().GetHistogram(
      "fl.staleness", {0.5, 1.5, 2.5, 4.5, 8.5});
  return h;
}

obs::Counter* StragglersCutCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Get().GetCounter("fl.stragglers_cut");
  return c;
}

const Dataset* PoolTrainData(const ClientPool* pool) {
  RFED_CHECK(pool != nullptr);
  return &pool->train_pool();
}

const char* SourceName(bool pool) {
  return pool ? "pool-mode" : "explicit-partition";
}

/// The one encoding of a batcher stream's state, shared by checkpoint
/// client sections and the batcher base a JOB carries.
void WriteBatcherState(const BatcherState& s, CheckpointWriter* w) {
  w->WriteU32(static_cast<uint32_t>(s.indices.size()));
  for (int index : s.indices) w->WriteI32(index);
  w->WriteU64(s.cursor);
  w->WriteRng(s.rng);
}

/// Decodes a WriteBatcherState record for `client`, whose view holds
/// `view_size` indices. The index count is checked before anything is
/// allocated, so a corrupt count aborts by name instead of reserving
/// gigabytes.
BatcherState ReadBatcherState(CheckpointReader* r, int client,
                              size_t view_size) {
  const uint32_t num_indices = r->ReadU32();
  RFED_CHECK_EQ(num_indices, view_size)
      << "batcher state decoder: index count of client " << client
      << " does not match its view size";
  BatcherState s;
  s.indices.reserve(num_indices);
  for (uint32_t i = 0; i < num_indices; ++i) s.indices.push_back(r->ReadI32());
  s.cursor = r->ReadU64();
  s.rng = r->ReadRng();
  return s;
}

/// The FedAvg-family server mean Σ w_k·x_k / Σ w_k on the canonical
/// pairwise tree (fl/shard_agg.h): each leaf is scaled by float(w_k) as
/// it is folded in, in cohort order, and the root is multiplied once by
/// float(1 / Σ w_k).
class TreeMean {
 public:
  void Fold(Tensor leaf, double weight) {
    weight_sum_ += weight;
    leaf.MulInPlace(static_cast<float>(weight));
    sum_.Push(std::move(leaf));
  }

  /// The mean of the folded leaves; records the accumulator's high-water
  /// mark on `peak_gauge` when given.
  Tensor Finish(obs::Gauge* peak_gauge) {
    RFED_CHECK_GT(weight_sum_, 0.0);
    Tensor mean = sum_.Finish();
    mean.MulInPlace(static_cast<float>(1.0 / weight_sum_));
    if (peak_gauge != nullptr) {
      peak_gauge->Set(static_cast<double>(sum_.peak_bytes()));
    }
    return mean;
  }

 private:
  StreamingTreeSum sum_;
  double weight_sum_ = 0.0;
};

}  // namespace

FederatedAlgorithm::FederatedAlgorithm(std::string name, const FlConfig& config,
                                       const Dataset* train_data,
                                       std::vector<ClientView> clients,
                                       const ModelFactory& model_factory)
    : FederatedAlgorithm(std::move(name), config, train_data,
                         std::move(clients), nullptr, model_factory) {}

FederatedAlgorithm::FederatedAlgorithm(std::string name, const FlConfig& config,
                                       const ClientPool* pool,
                                       const ModelFactory& model_factory)
    : FederatedAlgorithm(std::move(name), config, PoolTrainData(pool), {},
                         pool, model_factory) {}

FederatedAlgorithm::FederatedAlgorithm(std::string name, const FlConfig& config,
                                       const Dataset* train_data,
                                       std::vector<ClientView> clients,
                                       const ClientPool* pool,
                                       const ModelFactory& model_factory)
    : name_(std::move(name)),
      config_(config),
      train_data_(train_data),
      num_clients_(pool != nullptr ? pool->num_clients()
                                   : static_cast<int>(clients.size())),
      client_pool_(pool),
      // The adversary draws its bad-actor choice from its own seed
      // lineage (like the channel), so enabling an attack never perturbs
      // the training randomness.
      adversary_(config.adversary, config.seed ^ 0xbadc11e575a1ULL,
                 num_clients_),
      model_factory_(model_factory),
      rng_(config.seed),
      // The channel draws from its own stream so that enabling faults
      // never perturbs sampling/batching/init randomness.
      channel_(config.fault, config.seed ^ 0xfa171c4a11e1ULL, &comm_),
      network_model_(config.sim.network) {
  RFED_CHECK(train_data_ != nullptr);
  if (pool_mode()) {
    RFED_CHECK(clients.empty());
    // The O(N)-per-round pieces have no lazy counterpart: loss-adaptive
    // selection scans every client's last loss, and the async policy
    // scans for idle clients. Cross-device runs use uniform sampling and
    // the sync/deadline policies.
    RFED_CHECK(config_.client_selection == "uniform")
        << "pool mode supports uniform client selection only";
    RFED_CHECK(config_.sim.mode != SimMode::kAsync)
        << "pool mode supports the sync and deadline round policies only";
    total_examples_ = client_pool_->TotalExamples();
  } else {
    RFED_CHECK(!clients.empty());
    for (const ClientView& c : clients) {
      RFED_CHECK(!c.train_indices.empty());
      total_examples_ += static_cast<int64_t>(c.train_indices.size());
    }
  }
  RFED_CHECK_GE(config_.stream_chunk, 0);
  if (config_.sim.mode == SimMode::kDeadline) {
    RFED_CHECK_GT(config_.sim.deadline_ms, 0.0)
        << "deadline mode needs sim.deadline_ms > 0";
  }
  if (config_.sim.mode == SimMode::kAsync) {
    RFED_CHECK_GE(config_.sim.async_buffer, 1)
        << "async mode needs sim.async_buffer >= 1";
  }
  // Intra-op kernel parallelism (tensor/kernels.h). Results are
  // bit-identical for every thread count, so this only affects speed.
  SetKernelThreads(config_.kernel_threads);
  // Tracing is process-global; the flag only ever turns it on so that a
  // traced run is never silently disabled by a second algorithm instance.
  if (config_.trace) obs::EnableTracing(true);

  Rng init_rng = rng_.Fork();
  model_ = model_factory_(&init_rng);
  global_state_ = FlattenParameters(model_->Parameters());
  model_bytes_ = StateBytes(model_->Parameters());

  // Explicit partitions become resident here, each batcher stream forked
  // from rng_ in client order — a sequential lineage the goldens pin,
  // which is exactly why it cannot scale: stream k depends on k forks
  // having happened. Pool mode derives batcher streams on
  // materialization from the order-independent MixSeed lineage instead,
  // and builds nothing yet.
  for (size_t k = 0; k < clients.size(); ++k) {
    Batcher batcher(train_data_, clients[k].train_indices, config_.batch_size,
                    rng_.Fork());
    clients_.emplace(static_cast<int>(k),
                     ClientState{std::move(clients[k]), std::move(batcher)});
  }

  compressor_ = MakeCompressor(config_.upload_compressor);
  compression_enabled_ = config_.upload_compressor != "none";

  RFED_CHECK(KnownAggregator(config_.robust.aggregator))
      << "unknown aggregator '" << config_.robust.aggregator
      << "' (mean|trimmed_mean|median|norm_clip)";
  RFED_CHECK_GE(config_.robust.trim_fraction, 0.0);
  RFED_CHECK_LT(config_.robust.trim_fraction, 0.5);
  RFED_CHECK_GT(config_.robust.clip_multiplier, 0.0);
  // Eager registration keeps the CSV columns stable whether or not any
  // update is ever quarantined or clipped.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Get();
  m_quarantined_ = registry.GetCounter("fl.quarantined_updates");
  m_quarantined_maps_ = registry.GetCounter("fl.quarantined_maps");
  m_clipped_ = registry.GetCounter("fl.clipped_updates");
  // Pre-clip L2 norms of the survivors' deltas under the norm_clip
  // aggregator (log-spaced buckets; the attack sweeps live far right).
  m_update_norm_ =
      registry.GetHistogram("fl.update_norm", {0.01, 0.1, 1.0, 10.0, 100.0});

  // The compute model keys its draws on (seed, client, round) with its
  // own lineage, like the channel: stragglers never perturb training
  // randomness, and the draws are call-order independent.
  compute_model_ = std::make_unique<ComputeTimeModel>(
      config_.sim.compute, config_.seed ^ 0x5caff01d57a66ULL, num_clients());

  if (config_.num_threads > 1) {
    pool_ = std::make_unique<ThreadPool>(config_.num_threads);
  }

  // Scale gauges exist only on pool and chunked runs, so other runs' CSV
  // columns are byte-unchanged.
  if (pool_mode() || config_.stream_chunk > 0) {
    m_agg_peak_bytes_ = registry.GetGauge("fl.agg_peak_bytes");
    m_materialized_clients_ = registry.GetGauge("data.materialized_clients");
    m_client_state_bytes_ = registry.GetGauge("data.client_state_bytes");
    m_materialized_clients_->Set(
        static_cast<double>(materialized_clients()));
    m_client_state_bytes_->Set(0.0);
  }
}

double FederatedAlgorithm::client_weight(int k) const {
  // Pool views all hold examples_per_client = e indices, so this is
  // e / (N·e), which IEEE division rounds to exactly 1.0 / N.
  return static_cast<double>(client_view(k).train_indices.size()) /
         static_cast<double>(total_examples_);
}

int64_t FederatedAlgorithm::rejection_count(int client) const {
  const auto it = clients_.find(client);
  return it == clients_.end() ? 0 : it->second.rejections;
}

const ClientView& FederatedAlgorithm::client_view(int k) const {
  return EnsureClientMaterialized(k).view;
}

FederatedAlgorithm::ClientState& FederatedAlgorithm::EnsureClientMaterialized(
    int k) const {
  const auto it = clients_.find(k);
  if (it != clients_.end()) return it->second;
  // Only pool clients can be absent: explicit partitions are resident
  // from construction.
  RFED_CHECK_GE(k, 0);
  RFED_CHECK_LT(k, num_clients());
  RFED_CHECK(pool_mode());
  ClientView view;
  view.train_indices = client_pool_->TrainIndices(k);
  view.test_indices = client_pool_->TestIndices(k);
  // The batcher stream is a pure function of (seed, k): materializing a
  // client in round 40 yields the same stream as materializing it at
  // startup would have (the lazy-vs-eager differential invariant).
  Rng batcher_rng(
      MixSeed(config_.seed, kPoolBatcherLineage, static_cast<uint64_t>(k)));
  Batcher batcher(train_data_, view.train_indices, config_.batch_size,
                  batcher_rng);
  // The batcher copies the train indices (its shuffle mutates them), so
  // the resident cost is train x2 + test indices plus fixed overhead.
  lazy_state_bytes_ +=
      static_cast<int64_t>(2 * view.train_indices.size() +
                           view.test_indices.size()) *
          static_cast<int64_t>(sizeof(int)) +
      static_cast<int64_t>(sizeof(ClientView) + sizeof(Batcher));
  ClientState& state =
      clients_.emplace(k, ClientState{std::move(view), std::move(batcher)})
          .first->second;
  if (m_materialized_clients_ != nullptr) {
    m_materialized_clients_->Set(static_cast<double>(clients_.size()));
    m_client_state_bytes_->Set(static_cast<double>(lazy_state_bytes_));
  }
  return state;
}

void FederatedAlgorithm::MaterializeAllClients() {
  for (int k = 0; k < num_clients(); ++k) EnsureClientMaterialized(k);
}

FeatureModel* FederatedAlgorithm::GlobalModel() {
  LoadParameters(global_state_, model_->Parameters());
  return model_.get();
}

std::vector<int> FederatedAlgorithm::SampleClients() {
  const int n = num_clients();
  int k = static_cast<int>(std::lround(config_.sample_ratio * n));
  k = std::clamp(k, 1, n);
  if (pool_mode()) {
    // O(cohort) Floyd sampling; the sorted cohort doubles as the
    // canonical leaf order of the server's tree mean.
    return SparseUniformSelection(n, k, &rng_);
  }
  if (config_.client_selection == "loss" && k < n) {
    // Explicit partitions: every client is resident, in id order.
    std::vector<double> last_losses;
    last_losses.reserve(clients_.size());
    for (const auto& [id, state] : clients_) {
      last_losses.push_back(state.last_loss);
    }
    return LossProportionalSelection(last_losses, k, &rng_);
  }
  return UniformSelection(n, k, &rng_);
}

Tensor FederatedAlgorithm::CompressUploadedState(const Tensor& state,
                                                 bool* delivered) {
  if (!compression_enabled_) {
    const bool ok = ChargeModelUpload();
    if (delivered != nullptr) *delivered = ok;
    return Tensor();
  }
  Tensor delta = state;
  delta.SubInPlace(global_state_);
  Rng fork = rng_.Fork();
  Tensor reconstructed = compressor_->RoundTrip(delta, &fork);
  reconstructed.AddInPlace(global_state_);
  const bool ok =
      channel_.Upload(compressor_->WireBytes(state.size()), channel_kind::kUpdate);
  if (delivered != nullptr) *delivered = ok;
  return reconstructed;
}

std::vector<int> FederatedAlgorithm::CappedIndices(int client) const {
  const auto& all = client_view(client).train_indices;
  const int64_t cap = config_.max_examples_per_pass;
  if (cap <= 0 || static_cast<int64_t>(all.size()) <= cap) return all;
  // Deterministic per-client subsample: stable stride over the index list.
  std::vector<int> out;
  out.reserve(static_cast<size_t>(cap));
  const double stride =
      static_cast<double>(all.size()) / static_cast<double>(cap);
  for (int64_t i = 0; i < cap; ++i) {
    out.push_back(all[static_cast<size_t>(
        std::min<double>(i * stride, static_cast<double>(all.size() - 1)))]);
  }
  return out;
}

std::pair<Tensor, double> FederatedAlgorithm::LocalTrain(
    int round, int client, const Tensor& init_state, FeatureModel* model) {
  if (model == nullptr) model = model_.get();
  auto params = model->Parameters();
  LoadParameters(init_state, params);
  auto optimizer = MakeOptimizer(config_.optimizer, params, config_.lr);
  Batcher& batcher = BatcherFor(client);

  // One arena-backed tape per bout: step 0 records the graph, later
  // steps with the same batch signature replay it over fresh data —
  // bit-identical to a fresh build (same ops, same creation order, same
  // cached backward order), so goldens are unchanged. ExtraLoss hooks
  // are recorded too; every implementation builds round-constant ops
  // (MMD targets are fixed for the round, FedProx works in
  // PostBackward), so a bout-scoped replay is sound.
  ag::TapeSession session(
      {config_.autograd.static_graph, config_.autograd.checkpoint});
  obs::Gauge* allocs_gauge =
      obs::MetricsRegistry::Get().GetGauge("autograd.allocs_per_step");

  const int steps = LocalSteps(client);
  double loss_sum = 0.0;
  for (int step = 0; step < steps; ++step) {
    Batch batch = batcher.Next();
    // Data poisoning: a label-flip adversary trains honestly but on
    // remapped labels (no-op for honest clients and other modes).
    adversary_.CorruptLabels(client, &batch.labels,
                             train_data_->num_classes());
    const int64_t allocs_before = BufferPool::ThreadAllocCount();
    ag::ReplayBindings bind{batch.images.size() > 0 ? &batch.images : nullptr,
                            &batch.tokens, &batch.labels};
    Variable loss;
    if (session.CanReplay(bind)) {
      loss = session.Replay(bind);
    } else {
      session.BeginRecord(bind);
      ModelOutput out = model->Forward(batch);
      loss = CrossEntropyLoss(out.logits, batch.labels);
      Variable extra = ExtraLoss(client, out, batch);
      if (extra.valid()) loss = ag::Add(loss, extra);
      session.EndRecord(loss);
    }
    optimizer->ZeroGrad();
    loss.Backward();
    PostBackward(client, params);
    optimizer->Step();
    loss_sum += static_cast<double>(loss.value().ToScalar());
    // Pool misses this step on this thread; O(1) (0 in the steady state)
    // once the bout's graphs are recorded and the freelists are warm.
    allocs_gauge->Set(
        static_cast<double>(BufferPool::ThreadAllocCount() - allocs_before));
  }
  return {FlattenParameters(params), loss_sum / static_cast<double>(steps)};
}

std::vector<uint8_t> FederatedAlgorithm::EncodeTrainContextFor(
    int round, int client) const {
  std::vector<uint8_t> blob;
  CheckpointWriter writer(&blob);
  EncodeTrainContext(round, client, &writer);
  return blob;
}

void FederatedAlgorithm::ApplyTrainContext(int round, int client,
                                           const std::vector<uint8_t>& blob) {
  CheckpointReader reader(blob);
  DecodeTrainContext(round, client, &reader);
  RFED_CHECK(reader.AtEnd()) << "trailing bytes in train context for client "
                             << client;
}

std::pair<Tensor, double> FederatedAlgorithm::ExecuteLocalTraining(int round,
                                                                   int client) {
  RFED_CHECK_GE(client, 0);
  RFED_CHECK_LT(client, num_clients());
  return LocalTrain(round, client, global_state_);
}

std::vector<uint8_t> FederatedAlgorithm::EncodeBatcherBaseFor(int client) {
  std::vector<uint8_t> blob;
  CheckpointWriter w(&blob);
  WriteBatcherState(BatcherFor(client).SaveState(), &w);
  return blob;
}

void FederatedAlgorithm::InstallBatcherBase(int client,
                                            const std::vector<uint8_t>& blob) {
  ClientState& state = EnsureClientMaterialized(client);
  CheckpointReader r(blob);
  const BatcherState s =
      ReadBatcherState(&r, client, state.view.train_indices.size());
  RFED_CHECK(r.AtEnd()) << "trailing bytes in batcher base for client "
                        << client;
  state.batcher.LoadState(s);
}

void FederatedAlgorithm::SkipLocalBatches(int client) {
  Batcher& batcher = BatcherFor(client);
  const int steps = LocalSteps(client);
  for (int step = 0; step < steps; ++step) batcher.Skip();
}

std::pair<Tensor, double> FederatedAlgorithm::DispatchTrain(
    int round, int client, const Tensor& init_state, FeatureModel* model,
    bool already_submitted) {
  if (train_executor_ == nullptr) {
    return LocalTrain(round, client, init_state, model);
  }
  if (!already_submitted) {
    // Snapshot the batcher base before the Skip() mirror below: the JOB
    // must carry the pre-training stream position it expects the
    // executing replica to start from.
    train_executor_->Submit(round, client, init_state,
                            EncodeTrainContextFor(round, client),
                            EncodeBatcherBaseFor(client));
    // The worker's LocalTrain consumes batches from its replica of this
    // client's stream; mirror the cursor/shuffle advancement here so the
    // server's state (and its checkpoints) stay authoritative.
    SkipLocalBatches(client);
  }
  return train_executor_->Collect(round, client);
}

double FederatedAlgorithm::EvaluateLocalLoss(int client, const Tensor& state,
                                             FeatureModel* model) {
  if (model == nullptr) model = model_.get();
  auto params = model->Parameters();
  LoadParameters(state, params);
  const std::vector<int> indices = CappedIndices(client);
  Batch batch = train_data_->GetBatch(indices);
  ModelOutput out = model->Forward(batch);
  Variable loss = CrossEntropyLoss(out.logits, batch.labels);
  return static_cast<double>(loss.value().ToScalar());
}

Tensor FederatedAlgorithm::ComputeClientDelta(int client, const Tensor& state,
                                              bool use_logits) {
  auto params = Params();
  LoadParameters(state, params);
  const std::vector<int> indices = CappedIndices(client);
  Batch batch = train_data_->GetBatch(indices);
  ModelOutput out = model_->Forward(batch);
  return MeanRows(use_logits ? out.logits.value() : out.features.value());
}

bool FederatedAlgorithm::ChargeModelDownload() {
  return channel_.Download(model_bytes_);
}
bool FederatedAlgorithm::ChargeModelUpload() {
  return channel_.Upload(model_bytes_, channel_kind::kUpdate);
}

void FederatedAlgorithm::Aggregate(int round, const std::vector<int>& selected,
                                   const std::vector<Tensor>& new_states,
                                   const std::vector<double>& start_losses) {
  if (!config_.robust.mean()) {
    global_state_ = RobustCombine(selected, new_states, global_state_);
    return;
  }
  const bool scaled = !agg_scale_.empty();
  if (scaled) {
    RFED_CHECK_EQ(agg_scale_.size(), selected.size());
  }
  TreeMean mean;
  for (size_t i = 0; i < selected.size(); ++i) {
    double w = client_weight(selected[i]);
    if (scaled) w *= agg_scale_[i];
    mean.Fold(new_states[i], w);
  }
  global_state_ = mean.Finish(m_agg_peak_bytes_);
}

Tensor FederatedAlgorithm::RobustCombine(const std::vector<int>& selected,
                                         const std::vector<Tensor>& values,
                                         const Tensor& reference) {
  const bool scaled = !agg_scale_.empty();
  if (scaled) {
    RFED_CHECK_EQ(agg_scale_.size(), selected.size());
  }
  std::vector<double> combine_weights(selected.size());
  for (size_t i = 0; i < selected.size(); ++i) {
    combine_weights[i] = client_weight(selected[i]);
    if (scaled) combine_weights[i] *= agg_scale_[i];
  }
  const RobustAggOptions& robust = config_.robust;
  // The per-coordinate statistics run in coordinate blocks on the thread
  // pool when there is one (fl/shard_agg.h), byte-identical to the flat
  // rules at every thread count since coordinates are independent.
  if (robust.aggregator == "trimmed_mean") {
    return ShardedTrimmedMean(values, combine_weights, robust.trim_fraction,
                              pool_.get());
  }
  if (robust.aggregator == "median") {
    return ShardedMedian(values, combine_weights, pool_.get());
  }
  RFED_CHECK(robust.aggregator == "norm_clip")
      << "unknown aggregator '" << robust.aggregator << "'";
  NormClipReport report;
  Tensor out = ShardedNormBoundedMean(reference, values, combine_weights,
                                      robust.clip_multiplier, &report,
                                      pool_.get());
  m_clipped_->Add(report.clipped);
  for (double norm : report.norms) m_update_norm_->Observe(norm);
  return out;
}

void FederatedAlgorithm::RecordRejection(int client) {
  const int64_t count = ++EnsureClientMaterialized(client).rejections;
  // Lazily registered per-client gauge: the CSV column appears only once
  // a client has actually been rejected, so clean-run CSVs are unchanged.
  obs::MetricsRegistry::Get()
      .GetGauge("fl.rejections.c" + std::to_string(client))
      ->Set(static_cast<double>(count));
}

bool FederatedAlgorithm::ValidateUpdate(const ClientWork& w) {
  if (!config_.robust.validate) return true;
  if (AllFinite(w.state) &&
      (!compression_enabled_ || AllFinite(w.uploaded))) {
    return true;
  }
  m_quarantined_->Increment();
  RecordRejection(w.client);
  return false;
}

Tensor FederatedAlgorithm::TakeUpload(ClientWork* w) const {
  return std::move(compression_enabled_ ? w->uploaded : w->state);
}

bool FederatedAlgorithm::ScreenMap(int client, const Tensor& map) {
  if (!config_.robust.validate || AllFinite(map)) return true;
  m_quarantined_maps_->Increment();
  RecordRejection(client);
  return false;
}

void FederatedAlgorithm::EnsureScratchModels(size_t n) {
  while (scratch_models_.size() < n) {
    // Initialization values are irrelevant: every use loads a full state
    // first. A fixed private seed keeps construction deterministic
    // without touching the training RNG.
    Rng init_rng(0x5c7a7c6d0de15ULL + scratch_models_.size());
    scratch_models_.push_back(model_factory_(&init_rng));
  }
}

void FederatedAlgorithm::TrainCohort(int round, const std::vector<int>& cohort,
                                     bool want_start_losses,
                                     std::vector<ClientWork>* work) {
  const int n = static_cast<int>(cohort.size());
  work->assign(cohort.size(), ClientWork{});
  const bool pipelined_remote = UseRemotePipelined(cohort.size());
  // Phase A — broadcasts + virtual-duration draws, sequentially in cohort
  // order: the fault channel's RNG stream must be consumed in a
  // deterministic order, and compute draws are cheap.
  for (int i = 0; i < n; ++i) {
    obs::TraceSpan trace_span("broadcast");
    ClientWork& w = (*work)[static_cast<size_t>(i)];
    w.client = cohort[static_cast<size_t>(i)];
    // Pool mode: pin this client's view/batcher now, on the main thread,
    // so the phase-B workers below only ever look clients up.
    EnsureClientMaterialized(w.client);
    w.trained = ChargeModelDownload();  // broadcast lost: client sits out
    w.down_ms = network_model_.DownMs(model_bytes_) +
                channel_.last_latency_ms();
    w.compute_ms =
        compute_model_->SampleMs(w.client, round, LocalSteps(w.client));
    if (pipelined_remote && w.trained) {
      // Round pipelining: ship the job as soon as its broadcast clears,
      // so workers train while the server is still broadcasting to (and
      // later collecting from) the rest of the cohort.
      train_executor_->Submit(round, w.client, global_state_,
                              EncodeTrainContextFor(round, w.client),
                              EncodeBatcherBaseFor(w.client));
      SkipLocalBatches(w.client);
    }
  }
  // Phase B — local training. The parallel and sequential paths are
  // bit-identical: each client's randomness lives in its own batcher
  // stream, models draw nothing after construction, and hooks that run
  // here (ExtraLoss, PostBackward) only read shared state.
  const auto train_one = [&](int i, FeatureModel* model) {
    ClientWork& w = (*work)[static_cast<size_t>(i)];
    if (!w.trained) return;
    obs::TraceSpan trace_span("local_train");
    if (want_start_losses) {
      w.start_loss = EvaluateLocalLoss(w.client, global_state_, model);
    }
    auto [state, loss] = DispatchTrain(round, w.client, global_state_, model,
                                       pipelined_remote);
    w.state = std::move(state);
    w.loss = loss;
  };
  if (UseParallelPath(cohort.size())) {
    EnsureScratchModels(cohort.size());
    pool_->ParallelFor(n, [&](int i) {
      train_one(i, scratch_models_[static_cast<size_t>(i)].get());
    });
  } else {
    for (int i = 0; i < n; ++i) train_one(i, model_.get());
  }
}

bool FederatedAlgorithm::UseParallelPath(size_t cohort_size) const {
  // Remote execution collects on the main thread (TrainExecutor is not
  // thread-safe); pipelined executors get their concurrency from the
  // workers instead.
  return train_executor_ == nullptr && pool_ != nullptr &&
         pool_->num_threads() > 1 && cohort_size > 1;
}

bool FederatedAlgorithm::UseRemotePipelined(size_t cohort_size) const {
  return train_executor_ != nullptr && train_executor_->pipelined() &&
         cohort_size > 1;
}

void FederatedAlgorithm::UploadUpdate(int round, ClientWork* w) {
  RecordLoss(w->client, w->loss);
  // An adversarial client reports a corrupted update in place of its
  // honest trained state (identity for honest clients and clean runs).
  // global_state_ is still the model this client downloaded: the server
  // aggregates only after the cohort's uploads.
  if (adversary_.CorruptsUpdates()) {
    w->state =
        adversary_.CorruptUpdate(w->client, round, global_state_, w->state);
  }
  {
    obs::TraceSpan trace_span("upload");
    w->uploaded = CompressUploadedState(w->state, &w->delivered);
  }
  const int64_t up_bytes = compression_enabled_
                               ? compressor_->WireBytes(w->state.size())
                               : model_bytes_;
  w->completion_ms = w->down_ms + w->compute_ms +
                     network_model_.UpMs(up_bytes) +
                     channel_.last_latency_ms();
}

bool FederatedAlgorithm::FoldsBaseMean() const {
  // Folding replaces the Aggregate call with the running tree mean, so it
  // is only sound for algorithms on the default FedAvg mean with no
  // cohort-wide inputs (robust rules and start losses need every update
  // in hand).
  return config_.robust.mean() && SupportsStreamingAggregation() &&
         !RequiresStartLosses();
}

RoundResult FederatedAlgorithm::RunRound(int round) {
  comm_.BeginRound();
  channel_.BeginRound();
  if (config_.sim.mode == SimMode::kAsync) return RunRoundAsync(round);
  return RunRoundBarrier(round);
}

RoundResult FederatedAlgorithm::RunRoundBarrier(int round) {
  Stopwatch watch;
  const double t0 = clock_.now_ms();
  std::vector<int> selected;
  {
    obs::TraceSpan trace_span("select");
    selected = SampleClients();
  }
  OnRoundStart(round, selected);

  const bool deadline_mode = config_.sim.mode == SimMode::kDeadline;
  const bool want_start_losses = RequiresStartLosses();
  // Algorithms on the base mean fold every surviving update into the
  // tree mean as it finishes and never materialize new_states.
  const bool folding = FoldsBaseMean();
  TreeMean mean;

  // Dropout-tolerant round: a client whose model download is lost never
  // trains; a client whose upload is lost — or, in deadline mode, beats
  // the fault lottery but misses the cut — trains for nothing. Only the
  // survivors are aggregated, with weights renormalized over that set.
  std::vector<int> survivors;
  std::vector<Tensor> new_states;
  std::vector<double> start_losses;
  survivors.reserve(selected.size());
  if (!folding) new_states.reserve(selected.size());
  std::vector<double> completions;
  double trained_weight = 0.0, trained_loss = 0.0;
  double max_completion = 0.0;
  int cut = 0;

  // Finishes one client in cohort order: upload, virtual completion
  // time, deadline cut, survivor bookkeeping.
  const auto finish = [&](ClientWork& w) {
    if (!w.trained) {
      // A lost broadcast still occupies the round until its (re)attempts
      // give up; the server cannot tell a dead client from a slow one.
      max_completion = std::max(max_completion, w.down_ms);
      return;
    }
    UploadUpdate(round, &w);
    // The weighted mean training loss covers every client that trained,
    // whether or not its update made it back.
    const double pw = client_weight(w.client);
    trained_weight += pw;
    trained_loss += pw * w.loss;
    completions.push_back(w.completion_ms);
    max_completion = std::max(max_completion, w.completion_ms);
    if (!w.delivered) return;  // update lost in flight
    if (deadline_mode && w.completion_ms > config_.sim.deadline_ms) {
      ++cut;  // arrived after the cut: the work and bytes were wasted
      StragglersCutCounter()->Increment();
      return;
    }
    // Server-side validation: a non-finite update is quarantined here,
    // before it can reach the aggregator, SCAFFOLD's control-variate
    // refresh, or the rFedAvg map computation.
    if (!ValidateUpdate(w)) return;
    OnClientTrained(round, w.client, w.state);
    survivors.push_back(w.client);
    if (folding) {
      // Folding is aggregation work, so the trace books it there.
      obs::TraceSpan trace_span("aggregate");
      mean.Fold(TakeUpload(&w), client_weight(w.client));
    } else {
      new_states.push_back(TakeUpload(&w));
    }
    if (want_start_losses) start_losses.push_back(w.start_loss);
  };

  // Folding rounds with stream_chunk > 0 walk the cohort in chunks of
  // that many clients (train a chunk, fold it, move on), so at most one
  // chunk of updates is ever held; otherwise the whole cohort is one
  // chunk. On a fault-free channel chunking does not change the bytes:
  // the channel draws nothing, compute draws are keyed per (client,
  // round), and compression forks stay in cohort order.
  const size_t total = selected.size();
  const size_t chunk_size = folding && config_.stream_chunk > 0
                                ? static_cast<size_t>(config_.stream_chunk)
                                : total;
  for (size_t begin = 0; begin < total; begin += chunk_size) {
    const size_t end = std::min(begin + chunk_size, total);
    const std::vector<int> cohort(selected.begin() + static_cast<int64_t>(begin),
                                  selected.begin() + static_cast<int64_t>(end));
    std::vector<ClientWork> work;
    TrainCohort(round, cohort, want_start_losses, &work);
    for (ClientWork& w : work) finish(w);
  }

  if (!survivors.empty()) {
    obs::TraceSpan trace_span("aggregate");
    if (folding) {
      global_state_ = mean.Finish(m_agg_peak_bytes_);
    } else {
      Aggregate(round, survivors, new_states, start_losses);
    }
    ++server_version_;
  }
  // If every update was lost the server keeps w_{t+1} = w_t.
  OnRoundEnd(round, survivors);

  // Round duration: sync waits for the slowest client; deadline closes at
  // the cut unless everything (including lost transfers the server is
  // still waiting on) finished earlier.
  double duration = max_completion;
  if (deadline_mode && survivors.size() != selected.size()) {
    duration = config_.sim.deadline_ms;
  }
  if (deadline_mode) duration = std::min(duration, config_.sim.deadline_ms);
  clock_.AdvanceTo(t0 + duration);

  RoundResult result;
  result.train_loss =
      trained_weight > 0.0 ? trained_loss / trained_weight : 0.0;
  result.seconds = watch.ElapsedSeconds();
  result.virtual_ms = duration;
  result.client_p50_ms = PercentileMs(completions, 0.50);
  result.client_p95_ms = PercentileMs(completions, 0.95);
  result.stragglers_cut = cut;
  return result;
}

RoundResult FederatedAlgorithm::RunRoundAsync(int round) {
  Stopwatch watch;
  const double t0 = clock_.now_ms();
  const int n = num_clients();
  int cohort = static_cast<int>(std::lround(config_.sample_ratio * n));
  cohort = std::clamp(cohort, 1, n);
  const int buffer = std::clamp(config_.sim.async_buffer, 1, cohort);

  // Refill the concurrency target: dispatch fresh work to idle clients so
  // that `cohort` clients are training/in flight at once. Sampling is
  // uniform over the idle set (loss-adaptive selection would bias toward
  // clients whose losses are stalest here).
  std::vector<int> fresh;
  {
    obs::TraceSpan trace_span("select");
    std::vector<char> is_busy(static_cast<size_t>(n), 0);
    for (const auto& [seq, flight] : in_flight_) {
      is_busy[static_cast<size_t>(flight.work.client)] = 1;
    }
    std::vector<int> idle;
    for (int k = 0; k < n; ++k) {
      if (!is_busy[static_cast<size_t>(k)]) idle.push_back(k);
    }
    const int busy = n - static_cast<int>(idle.size());
    if (cohort > busy && !idle.empty()) {
      const int take =
          std::min(cohort - busy, static_cast<int>(idle.size()));
      for (int pick :
           UniformSelection(static_cast<int>(idle.size()), take, &rng_)) {
        fresh.push_back(idle[static_cast<size_t>(pick)]);
      }
    }
  }
  OnRoundStart(round, fresh);

  const bool want_start_losses = RequiresStartLosses();
  std::vector<ClientWork> work;
  TrainCohort(round, fresh, want_start_losses, &work);

  // Dispatch: each trained client's update enters the event queue as an
  // arrival at now + download + compute + upload.
  for (ClientWork& w : work) {
    if (!w.trained) continue;
    UploadUpdate(round, &w);
    const int64_t id = queue_.Push(clock_.now_ms() + w.completion_ms,
                                   w.client, 0);
    in_flight_.emplace(id, InFlight{server_version_, std::move(w)});
  }

  // Collect: pop arrivals in virtual-time order, advancing the clock,
  // until `buffer` delivered updates are in hand (or nothing is left in
  // flight — lost uploads free their clients but fill no buffer slot).
  std::vector<int> survivors;
  std::vector<Tensor> new_states;
  std::vector<double> start_losses;
  std::vector<double> scales;
  std::vector<double> completions;
  double trained_weight = 0.0, trained_loss = 0.0;
  double staleness_sum = 0.0;
  while (static_cast<int>(survivors.size()) < buffer && !queue_.empty()) {
    const SimEvent event = queue_.Pop();
    clock_.AdvanceTo(event.time_ms);
    auto it = in_flight_.find(event.seq);
    RFED_CHECK(it != in_flight_.end());
    const int version = it->second.version;
    ClientWork w = std::move(it->second.work);
    in_flight_.erase(it);
    if (!w.delivered) continue;  // upload lost in flight
    // Quarantined updates free their client but, like lost uploads,
    // fill no buffer slot and never reach the server state.
    if (!ValidateUpdate(w)) continue;
    const int staleness = server_version_ - version;
    staleness_sum += static_cast<double>(staleness);
    StalenessHistogram()->Observe(static_cast<double>(staleness));
    completions.push_back(w.completion_ms);
    const double pw = client_weight(w.client);
    trained_weight += pw;
    trained_loss += pw * w.loss;
    OnClientTrained(round, w.client, w.state);
    survivors.push_back(w.client);
    new_states.push_back(TakeUpload(&w));
    if (want_start_losses) start_losses.push_back(w.start_loss);
    scales.push_back(1.0 / (1.0 + static_cast<double>(staleness)));
  }

  if (!survivors.empty()) {
    obs::TraceSpan trace_span("aggregate");
    agg_scale_ = std::move(scales);
    Aggregate(round, survivors, new_states, start_losses);
    agg_scale_.clear();
    ++server_version_;
  }
  OnRoundEnd(round, survivors);

  RoundResult result;
  result.train_loss =
      trained_weight > 0.0 ? trained_loss / trained_weight : 0.0;
  result.seconds = watch.ElapsedSeconds();
  result.virtual_ms = clock_.now_ms() - t0;
  result.client_p50_ms = PercentileMs(completions, 0.50);
  result.client_p95_ms = PercentileMs(completions, 0.95);
  result.mean_staleness =
      survivors.empty()
          ? 0.0
          : staleness_sum / static_cast<double>(survivors.size());
  return result;
}

void FederatedAlgorithm::SaveRunState(std::vector<uint8_t>* out) const {
  // A checkpoint is a *round boundary* snapshot. The async policy leaves
  // updates travelling between rounds, and an InFlight (event-queue
  // position, staleness base, pending tensors) has no meaningful
  // restoration into a fresh event queue — so it cannot checkpoint
  // mid-flight.
  RFED_CHECK(in_flight_.empty())
      << "cannot checkpoint an async run with updates still in flight";
  CheckpointWriter w(out);
  w.WriteString(name_);
  // The source tag keeps explicit and pool checkpoints from being
  // confused, and the saved client count pins the population.
  w.WriteBool(pool_mode());
  w.WriteI32(num_clients());
  w.WriteTensor(global_state_);
  w.WriteRng(rng_.SaveState());
  // One section per resident client, in ascending id order: every client
  // of an explicit partition, only the materialized ones in pool mode
  // (everything else is re-derivable from the pool seed).
  w.WriteU32(static_cast<uint32_t>(clients_.size()));
  for (const auto& [id, state] : clients_) {
    w.WriteI32(id);
    WriteBatcherState(state.batcher.SaveState(), &w);
    w.WriteDouble(state.last_loss);
    w.WriteI64(state.rejections);
  }
  const ChannelState ch = channel_.SaveState();
  w.WriteRng(ch.rng);
  w.WriteI64(ch.stats.delivered);
  w.WriteI64(ch.stats.dropped);
  w.WriteI64(ch.stats.retried);
  w.WriteI64(ch.stats.corrupted);
  w.WriteI64(ch.stats.duplicated);
  w.WriteI64(ch.stats.timed_out);
  w.WriteDouble(ch.last_latency_ms);
  w.WriteI64(comm_.total_down_bytes());
  w.WriteI64(comm_.total_up_bytes());
  w.WriteI64(comm_.down_messages());
  w.WriteI64(comm_.up_messages());
  w.WriteDouble(clock_.now_ms());
  w.WriteI32(server_version_);
  SaveExtraState(&w);
}

void FederatedAlgorithm::LoadRunState(const std::vector<uint8_t>& blob) {
  CheckpointReader r(blob);
  const std::string saved_name = r.ReadString();
  RFED_CHECK(saved_name == name_)
      << "checkpoint is for algorithm '" << saved_name << "', not '"
      << name_ << "'";
  const bool saved_pool = r.ReadBool();
  RFED_CHECK(saved_pool == pool_mode())
      << "checkpoint was written by a " << SourceName(saved_pool)
      << " run, not a " << SourceName(pool_mode()) << " one";
  const int saved_clients = r.ReadI32();
  RFED_CHECK_EQ(saved_clients, num_clients())
      << "checkpoint is for a pool of " << saved_clients << " clients";
  Tensor state = r.ReadTensor();
  RFED_CHECK_EQ(state.size(), global_state_.size())
      << "checkpointed model has a different parameter count";
  global_state_ = std::move(state);
  rng_.LoadState(r.ReadRng());
  // Pool residents are re-derivable: drop them, and re-materialize
  // exactly the saved set below. Explicit residents are all overwritten.
  if (pool_mode()) {
    clients_.clear();
    lazy_state_bytes_ = 0;
  }
  const uint32_t num_saved = r.ReadU32();
  for (uint32_t i = 0; i < num_saved; ++i) {
    const int id = r.ReadI32();
    RFED_CHECK(id >= 0 && id < num_clients())
        << "checkpoint names client id " << id << " outside the pool of "
        << num_clients() << " clients";
    ClientState& client = EnsureClientMaterialized(id);
    // Batcher::LoadState aborts if the saved index multiset disagrees
    // with this run's view (wrong seed, partition or geometry).
    client.batcher.LoadState(
        ReadBatcherState(&r, id, client.view.train_indices.size()));
    client.last_loss = r.ReadDouble();
    client.rejections = r.ReadI64();
    // Re-publish nonzero reputations so the resumed run's CSV has the
    // same gauge columns as the uninterrupted one.
    if (client.rejections > 0) {
      obs::MetricsRegistry::Get()
          .GetGauge("fl.rejections.c" + std::to_string(id))
          ->Set(static_cast<double>(client.rejections));
    }
  }
  RFED_CHECK_EQ(num_saved, clients_.size())
      << "checkpoint's client sections do not cover the resident clients";
  ChannelState ch;
  ch.rng = r.ReadRng();
  ch.stats.delivered = r.ReadI64();
  ch.stats.dropped = r.ReadI64();
  ch.stats.retried = r.ReadI64();
  ch.stats.corrupted = r.ReadI64();
  ch.stats.duplicated = r.ReadI64();
  ch.stats.timed_out = r.ReadI64();
  ch.last_latency_ms = r.ReadDouble();
  channel_.LoadState(ch);
  const int64_t down_bytes = r.ReadI64();
  const int64_t up_bytes = r.ReadI64();
  const int64_t down_msgs = r.ReadI64();
  const int64_t up_msgs = r.ReadI64();
  comm_.Restore(down_bytes, up_bytes, down_msgs, up_msgs);
  clock_.AdvanceTo(r.ReadDouble());
  server_version_ = r.ReadI32();
  LoadExtraState(&r);
  RFED_CHECK(r.AtEnd()) << "trailing bytes in checkpointed algorithm state";
  // Round-scoped bookkeeping: a checkpoint is always at a round boundary,
  // so nothing is in flight.
  in_flight_.clear();
  agg_scale_.clear();
}

}  // namespace rfed
