#ifndef RFED_FL_ALGORITHM_H_
#define RFED_FL_ALGORITHM_H_

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "data/batcher.h"
#include "data/client_pool.h"
#include "fl/adversary.h"
#include "fl/channel.h"
#include "fl/comm.h"
#include "fl/compression.h"
#include "fl/types.h"
#include "nn/models.h"
#include "obs/metrics.h"
#include "sim/clock.h"
#include "sim/compute_model.h"
#include "sim/event_queue.h"
#include "sim/network_model.h"
#include "util/thread_pool.h"

namespace rfed {

class CheckpointWriter;
class CheckpointReader;

/// Seed lineage of pool-mode (lazy) per-client batcher streams: client
/// k's batcher RNG is Rng(MixSeed(config.seed, kPoolBatcherLineage, k)),
/// a pure function of the config seed — independent of when, or in which
/// order, clients are materialized. Public so the differential tests can
/// reconstruct the exact stream.
inline constexpr uint64_t kPoolBatcherLineage = 0xba7c4e55eedull;

/// Seam between the round loop and wherever local training actually
/// runs. Without an executor the loop calls LocalTrain in process; the
/// serve layer (src/serve/) installs a RemoteExecutor that ships each
/// job to an rfed_worker process over TCP. Submit hands over (round,
/// client, broadcast init state, algorithm context blob); Collect
/// returns that client's trained flat state and mean local loss. The
/// round loop submits and collects in cohort order, so an
/// implementation may treat each destination's jobs as a FIFO. When
/// pipelined() is true the loop submits a whole cohort before
/// collecting anything (workers train concurrently, broadcast of later
/// jobs overlaps the upload tail of earlier ones); otherwise Submit and
/// Collect strictly alternate. Either way the trajectory is the
/// in-process one.
class TrainExecutor {
 public:
  virtual ~TrainExecutor() = default;
  /// `batcher_base` is the client's batcher-stream snapshot at the job's
  /// start (EncodeBatcherBaseFor, taken before the server's Skip()
  /// mirror), so the job is self-contained: any replica can execute it
  /// without having tracked the client's stream in lockstep — the
  /// property that makes reassigning a dead worker's jobs sound.
  virtual void Submit(int round, int client, const Tensor& init_state,
                      const std::vector<uint8_t>& context,
                      const std::vector<uint8_t>& batcher_base) = 0;
  virtual std::pair<Tensor, double> Collect(int round, int client) = 0;
  virtual bool pipelined() const { return false; }
};

/// Result of one communication round.
struct RoundResult {
  double train_loss = 0.0;   ///< weighted mean local training loss
  double seconds = 0.0;      ///< wall time spent in local computation
  // Simulated time from the discrete-event runtime; all zero under the
  // default free compute/network models.
  double virtual_ms = 0.0;      ///< virtual duration of the round
  double client_p50_ms = 0.0;   ///< median client round-trip latency
  double client_p95_ms = 0.0;   ///< straggler tail latency
  int stragglers_cut = 0;       ///< deadline mode: updates past the cut
  double mean_staleness = 0.0;  ///< async mode: mean versions-behind
};

/// Base class of every federated optimization algorithm in this
/// repository. It implements the FedAvg skeleton — client sampling, E
/// local SGD/RMSProp steps on each sampled client, weighted server
/// aggregation, byte-exact communication accounting — and exposes hooks
/// that subclasses use to become FedProx, SCAFFOLD, q-FedAvg, rFedAvg or
/// rFedAvg+.
///
/// Rounds run on a discrete-event simulation runtime (src/sim/): every
/// transfer and local-training bout is assigned a virtual duration by the
/// configured compute/network models, client completions are arrival
/// events on a virtual clock, and the server's round-termination policy
/// (FlConfig::sim.mode) decides which arrivals make the aggregate:
///   - kSync: barrier on the slowest client (classic FedAvg round);
///   - kDeadline: cut the round at sim.deadline_ms of virtual time and
///     aggregate only the updates that arrived;
///   - kAsync: buffered asynchronous — one server update per
///     sim.async_buffer arrivals, each weighted by 1/(1+staleness).
/// All sim randomness lives in per-(client, round) keyed streams separate
/// from the training RNG, so with the default free models and kSync mode
/// every algorithm is bit-identical to the pre-sim simulator.
///
/// Every round dispatches its cohort (broadcasts, in cohort order), then
/// trains it, then finishes each client in cohort order (upload, hooks,
/// survivor bookkeeping). Training runs sequentially on one scratch
/// model when config.num_threads <= 1, or in parallel on per-client
/// scratch models via a thread pool otherwise; both are bit-identical
/// because each client's randomness (batcher stream) is its own, models
/// draw no randomness after construction, and the fault channel is only
/// drawn from in the ordered dispatch and finish phases.
class FederatedAlgorithm {
 public:
  FederatedAlgorithm(std::string name, const FlConfig& config,
                     const Dataset* train_data,
                     std::vector<ClientView> clients,
                     const ModelFactory& model_factory);

  /// Cross-device (pool) mode: clients are seeded views into a shared
  /// ClientPool, materialized lazily when first sampled — construction is
  /// O(1) in the enrolled population and each round costs O(sampled).
  /// Restrictions: uniform selection and the sync/deadline policies only
  /// (loss-adaptive selection and the async idle scan are O(N) by
  /// nature). The pool must outlive the algorithm.
  FederatedAlgorithm(std::string name, const FlConfig& config,
                     const ClientPool* pool,
                     const ModelFactory& model_factory);
  virtual ~FederatedAlgorithm() = default;

  FederatedAlgorithm(const FederatedAlgorithm&) = delete;
  FederatedAlgorithm& operator=(const FederatedAlgorithm&) = delete;

  const std::string& name() const { return name_; }
  int num_clients() const { return num_clients_; }
  /// True when non-resident clients are materialized lazily from a
  /// ClientPool (explicit partitions are resident from construction).
  bool pool_mode() const { return client_pool_ != nullptr; }
  /// Number of clients whose view/batcher state is currently resident:
  /// every client for explicit partitions, the union of the clients
  /// sampled so far in pool mode.
  int materialized_clients() const { return static_cast<int>(clients_.size()); }
  /// Makes every client resident, turning a pool-mode instance into the
  /// *eager* reference of the lazy-vs-eager differential tests (a no-op
  /// for explicit partitions). O(N); never called by the simulator
  /// itself.
  void MaterializeAllClients();
  const FlConfig& config() const { return config_; }
  const Tensor& global_state() const { return global_state_; }
  CommStats& comm() { return comm_; }
  /// The fault-injecting transport every transfer goes through. With the
  /// default (fault-free) FaultOptions it is a transparent pass-through.
  const FaultChannel& channel() const { return channel_; }
  /// The virtual clock of the simulation runtime (monotone across rounds).
  const VirtualClock& clock() const { return clock_; }
  /// Number of server aggregations applied so far (the "version" that
  /// async staleness is measured against).
  int server_version() const { return server_version_; }
  /// The run's adversarial-client fault model (inactive by default).
  const Adversary& adversary() const { return adversary_; }
  /// Number of updates/maps from `client` the server quarantined (the
  /// rejection reputation; zero on clean runs and for clients that were
  /// never resident).
  int64_t rejection_count(int client) const;

  /// Serializes the run's complete mutable state — global model, every
  /// RNG stream position, batcher cursors, channel/ledger counters,
  /// virtual clock, selection losses, rejection reputation, plus the
  /// subclass's SaveExtraState — into *out (appended). Together with the
  /// trainer's history this is a round-granular checkpoint: restoring it
  /// into a freshly constructed algorithm reproduces the uninterrupted
  /// run bit for bit. Must be called at a round boundary; aborts if
  /// async updates are still in flight.
  void SaveRunState(std::vector<uint8_t>* out) const;

  /// Restores state written by SaveRunState into this freshly
  /// constructed instance. Aborts on an algorithm/topology mismatch
  /// (different name, client count, or model size) or a malformed blob.
  void LoadRunState(const std::vector<uint8_t>& blob);

  /// The scratch model with the *global* state loaded (for evaluation).
  FeatureModel* GlobalModel();

  // ---- Remote execution (src/serve) ----

  /// Installs the executor local training is delegated to (nullptr
  /// restores in-process training). The server stays authoritative for
  /// every piece of run state — selection, channel draws, hooks,
  /// aggregation all still run here, and each delegated client's batcher
  /// stream is advanced in lockstep via Batcher::Skip — so trajectories
  /// and checkpoints are byte-identical to in-process execution. The
  /// executor must outlive the rounds it serves.
  void set_train_executor(TrainExecutor* executor) {
    train_executor_ = executor;
  }
  TrainExecutor* train_executor() const { return train_executor_; }

  /// Worker-side mirror of one delegated job, used by the rfed_worker
  /// replica (never by the serving loop itself): install the broadcast
  /// model, apply the job's context blob, run the local steps.
  void InstallGlobalState(Tensor state) { SetGlobalState(std::move(state)); }

  /// The EncodeTrainContext hook's output for one job, framed for
  /// ApplyTrainContext on the worker replica.
  std::vector<uint8_t> EncodeTrainContextFor(int round, int client) const;

  /// Decodes a context blob written by EncodeTrainContextFor into this
  /// replica's DecodeTrainContext hook. Aborts on trailing bytes.
  void ApplyTrainContext(int round, int client,
                         const std::vector<uint8_t>& blob);

  /// Serializes `client`'s current batcher-stream state (shuffled order,
  /// cursor, shuffle RNG) — the explicit base a JOB carries so a worker
  /// replica can execute it without the lockstep Skip() assumption. Must
  /// be called *before* SkipLocalBatches mirrors the job server-side.
  std::vector<uint8_t> EncodeBatcherBaseFor(int client);

  /// Restores a blob written by EncodeBatcherBaseFor into this replica's
  /// batcher for `client` (worker side, once per JOB). Aborts on an
  /// index-multiset mismatch (wrong client or partition) or trailing
  /// bytes.
  void InstallBatcherBase(int client, const std::vector<uint8_t>& blob);

  /// Runs the client's local steps from the installed global state (the
  /// worker half of a JOB); advances this replica's batcher stream with
  /// real Next() draws, exactly as the server's Skip() replica does.
  std::pair<Tensor, double> ExecuteLocalTraining(int round, int client);

  /// Executes one communication round, advancing the global model. In
  /// async mode one call == one server update (sim.async_buffer arrivals).
  virtual RoundResult RunRound(int round);

 protected:
  // ---- Hooks for subclasses ----

  /// Called once per round before any local training. In async mode
  /// `selected` holds only the *newly dispatched* clients (previously
  /// dispatched ones are still in flight).
  virtual void OnRoundStart(int round, const std::vector<int>& selected) {}

  /// Extra differentiable loss added to the local objective of `client`
  /// for one mini-batch (e.g. the λ·r_k distribution regularizer).
  /// Return an invalid Variable for "none". May run on a worker thread;
  /// must not mutate shared algorithm state.
  virtual Variable ExtraLoss(int client, const ModelOutput& output,
                             const Batch& batch) {
    return Variable();
  }

  /// Called after backward and before the optimizer step of each local
  /// step; may adjust the gradients of `params` — the parameters of the
  /// model instance actually training `client`, which is NOT the shared
  /// scratch model when training runs on the thread pool (FedProx,
  /// SCAFFOLD). May run on a worker thread; must not mutate shared state.
  virtual void PostBackward(int client,
                            const std::vector<Variable*>& params) {}

  /// Called after `client` finished its local steps *and* its update
  /// reached the server within the round policy's window; `new_state` is
  /// its trained flat model (rFedAvg computes its δ map here). Always
  /// runs on the main thread, after the whole cohort (or streaming
  /// chunk) trained: in cohort order on the sync/deadline path, at
  /// arrival in virtual-time order in async mode. State it updates must
  /// not feed back into the same round's training — buffer it and commit
  /// in OnRoundEnd, as rFedAvg does for δ maps and SCAFFOLD for c.
  virtual void OnClientTrained(int round, int client,
                               const Tensor& new_state) {}

  /// Aggregates client states into the next global state. `selected`
  /// holds the round's *survivors* — clients whose updates reached the
  /// server through the fault channel within the round policy's window
  /// (the full sampled cohort in sync fault-free runs). The default is
  /// the FedAvg weighted average with weights renormalized over that
  /// set — scaled by the staleness factors in async mode — so dropped
  /// clients never skew the mean, summed on the canonical pairwise tree
  /// (fl/shard_agg.h); a robust aggregator replaces it with
  /// RobustCombine. `start_losses` holds each survivor's objective at its
  /// round-start model when RequiresStartLosses() (q-FedAvg). Not called
  /// at all if every update was lost (the global state holds), nor by
  /// barrier rounds that fold the same tree mean as updates finish (see
  /// SupportsStreamingAggregation).
  virtual void Aggregate(int round, const std::vector<int>& selected,
                         const std::vector<Tensor>& new_states,
                         const std::vector<double>& start_losses);

  /// Called after aggregation with the round's survivors (rFedAvg+ runs
  /// its second synchronization and map refresh here).
  virtual void OnRoundEnd(int round, const std::vector<int>& selected) {}

  /// Subclasses that need F_k(w_t) at the round-start model (q-FedAvg)
  /// return true to have start_losses computed (extra forward pass).
  virtual bool RequiresStartLosses() const { return false; }

  /// Number of local steps `client` runs this round. The default is the
  /// configured E; FedNova lets it vary with the client's data size.
  virtual int LocalSteps(int client) const { return config_.local_steps; }

  /// Hook for subclass state that must survive a crash: SCAFFOLD's
  /// control variates, FedAvgM's momentum, rFedAvg's map store and DP
  /// noise stream. Called by Save/LoadRunState after the base state;
  /// Load must read exactly what Save wrote (the blob is length-checked).
  virtual void SaveExtraState(CheckpointWriter* writer) const {}
  virtual void LoadExtraState(CheckpointReader* reader) {}

  /// Serializes the server-side state a remote worker replica needs —
  /// beyond the broadcast init state itself — before it can run
  /// LocalTrain for `client` this round: SCAFFOLD's control variates,
  /// rFedAvg's peer δ maps. The base writes nothing (FedAvg-family
  /// training depends only on the init state). Decode must read exactly
  /// what Encode wrote for the same (round, client); ApplyTrainContext
  /// length-checks the blob.
  virtual void EncodeTrainContext(int round, int client,
                                  CheckpointWriter* writer) const {}
  virtual void DecodeTrainContext(int round, int client,
                                  CheckpointReader* reader) {}

  /// Whether barrier rounds may fold each survivor into the tree mean as
  /// it finishes, in place of the Aggregate call (and train in chunks of
  /// stream_chunk clients). Only valid for algorithms that use the base
  /// class's FedAvg weighted mean; any subclass overriding Aggregate
  /// (q-FedAvg, FedAvgM, FedNova) must return false, since folding never
  /// materializes the new_states vector their override needs.
  virtual bool SupportsStreamingAggregation() const { return true; }

  // ---- Services for subclasses ----

  /// Runs E local steps from `init_state` on `client`; returns the new
  /// flat state and the mean mini-batch loss. Trains on `model` when
  /// given (a per-client scratch model on the parallel path), else on
  /// the shared scratch model.
  std::pair<Tensor, double> LocalTrain(int round, int client,
                                       const Tensor& init_state,
                                       FeatureModel* model = nullptr);

  /// Mean loss of `client`'s local objective at `state` (no gradient),
  /// over at most config.max_examples_per_pass examples. Evaluates on
  /// `model` when given, else on the shared scratch model.
  double EvaluateLocalLoss(int client, const Tensor& state,
                           FeatureModel* model = nullptr);

  /// Mean feature vector δ_k of `client`'s local data under `state`
  /// (capped full-data pass); the paper's local mapping operator. With
  /// use_logits the map is taken over the logits layer instead (the
  /// regularizer-placement ablation).
  Tensor ComputeClientDelta(int client, const Tensor& state,
                            bool use_logits = false);

  /// Sends one full model through the fault channel (charging the
  /// ledger); returns true iff the transfer was delivered this round.
  bool ChargeModelDownload();
  bool ChargeModelUpload();

  std::vector<Variable*> Params() { return model_->Parameters(); }
  int64_t model_bytes() const { return model_bytes_; }
  /// FedAvg weight p_k = n_k / n of one client (n fixed at
  /// construction). Materializes k in pool mode, like client_view.
  double client_weight(int k) const;
  const Dataset* train_data() const { return train_data_; }
  /// Client k's index view. Pool mode materializes (and keeps) it on
  /// first use — main thread only; worker threads see views the round's
  /// phase A already pinned.
  const ClientView& client_view(int k) const;
  Rng* rng() { return &rng_; }
  FeatureModel* raw_model() { return model_.get(); }
  void SetGlobalState(Tensor state) { global_state_ = std::move(state); }

  /// Picks the round's cohort of round(SR * N) clients using the
  /// configured selection strategy (uniform or loss-adaptive).
  std::vector<int> SampleClients();

  /// Applies the configured upload compressor to (state - global): the
  /// returned state is global + roundtrip(delta). Charges the compressed
  /// wire size instead of the full model when a compressor is active.
  /// *delivered (may be null) reports whether the upload survived the
  /// fault channel; an undelivered state must not be aggregated.
  Tensor CompressUploadedState(const Tensor& state,
                               bool* delivered = nullptr);

  /// Mutable channel for subclasses routing their own transfers.
  FaultChannel& channel() { return channel_; }

  /// Applies the configured robust aggregation rule (trimmed mean,
  /// median, or norm-bounded mean anchored at `reference`) to the
  /// survivors' values under their renormalized p_k weights (times the
  /// async staleness scales when set). Only valid when
  /// config().robust.mean() is false; the coordinate blocks run on the
  /// thread pool when there is one, with the same bytes at every thread
  /// count.
  Tensor RobustCombine(const std::vector<int>& selected,
                       const std::vector<Tensor>& values,
                       const Tensor& reference);

  /// Non-finite screen for a client-computed feature map (rFedAvg/+).
  /// Returns true when the map is clean or validation is off; otherwise
  /// quarantines it — `fl.quarantined_maps` plus the client's rejection
  /// reputation — and returns false, so the poisoned map never reaches
  /// the DeltaMapStore.
  bool ScreenMap(int client, const Tensor& map);

  /// Caps an index list to config.max_examples_per_pass examples
  /// (deterministic prefix after a client-stable shuffle).
  std::vector<int> CappedIndices(int client) const;

 private:
  /// Shared constructor of both modes; exactly one of `clients` / `pool`
  /// is populated.
  FederatedAlgorithm(std::string name, const FlConfig& config,
                     const Dataset* train_data,
                     std::vector<ClientView> clients, const ClientPool* pool,
                     const ModelFactory& model_factory);

  /// Per-client record of the round's dispatch, local-training and
  /// upload phases.
  struct ClientWork {
    int client = -1;
    bool trained = false;     ///< model broadcast arrived and E steps ran
    Tensor state;             ///< trained local flat state
    double loss = 0.0;        ///< mean mini-batch loss of the local steps
    double start_loss = 0.0;  ///< F_k(w_t) when RequiresStartLosses()
    double down_ms = 0.0;     ///< virtual broadcast latency
    double compute_ms = 0.0;  ///< virtual local-compute duration
    // Set by UploadUpdate.
    Tensor uploaded;              ///< post-compression state to aggregate
    bool delivered = false;       ///< upload survived the fault channel
    double completion_ms = 0.0;   ///< down + compute + up duration
  };

  /// An update travelling to the server in async mode.
  struct InFlight {
    int version = 0;  ///< server_version_ at dispatch (staleness base)
    ClientWork work;
  };

  /// Everything the server keeps per resident client.
  struct ClientState {
    ClientView view;
    Batcher batcher;  ///< the client's mini-batch stream
    /// Last reported local loss (drives loss-adaptive selection).
    double last_loss = std::numeric_limits<double>::quiet_NaN();
    int64_t rejections = 0;  ///< quarantine count (rejection reputation)
  };

  /// Broadcasts to and locally trains `cohort` (in order): phase A runs
  /// the channel transfers and draws virtual durations sequentially (the
  /// shared channel RNG must be consumed in a deterministic order), phase
  /// B runs the local training — on the thread pool with per-client
  /// scratch models when the configuration allows, else sequentially on
  /// the shared one.
  void TrainCohort(int round, const std::vector<int>& cohort,
                   bool want_start_losses, std::vector<ClientWork>* work);

  /// True when phase B should train the cohort on the thread pool.
  bool UseParallelPath(size_t cohort_size) const;

  /// True when a pipelined executor should submit this cohort's jobs in
  /// phase A and collect them in phase B.
  bool UseRemotePipelined(size_t cohort_size) const;

  /// The post-training steps both round policies share for a client that
  /// trained: records its loss, applies adversarial corruption, uploads
  /// through the compressor and fault channel, and stamps the virtual
  /// completion time (fills the upload fields of *w).
  void UploadUpdate(int round, ClientWork* w);

  /// Runs one client's local training wherever it belongs: LocalTrain in
  /// process, or Submit+Collect through the installed executor (with the
  /// server's batcher replica advanced via SkipLocalBatches). Pipelined
  /// cohorts pass already_submitted = true, having submitted in phase A.
  std::pair<Tensor, double> DispatchTrain(int round, int client,
                                          const Tensor& init_state,
                                          FeatureModel* model,
                                          bool already_submitted);

  /// Advances `client`'s batcher stream by LocalSteps(client) skipped
  /// batches — the state mutation LocalTrain would have caused here.
  void SkipLocalBatches(int client);

  /// Lazily builds per-task scratch models for the parallel path.
  void EnsureScratchModels(size_t n);

  /// Sync and deadline policies: barrier round with an optional cut.
  RoundResult RunRoundBarrier(int round);
  /// Buffered-async policy: one server update per async_buffer arrivals.
  RoundResult RunRoundAsync(int round);

  /// Bumps `client`'s rejection reputation and publishes its (lazily
  /// registered) `fl.rejections.c<k>` gauge.
  void RecordRejection(int client);

  /// Records `client`'s last local loss.
  void RecordLoss(int client, double loss) {
    EnsureClientMaterialized(client).last_loss = loss;
  }

  /// Client k's resident state. A pool-mode client that is not resident
  /// yet is materialized from the pool's keyed streams first (the lazy
  /// path). Materialization must run on the main thread; phase A of each
  /// round pins the cohort so phase B workers only look clients up.
  ClientState& EnsureClientMaterialized(int k) const;

  Batcher& BatcherFor(int k) { return EnsureClientMaterialized(k).batcher; }

  /// True when barrier rounds fold each survivor into the tree mean as it
  /// finishes instead of buffering new_states for Aggregate.
  bool FoldsBaseMean() const;

  /// The server-side validation screen: true when `state` and `uploaded`
  /// are both clean (or validation is off), false after quarantining the
  /// update (counter + reputation). Runs before OnClientTrained so a
  /// poisoned update never touches control variates or map stores.
  bool ValidateUpdate(int client, const Tensor& state,
                      const Tensor& uploaded);

  std::string name_;
  FlConfig config_;
  const Dataset* train_data_;
  int num_clients_;
  int64_t total_examples_ = 0;  ///< n of p_k = n_k / n
  // ---- Client-state store ----
  // The only place per-client state lives, keyed by client id. Explicit
  // partitions are resident from construction; pool mode materializes a
  // client when first sampled and keeps it, so a re-sampled client
  // resumes its own batcher stream exactly where it left off. Mutable
  // because materialization happens behind const accessors
  // (client_view/CappedIndices).
  mutable std::map<int, ClientState> clients_;
  const ClientPool* client_pool_ = nullptr;  ///< lazy source; null if explicit
  mutable int64_t lazy_state_bytes_ = 0;  ///< view+batcher bytes materialized
  // Scale gauges, registered only in pool and chunked runs so other
  // runs' CSV columns are unchanged.
  obs::Gauge* m_agg_peak_bytes_ = nullptr;
  obs::Gauge* m_materialized_clients_ = nullptr;
  obs::Gauge* m_client_state_bytes_ = nullptr;
  /// The run's adversarial clients (fl/adversary.h); inert by default.
  Adversary adversary_;
  ModelFactory model_factory_;
  std::unique_ptr<FeatureModel> model_;
  Tensor global_state_;
  int64_t model_bytes_;
  Rng rng_;
  CommStats comm_;
  FaultChannel channel_;
  std::unique_ptr<UpdateCompressor> compressor_;
  bool compression_enabled_;
  // Robustness metric handles, registered eagerly at construction so
  // every run's CSV has the same columns.
  obs::Counter* m_quarantined_;
  obs::Counter* m_quarantined_maps_;
  obs::Counter* m_clipped_;
  obs::Histogram* m_update_norm_;

  // ---- Simulation runtime ----
  VirtualClock clock_;
  EventQueue queue_;
  std::unique_ptr<ComputeTimeModel> compute_model_;
  NetworkModel network_model_;
  /// Per-survivor aggregation scale for the current Aggregate call
  /// (async staleness weights); empty = all ones (bit-identical path).
  std::vector<double> agg_scale_;
  int server_version_ = 0;
  // Async bookkeeping: updates in flight (their clients are the busy
  // set).
  std::unordered_map<int64_t, InFlight> in_flight_;

  // ---- Parallel local training ----
  std::unique_ptr<ThreadPool> pool_;
  std::vector<std::unique_ptr<FeatureModel>> scratch_models_;

  // ---- Remote execution ----
  TrainExecutor* train_executor_ = nullptr;  ///< not owned; may be null
};

}  // namespace rfed

#endif  // RFED_FL_ALGORITHM_H_
