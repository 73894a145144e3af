#ifndef RFED_SERVE_REMOTE_EXECUTOR_H_
#define RFED_SERVE_REMOTE_EXECUTOR_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "fl/algorithm.h"
#include "net/frame.h"
#include "net/socket.h"
#include "obs/metrics.h"

namespace rfed {
namespace serve {

/// Real-transport byte counters, kept strictly apart from the simulated
/// CommStats ledger / metrics registry: the sim's accounting is part of
/// the byte-identical trajectory contract (CSV columns included), while
/// these numbers depend on how many workers the deployment happens to
/// use — and, since PR 10, on which of them died along the way.
struct ServeStats {
  int64_t jobs_sent = 0;
  int64_t models_sent = 0;  ///< MODEL frames queued: one per worker per model
  int64_t results_received = 0;
  int64_t bytes_sent = 0;
  int64_t bytes_received = 0;
  int64_t jobs_reassigned = 0;   ///< orphaned JOBs re-dispatched to survivors
  int64_t worker_restarts = 0;   ///< mid-run HELLO/HELLO_REJOIN handshakes
  int64_t heartbeats_sent = 0;   ///< PING probes on idle connections
};

/// Failure-tolerance knobs of the executor (docs/DEPLOYMENT.md,
/// "Failure model"). Both are deployment-local: they are canonicalized
/// through serve::BuildScenario but fingerprint-exempt, like the worker
/// count — they shape who executes a job, never what the job computes.
struct ExecutorOptions {
  bool pipelined = false;
  /// Failure-detector deadline in milliseconds; 0 disables the detector
  /// (only an EOF/reset then marks a worker dead). A worker holding
  /// outstanding jobs with no activity for this long is declared dead
  /// and its jobs are stolen; an idle worker is PINGed at half this and
  /// declared dead when the PONG is a full deadline late.
  int worker_timeout_ms = 0;
  /// How many mid-run re-handshakes (restarted or reconnecting workers)
  /// the run accepts before a rejoin attempt aborts it. Also bounds the
  /// wait for a rejoin when every worker is dead.
  int max_worker_restarts = 0;
};

/// TrainExecutor shipping each local-training job to an rfed_worker
/// process over TCP. The global model crosses each worker connection
/// once per distinct model, in a MODEL frame encoded once and shared by
/// every outbox; each JOB names it by id and carries only the context
/// and batcher base. The ledger still charges one download per client;
/// the socket carries one copy per worker. Jobs are self-contained given
/// the model they name, so client->worker placement is a preference, not
/// a correctness constraint: Submit routes client k to worker k mod W
/// while it lives and to the least-loaded survivor when it does not, and a
/// connection is sent the named model first whenever it was last sent
/// another (first dispatch, reassignment, a rejoined connection). Each
/// worker connection gets a dedicated sender thread draining an outbox
/// of pre-encoded frames (MODEL, JOB, PING, SHUTDOWN all ride it,
/// keeping the fd single-writer), which is what makes pipelining real: a
/// whole cohort's jobs are queued at once and the broadcast of later
/// jobs overlaps the upload tail of earlier ones.
/// Collect runs an event loop — poll() over every live worker plus the
/// accept socket — so results, failures, heartbeats, and mid-run
/// rejoins are all observed from the caller's thread, whatever order
/// they land in.
class RemoteExecutor : public TrainExecutor {
 public:
  explicit RemoteExecutor(const ExecutorOptions& options);
  /// Convenience for the fault-free harnesses: pipelined flag only,
  /// detector off, no restart budget.
  explicit RemoteExecutor(bool pipelined)
      : RemoteExecutor(ExecutorOptions{pipelined, 0, 0}) {}
  ~RemoteExecutor() override;

  /// Source of the HELLO_ACK state image for mid-run rejoins (typically
  /// the algorithm's current SaveRunState). Without one, rejoiners get
  /// the original AcceptWorkers image — sound either way, because every
  /// JOB carries its own batcher base and a rejoined connection is sent
  /// the model a JOB names before the JOB.
  void set_state_provider(std::function<std::vector<uint8_t>()> provider) {
    state_provider_ = std::move(provider);
  }

  /// Accepts `num_workers` connections, validates each HELLO (worker id
  /// in range and unclaimed, worker count and scenario fingerprint equal
  /// to ours — a mismatched worker would corrupt the run silently), and
  /// completes each handshake with HELLO_ACK carrying `state_blob` (the
  /// algorithm's SaveRunState image every replica restores). Aborts on
  /// any handshake violation. The listener is retained for mid-run
  /// rejoin handshakes and must outlive the executor's rounds.
  void AcceptWorkers(net::TcpListener* listener, int num_workers,
                     uint64_t fingerprint,
                     const std::vector<uint8_t>& state_blob);

  void Submit(int round, int client, const Tensor& init_state,
              const std::vector<uint8_t>& context,
              const std::vector<uint8_t>& batcher_base) override;
  std::pair<Tensor, double> Collect(int round, int client) override;
  bool pipelined() const override { return options_.pipelined; }

  /// Sends SHUTDOWN to every live worker and joins the sender threads.
  /// A sender blocked mid-send on a dead or stalled peer is interrupted
  /// (close-interrupts-send) after a bounded grace, so Shutdown always
  /// returns. Called automatically by the destructor; idempotent.
  void Shutdown();

  const ServeStats& stats() const { return stats_; }
  int num_workers() const { return static_cast<int>(workers_.size()); }

 private:
  using JobKey = std::pair<int, int>;  ///< (round, client)
  /// One encoded frame, immutable once built. A JOB's bytes are shared
  /// by pending_ and every outbox it is queued on, so a reassigned job
  /// resends the very buffer it was first sent from; a MODEL's bytes are
  /// shared the same way by every job that names it.
  using Wire = std::shared_ptr<const std::vector<uint8_t>>;

  /// A job awaiting its RESULT: its JOB frame and the MODEL frame of the
  /// model it names, which it keeps alive for a reassignment.
  struct PendingJob {
    Wire job;
    uint64_t model_id = 0;
    Wire model;
  };

  struct Worker {
    net::TcpConnection conn;
    net::FrameAssembler assembler;  ///< receive side (event loop, main thread)
    std::thread sender;
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Wire> outbox;  ///< encoded wire frames
    bool closing = false;      ///< under mu: drain and exit
    bool send_failed = false;  ///< under mu: sender hit a dead peer
    bool sender_done = false;  ///< under mu: sender thread has returned
    // Main-thread-only failure-detector state.
    bool alive = false;
    std::deque<JobKey> assigned;  ///< outstanding jobs, oldest first
    uint64_t model_id = 0;  ///< model last queued on the outbox; 0: none
    int64_t last_activity_ms = 0;
    int64_t ping_sent_ms = -1;  ///< -1: no PING outstanding
    uint32_t ping_seq = 0;
  };

  void SenderLoop(Worker* worker);
  void Enqueue(Worker* worker, Wire wire);
  /// Queues `job` on `worker`, preceded by its MODEL frame when the
  /// worker's outbox was last given another model.
  void Dispatch(Worker* worker, const PendingJob& job);
  /// Processes every event currently observable — failed senders,
  /// readable worker connections (RESULT/PONG frames), rejoin
  /// handshakes on the listener, expired deadlines — blocking in poll()
  /// for at most one detector tick. The only place failures are
  /// detected and the only place completed_ grows.
  void PumpEvents();
  void DrainWorker(int worker_id);
  void HandleFrame(int worker_id, const net::Frame& frame);
  /// Marks the worker dead, tears down its sender/connection, and moves
  /// its outstanding jobs to the orphan queue for redistribution.
  void OnWorkerDeath(int worker_id, const char* cause);
  /// Re-dispatches orphaned jobs to the least-loaded live workers.
  void RedistributeOrphans();
  /// Accepts one connection from the retained listener mid-run: a HELLO
  /// or HELLO_REJOIN for a dead slot, validated like the initial
  /// handshake and charged against the restart budget.
  void AcceptRejoin();
  /// Routes to worker `client % W` when alive, else the next live slot;
  /// pumps events (waiting out a total outage) until one exists.
  Worker* PickWorker(int client);
  Worker* LeastLoadedAlive();
  int AliveCount() const;
  /// Aborts the run when every worker is dead and no rejoin can or does
  /// come: immediately once the restart budget is spent, else after a
  /// 10x-deadline grace.
  void CheckTotalOutage();
  void InstallWorker(int worker_id, net::TcpConnection conn,
                     net::FrameAssembler assembler);

  ExecutorOptions options_;
  net::TcpListener* listener_ = nullptr;  ///< not owned
  uint64_t fingerprint_ = 0;
  std::vector<uint8_t> initial_state_;
  std::function<std::vector<uint8_t>()> state_provider_;

  std::vector<std::unique_ptr<Worker>> workers_;
  /// The newest model Submit saw, its id (ids start at 1) and MODEL
  /// frame; a Submit whose init state differs in any byte starts the
  /// next one.
  Tensor model_;
  uint64_t model_id_ = 0;
  Wire model_wire_;
  /// Pending jobs by key, kept until the RESULT lands so a dead worker's
  /// jobs can be re-dispatched byte-for-byte.
  std::map<JobKey, PendingJob> pending_;
  /// Results that arrived ahead of their Collect call (reassignment and
  /// pipelining both break per-connection FIFO order).
  std::map<JobKey, std::pair<Tensor, double>> completed_;
  std::deque<JobKey> orphans_;  ///< dead workers' jobs awaiting a new home
  int restarts_used_ = 0;
  int64_t all_dead_since_ms_ = -1;  ///< -1: at least one worker lives

  ServeStats stats_;
  bool shut_down_ = false;
  obs::Counter* m_restarts_;
  obs::Counter* m_reassigned_;
  obs::Counter* m_heartbeats_;
  obs::Histogram* m_rtt_;
};

}  // namespace serve
}  // namespace rfed

#endif  // RFED_SERVE_REMOTE_EXECUTOR_H_
