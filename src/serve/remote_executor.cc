#include "serve/remote_executor.h"

#include <poll.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

#include "obs/trace.h"
#include "serve/protocol.h"
#include "util/check.h"

namespace rfed {
namespace serve {

namespace {

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

RemoteExecutor::RemoteExecutor(const ExecutorOptions& options)
    : options_(options),
      m_restarts_(
          obs::MetricsRegistry::Get().GetCounter("serve.worker_restarts")),
      m_reassigned_(
          obs::MetricsRegistry::Get().GetCounter("serve.jobs_reassigned")),
      m_heartbeats_(
          obs::MetricsRegistry::Get().GetCounter("serve.heartbeats_sent")),
      m_rtt_(obs::MetricsRegistry::Get().GetHistogram(
          "serve.worker_rtt_ms", {1.0, 5.0, 25.0, 100.0, 500.0})) {}

RemoteExecutor::~RemoteExecutor() { Shutdown(); }

void RemoteExecutor::AcceptWorkers(net::TcpListener* listener,
                                   int num_workers, uint64_t fingerprint,
                                   const std::vector<uint8_t>& state_blob) {
  RFED_CHECK_GE(num_workers, 1);
  RFED_CHECK(workers_.empty()) << "AcceptWorkers called twice";
  listener_ = listener;
  fingerprint_ = fingerprint;
  initial_state_ = state_blob;
  workers_.resize(static_cast<size_t>(num_workers));
  const HelloAckMessage ack{options_.pipelined, state_blob};
  const std::vector<uint8_t> ack_payload = ack.Encode();
  for (int accepted = 0; accepted < num_workers; ++accepted) {
    net::TcpConnection conn = listener->Accept();
    RFED_CHECK(conn.valid()) << "accept failed";
    net::FrameAssembler assembler;
    net::Frame frame;
    RFED_CHECK(net::RecvFrame(&conn, &assembler, &frame))
        << "worker disconnected before HELLO";
    RFED_CHECK(frame.type == net::FrameType::kHello)
        << "expected HELLO, got frame type "
        << static_cast<uint32_t>(frame.type);
    const HelloMessage hello = HelloMessage::Decode(frame.payload);
    RFED_CHECK(hello.worker_id >= 0 && hello.worker_id < num_workers)
        << "worker id " << hello.worker_id << " outside [0, " << num_workers
        << ")";
    RFED_CHECK_EQ(hello.num_workers, num_workers)
        << "worker " << hello.worker_id
        << " was launched for a different worker count";
    RFED_CHECK_EQ(hello.fingerprint, fingerprint)
        << "worker " << hello.worker_id
        << " was launched with a different scenario";
    RFED_CHECK(workers_[static_cast<size_t>(hello.worker_id)] == nullptr)
        << "worker id " << hello.worker_id << " connected twice";
    RFED_CHECK(net::SendFrame(&conn, net::FrameType::kHelloAck, ack_payload))
        << "HELLO_ACK send to worker " << hello.worker_id << " failed";
    stats_.bytes_sent += static_cast<int64_t>(
        ack_payload.size() + net::kFrameHeaderBytes + net::kFrameChecksumBytes);
    InstallWorker(hello.worker_id, std::move(conn), std::move(assembler));
  }
}

void RemoteExecutor::InstallWorker(int worker_id, net::TcpConnection conn,
                                   net::FrameAssembler assembler) {
  auto& slot = workers_[static_cast<size_t>(worker_id)];
  // A replaced slot's previous Worker was fully torn down (sender joined,
  // connection closed, jobs orphaned) by OnWorkerDeath.
  slot = std::make_unique<Worker>();
  slot->conn = std::move(conn);
  slot->assembler = std::move(assembler);
  slot->alive = true;
  slot->last_activity_ms = NowMs();
  Worker* w = slot.get();
  w->sender = std::thread([this, w] { SenderLoop(w); });
}

void RemoteExecutor::SenderLoop(Worker* worker) {
  while (true) {
    Wire wire;
    bool is_shutdown = false;
    {
      std::unique_lock<std::mutex> lock(worker->mu);
      worker->cv.wait(lock, [worker] {
        return !worker->outbox.empty() || worker->closing;
      });
      if (worker->outbox.empty()) {
        is_shutdown = true;
      } else {
        wire = std::move(worker->outbox.front());
        worker->outbox.pop_front();
      }
    }
    if (is_shutdown) {
      // Best-effort: the worker may already be gone.
      net::SendFrame(&worker->conn, net::FrameType::kShutdown, {});
      break;
    }
    if (!worker->conn.SendAll(wire->data(), wire->size())) {
      // Dead peer; the event loop observes send_failed and declares the
      // worker dead from the main thread (never from here — Worker
      // lifecycle is main-thread state).
      std::lock_guard<std::mutex> lock(worker->mu);
      worker->send_failed = true;
      break;
    }
  }
  {
    std::lock_guard<std::mutex> lock(worker->mu);
    worker->sender_done = true;
  }
  worker->cv.notify_all();
}

void RemoteExecutor::Enqueue(Worker* worker, Wire wire) {
  stats_.bytes_sent += static_cast<int64_t>(wire->size());
  {
    std::lock_guard<std::mutex> lock(worker->mu);
    worker->outbox.push_back(std::move(wire));
  }
  worker->cv.notify_one();
}

void RemoteExecutor::Submit(int round, int client, const Tensor& init_state,
                            const std::vector<uint8_t>& context,
                            const std::vector<uint8_t>& batcher_base) {
  RFED_CHECK(!workers_.empty()) << "Submit before AcceptWorkers";
  Wire wire;
  {
    obs::TraceSpan trace_span("wire_encode");
    wire = std::make_shared<const std::vector<uint8_t>>(JobMessage::EncodeFrame(
        round, client, context, batcher_base, init_state));
  }
  stats_.jobs_sent += 1;
  const JobKey key{round, client};
  pending_wire_[key] = wire;
  Worker* worker = PickWorker(client);
  worker->assigned.push_back(key);
  // The busy deadline measures from dispatch, not from the worker's last
  // sign of life — the server may have spent arbitrarily long between
  // rounds in aggregation/eval with every worker silent and healthy.
  worker->last_activity_ms = NowMs();
  Enqueue(worker, std::move(wire));
}

std::pair<Tensor, double> RemoteExecutor::Collect(int round, int client) {
  RFED_CHECK(!workers_.empty()) << "Collect before AcceptWorkers";
  const JobKey key{round, client};
  auto it = completed_.find(key);
  while (it == completed_.end()) {
    PumpEvents();
    it = completed_.find(key);
  }
  std::pair<Tensor, double> out = std::move(it->second);
  completed_.erase(it);
  return out;
}

void RemoteExecutor::PumpEvents() {
  // Senders that hit a dead peer cannot tear the worker down themselves;
  // fold their verdicts in here first.
  for (size_t i = 0; i < workers_.size(); ++i) {
    Worker* w = workers_[i].get();
    if (w == nullptr || !w->alive) continue;
    bool failed;
    {
      std::lock_guard<std::mutex> lock(w->mu);
      failed = w->send_failed;
    }
    if (failed) OnWorkerDeath(static_cast<int>(i), "send failed");
  }
  const int64_t now = NowMs();
  if (options_.worker_timeout_ms > 0) {
    const int64_t timeout = options_.worker_timeout_ms;
    for (size_t i = 0; i < workers_.size(); ++i) {
      Worker* w = workers_[i].get();
      if (w == nullptr || !w->alive) continue;
      if (!w->assigned.empty()) {
        // Busy worker: a RESULT (or PONG) must land within the deadline.
        if (now - w->last_activity_ms > timeout) {
          OnWorkerDeath(static_cast<int>(i), "recv deadline expired");
        }
      } else if (w->ping_sent_ms >= 0) {
        if (now - w->ping_sent_ms > timeout) {
          OnWorkerDeath(static_cast<int>(i), "heartbeat timed out");
        }
      } else if (now - w->last_activity_ms > timeout / 2) {
        // Idle worker gone quiet: probe it. Busy workers are never
        // pinged — a replica mid-training can't answer, and its RESULT
        // deadline already covers it.
        w->ping_seq += 1;
        w->ping_sent_ms = now;
        stats_.heartbeats_sent += 1;
        m_heartbeats_->Increment();
        PingMessage ping;
        ping.seq = w->ping_seq;
        Enqueue(w, std::make_shared<const std::vector<uint8_t>>(
                       net::EncodeFrame(net::FrameType::kPing, ping.Encode())));
      }
    }
  }
  RedistributeOrphans();
  CheckTotalOutage();

  std::vector<struct pollfd> fds;
  std::vector<int> owners;
  for (size_t i = 0; i < workers_.size(); ++i) {
    Worker* w = workers_[i].get();
    if (w == nullptr || !w->alive) continue;
    fds.push_back({w->conn.fd(), POLLIN, 0});
    owners.push_back(static_cast<int>(i));
  }
  if (listener_ != nullptr) fds.push_back({listener_->fd(), POLLIN, 0});
  const int tick = options_.worker_timeout_ms > 0
                       ? std::max(1, options_.worker_timeout_ms / 4)
                       : 200;
  const int ready = ::poll(fds.data(), fds.size(), tick);
  if (ready <= 0) return;  // timeout or EINTR: the next pump rescans
  for (size_t j = 0; j < owners.size(); ++j) {
    // Any event (POLLIN/POLLHUP/POLLERR) is handled by reading: data
    // drains, EOF and errors surface as RecvSome <= 0.
    if (fds[j].revents != 0) DrainWorker(owners[j]);
  }
  if (listener_ != nullptr && (fds.back().revents & POLLIN) != 0) {
    AcceptRejoin();
  }
}

void RemoteExecutor::DrainWorker(int worker_id) {
  Worker* w = workers_[static_cast<size_t>(worker_id)].get();
  if (w == nullptr || !w->alive) return;
  uint8_t buffer[65536];
  const int64_t got = w->conn.RecvSome(buffer, sizeof(buffer));
  if (got <= 0) {
    OnWorkerDeath(worker_id, got == 0 ? "connection closed" : "recv error");
    return;
  }
  stats_.bytes_received += got;
  w->assembler.Feed(buffer, static_cast<size_t>(got));
  net::Frame frame;
  while (true) {
    const net::FrameAssembler::Status status = w->assembler.Next(&frame);
    if (status == net::FrameAssembler::Status::kNeedMore) break;
    RFED_CHECK(status == net::FrameAssembler::Status::kFrame)
        << "worker " << worker_id << " stream corrupt: "
        << w->assembler.error();
    HandleFrame(worker_id, frame);
  }
}

void RemoteExecutor::HandleFrame(int worker_id, const net::Frame& frame) {
  Worker* w = workers_[static_cast<size_t>(worker_id)].get();
  w->last_activity_ms = NowMs();
  switch (frame.type) {
    case net::FrameType::kResult: {
      ResultMessage result;
      {
        obs::TraceSpan trace_span("wire_decode");
        result = ResultMessage::Decode(frame.payload);
      }
      const JobKey key{result.round, result.client};
      if (pending_wire_.erase(key) == 0) {
        // Duplicate: the job was reassigned and both replicas answered.
        // Local training is deterministic given the job body, so the
        // copies are byte-identical — dropping the late one is safe.
        return;
      }
      stats_.results_received += 1;
      for (auto& slot : workers_) {
        if (slot == nullptr) continue;
        auto it = std::find(slot->assigned.begin(), slot->assigned.end(), key);
        if (it != slot->assigned.end()) {
          slot->assigned.erase(it);
          break;
        }
      }
      completed_[key] = {std::move(result.state), result.loss};
      break;
    }
    case net::FrameType::kPong: {
      const PingMessage pong = PingMessage::Decode(frame.payload);
      if (w->ping_sent_ms >= 0 && pong.seq == w->ping_seq) {
        m_rtt_->Observe(static_cast<double>(NowMs() - w->ping_sent_ms));
        w->ping_sent_ms = -1;
      }
      break;
    }
    default:
      RFED_CHECK(false) << "unexpected frame type "
                        << static_cast<uint32_t>(frame.type) << " from worker "
                        << worker_id;
  }
}

void RemoteExecutor::OnWorkerDeath(int worker_id, const char* cause) {
  Worker* w = workers_[static_cast<size_t>(worker_id)].get();
  if (w == nullptr || !w->alive) return;
  w->alive = false;
  {
    std::lock_guard<std::mutex> lock(w->mu);
    w->closing = true;
  }
  w->cv.notify_all();
  // The sender may be blocked mid-SendAll on the dead peer; shutdown(2)
  // makes that call fail without freeing the fd under it.
  w->conn.InterruptBlockingIo();
  if (w->sender.joinable()) w->sender.join();
  w->conn.Close();
  std::fprintf(stderr,
               "rfed_server: worker %d lost (%s), %d outstanding job(s)\n",
               worker_id, cause, static_cast<int>(w->assigned.size()));
  for (const JobKey& key : w->assigned) orphans_.push_back(key);
  w->assigned.clear();
  w->ping_sent_ms = -1;
  if (AliveCount() == 0) all_dead_since_ms_ = NowMs();
  RedistributeOrphans();
}

void RemoteExecutor::RedistributeOrphans() {
  while (!orphans_.empty()) {
    const JobKey key = orphans_.front();
    const auto it = pending_wire_.find(key);
    if (it == pending_wire_.end()) {
      orphans_.pop_front();  // already answered by another replica
      continue;
    }
    Worker* target = LeastLoadedAlive();
    if (target == nullptr) return;  // keep them for the next rejoin
    orphans_.pop_front();
    target->assigned.push_back(key);
    target->last_activity_ms = NowMs();
    stats_.jobs_reassigned += 1;
    m_reassigned_->Increment();
    Enqueue(target, it->second);
  }
}

void RemoteExecutor::AcceptRejoin() {
  net::TcpConnection conn = listener_->Accept();
  if (!conn.valid()) return;
  net::FrameAssembler assembler;
  net::Frame frame;
  // A connection that dies before completing its handshake is noise
  // (port scan, aborted worker start), not a protocol violation.
  if (!net::RecvFrame(&conn, &assembler, &frame)) return;
  int32_t worker_id = 0;
  int32_t num_workers = 0;
  uint64_t fingerprint = 0;
  int32_t last_round = -1;
  if (frame.type == net::FrameType::kHello) {
    const HelloMessage hello = HelloMessage::Decode(frame.payload);
    worker_id = hello.worker_id;
    num_workers = hello.num_workers;
    fingerprint = hello.fingerprint;
  } else if (frame.type == net::FrameType::kHelloRejoin) {
    const HelloRejoinMessage hello = HelloRejoinMessage::Decode(frame.payload);
    worker_id = hello.worker_id;
    num_workers = hello.num_workers;
    fingerprint = hello.fingerprint;
    last_round = hello.last_round;
  } else {
    RFED_CHECK(false) << "expected HELLO or HELLO_REJOIN from rejoining "
                      << "worker, got frame type "
                      << static_cast<uint32_t>(frame.type);
  }
  const int count = static_cast<int>(workers_.size());
  RFED_CHECK(worker_id >= 0 && worker_id < count)
      << "worker id " << worker_id << " outside [0, " << count << ")";
  RFED_CHECK_EQ(num_workers, count)
      << "worker " << worker_id << " was launched for a different worker count";
  RFED_CHECK_EQ(fingerprint, fingerprint_)
      << "worker " << worker_id << " was launched with a different scenario";
  Worker* current = workers_[static_cast<size_t>(worker_id)].get();
  if (current != nullptr && current->alive) {
    // The slot's death may simply not have been observed yet: its
    // connection can still hold RESULT frames ahead of the EOF, or the
    // EOF can still be in flight. Drain it until it dies or stays quiet
    // for a short grace period before ruling this a duplicate.
    constexpr int kRejoinGraceMs = 200;
    while (current->alive) {
      struct pollfd probe = {current->conn.fd(), POLLIN, 0};
      if (::poll(&probe, 1, kRejoinGraceMs) <= 0 || probe.revents == 0) break;
      DrainWorker(worker_id);
    }
    RFED_CHECK(!current->alive)
        << "worker id " << worker_id << " connected twice";
  }
  RFED_CHECK(restarts_used_ < options_.max_worker_restarts)
      << "worker " << worker_id
      << " rejoin refused: worker restart budget ("
      << options_.max_worker_restarts << ") exhausted";
  const std::vector<uint8_t> state =
      state_provider_ ? state_provider_() : initial_state_;
  const HelloAckMessage ack{options_.pipelined, state};
  const std::vector<uint8_t> ack_payload = ack.Encode();
  // The rejoiner dying between connect and ACK is tolerated like any
  // other mid-handshake loss; the budget is only charged on success.
  if (!net::SendFrame(&conn, net::FrameType::kHelloAck, ack_payload)) return;
  stats_.bytes_sent += static_cast<int64_t>(
      ack_payload.size() + net::kFrameHeaderBytes + net::kFrameChecksumBytes);
  restarts_used_ += 1;
  stats_.worker_restarts += 1;
  m_restarts_->Increment();
  std::fprintf(stderr,
               "rfed_server: worker %d rejoined (last_round=%d, restart "
               "%d/%d)\n",
               worker_id, last_round, restarts_used_,
               options_.max_worker_restarts);
  InstallWorker(worker_id, std::move(conn), std::move(assembler));
  all_dead_since_ms_ = -1;
  RedistributeOrphans();
}

RemoteExecutor::Worker* RemoteExecutor::PickWorker(int client) {
  const int count = static_cast<int>(workers_.size());
  while (true) {
    for (int i = 0; i < count; ++i) {
      Worker* w = workers_[static_cast<size_t>((client + i) % count)].get();
      if (w == nullptr || !w->alive) continue;
      bool failed;
      {
        std::lock_guard<std::mutex> lock(w->mu);
        failed = w->send_failed;
      }
      if (!failed) return w;
    }
    // Every worker is dead: wait (bounded by CheckTotalOutage) for one
    // to rejoin.
    PumpEvents();
  }
}

RemoteExecutor::Worker* RemoteExecutor::LeastLoadedAlive() {
  Worker* best = nullptr;
  for (auto& slot : workers_) {
    Worker* w = slot.get();
    if (w == nullptr || !w->alive) continue;
    {
      std::lock_guard<std::mutex> lock(w->mu);
      if (w->send_failed) continue;
    }
    if (best == nullptr || w->assigned.size() < best->assigned.size()) {
      best = w;
    }
  }
  return best;
}

int RemoteExecutor::AliveCount() const {
  int alive = 0;
  for (const auto& slot : workers_) {
    if (slot != nullptr && slot->alive) ++alive;
  }
  return alive;
}

void RemoteExecutor::CheckTotalOutage() {
  if (AliveCount() > 0) {
    all_dead_since_ms_ = -1;
    return;
  }
  if (pending_wire_.empty() && orphans_.empty()) return;
  RFED_CHECK(restarts_used_ < options_.max_worker_restarts)
      << "all workers lost and the worker restart budget ("
      << options_.max_worker_restarts << ") is exhausted";
  if (all_dead_since_ms_ < 0) all_dead_since_ms_ = NowMs();
  const int64_t grace = options_.worker_timeout_ms > 0
                            ? int64_t{10} * options_.worker_timeout_ms
                            : 30000;
  RFED_CHECK(NowMs() - all_dead_since_ms_ <= grace)
      << "all workers lost and none rejoined within " << grace << " ms";
}

void RemoteExecutor::Shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  for (auto& worker : workers_) {
    if (worker == nullptr) continue;
    {
      std::lock_guard<std::mutex> lock(worker->mu);
      worker->closing = true;
    }
    worker->cv.notify_all();
  }
  const auto grace = std::chrono::milliseconds(
      options_.worker_timeout_ms > 0 ? options_.worker_timeout_ms : 1000);
  for (auto& worker : workers_) {
    if (worker == nullptr || !worker->sender.joinable()) continue;
    bool done;
    {
      std::unique_lock<std::mutex> lock(worker->mu);
      done = worker->cv.wait_for(lock, grace,
                                 [&] { return worker->sender_done; });
    }
    // A sender wedged mid-send on a peer that stopped reading would make
    // join() hang forever; interrupting the socket fails the send and
    // lets the thread run to completion.
    if (!done) worker->conn.InterruptBlockingIo();
    worker->sender.join();
    worker->conn.Close();
  }
}

}  // namespace serve
}  // namespace rfed
