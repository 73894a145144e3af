#include "net/fault_proxy.h"

#include <atomic>
#include <utility>

#include "util/check.h"

namespace rfed {
namespace net {

/// One proxied worker<->server connection and its fault bookkeeping.
struct FaultProxy::Relay {
  FaultProxy* proxy = nullptr;
  int index = 0;
  FaultPlan plan;
  TcpConnection client;    ///< the side that dialed the proxy (worker)
  TcpConnection upstream;  ///< the side the proxy dialed (server)
  std::thread up_thread;   ///< client -> upstream
  std::thread down_thread; ///< upstream -> client
  /// Frames completed in the client->upstream direction; the plan's
  /// trigger counter.
  std::atomic<int64_t> upstream_frames{0};
  std::atomic<bool> blackholed{false};
  std::atomic<bool> severed{false};
};

FaultProxy::FaultProxy(const std::string& upstream_host, int upstream_port)
    : upstream_host_(upstream_host),
      upstream_port_(upstream_port),
      listener_("127.0.0.1", 0) {
  accept_thread_ = std::thread([this] { AcceptLoop(); });
}

FaultProxy::~FaultProxy() { Stop(); }

void FaultProxy::SetPlan(int connection_index, const FaultPlan& plan) {
  std::lock_guard<std::mutex> lock(mu_);
  plans_[connection_index] = plan;
}

void FaultProxy::AcceptLoop() {
  while (true) {
    TcpConnection client = listener_.Accept();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopped_) return;  // woken by Stop()'s throwaway connection
    }
    if (!client.valid()) return;
    TcpConnection upstream =
        TcpConnection::Connect(upstream_host_, upstream_port_);
    if (!upstream.valid()) {
      // Upstream refused: drop the client too — to the worker this is
      // indistinguishable from the server dying between connect and
      // handshake, which is exactly the event under test.
      continue;
    }
    Relay* relay = nullptr;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto owned = std::make_unique<Relay>();
      relay = owned.get();
      relay->proxy = this;
      relay->index = static_cast<int>(relays_.size());
      auto it = plans_.find(relay->index);
      if (it != plans_.end()) relay->plan = it->second;
      relay->client = std::move(client);
      relay->upstream = std::move(upstream);
      relays_.push_back(std::move(owned));
    }
    relay->up_thread =
        std::thread([this, relay] { RelayLoop(relay, true); });
    relay->down_thread =
        std::thread([this, relay] { RelayLoop(relay, false); });
  }
}

void FaultProxy::Sever(Relay* relay, bool injected) {
  if (relay->severed.exchange(true)) return;
  // Publish the kill before making it observable: once either peer sees
  // its EOF, killed_connections() must already report this sever.
  if (injected) {
    std::lock_guard<std::mutex> lock(relay->proxy->mu_);
    ++relay->proxy->killed_;
  }
  relay->client.InterruptBlockingIo();
  relay->upstream.InterruptBlockingIo();
}

void FaultProxy::RelayLoop(Relay* relay, bool upstream_direction) {
  TcpConnection& from = upstream_direction ? relay->client : relay->upstream;
  TcpConnection& to = upstream_direction ? relay->upstream : relay->client;
  // The counter assembler decodes a private copy of the stream purely to
  // find frame boundaries; the relay itself forwards raw bytes verbatim.
  FrameAssembler counter;
  uint8_t buffer[4096];
  while (true) {
    const int64_t got = from.RecvSome(buffer, sizeof(buffer));
    if (got <= 0) {
      // Natural EOF/error propagates: a proxied connection must behave
      // like a direct one when no fault is armed.
      Sever(relay, /*injected=*/false);
      return;
    }
    // Count the frames this chunk completes before forwarding it, so a
    // kill can mute the other direction first: the client must never
    // see a reply to the frame that triggered its kill.
    bool kill = false;
    bool blackhole = false;
    if (upstream_direction) {
      counter.Feed(buffer, static_cast<size_t>(got));
      Frame frame;
      while (!kill &&
             counter.Next(&frame) == FrameAssembler::Status::kFrame) {
        const int64_t seen = 1 + relay->upstream_frames.fetch_add(1);
        const FaultPlan& plan = relay->plan;
        kill = plan.kill_after_frames >= 0 && seen >= plan.kill_after_frames;
        blackhole = blackhole || (plan.blackhole_after_frames >= 0 &&
                                  seen >= plan.blackhole_after_frames);
      }
    }
    const bool forward = !relay->blackholed.load(std::memory_order_relaxed);
    if (kill) {
      relay->blackholed.store(true);
      if (relay->plan.on_kill) relay->plan.on_kill();
    }
    if (forward && !to.SendAll(buffer, static_cast<size_t>(got))) {
      Sever(relay, /*injected=*/false);
      return;
    }
    if (kill) {
      Sever(relay, /*injected=*/true);
      return;
    }
    if (blackhole) {
      // From here both directions swallow bytes; the sockets stay open
      // so only a deadline (not an EOF) can expose the stall.
      relay->blackholed.store(true, std::memory_order_relaxed);
    }
  }
}

void FaultProxy::KillConnection(int connection_index) {
  Relay* relay = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (connection_index < 0 ||
        connection_index >= static_cast<int>(relays_.size())) {
      return;
    }
    relay = relays_[static_cast<size_t>(connection_index)].get();
  }
  Sever(relay, /*injected=*/true);
}

int FaultProxy::accepted_connections() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(relays_.size());
}

int FaultProxy::killed_connections() const {
  std::lock_guard<std::mutex> lock(mu_);
  return killed_;
}

void FaultProxy::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) return;
    stopped_ = true;
  }
  // A close alone does not wake a thread parked in ::accept; a throwaway
  // connection does, and the loop exits on the stopped_ flag it finds.
  { TcpConnection wake = TcpConnection::Connect("127.0.0.1", listen_port()); }
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.Close();
  std::vector<Relay*> relays;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& relay : relays_) relays.push_back(relay.get());
  }
  for (Relay* relay : relays) Sever(relay, /*injected=*/false);
  for (Relay* relay : relays) {
    if (relay->up_thread.joinable()) relay->up_thread.join();
    if (relay->down_thread.joinable()) relay->down_thread.join();
  }
}

}  // namespace net
}  // namespace rfed
