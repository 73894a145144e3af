#ifndef RFED_NET_FAULT_PROXY_H_
#define RFED_NET_FAULT_PROXY_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/frame.h"
#include "net/socket.h"

namespace rfed {
namespace net {

/// Fault plan of one proxied connection. Frame counts refer to complete
/// protocol frames observed in the client->upstream direction (HELLO,
/// RESULT, PONG from a worker), so a plan's trigger point is a
/// deterministic position in the protocol, independent of TCP
/// segmentation. A connection may have at most one of kill/black-hole
/// armed; the first threshold reached wins.
struct FaultPlan {
  /// After this many client->upstream frames, sever both sides of the
  /// relay (each peer sees EOF, as if the process died). -1 = never.
  int64_t kill_after_frames = -1;
  /// After this many client->upstream frames, keep both sockets open but
  /// silently discard all further bytes in both directions — the
  /// stalled-peer shape only a deadline detector can catch. -1 = never.
  int64_t blackhole_after_frames = -1;
  /// Runs on the relay thread when the kill fires, before the frame that
  /// fired it is forwarded: a test can freeze the upstream process
  /// there, at a known protocol position. Empty = nothing.
  std::function<void()> on_kill;
};

/// Seeded chaos harness for the serve transport: a TCP relay the tests
/// thread between rfed_worker and rfed_server. Each accepted connection
/// is assigned the FaultPlan registered for its accept index (default:
/// transparent pass-through), so a test seeds an Rng, draws kill/stall
/// points, registers them, and gets a reproducible failure schedule.
/// Mirrors the in-sim FaultChannel idiom (PR 1) at the real-socket tier.
class FaultProxy {
 public:
  /// Starts listening on 127.0.0.1 (kernel-assigned port) and relaying
  /// to upstream_host:upstream_port. The accept loop runs immediately;
  /// register plans before the corresponding connection arrives.
  FaultProxy(const std::string& upstream_host, int upstream_port);
  ~FaultProxy();

  FaultProxy(const FaultProxy&) = delete;
  FaultProxy& operator=(const FaultProxy&) = delete;

  int listen_port() const { return listener_.bound_port(); }

  /// Registers the plan for the connection_index-th accepted connection
  /// (0-based). Connections without a plan relay transparently.
  void SetPlan(int connection_index, const FaultPlan& plan);

  /// Force-kills the connection with the given accept index now (both
  /// sides see EOF). No-op if it never arrived or is already dead.
  void KillConnection(int connection_index);

  /// Number of connections accepted so far.
  int accepted_connections() const;
  /// Number of connections a plan (or KillConnection) has severed.
  int killed_connections() const;

  /// Stops accepting, severs every live relay, and joins all threads.
  /// Called by the destructor; idempotent.
  void Stop();

 private:
  struct Relay;

  void AcceptLoop();
  void RelayLoop(Relay* relay, bool upstream_direction);
  static void Sever(Relay* relay, bool injected);

  std::string upstream_host_;
  int upstream_port_;
  TcpListener listener_;
  std::thread accept_thread_;

  mutable std::mutex mu_;
  std::map<int, FaultPlan> plans_;
  std::vector<std::unique_ptr<Relay>> relays_;
  int killed_ = 0;
  bool stopped_ = false;
};

}  // namespace net
}  // namespace rfed

#endif  // RFED_NET_FAULT_PROXY_H_
