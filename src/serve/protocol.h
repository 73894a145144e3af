#ifndef RFED_SERVE_PROTOCOL_H_
#define RFED_SERVE_PROTOCOL_H_

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace rfed {
namespace serve {

/// Payload bodies of the serve protocol's frames (net/frame.h carries
/// them). Fields are fixed-width little-endian integers and doubles;
/// blobs are [length u32][bytes]; a model tensor is its
/// tensor/serialize.h encoding ([rank i64][dims i64...][float32 data]),
/// so the model bytes a worker receives are exactly the bytes the
/// simulator's ledger charges for the transfer. The frame checksum is
/// the only integrity layer: bodies carry no checksum of their own.
/// Every decoder is bounds-checked instead. A blob length, a tensor rank
/// (at most 8) and each tensor dim are checked against the bytes left,
/// with overflow-safe arithmetic, before anything sized by them is
/// allocated, and every failure aborts naming the message and the field
/// (so a sender that computes a valid checksum over a hostile body still
/// cannot make a receiver allocate or read out of bounds).

/// Worker -> server, once per connection: who am I, how many peers do I
/// expect, and a fingerprint of the scenario I was launched with. The
/// server aborts the handshake on any mismatch — a worker building a
/// different model would silently corrupt the run.
struct HelloMessage {
  int32_t worker_id = 0;
  int32_t num_workers = 0;
  uint64_t fingerprint = 0;

  std::vector<uint8_t> Encode() const;
  static HelloMessage Decode(const std::vector<uint8_t>& payload);
};

/// Server -> worker, completing the handshake: whether rounds are
/// pipelined and the algorithm state blob (SaveRunState) the worker
/// replica restores before serving jobs — this is how resumed runs and
/// fresh runs alike put every replica at the server's exact RNG/batcher
/// positions.
struct HelloAckMessage {
  bool pipelined = false;
  std::vector<uint8_t> state;

  std::vector<uint8_t> Encode() const;
  static HelloAckMessage Decode(const std::vector<uint8_t>& payload);
};

/// Server -> worker: train `client` for `round`. `context` is the
/// algorithm's EncodeTrainContextFor blob (SCAFFOLD controls, rFedAvg
/// maps); `batcher_base` is the client's batcher-stream state at the
/// job's start (EncodeBatcherBaseFor), making the job self-contained —
/// any worker replica can execute it from a cold cache, which is what
/// permits reassignment after a worker death; `init_state` is the
/// broadcast global state the client trains from.
///
/// Body: [round i32][client i32][context blob][batcher_base blob]
/// [init_state tensor].
struct JobMessage {
  int32_t round = 0;
  int32_t client = 0;
  std::vector<uint8_t> context;
  std::vector<uint8_t> batcher_base;
  Tensor init_state;

  /// The whole JOB frame (header, body, checksum) for borrowed fields,
  /// written into one exactly-sized buffer, so the server copies each
  /// field once, straight into the frame.
  static std::vector<uint8_t> EncodeFrame(
      int32_t round, int32_t client, const std::vector<uint8_t>& context,
      const std::vector<uint8_t>& batcher_base, const Tensor& init_state);
  static JobMessage Decode(const std::vector<uint8_t>& payload);
};

/// Worker -> server: the trained flat state and the mean local loss for
/// one completed job.
///
/// Body: [round i32][client i32][loss f64][state tensor].
struct ResultMessage {
  int32_t round = 0;
  int32_t client = 0;
  double loss = 0.0;
  Tensor state;

  /// The whole RESULT frame, written into one exactly-sized buffer.
  std::vector<uint8_t> EncodeFrame() const;
  static ResultMessage Decode(const std::vector<uint8_t>& payload);
};

/// Worker -> server, replacing HELLO when a restarted (or reconnecting)
/// rfed_worker re-handshakes mid-run: the same identity triple plus the
/// last round it completed a RESULT for (-1 if none), so the server can
/// log where the replica left off. The server validates exactly as it
/// does HELLO, charges the restart budget, and replies with a fresh
/// HELLO_ACK image.
struct HelloRejoinMessage {
  int32_t worker_id = 0;
  int32_t num_workers = 0;
  uint64_t fingerprint = 0;
  int32_t last_round = -1;

  std::vector<uint8_t> Encode() const;
  static HelloRejoinMessage Decode(const std::vector<uint8_t>& payload);
};

/// Payload of PING and PONG frames: a sequence number the PONG echoes,
/// so a late echo cannot satisfy a newer probe.
struct PingMessage {
  uint32_t seq = 0;

  std::vector<uint8_t> Encode() const;
  static PingMessage Decode(const std::vector<uint8_t>& payload);
};

}  // namespace serve
}  // namespace rfed

#endif  // RFED_SERVE_PROTOCOL_H_
