#ifndef RFED_NET_FRAME_H_
#define RFED_NET_FRAME_H_

#include <cstdint>
#include <string>
#include <vector>

#include "net/socket.h"

namespace rfed {
namespace net {

/// Wire frame: [magic u32][type u32][payload_len u64][payload bytes]
/// [checksum u32 over magic..payload]. All integers little-endian. The
/// checksum is WireChecksum32 (util/hash.h), the only integrity check on
/// the wire: message bodies carry none of their own. It spans the header
/// too, so a corrupted length or type cannot masquerade as a valid
/// (mis-sized) frame. The magic names the checksum: an "RFD1" peer
/// (byte-serial FNV-1a) fails its first frame here on bad magic.
inline constexpr uint32_t kFrameMagic = 0x52464432;  // "RFD2"
inline constexpr size_t kFrameHeaderBytes =
    sizeof(uint32_t) + sizeof(uint32_t) + sizeof(uint64_t);
inline constexpr size_t kFrameChecksumBytes = sizeof(uint32_t);
/// Upper bound on a single frame's payload; a length above this is
/// treated as corruption, not an allocation request.
inline constexpr uint64_t kMaxFramePayloadBytes = uint64_t{1} << 31;

/// Frame types of the serve protocol (docs/DEPLOYMENT.md has the state
/// machine). Values are wire format — never renumber.
enum class FrameType : uint32_t {
  kHello = 1,        ///< worker -> server: identity + scenario fingerprint
  kHelloAck = 2,     ///< server -> worker: mode + algorithm state blob
  kJob = 3,          ///< server -> worker: train this client for this round
  kResult = 4,       ///< worker -> server: trained state + loss
  kShutdown = 5,     ///< server -> worker: drain and exit cleanly
  kPing = 6,         ///< server -> worker: liveness probe on an idle link
  kPong = 7,         ///< worker -> server: echo of a PING's sequence number
  kHelloRejoin = 8,  ///< worker -> server: mid-run re-handshake after a loss
};

/// A decoded frame.
struct Frame {
  FrameType type = FrameType::kHello;
  std::vector<uint8_t> payload;
};

/// Serializes one frame (header + payload + checksum).
std::vector<uint8_t> EncodeFrame(FrameType type,
                                 const std::vector<uint8_t>& payload);

/// In-place frame encoding, for bodies written straight into the frame
/// buffer: BeginFrame appends the header with a placeholder length and
/// returns the frame's start offset; the caller appends the payload to
/// *out; FinishFrame patches the length and appends the checksum.
size_t BeginFrame(FrameType type, std::vector<uint8_t>* out);
void FinishFrame(size_t start, std::vector<uint8_t>* out);

/// Incremental frame decoder. Feed() arbitrary byte chunks as they
/// arrive off the socket; Next() yields complete verified frames. Any
/// integrity violation (bad magic, oversized length, checksum mismatch)
/// is sticky: the stream is undecodable past the first corrupt byte.
/// Received bytes are buffered once; a frame's checksum is verified
/// where it lies and its payload copied out once.
class FrameAssembler {
 public:
  enum class Status {
    kNeedMore,  ///< no complete frame buffered yet
    kFrame,     ///< *out was filled with the next frame
    kError,     ///< stream corrupt; error() describes why
  };

  /// Appends received bytes to the internal buffer.
  void Feed(const uint8_t* data, size_t length);

  /// Extracts the next complete frame, verifying magic and checksum.
  Status Next(Frame* out);

  const std::string& error() const { return error_; }
  size_t buffered_bytes() const { return buffer_.size() - read_; }

 private:
  std::vector<uint8_t> buffer_;
  size_t read_ = 0;  ///< start of the first unconsumed byte in buffer_
  std::string error_;
  bool failed_ = false;
};

/// Blocking helpers over a TcpConnection. SendFrame returns false on a
/// broken connection. RecvFrame pulls from the socket into `assembler`
/// until a frame is complete; false on EOF or error (corrupt stream
/// aborts — a checksum mismatch on an established link means a bug or
/// tampering, not weather).
bool SendFrame(TcpConnection* conn, FrameType type,
               const std::vector<uint8_t>& payload);
bool RecvFrame(TcpConnection* conn, FrameAssembler* assembler, Frame* out);

}  // namespace net
}  // namespace rfed

#endif  // RFED_NET_FRAME_H_
