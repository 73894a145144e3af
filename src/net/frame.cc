#include "net/frame.h"

#include <cstddef>

#include "util/check.h"
#include "util/hash.h"

namespace rfed {
namespace net {

namespace {

/// Offsets of the header fields within a frame.
constexpr size_t kTypeOffset = sizeof(uint32_t);
constexpr size_t kLengthOffset = 2 * sizeof(uint32_t);

/// Receive chunk of RecvFrame: a 47 KB JOB arrives in one or two reads.
constexpr size_t kRecvChunkBytes = 64 * 1024;

void PutLittleEndian(uint64_t value, size_t bytes, uint8_t* out) {
  for (size_t i = 0; i < bytes; ++i) {
    out[i] = static_cast<uint8_t>((value >> (8 * i)) & 0xff);
  }
}

uint64_t GetLittleEndian(const uint8_t* in, size_t bytes) {
  uint64_t value = 0;
  for (size_t i = 0; i < bytes; ++i) {
    value |= static_cast<uint64_t>(in[i]) << (8 * i);
  }
  return value;
}

void AppendU32(std::vector<uint8_t>* out, uint32_t value) {
  const size_t at = out->size();
  out->resize(at + sizeof value);
  PutLittleEndian(value, sizeof value, out->data() + at);
}

}  // namespace

size_t BeginFrame(FrameType type, std::vector<uint8_t>* out) {
  const size_t start = out->size();
  AppendU32(out, kFrameMagic);
  AppendU32(out, static_cast<uint32_t>(type));
  out->resize(start + kFrameHeaderBytes);  // length, patched by FinishFrame
  return start;
}

void FinishFrame(size_t start, std::vector<uint8_t>* out) {
  RFED_CHECK_GE(out->size(), start + kFrameHeaderBytes);
  const uint64_t payload_len = out->size() - start - kFrameHeaderBytes;
  RFED_CHECK_LE(payload_len, kMaxFramePayloadBytes);
  PutLittleEndian(payload_len, sizeof payload_len,
                  out->data() + start + kLengthOffset);
  AppendU32(out, WireChecksum32(out->data() + start, out->size() - start));
}

std::vector<uint8_t> EncodeFrame(FrameType type,
                                 const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> out;
  out.reserve(kFrameHeaderBytes + payload.size() + kFrameChecksumBytes);
  const size_t start = BeginFrame(type, &out);
  out.insert(out.end(), payload.begin(), payload.end());
  FinishFrame(start, &out);
  return out;
}

void FrameAssembler::Feed(const uint8_t* data, size_t length) {
  // Compact before growing: drop the consumed prefix once it is at least
  // half the buffer, so the copy it costs is amortized over the frames
  // that were read past it.
  if (read_ > 0 && read_ >= buffer_.size() - read_) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(read_));
    read_ = 0;
  }
  buffer_.insert(buffer_.end(), data, data + length);
}

FrameAssembler::Status FrameAssembler::Next(Frame* out) {
  if (failed_) return Status::kError;
  const size_t available = buffer_.size() - read_;
  if (available < kFrameHeaderBytes) return Status::kNeedMore;
  const uint8_t* frame = buffer_.data() + read_;
  if (GetLittleEndian(frame, sizeof(uint32_t)) != kFrameMagic) {
    failed_ = true;
    error_ = "bad frame magic";
    return Status::kError;
  }
  const uint64_t payload_len = GetLittleEndian(frame + kLengthOffset,
                                               sizeof(uint64_t));
  if (payload_len > kMaxFramePayloadBytes) {
    failed_ = true;
    error_ = "frame payload length exceeds limit";
    return Status::kError;
  }
  const size_t checked = kFrameHeaderBytes + static_cast<size_t>(payload_len);
  const size_t total = checked + kFrameChecksumBytes;
  if (available < total) return Status::kNeedMore;
  if (GetLittleEndian(frame + checked, kFrameChecksumBytes) !=
      WireChecksum32(frame, checked)) {
    failed_ = true;
    error_ = "frame checksum mismatch";
    return Status::kError;
  }
  out->type = static_cast<FrameType>(
      GetLittleEndian(frame + kTypeOffset, sizeof(uint32_t)));
  out->payload.assign(frame + kFrameHeaderBytes, frame + checked);
  read_ += total;
  if (read_ == buffer_.size()) {
    buffer_.clear();
    read_ = 0;
  }
  return Status::kFrame;
}

bool SendFrame(TcpConnection* conn, FrameType type,
               const std::vector<uint8_t>& payload) {
  const std::vector<uint8_t> bytes = EncodeFrame(type, payload);
  return conn->SendAll(bytes.data(), bytes.size());
}

bool RecvFrame(TcpConnection* conn, FrameAssembler* assembler, Frame* out) {
  uint8_t chunk[kRecvChunkBytes];
  while (true) {
    switch (assembler->Next(out)) {
      case FrameAssembler::Status::kFrame:
        return true;
      case FrameAssembler::Status::kError:
        RFED_CHECK(false) << "corrupt frame stream: " << assembler->error();
        return false;
      case FrameAssembler::Status::kNeedMore:
        break;
    }
    const int64_t got = conn->RecvSome(chunk, sizeof(chunk));
    if (got <= 0) return false;
    assembler->Feed(chunk, static_cast<size_t>(got));
  }
}

}  // namespace net
}  // namespace rfed
