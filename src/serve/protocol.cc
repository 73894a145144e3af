#include "serve/protocol.h"

#include <cstddef>
#include <cstring>
#include <limits>
#include <string>

#include "net/frame.h"
#include "tensor/serialize.h"
#include "util/check.h"

namespace rfed {
namespace serve {

namespace {

template <typename T>
void Put(const T& value, std::vector<uint8_t>* out) {
  const auto* p = reinterpret_cast<const uint8_t*>(&value);
  out->insert(out->end(), p, p + sizeof(T));
}

/// [length u32][bytes].
void PutBlob(const std::vector<uint8_t>& blob, std::vector<uint8_t>* out) {
  RFED_CHECK_LE(blob.size(), std::numeric_limits<uint32_t>::max())
      << "blob too large for a u32 length prefix";
  Put(static_cast<uint32_t>(blob.size()), out);
  out->insert(out->end(), blob.begin(), blob.end());
}

size_t BlobBytes(const std::vector<uint8_t>& blob) {
  return sizeof(uint32_t) + blob.size();
}

/// Bounds-checked cursor over one frame body. Every read checks the
/// bytes left first; every failure aborts with "<MESSAGE> decoder:
/// <field> ...".
class BodyReader {
 public:
  BodyReader(const std::vector<uint8_t>& body, const char* message)
      : body_(&body), message_(message) {}

  template <typename T>
  T Read(const char* field) {
    RFED_CHECK(sizeof(T) <= left())
        << message_ << " decoder: " << field << " truncated (needs "
        << sizeof(T) << " bytes, " << left() << " left)";
    T value{};
    std::memcpy(&value, body_->data() + cursor_, sizeof(T));
    cursor_ += sizeof(T);
    return value;
  }

  std::vector<uint8_t> ReadBlob(const char* field) {
    const uint32_t length = Read<uint32_t>(field);
    RFED_CHECK(length <= left())
        << message_ << " decoder: " << field << " length " << length
        << " exceeds the " << left() << " bytes left";
    const auto begin = body_->begin() + static_cast<std::ptrdiff_t>(cursor_);
    cursor_ += length;
    return std::vector<uint8_t>(begin, begin + length);
  }

  Tensor ReadTensor(const char* field) {
    const std::string what = std::string(message_) + " decoder: " + field;
    return DeserializeTensor(*body_, &cursor_, what.c_str());
  }

  void ExpectEnd() const {
    RFED_CHECK(left() == 0)
        << message_ << " decoder: " << left() << " trailing bytes";
  }

 private:
  size_t left() const { return body_->size() - cursor_; }

  const std::vector<uint8_t>* body_;
  size_t cursor_ = 0;
  const char* message_;
};

/// A frame of `type` whose body `put_body` appends, in one buffer of
/// exactly `body_bytes` plus framing.
template <typename PutBody>
std::vector<uint8_t> EncodeSizedFrame(net::FrameType type, size_t body_bytes,
                                      PutBody&& put_body) {
  std::vector<uint8_t> out;
  out.reserve(net::kFrameHeaderBytes + body_bytes + net::kFrameChecksumBytes);
  const size_t start = net::BeginFrame(type, &out);
  put_body(&out);
  net::FinishFrame(start, &out);
  return out;
}

}  // namespace

std::vector<uint8_t> HelloMessage::Encode() const {
  std::vector<uint8_t> out;
  Put(worker_id, &out);
  Put(num_workers, &out);
  Put(fingerprint, &out);
  return out;
}

HelloMessage HelloMessage::Decode(const std::vector<uint8_t>& payload) {
  BodyReader reader(payload, "HELLO");
  HelloMessage out;
  out.worker_id = reader.Read<int32_t>("worker_id");
  out.num_workers = reader.Read<int32_t>("num_workers");
  out.fingerprint = reader.Read<uint64_t>("fingerprint");
  reader.ExpectEnd();
  return out;
}

std::vector<uint8_t> HelloAckMessage::Encode() const {
  std::vector<uint8_t> out;
  out.reserve(sizeof(uint32_t) + BlobBytes(state));
  Put(static_cast<uint32_t>(pipelined ? 1 : 0), &out);
  PutBlob(state, &out);
  return out;
}

HelloAckMessage HelloAckMessage::Decode(const std::vector<uint8_t>& payload) {
  BodyReader reader(payload, "HELLO_ACK");
  HelloAckMessage out;
  out.pipelined = reader.Read<uint32_t>("pipelined") != 0;
  out.state = reader.ReadBlob("state");
  reader.ExpectEnd();
  return out;
}

std::vector<uint8_t> ModelMessage::EncodeFrame(uint64_t model_id,
                                               const Tensor& state) {
  const size_t body_bytes =
      sizeof(uint64_t) + static_cast<size_t>(SerializedBytes(state));
  return EncodeSizedFrame(net::FrameType::kModel, body_bytes,
                          [&](std::vector<uint8_t>* out) {
                            Put(model_id, out);
                            SerializeTensor(state, out);
                          });
}

ModelMessage ModelMessage::Decode(const std::vector<uint8_t>& payload) {
  BodyReader reader(payload, "MODEL");
  ModelMessage out;
  out.model_id = reader.Read<uint64_t>("model_id");
  out.state = reader.ReadTensor("state");
  reader.ExpectEnd();
  return out;
}

std::vector<uint8_t> JobMessage::EncodeFrame(
    int32_t round, int32_t client, uint64_t model_id,
    const std::vector<uint8_t>& context,
    const std::vector<uint8_t>& batcher_base) {
  const size_t body_bytes = 2 * sizeof(int32_t) + sizeof(uint64_t) +
                            BlobBytes(context) + BlobBytes(batcher_base);
  return EncodeSizedFrame(net::FrameType::kJob, body_bytes,
                          [&](std::vector<uint8_t>* out) {
                            Put(round, out);
                            Put(client, out);
                            Put(model_id, out);
                            PutBlob(context, out);
                            PutBlob(batcher_base, out);
                          });
}

JobMessage JobMessage::Decode(const std::vector<uint8_t>& payload) {
  BodyReader reader(payload, "JOB");
  JobMessage out;
  out.round = reader.Read<int32_t>("round");
  out.client = reader.Read<int32_t>("client");
  out.model_id = reader.Read<uint64_t>("model_id");
  out.context = reader.ReadBlob("context");
  out.batcher_base = reader.ReadBlob("batcher_base");
  reader.ExpectEnd();
  return out;
}

std::vector<uint8_t> ResultMessage::EncodeFrame() const {
  const size_t body_bytes = 2 * sizeof(int32_t) + sizeof(double) +
                            static_cast<size_t>(SerializedBytes(state));
  return EncodeSizedFrame(net::FrameType::kResult, body_bytes,
                          [this](std::vector<uint8_t>* out) {
                            Put(round, out);
                            Put(client, out);
                            Put(loss, out);
                            SerializeTensor(state, out);
                          });
}

ResultMessage ResultMessage::Decode(const std::vector<uint8_t>& payload) {
  BodyReader reader(payload, "RESULT");
  ResultMessage out;
  out.round = reader.Read<int32_t>("round");
  out.client = reader.Read<int32_t>("client");
  out.loss = reader.Read<double>("loss");
  out.state = reader.ReadTensor("state");
  reader.ExpectEnd();
  return out;
}

std::vector<uint8_t> HelloRejoinMessage::Encode() const {
  std::vector<uint8_t> out;
  Put(worker_id, &out);
  Put(num_workers, &out);
  Put(fingerprint, &out);
  Put(last_round, &out);
  return out;
}

HelloRejoinMessage HelloRejoinMessage::Decode(
    const std::vector<uint8_t>& payload) {
  BodyReader reader(payload, "HELLO_REJOIN");
  HelloRejoinMessage out;
  out.worker_id = reader.Read<int32_t>("worker_id");
  out.num_workers = reader.Read<int32_t>("num_workers");
  out.fingerprint = reader.Read<uint64_t>("fingerprint");
  out.last_round = reader.Read<int32_t>("last_round");
  reader.ExpectEnd();
  return out;
}

std::vector<uint8_t> PingMessage::Encode() const {
  std::vector<uint8_t> out;
  Put(seq, &out);
  return out;
}

PingMessage PingMessage::Decode(const std::vector<uint8_t>& payload) {
  BodyReader reader(payload, "PING/PONG");
  PingMessage out;
  out.seq = reader.Read<uint32_t>("seq");
  reader.ExpectEnd();
  return out;
}

}  // namespace serve
}  // namespace rfed
