// Transport-layer tests: the frame codec under truncation, partial
// reads and bit flips; the MODEL, JOB and RESULT bodies from a sender that
// computes a valid frame checksum over hostile bytes (the
// checkpoint-corruption death-test idiom of robustness_test.cc applied
// to the wire path); host:port parsing; and a live localhost socket
// round trip.

#include <gtest/gtest.h>

#include <poll.h>
#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "net/fault_proxy.h"
#include "net/frame.h"
#include "net/socket.h"
#include "serve/protocol.h"
#include "test_util.h"
#include "util/flags.h"
#include "util/hash.h"

namespace rfed {
namespace {

using net::Frame;
using net::FrameAssembler;
using net::FrameType;

std::vector<uint8_t> TestPayload(size_t n) {
  std::vector<uint8_t> payload(n);
  for (size_t i = 0; i < n; ++i) {
    payload[i] = static_cast<uint8_t>((i * 31 + 7) & 0xff);
  }
  return payload;
}

TEST(FrameCodec, RoundTripsSingleFrame) {
  const std::vector<uint8_t> payload = TestPayload(129);
  const std::vector<uint8_t> wire = net::EncodeFrame(FrameType::kJob, payload);
  EXPECT_EQ(wire.size(), net::kFrameHeaderBytes + payload.size() +
                             net::kFrameChecksumBytes);
  FrameAssembler assembler;
  assembler.Feed(wire.data(), wire.size());
  Frame frame;
  ASSERT_EQ(assembler.Next(&frame), FrameAssembler::Status::kFrame);
  EXPECT_EQ(frame.type, FrameType::kJob);
  EXPECT_EQ(frame.payload, payload);
  EXPECT_EQ(assembler.buffered_bytes(), 0u);
  EXPECT_EQ(assembler.Next(&frame), FrameAssembler::Status::kNeedMore);
}

TEST(FrameCodec, ReassemblesFromSingleByteFeeds) {
  // Worst-case partial reads: the stream arrives one byte at a time,
  // across two back-to-back frames.
  std::vector<uint8_t> wire = net::EncodeFrame(FrameType::kHello, TestPayload(40));
  const std::vector<uint8_t> second =
      net::EncodeFrame(FrameType::kResult, TestPayload(7));
  wire.insert(wire.end(), second.begin(), second.end());
  FrameAssembler assembler;
  Frame frame;
  int complete = 0;
  for (uint8_t byte : wire) {
    assembler.Feed(&byte, 1);
    while (assembler.Next(&frame) == FrameAssembler::Status::kFrame) {
      ++complete;
      if (complete == 1) {
        EXPECT_EQ(frame.type, FrameType::kHello);
      }
      if (complete == 2) {
        EXPECT_EQ(frame.type, FrameType::kResult);
      }
    }
  }
  EXPECT_EQ(complete, 2);
  EXPECT_EQ(assembler.buffered_bytes(), 0u);
}

// Payload lengths that drive each path of the frame checksum over the
// 16-byte header plus payload: the bytewise tail alone (8 B), whole
// 32-byte blocks with no tail (48 B), blocks plus a tail (61 B), and a
// ~4 KB frame of many blocks plus a tail.
constexpr size_t kChecksumPathPayloads[] = {8, 48, 61, 4093};

TEST(FrameCodec, TruncatedFrameIsIncompleteNotCorrupt) {
  for (size_t payload : kChecksumPathPayloads) {
    const std::vector<uint8_t> wire =
        net::EncodeFrame(FrameType::kJob, TestPayload(payload));
    for (size_t keep : {size_t{0}, size_t{3}, net::kFrameHeaderBytes,
                        wire.size() / 2, wire.size() - 1}) {
      FrameAssembler assembler;
      assembler.Feed(wire.data(), keep);
      Frame frame;
      EXPECT_EQ(assembler.Next(&frame), FrameAssembler::Status::kNeedMore)
          << "prefix of " << keep << " bytes of a " << payload
          << "-byte payload";
    }
  }
}

TEST(FrameCodec, DetectsBitFlipAnywhere) {
  // Flip every bit of every byte — magic, type, payload and checksum —
  // except the length field (bytes 8..15), whose corruption is covered
  // separately below because an inflated length legitimately stalls a
  // streaming parser until the checksum arrives.
  for (size_t payload : kChecksumPathPayloads) {
    const std::vector<uint8_t> wire =
        net::EncodeFrame(FrameType::kResult, TestPayload(payload));
    std::vector<uint8_t> mangled = wire;
    for (size_t pos = 0; pos < wire.size(); ++pos) {
      if (pos >= 8 && pos < 16) continue;
      for (int bit = 0; bit < 8; ++bit) {
        mangled[pos] ^= static_cast<uint8_t>(1u << bit);
        FrameAssembler assembler;
        assembler.Feed(mangled.data(), mangled.size());
        mangled[pos] = wire[pos];
        Frame frame;
        ASSERT_EQ(assembler.Next(&frame), FrameAssembler::Status::kError)
            << "flip of bit " << bit << " at byte " << pos << " of a "
            << payload << "-byte payload went undetected";
        EXPECT_FALSE(assembler.error().empty());
        // Corruption is sticky: feeding more valid bytes cannot
        // resurrect the stream.
        assembler.Feed(wire.data(), wire.size());
        ASSERT_EQ(assembler.Next(&frame), FrameAssembler::Status::kError);
      }
    }
  }
}

TEST(FrameCodec, LengthFieldFlipFailsTheChecksum) {
  const std::vector<uint8_t> wire =
      net::EncodeFrame(FrameType::kResult, TestPayload(48));
  // Deflating flip (0x30 -> 0x20): the shortened frame completes within
  // the bytes already buffered and its checksum cannot match.
  {
    std::vector<uint8_t> mangled = wire;
    mangled[8] ^= 0x10;
    FrameAssembler assembler;
    assembler.Feed(mangled.data(), mangled.size());
    Frame frame;
    EXPECT_EQ(assembler.Next(&frame), FrameAssembler::Status::kError);
  }
  // Inflating flip (0x30 -> 0x70): the parser stalls waiting for the
  // phantom bytes — and errors as soon as they "arrive", because the
  // checksum now covers garbage.
  {
    std::vector<uint8_t> mangled = wire;
    mangled[8] ^= 0x40;
    FrameAssembler assembler;
    assembler.Feed(mangled.data(), mangled.size());
    Frame frame;
    EXPECT_EQ(assembler.Next(&frame), FrameAssembler::Status::kNeedMore);
    const std::vector<uint8_t> filler(64, 0xab);
    assembler.Feed(filler.data(), filler.size());
    EXPECT_EQ(assembler.Next(&frame), FrameAssembler::Status::kError);
  }
}

TEST(FrameCodec, RejectsOversizedLength) {
  std::vector<uint8_t> wire = net::EncodeFrame(FrameType::kJob, TestPayload(8));
  // Overwrite the u64 length field (offset 8) with an absurd value; the
  // assembler must refuse before attempting the allocation. The checksum
  // is wrong too, but the length guard fires first.
  for (int i = 0; i < 8; ++i) {
    wire[8 + static_cast<size_t>(i)] = 0xff;
  }
  FrameAssembler assembler;
  assembler.Feed(wire.data(), wire.size());
  Frame frame;
  EXPECT_EQ(assembler.Next(&frame), FrameAssembler::Status::kError);
  EXPECT_NE(assembler.error().find("length"), std::string::npos);
}

// A peer of the previous wire format ("RFD2": JOBs that carry the model)
// fails its first frame on the magic, even under a valid checksum.
TEST(FrameCodec, RejectsPreviousWireFormatMagic) {
  std::vector<uint8_t> wire = net::EncodeFrame(FrameType::kJob, TestPayload(8));
  const uint32_t rfd2 = 0x52464432;
  std::memcpy(wire.data(), &rfd2, sizeof rfd2);
  const size_t checked = wire.size() - net::kFrameChecksumBytes;
  const uint32_t checksum = WireChecksum32(wire.data(), checked);
  std::memcpy(wire.data() + checked, &checksum, sizeof checksum);
  FrameAssembler assembler;
  assembler.Feed(wire.data(), wire.size());
  Frame frame;
  EXPECT_EQ(assembler.Next(&frame), FrameAssembler::Status::kError);
  EXPECT_EQ(assembler.error(), "bad frame magic");
}

// ---- MODEL, JOB and RESULT bodies from a hostile sender ----
//
// The frame checksum stops a flipped bit, not a sender that computes it
// over bad bytes, so each body decoder must refuse an inflated or cut
// field by name before allocating anything that field sizes.

using serve::JobMessage;
using serve::ModelMessage;
using serve::ResultMessage;

JobMessage MakeJob() {
  JobMessage job;
  job.round = 3;
  job.client = 5;
  job.model_id = 0x0102030405060708ULL;
  job.context = TestPayload(12);
  job.batcher_base = TestPayload(20);
  return job;
}

ModelMessage MakeModel() {
  ModelMessage model;
  model.model_id = 7;
  model.state = testing::PatternTensor({6, 7}, 1.0f);
  return model;
}

ResultMessage MakeResult() {
  ResultMessage result;
  result.round = 3;
  result.client = 5;
  result.loss = 0.625;
  result.state = testing::PatternTensor({6, 7}, 0.5f);
  return result;
}

// Byte offsets of the fields in MakeJob()'s, MakeModel()'s and
// MakeResult()'s bodies.
constexpr size_t kJobModelId = 8;
constexpr size_t kJobContextLen = kJobModelId + 8;
constexpr size_t kJobBatcherLen = kJobContextLen + 4 + 12;
constexpr size_t kJobEnd = kJobBatcherLen + 4 + 20;
constexpr size_t kModelRank = 8;
constexpr size_t kModelDims = kModelRank + 8;
constexpr size_t kModelData = kModelDims + 2 * 8;
constexpr size_t kResultRank = 16;
constexpr size_t kResultDims = kResultRank + 8;
constexpr size_t kResultData = kResultDims + 2 * 8;

template <typename T>
void Poke(std::vector<uint8_t>* body, size_t offset, T value) {
  ASSERT_LE(offset + sizeof(T), body->size());
  std::memcpy(body->data() + offset, &value, sizeof(T));
}

/// `body` cut at `tensor_at` and given a rank-8 tensor whose dims are
/// each 255, followed by 1024 data bytes: every dim fits in the 256
/// floats those bytes hold, but the product (255^8) overflows int64.
std::vector<uint8_t> WithOverflowingShape(std::vector<uint8_t> body,
                                          size_t tensor_at) {
  body.resize(tensor_at);
  const int64_t rank = 8;
  const int64_t dim = 255;
  const auto* r = reinterpret_cast<const uint8_t*>(&rank);
  const auto* d = reinterpret_cast<const uint8_t*>(&dim);
  body.insert(body.end(), r, r + sizeof rank);
  for (int i = 0; i < rank; ++i) body.insert(body.end(), d, d + sizeof dim);
  body.resize(body.size() + 1024, 0);
  return body;
}

/// The payload of the single frame in `wire`, as FrameAssembler yields it.
std::vector<uint8_t> BodyOf(const std::vector<uint8_t>& wire) {
  FrameAssembler assembler;
  assembler.Feed(wire.data(), wire.size());
  Frame frame;
  EXPECT_EQ(assembler.Next(&frame), FrameAssembler::Status::kFrame);
  EXPECT_EQ(assembler.buffered_bytes(), 0u);
  return frame.payload;
}

std::vector<uint8_t> JobBody(const JobMessage& job) {
  return BodyOf(JobMessage::EncodeFrame(job.round, job.client, job.model_id,
                                        job.context, job.batcher_base));
}

std::vector<uint8_t> ModelBody(const ModelMessage& model) {
  return BodyOf(ModelMessage::EncodeFrame(model.model_id, model.state));
}

void ExpectSameTensor(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape().dims(), b.shape().dims());
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(),
                           static_cast<size_t>(a.size()) * sizeof(float)));
}

TEST(WireBodies, ModelRoundTrip) {
  const ModelMessage model = MakeModel();
  const std::vector<uint8_t> wire =
      ModelMessage::EncodeFrame(model.model_id, model.state);
  FrameAssembler assembler;
  assembler.Feed(wire.data(), wire.size());
  Frame frame;
  ASSERT_EQ(assembler.Next(&frame), FrameAssembler::Status::kFrame);
  EXPECT_EQ(frame.type, FrameType::kModel);
  EXPECT_EQ(frame.payload.size(), kModelData + 42 * sizeof(float));
  const ModelMessage back = ModelMessage::Decode(frame.payload);
  EXPECT_EQ(back.model_id, model.model_id);
  ExpectSameTensor(back.state, model.state);
}

TEST(WireBodies, JobAndResultRoundTrip) {
  const JobMessage job = MakeJob();
  const std::vector<uint8_t> job_body = JobBody(job);
  // The JOB names its model and carries no tensor.
  EXPECT_EQ(job_body.size(), kJobEnd);
  const JobMessage job_back = JobMessage::Decode(job_body);
  EXPECT_EQ(job_back.round, job.round);
  EXPECT_EQ(job_back.client, job.client);
  EXPECT_EQ(job_back.model_id, job.model_id);
  EXPECT_EQ(job_back.context, job.context);
  EXPECT_EQ(job_back.batcher_base, job.batcher_base);

  const ResultMessage result = MakeResult();
  const std::vector<uint8_t> result_body = BodyOf(result.EncodeFrame());
  EXPECT_EQ(result_body.size(), kResultData + 42 * sizeof(float));
  const ResultMessage result_back = ResultMessage::Decode(result_body);
  EXPECT_EQ(result_back.round, result.round);
  EXPECT_EQ(result_back.client, result.client);
  EXPECT_EQ(result_back.loss, result.loss);
  ExpectSameTensor(result_back.state, result.state);
}

TEST(WireBodiesDeathTest, JobRejectsInflatedFields) {
  const std::vector<uint8_t> body = JobBody(MakeJob());
  std::vector<uint8_t> hostile = body;
  Poke<uint32_t>(&hostile, kJobContextLen, 0xFFFFFFFFu);
  EXPECT_DEATH(JobMessage::Decode(hostile),
               "JOB decoder: context length 4294967295 exceeds");
  hostile = body;
  Poke<uint32_t>(&hostile, kJobBatcherLen, 0xFFFFFFFFu);
  EXPECT_DEATH(JobMessage::Decode(hostile),
               "JOB decoder: batcher_base length 4294967295 exceeds");
  hostile = body;
  hostile.push_back(0);
  EXPECT_DEATH(JobMessage::Decode(hostile), "JOB decoder: 1 trailing bytes");
}

TEST(WireBodiesDeathTest, JobRejectsTruncationAtEveryField) {
  const std::vector<uint8_t> body = JobBody(MakeJob());
  const struct {
    size_t keep;
    const char* error;
  } cuts[] = {
      {0, "JOB decoder: round truncated"},
      {4, "JOB decoder: client truncated"},
      {kJobModelId, "JOB decoder: model_id truncated"},
      {kJobModelId + 7, "JOB decoder: model_id truncated"},
      {kJobContextLen, "JOB decoder: context truncated"},
      {kJobContextLen + 4, "JOB decoder: context length 12 exceeds"},
      {kJobBatcherLen, "JOB decoder: batcher_base truncated"},
      {kJobBatcherLen + 4, "JOB decoder: batcher_base length 20 exceeds"},
      {body.size() - 1, "JOB decoder: batcher_base length 20 exceeds"},
  };
  for (const auto& cut : cuts) {
    const std::vector<uint8_t> prefix(
        body.begin(), body.begin() + static_cast<std::ptrdiff_t>(cut.keep));
    EXPECT_DEATH(JobMessage::Decode(prefix), cut.error)
        << "JOB body cut to " << cut.keep << " bytes";
  }
}

TEST(WireBodiesDeathTest, ModelRejectsInflatedFields) {
  const std::vector<uint8_t> body = ModelBody(MakeModel());
  std::vector<uint8_t> hostile = body;
  Poke<int64_t>(&hostile, kModelRank, 9);
  EXPECT_DEATH(ModelMessage::Decode(hostile), "MODEL decoder: state rank 9");
  hostile = body;
  Poke<int64_t>(&hostile, kModelDims, int64_t{1} << 40);
  EXPECT_DEATH(ModelMessage::Decode(hostile),
               "MODEL decoder: state dim 0 .1099511627776. outside");
  hostile = body;
  Poke<int64_t>(&hostile, kModelDims + 8, -1);
  EXPECT_DEATH(ModelMessage::Decode(hostile),
               "MODEL decoder: state dim 1 .-1. outside");
  EXPECT_DEATH(ModelMessage::Decode(WithOverflowingShape(body, kModelRank)),
               "MODEL decoder: state element count overflows int64");
  hostile = body;
  hostile.push_back(0);
  EXPECT_DEATH(ModelMessage::Decode(hostile),
               "MODEL decoder: 1 trailing bytes");
}

TEST(WireBodiesDeathTest, ModelRejectsTruncationAtEveryField) {
  const std::vector<uint8_t> body = ModelBody(MakeModel());
  const struct {
    size_t keep;
    const char* error;
  } cuts[] = {
      {0, "MODEL decoder: model_id truncated"},
      {kModelRank - 1, "MODEL decoder: model_id truncated"},
      {kModelRank, "MODEL decoder: state truncated"},
      {kModelDims, "MODEL decoder: state truncated"},
      {kModelDims + 8, "MODEL decoder: state truncated"},
      {kModelData, "MODEL decoder: state dim 0 .6. outside"},
      {body.size() - 1, "MODEL decoder: state shape holds 42 floats"},
  };
  for (const auto& cut : cuts) {
    const std::vector<uint8_t> prefix(
        body.begin(), body.begin() + static_cast<std::ptrdiff_t>(cut.keep));
    EXPECT_DEATH(ModelMessage::Decode(prefix), cut.error)
        << "MODEL body cut to " << cut.keep << " bytes";
  }
}

TEST(WireBodiesDeathTest, ResultRejectsInflatedFields) {
  const std::vector<uint8_t> body = BodyOf(MakeResult().EncodeFrame());
  std::vector<uint8_t> hostile = body;
  Poke<int64_t>(&hostile, kResultRank, 9);
  EXPECT_DEATH(ResultMessage::Decode(hostile), "RESULT decoder: state rank 9");
  hostile = body;
  Poke<int64_t>(&hostile, kResultDims + 8, int64_t{1} << 40);
  EXPECT_DEATH(ResultMessage::Decode(hostile),
               "RESULT decoder: state dim 1 .1099511627776. outside");
  EXPECT_DEATH(ResultMessage::Decode(WithOverflowingShape(body, kResultRank)),
               "RESULT decoder: state element count overflows int64");
  hostile = body;
  hostile.push_back(0);
  EXPECT_DEATH(ResultMessage::Decode(hostile),
               "RESULT decoder: 1 trailing bytes");
}

TEST(WireBodiesDeathTest, ResultRejectsTruncationAtEveryField) {
  const std::vector<uint8_t> body = BodyOf(MakeResult().EncodeFrame());
  const struct {
    size_t keep;
    const char* error;
  } cuts[] = {
      {0, "RESULT decoder: round truncated"},
      {4, "RESULT decoder: client truncated"},
      {8, "RESULT decoder: loss truncated"},
      {kResultRank, "RESULT decoder: state truncated"},
      {kResultDims, "RESULT decoder: state truncated"},
      {kResultDims + 8, "RESULT decoder: state truncated"},
      {kResultData, "RESULT decoder: state dim 0 .6. outside"},
      {body.size() - 1, "RESULT decoder: state shape holds 42 floats"},
  };
  for (const auto& cut : cuts) {
    const std::vector<uint8_t> prefix(
        body.begin(), body.begin() + static_cast<std::ptrdiff_t>(cut.keep));
    EXPECT_DEATH(ResultMessage::Decode(prefix), cut.error)
        << "RESULT body cut to " << cut.keep << " bytes";
  }
}

// ---- host:port parsing ----

TEST(HostPortTest, ParsesValidEndpoints) {
  HostPort hp;
  ASSERT_TRUE(ParseHostPort("127.0.0.1:7710", &hp));
  EXPECT_EQ(hp.host, "127.0.0.1");
  EXPECT_EQ(hp.port, 7710);
  ASSERT_TRUE(ParseHostPort("localhost:0", &hp));
  EXPECT_EQ(hp.host, "localhost");
  EXPECT_EQ(hp.port, 0);
  ASSERT_TRUE(ParseHostPort("example.com:65535", &hp));
  EXPECT_EQ(hp.port, 65535);
}

TEST(HostPortTest, RejectsMalformedEndpoints) {
  HostPort hp{"unchanged", 42};
  EXPECT_FALSE(ParseHostPort("", &hp));
  EXPECT_FALSE(ParseHostPort("nocolon", &hp));
  EXPECT_FALSE(ParseHostPort(":7710", &hp));        // empty host
  EXPECT_FALSE(ParseHostPort("host:", &hp));        // empty port
  EXPECT_FALSE(ParseHostPort("host:12ab", &hp));    // non-numeric
  EXPECT_FALSE(ParseHostPort("host:65536", &hp));   // out of range
  EXPECT_FALSE(ParseHostPort("host:123456", &hp));  // too many digits
  EXPECT_FALSE(ParseHostPort("host:-1", &hp));
  // A failed parse leaves the output untouched.
  EXPECT_EQ(hp.host, "unchanged");
  EXPECT_EQ(hp.port, 42);
}

// ---- live sockets ----

TEST(SocketTest, FramesSurviveLocalhostRoundTrip) {
  net::TcpListener listener("127.0.0.1", 0);
  ASSERT_GT(listener.bound_port(), 0);
  const std::vector<uint8_t> payload = TestPayload(3000);
  std::thread client([&] {
    net::TcpConnection conn =
        net::TcpConnection::Connect("127.0.0.1", listener.bound_port());
    ASSERT_TRUE(conn.valid());
    ASSERT_TRUE(net::SendFrame(&conn, FrameType::kHello, payload));
    net::FrameAssembler assembler;
    Frame echoed;
    ASSERT_TRUE(net::RecvFrame(&conn, &assembler, &echoed));
    EXPECT_EQ(echoed.type, FrameType::kHelloAck);
    EXPECT_EQ(echoed.payload, payload);
  });
  net::TcpConnection server = listener.Accept();
  ASSERT_TRUE(server.valid());
  net::FrameAssembler assembler;
  Frame frame;
  ASSERT_TRUE(net::RecvFrame(&server, &assembler, &frame));
  EXPECT_EQ(frame.type, FrameType::kHello);
  EXPECT_EQ(frame.payload, payload);
  ASSERT_TRUE(net::SendFrame(&server, FrameType::kHelloAck, frame.payload));
  client.join();
}

TEST(SocketTest, RecvFrameReportsEof) {
  net::TcpListener listener("127.0.0.1", 0);
  std::thread client([&] {
    net::TcpConnection conn =
        net::TcpConnection::Connect("127.0.0.1", listener.bound_port());
    ASSERT_TRUE(conn.valid());
    conn.Close();  // orderly shutdown with no frames sent
  });
  net::TcpConnection server = listener.Accept();
  client.join();
  net::FrameAssembler assembler;
  Frame frame;
  EXPECT_FALSE(net::RecvFrame(&server, &assembler, &frame));
}

TEST(SocketTest, ConnectToDeadPortFails) {
  // Bind then close a listener so the port is known-dead.
  int dead_port = 0;
  {
    net::TcpListener listener("127.0.0.1", 0);
    dead_port = listener.bound_port();
  }
  BackoffPolicy policy;
  policy.initial_ms = 1.0;
  policy.max_ms = 2.0;
  net::TcpConnection conn =
      net::TcpConnection::ConnectWithRetry("127.0.0.1", dead_port, 3, policy);
  EXPECT_FALSE(conn.valid());
}

// ---- SendAll under short writes and interrupted syscalls ----

// Handler body is irrelevant: its arrival is what makes a blocking
// ::send return EINTR (installed without SA_RESTART below).
void SigUsr1Handler(int) {}

TEST(SocketTest, SendAllSurvivesShortWritesAndEintrStorm) {
  // Shrink the kernel send queue so SendAll's short-write loop runs for
  // real, and bombard the sending (main) thread with SIGUSR1 so ::send
  // keeps returning EINTR mid-transfer. SendAll must still deliver the
  // whole buffer byte-exactly.
  struct sigaction action, old_action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = SigUsr1Handler;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // no SA_RESTART: the syscall must surface EINTR
  ASSERT_EQ(sigaction(SIGUSR1, &action, &old_action), 0);

  net::TcpListener listener("127.0.0.1", 0);
  net::TcpConnection client =
      net::TcpConnection::Connect("127.0.0.1", listener.bound_port());
  ASSERT_TRUE(client.valid());
  int tiny = 4096;
  ASSERT_EQ(setsockopt(client.fd(), SOL_SOCKET, SO_SNDBUF, &tiny,
                       sizeof(tiny)), 0);
  net::TcpConnection server = listener.Accept();
  ASSERT_TRUE(server.valid());

  const std::vector<uint8_t> blob = TestPayload(4 << 20);
  std::atomic<bool> done{false};

  // Drain slowly in small chunks so the send queue stays near-full
  // (short writes) for most of the transfer.
  std::vector<uint8_t> received;
  std::thread reader([&] {
    received.reserve(blob.size());
    uint8_t chunk[8192];
    int chunks = 0;
    while (received.size() < blob.size()) {
      const int64_t got = server.RecvSome(chunk, sizeof(chunk));
      ASSERT_GT(got, 0);
      received.insert(received.end(), chunk, chunk + got);
      if (++chunks % 32 == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
  });

  const pthread_t sender_thread = pthread_self();
  std::thread storm([&] {
    while (!done.load(std::memory_order_relaxed)) {
      pthread_kill(sender_thread, SIGUSR1);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  EXPECT_TRUE(client.SendAll(blob.data(), blob.size()));
  done.store(true, std::memory_order_relaxed);
  storm.join();
  reader.join();
  EXPECT_EQ(received, blob);
  sigaction(SIGUSR1, &old_action, nullptr);
}

TEST(SocketTest, InterruptBlockingIoUnblocksAWedgedSend) {
  net::TcpListener listener("127.0.0.1", 0);
  // Small receive queue (inherited by the accepted socket) so the
  // sender wedges quickly against a peer that never reads.
  int tiny = 4096;
  ASSERT_EQ(setsockopt(listener.fd(), SOL_SOCKET, SO_RCVBUF, &tiny,
                       sizeof(tiny)), 0);
  net::TcpConnection client =
      net::TcpConnection::Connect("127.0.0.1", listener.bound_port());
  ASSERT_TRUE(client.valid());
  ASSERT_EQ(setsockopt(client.fd(), SOL_SOCKET, SO_SNDBUF, &tiny,
                       sizeof(tiny)), 0);
  net::TcpConnection server = listener.Accept();  // deliberately never read

  std::atomic<bool> send_returned{false};
  std::atomic<bool> send_ok{true};
  std::thread sender([&] {
    const std::vector<uint8_t> blob(32 << 20, 0x5a);
    send_ok.store(client.SendAll(blob.data(), blob.size()));
    send_returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(send_returned.load());  // wedged against the full queue
  client.InterruptBlockingIo();
  sender.join();
  EXPECT_FALSE(send_ok.load());
}

// ---- ConnectWithRetry backoff sequencing ----

TEST(SocketTest, ConnectWithRetryFollowsTheBackoffSchedule) {
  // Pick a currently-free port, then release it so the first attempts
  // fail; the sleep hook brings the listener up during the third delay,
  // so attempt 4 succeeds. The recorded delays must be exactly the
  // jitter-free exponential schedule.
  int port = 0;
  {
    net::TcpListener probe("127.0.0.1", 0);
    port = probe.bound_port();
  }
  BackoffPolicy policy;
  policy.initial_ms = 10.0;
  policy.multiplier = 2.0;
  policy.max_ms = 1000.0;
  std::vector<double> delays;
  std::unique_ptr<net::TcpListener> listener;
  net::TcpConnection conn = net::TcpConnection::ConnectWithRetry(
      "127.0.0.1", port, 10, policy, [&](double delay_ms) {
        delays.push_back(delay_ms);
        if (delays.size() == 3) {
          listener = std::make_unique<net::TcpListener>("127.0.0.1", port);
        }
      });
  EXPECT_TRUE(conn.valid());
  ASSERT_EQ(delays.size(), 3u);
  EXPECT_DOUBLE_EQ(delays[0], 10.0);
  EXPECT_DOUBLE_EQ(delays[1], 20.0);
  EXPECT_DOUBLE_EQ(delays[2], 40.0);
}

TEST(SocketTest, ConnectWithRetryDoesNotSleepAfterTheLastAttempt) {
  int dead_port = 0;
  {
    net::TcpListener probe("127.0.0.1", 0);
    dead_port = probe.bound_port();
  }
  BackoffPolicy policy;
  policy.initial_ms = 10.0;
  std::vector<double> delays;
  net::TcpConnection conn = net::TcpConnection::ConnectWithRetry(
      "127.0.0.1", dead_port, 3, policy,
      [&](double delay_ms) { delays.push_back(delay_ms); });
  EXPECT_FALSE(conn.valid());
  // Three attempts, two inter-attempt delays: exhaustion returns
  // immediately rather than sleeping one more time.
  EXPECT_EQ(delays.size(), 2u);
}

TEST(SocketDeathTest, ConnectWithRetryOrDieAbortsWithEndpoint) {
  int dead_port = 0;
  {
    net::TcpListener probe("127.0.0.1", 0);
    dead_port = probe.bound_port();
  }
  BackoffPolicy policy;
  policy.initial_ms = 1.0;
  policy.max_ms = 1.0;
  EXPECT_DEATH(net::TcpConnection::ConnectWithRetryOrDie(
                   "127.0.0.1", dead_port, 2, policy),
               "cannot connect to 127.0.0.1");
}

// ---- fault proxy (the chaos harness of serve_test.cc) ----

TEST(FaultProxyTest, RelaysFramesTransparentlyBothWays) {
  net::TcpListener upstream("127.0.0.1", 0);
  net::FaultProxy proxy("127.0.0.1", upstream.bound_port());
  net::TcpConnection client =
      net::TcpConnection::Connect("127.0.0.1", proxy.listen_port());
  ASSERT_TRUE(client.valid());
  net::TcpConnection server = upstream.Accept();
  ASSERT_TRUE(server.valid());

  const std::vector<uint8_t> payload = TestPayload(2000);
  ASSERT_TRUE(net::SendFrame(&client, FrameType::kJob, payload));
  net::FrameAssembler up_assembler;
  Frame frame;
  ASSERT_TRUE(net::RecvFrame(&server, &up_assembler, &frame));
  EXPECT_EQ(frame.type, FrameType::kJob);
  EXPECT_EQ(frame.payload, payload);

  ASSERT_TRUE(net::SendFrame(&server, FrameType::kResult, payload));
  net::FrameAssembler down_assembler;
  ASSERT_TRUE(net::RecvFrame(&client, &down_assembler, &frame));
  EXPECT_EQ(frame.type, FrameType::kResult);
  EXPECT_EQ(frame.payload, payload);

  EXPECT_EQ(proxy.accepted_connections(), 1);
  EXPECT_EQ(proxy.killed_connections(), 0);
}

TEST(FaultProxyTest, KillPlanSeversBothSidesAtTheScheduledFrame) {
  net::TcpListener upstream("127.0.0.1", 0);
  net::FaultProxy proxy("127.0.0.1", upstream.bound_port());
  net::FaultPlan plan;
  plan.kill_after_frames = 2;
  proxy.SetPlan(0, plan);

  net::TcpConnection client =
      net::TcpConnection::Connect("127.0.0.1", proxy.listen_port());
  ASSERT_TRUE(client.valid());
  net::TcpConnection server = upstream.Accept();
  ASSERT_TRUE(server.valid());

  // Frames up to and including the threshold are still delivered — the
  // kill lands at a deterministic protocol position, not mid-frame.
  net::FrameAssembler up_assembler;
  Frame frame;
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(net::SendFrame(&client, FrameType::kJob, TestPayload(64)));
    ASSERT_TRUE(net::RecvFrame(&server, &up_assembler, &frame));
  }
  // The threshold frame tripped the plan: both peers now see EOF.
  net::FrameAssembler down_assembler;
  EXPECT_FALSE(net::RecvFrame(&client, &down_assembler, &frame));
  EXPECT_FALSE(net::RecvFrame(&server, &up_assembler, &frame));
  EXPECT_EQ(proxy.killed_connections(), 1);
}

TEST(FaultProxyTest, BlackholePlanStallsTrafficWithoutEof) {
  net::TcpListener upstream("127.0.0.1", 0);
  net::FaultProxy proxy("127.0.0.1", upstream.bound_port());
  net::FaultPlan plan;
  plan.blackhole_after_frames = 1;
  proxy.SetPlan(0, plan);

  net::TcpConnection client =
      net::TcpConnection::Connect("127.0.0.1", proxy.listen_port());
  ASSERT_TRUE(client.valid());
  net::TcpConnection server = upstream.Accept();
  ASSERT_TRUE(server.valid());

  // Frame 1 passes, arming the black hole.
  net::FrameAssembler up_assembler;
  Frame frame;
  ASSERT_TRUE(net::SendFrame(&client, FrameType::kJob, TestPayload(32)));
  ASSERT_TRUE(net::RecvFrame(&server, &up_assembler, &frame));

  // Everything after is swallowed in both directions — and crucially
  // neither socket reports EOF, so only a deadline can expose the stall.
  ASSERT_TRUE(net::SendFrame(&client, FrameType::kJob, TestPayload(32)));
  pollfd on_server{server.fd(), POLLIN, 0};
  EXPECT_EQ(::poll(&on_server, 1, 200), 0);

  ASSERT_TRUE(net::SendFrame(&server, FrameType::kResult, TestPayload(32)));
  pollfd on_client{client.fd(), POLLIN, 0};
  EXPECT_EQ(::poll(&on_client, 1, 200), 0);

  EXPECT_EQ(proxy.killed_connections(), 0);
}

}  // namespace
}  // namespace rfed
