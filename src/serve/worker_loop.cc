#include "serve/worker_loop.h"

#include <tuple>
#include <utility>

#include "net/frame.h"
#include "obs/trace.h"
#include "serve/protocol.h"
#include "util/check.h"

namespace rfed {
namespace serve {

WorkerLoopResult RunWorkerLoop(FederatedAlgorithm* algorithm,
                               net::TcpConnection* conn, int worker_id,
                               int num_workers, uint64_t fingerprint,
                               int rejoin_round) {
  RFED_CHECK(algorithm != nullptr);
  RFED_CHECK(conn->valid());
  WorkerLoopResult out;
  out.last_round = rejoin_round;
  if (rejoin_round >= 0) {
    HelloRejoinMessage hello;
    hello.worker_id = worker_id;
    hello.num_workers = num_workers;
    hello.fingerprint = fingerprint;
    hello.last_round = rejoin_round;
    if (!net::SendFrame(conn, net::FrameType::kHelloRejoin, hello.Encode())) {
      return out;
    }
  } else {
    HelloMessage hello;
    hello.worker_id = worker_id;
    hello.num_workers = num_workers;
    hello.fingerprint = fingerprint;
    if (!net::SendFrame(conn, net::FrameType::kHello, hello.Encode())) {
      return out;
    }
  }
  net::FrameAssembler assembler;
  net::Frame frame;
  if (!net::RecvFrame(conn, &assembler, &frame)) return out;
  RFED_CHECK(frame.type == net::FrameType::kHelloAck)
      << "expected HELLO_ACK, got frame type "
      << static_cast<uint32_t>(frame.type);
  const HelloAckMessage ack = HelloAckMessage::Decode(frame.payload);
  // Adopt the server's run state: every RNG stream position and batcher
  // cursor as of the image. Each JOB then carries its own batcher base,
  // so the replica need not (and after a rejoin, cannot) stay in
  // lockstep with the server's Skip() mirror between jobs.
  algorithm->LoadRunState(ack.state);
  // The one model slot: the id of the MODEL last installed as the
  // replica's global state (0: none yet). Local training only reads the
  // installed state, so every JOB naming this id starts from its bytes.
  uint64_t model_id = 0;
  while (true) {
    if (!net::RecvFrame(conn, &assembler, &frame)) {
      // EOF without SHUTDOWN: the server died, or declared this worker
      // dead and severed the link. The caller decides whether to
      // reconnect.
      return out;
    }
    if (frame.type == net::FrameType::kShutdown) {
      out.clean_shutdown = true;
      return out;
    }
    if (frame.type == net::FrameType::kPing) {
      // Echo the sequence number; the server measures the round trip.
      if (!net::SendFrame(conn, net::FrameType::kPong, frame.payload)) {
        return out;
      }
      continue;
    }
    if (frame.type == net::FrameType::kModel) {
      ModelMessage model;
      {
        obs::TraceSpan trace_span("wire_decode");
        model = ModelMessage::Decode(frame.payload);
      }
      model_id = model.model_id;
      algorithm->InstallGlobalState(std::move(model.state));
      continue;
    }
    RFED_CHECK(frame.type == net::FrameType::kJob)
        << "expected JOB, got frame type "
        << static_cast<uint32_t>(frame.type);
    JobMessage job;
    {
      obs::TraceSpan trace_span("wire_decode");
      job = JobMessage::Decode(frame.payload);
    }
    RFED_CHECK(job.model_id == model_id)
        << "JOB (round " << job.round << ", client " << job.client
        << ") names model " << job.model_id << ", but worker " << worker_id
        << " holds model " << model_id;
    algorithm->InstallBatcherBase(job.client, job.batcher_base);
    algorithm->ApplyTrainContext(job.round, job.client, job.context);
    ResultMessage result;
    result.round = job.round;
    result.client = job.client;
    std::tie(result.state, result.loss) =
        algorithm->ExecuteLocalTraining(job.round, job.client);
    std::vector<uint8_t> wire;
    {
      obs::TraceSpan trace_span("wire_encode");
      wire = result.EncodeFrame();
    }
    if (!conn->SendAll(wire.data(), wire.size())) return out;
    out.last_round = job.round;
  }
}

}  // namespace serve
}  // namespace rfed
