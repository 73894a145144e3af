#include "fl/checkpoint.h"

#include <cmath>
#include <cstring>
#include <fstream>
#include <map>
#include <set>

#include "tensor/serialize.h"
#include "util/check.h"
#include "util/csv_writer.h"
#include "util/hash.h"
#include "util/string_util.h"

namespace rfed {

namespace {

/// Magic + version of the run-checkpoint container. Bump the version on
/// any layout change; Load aborts on a mismatch rather than misparsing.
constexpr char kCheckpointMagic[8] = {'R', 'F', 'E', 'D',
                                      'C', 'K', 'P', 'T'};
constexpr uint32_t kCheckpointVersion = 3;

/// The fewest bytes one RoundMetrics record (two 4-byte and twelve
/// 8-byte fields, then the metric count) and one metric pair (an empty
/// name's length, then the value) take in the payload. Load bounds each
/// count by the bytes left before it reserves for that count.
constexpr size_t kRoundRecordMinBytes =
    2 * sizeof(int32_t) + 12 * sizeof(int64_t) + sizeof(uint32_t);
constexpr size_t kMetricRecordMinBytes = sizeof(uint32_t) + sizeof(double);

void WriteFileOrDie(const std::vector<uint8_t>& buffer,
                    const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  RFED_CHECK(out.good()) << "cannot open " << path;
  out.write(reinterpret_cast<const char*>(buffer.data()),
            static_cast<std::streamsize>(buffer.size()));
  RFED_CHECK(out.good()) << "write failed for " << path;
}

std::vector<uint8_t> ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  RFED_CHECK(in.good()) << "cannot open " << path;
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
}

/// Appends the FNV-1a footer over everything currently in the buffer.
void AppendChecksum(std::vector<uint8_t>* buffer) {
  const uint32_t checksum = Fnv1a32(buffer->data(), buffer->size());
  const uint8_t* p = reinterpret_cast<const uint8_t*>(&checksum);
  buffer->insert(buffer->end(), p, p + sizeof checksum);
}

/// Verifies the trailing FNV-1a footer and returns the payload length
/// (buffer size minus the footer). Aborts on truncation or mismatch.
size_t VerifyChecksum(const std::vector<uint8_t>& buffer,
                      const std::string& path) {
  RFED_CHECK_GT(buffer.size(), sizeof(uint32_t))
      << path << " is truncated (no checksum footer)";
  const size_t payload = buffer.size() - sizeof(uint32_t);
  uint32_t stored = 0;
  std::memcpy(&stored, buffer.data() + payload, sizeof stored);
  RFED_CHECK_EQ(stored, Fnv1a32(buffer.data(), payload))
      << "checksum mismatch in " << path << " (corrupted file)";
  return payload;
}

/// A float CSV cell: fixed-format when finite, empty otherwise. Every
/// float column uses this, so NaN/Inf — a diverged training loss, an
/// unevaluated round — uniformly renders as a blank cell.
std::string FloatCell(double v, const char* fmt) {
  return std::isfinite(v) ? StrFormat(fmt, v) : "";
}

}  // namespace

void CheckpointWriter::WriteRaw(const void* data, size_t bytes) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  out_->insert(out_->end(), p, p + bytes);
}

void CheckpointWriter::WriteString(const std::string& s) {
  WriteU32(static_cast<uint32_t>(s.size()));
  WriteRaw(s.data(), s.size());
}

void CheckpointWriter::WriteTensor(const Tensor& t) {
  std::vector<uint8_t> encoded;
  SerializeTensor(t, &encoded);
  WriteU64(static_cast<uint64_t>(encoded.size()));
  WriteRaw(encoded.data(), encoded.size());
}

void CheckpointWriter::WriteRng(const RngState& s) {
  for (uint64_t word : s.words) WriteU64(word);
  WriteBool(s.has_cached_normal);
  WriteDouble(s.cached_normal);
}

void CheckpointReader::ReadRaw(void* data, size_t bytes) {
  RFED_CHECK_LE(bytes, remaining()) << "checkpoint payload truncated";
  std::memcpy(data, buffer_->data() + cursor_, bytes);
  cursor_ += bytes;
}

uint32_t CheckpointReader::ReadU32() {
  uint32_t v = 0;
  ReadRaw(&v, sizeof v);
  return v;
}
uint64_t CheckpointReader::ReadU64() {
  uint64_t v = 0;
  ReadRaw(&v, sizeof v);
  return v;
}
int32_t CheckpointReader::ReadI32() {
  int32_t v = 0;
  ReadRaw(&v, sizeof v);
  return v;
}
int64_t CheckpointReader::ReadI64() {
  int64_t v = 0;
  ReadRaw(&v, sizeof v);
  return v;
}
double CheckpointReader::ReadDouble() {
  double v = 0.0;
  ReadRaw(&v, sizeof v);
  return v;
}

std::string CheckpointReader::ReadString() {
  const uint32_t length = ReadU32();
  RFED_CHECK_LE(length, remaining()) << "checkpoint payload truncated";
  std::string s(reinterpret_cast<const char*>(buffer_->data() + cursor_),
                length);
  cursor_ += length;
  return s;
}

Tensor CheckpointReader::ReadTensor() {
  const uint64_t bytes = ReadU64();
  RFED_CHECK_LE(bytes, remaining()) << "checkpoint payload truncated";
  std::vector<uint8_t> encoded(buffer_->data() + cursor_,
                               buffer_->data() + cursor_ + bytes);
  cursor_ += bytes;
  size_t offset = 0;
  Tensor t = DeserializeTensor(encoded, &offset);
  RFED_CHECK_EQ(offset, encoded.size()) << "malformed tensor in checkpoint";
  return t;
}

RngState CheckpointReader::ReadRng() {
  RngState s;
  for (uint64_t& word : s.words) word = ReadU64();
  s.has_cached_normal = ReadBool();
  s.cached_normal = ReadDouble();
  return s;
}

void SaveTensorToFile(const Tensor& tensor, const std::string& path) {
  std::vector<uint8_t> buffer;
  SerializeTensor(tensor, &buffer);
  AppendChecksum(&buffer);
  WriteFileOrDie(buffer, path);
}

Tensor LoadTensorFromFile(const std::string& path) {
  const std::vector<uint8_t> buffer = ReadFileOrDie(path);
  const size_t payload = VerifyChecksum(buffer, path);
  size_t offset = 0;
  Tensor tensor = DeserializeTensor(buffer, &offset);
  RFED_CHECK_EQ(offset, payload) << "trailing bytes in " << path;
  return tensor;
}

void RunCheckpoint::Save(const std::string& path) const {
  std::vector<uint8_t> buffer;
  buffer.insert(buffer.end(), kCheckpointMagic,
                kCheckpointMagic + sizeof kCheckpointMagic);
  CheckpointWriter w(&buffer);
  w.WriteU32(kCheckpointVersion);
  w.WriteI32(next_round);
  w.WriteString(history.algorithm);
  w.WriteU32(static_cast<uint32_t>(history.rounds.size()));
  for (const RoundMetrics& r : history.rounds) {
    w.WriteI32(r.round);
    w.WriteDouble(r.train_loss);
    w.WriteDouble(r.test_accuracy);
    w.WriteDouble(r.round_seconds);
    w.WriteI64(r.round_bytes);
    w.WriteI64(r.delivered_messages);
    w.WriteI64(r.dropped_messages);
    w.WriteI64(r.retried_messages);
    w.WriteDouble(r.virtual_ms);
    w.WriteDouble(r.client_p50_ms);
    w.WriteDouble(r.client_p95_ms);
    w.WriteI32(r.stragglers_cut);
    w.WriteDouble(r.mean_staleness);
    w.WriteI64(r.peak_scratch_bytes);
    w.WriteU32(static_cast<uint32_t>(r.metrics.size()));
    for (const auto& [name, value] : r.metrics) {
      w.WriteString(name);
      w.WriteDouble(value);
    }
  }
  w.WriteU64(static_cast<uint64_t>(algorithm_state.size()));
  buffer.insert(buffer.end(), algorithm_state.begin(), algorithm_state.end());
  AppendChecksum(&buffer);
  WriteFileOrDie(buffer, path);
}

RunCheckpoint RunCheckpoint::Load(const std::string& path) {
  std::vector<uint8_t> buffer = ReadFileOrDie(path);
  const size_t payload = VerifyChecksum(buffer, path);
  RFED_CHECK_GE(payload, sizeof kCheckpointMagic)
      << path << " is truncated (no header)";
  RFED_CHECK(std::memcmp(buffer.data(), kCheckpointMagic,
                         sizeof kCheckpointMagic) == 0)
      << path << " is not a run checkpoint (bad magic)";
  // Strip the footer so the reader's end-of-buffer is the payload end.
  buffer.resize(payload);
  std::vector<uint8_t> body(buffer.begin() + sizeof kCheckpointMagic,
                            buffer.end());
  CheckpointReader r(body);
  const uint32_t version = r.ReadU32();
  RFED_CHECK_EQ(version, kCheckpointVersion)
      << "unsupported checkpoint version in " << path;
  RunCheckpoint ck;
  ck.next_round = r.ReadI32();
  ck.history.algorithm = r.ReadString();
  const uint32_t num_rounds = r.ReadU32();
  RFED_CHECK_EQ(num_rounds, static_cast<uint32_t>(ck.next_round))
      << "checkpoint history length disagrees with next_round in " << path;
  RFED_CHECK_LE(num_rounds, r.remaining() / kRoundRecordMinBytes)
      << "checkpoint claims more rounds than its payload holds in " << path;
  ck.history.rounds.reserve(num_rounds);
  for (uint32_t i = 0; i < num_rounds; ++i) {
    RoundMetrics m;
    m.round = r.ReadI32();
    m.train_loss = r.ReadDouble();
    m.test_accuracy = r.ReadDouble();
    m.round_seconds = r.ReadDouble();
    m.round_bytes = r.ReadI64();
    m.delivered_messages = r.ReadI64();
    m.dropped_messages = r.ReadI64();
    m.retried_messages = r.ReadI64();
    m.virtual_ms = r.ReadDouble();
    m.client_p50_ms = r.ReadDouble();
    m.client_p95_ms = r.ReadDouble();
    m.stragglers_cut = r.ReadI32();
    m.mean_staleness = r.ReadDouble();
    m.peak_scratch_bytes = r.ReadI64();
    const uint32_t num_metrics = r.ReadU32();
    RFED_CHECK_LE(num_metrics, r.remaining() / kMetricRecordMinBytes)
        << "checkpoint claims more round metrics than its payload holds in "
        << path;
    m.metrics.reserve(num_metrics);
    for (uint32_t j = 0; j < num_metrics; ++j) {
      std::string name = r.ReadString();
      const double value = r.ReadDouble();
      m.metrics.emplace_back(std::move(name), value);
    }
    ck.history.rounds.push_back(std::move(m));
  }
  const uint64_t state_bytes = r.ReadU64();
  RFED_CHECK_EQ(state_bytes, r.remaining())
      << "trailing bytes in " << path;
  ck.algorithm_state.assign(body.end() - static_cast<int64_t>(state_bytes),
                            body.end());
  return ck;
}

void SaveHistoryCsv(const RunHistory& history, const std::string& path) {
  // The fixed columns are followed by one column per observability
  // metric seen in any round (sorted union of names), blank where a
  // round has no sample for that name. Metric names are already sorted
  // within each round's snapshot, so the union stays sorted too.
  std::set<std::string> metric_names;
  for (const RoundMetrics& r : history.rounds) {
    for (const auto& kv : r.metrics) metric_names.insert(kv.first);
  }
  std::vector<std::string> header = {
      "round", "train_loss", "test_accuracy", "round_seconds", "round_bytes",
      "delivered", "dropped", "retried", "virtual_ms", "client_p50_ms",
      "client_p95_ms", "stragglers_cut", "mean_staleness",
      "peak_scratch_bytes"};
  header.insert(header.end(), metric_names.begin(), metric_names.end());
  CsvWriter csv(path, header);
  for (const RoundMetrics& r : history.rounds) {
    std::vector<std::string> row = {
        std::to_string(r.round),
        FloatCell(r.train_loss, "%.6f"),
        FloatCell(r.test_accuracy, "%.6f"),
        FloatCell(r.round_seconds, "%.6f"),
        std::to_string(r.round_bytes),
        std::to_string(r.delivered_messages),
        std::to_string(r.dropped_messages),
        std::to_string(r.retried_messages),
        FloatCell(r.virtual_ms, "%.3f"),
        FloatCell(r.client_p50_ms, "%.3f"),
        FloatCell(r.client_p95_ms, "%.3f"),
        std::to_string(r.stragglers_cut),
        FloatCell(r.mean_staleness, "%.3f"),
        std::to_string(r.peak_scratch_bytes)};
    std::map<std::string, double> by_name(r.metrics.begin(), r.metrics.end());
    for (const std::string& name : metric_names) {
      auto it = by_name.find(name);
      row.push_back(it == by_name.end() ? "" : FloatCell(it->second, "%g"));
    }
    csv.WriteRow(row);
  }
}

}  // namespace rfed
