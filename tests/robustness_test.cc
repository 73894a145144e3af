// Failure-injection and boundary-condition tests: checked invariants must
// abort loudly (RFED_CHECK), and edge-case configurations — tiny clients,
// extreme sampling, degenerate batches — must train without corruption.

#include <cmath>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/rfedavg.h"
#include "data/batcher.h"
#include "data/partition.h"
#include "data/synthetic_images.h"
#include "fl/checkpoint.h"
#include "fl/fedavg.h"
#include "fl/trainer.h"
#include "tensor/serialize.h"
#include "util/hash.h"

namespace rfed {
namespace {

using DeathTest = ::testing::Test;

TEST(CheckedInvariantsDeathTest, ShapeMismatchAborts) {
  Tensor a(Shape{2});
  Tensor b(Shape{3});
  EXPECT_DEATH(a.AddInPlace(b), "RFED_CHECK failed");
}

TEST(CheckedInvariantsDeathTest, BadLabelAborts) {
  Tensor images(Shape{2, 1, 2, 2});
  EXPECT_DEATH(Dataset(std::move(images), {0, 7}, /*num_classes=*/3),
               "RFED_CHECK failed");
}

TEST(CheckedInvariantsDeathTest, TruncatedDeserializeAborts) {
  Tensor t(Shape{4}, {1, 2, 3, 4});
  std::vector<uint8_t> buffer;
  SerializeTensor(t, &buffer);
  buffer.resize(buffer.size() - 5);  // chop the payload
  size_t offset = 0;
  EXPECT_DEATH(DeserializeTensor(buffer, &offset), "RFED_CHECK failed");
}

// ---- Corrupted checkpoint files ----
// Every binary artifact carries a trailing FNV-1a checksum; a truncated,
// extended, or bit-flipped file must abort loudly instead of silently
// resuming from garbage.

std::vector<uint8_t> ReadAllBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

void WriteAllBytes(const std::string& path,
                   const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  EXPECT_TRUE(out.good()) << path;
}

std::string SavedTensorPath(const std::string& tag) {
  const std::string path = ::testing::TempDir() + "corrupt_" + tag + ".bin";
  SaveTensorToFile(Tensor(Shape{4}, {1.5f, -2.0f, 3.25f, 0.0f}), path);
  return path;
}

TEST(CorruptCheckpointDeathTest, TruncatedTensorFileAborts) {
  const std::string path = SavedTensorPath("truncated");
  std::vector<uint8_t> bytes = ReadAllBytes(path);
  bytes.resize(bytes.size() - 3);  // clobbers the checksum footer
  WriteAllBytes(path, bytes);
  EXPECT_DEATH(LoadTensorFromFile(path), "RFED_CHECK failed");
}

TEST(CorruptCheckpointDeathTest, TrailingBytesInTensorFileAbort) {
  const std::string path = SavedTensorPath("trailing");
  std::vector<uint8_t> bytes = ReadAllBytes(path);
  bytes.push_back(0xab);
  bytes.push_back(0xcd);
  WriteAllBytes(path, bytes);
  EXPECT_DEATH(LoadTensorFromFile(path), "RFED_CHECK failed");
}

TEST(CorruptCheckpointDeathTest, BitFlippedTensorFileAborts) {
  const std::string path = SavedTensorPath("bitflip");
  std::vector<uint8_t> bytes = ReadAllBytes(path);
  bytes[bytes.size() / 2] ^= 0x10;  // single bit, mid-payload
  WriteAllBytes(path, bytes);
  EXPECT_DEATH(LoadTensorFromFile(path), "checksum mismatch");
}

RunCheckpoint TinyRunCheckpoint() {
  RunCheckpoint ck;
  ck.next_round = 2;
  ck.history.algorithm = "FedAvg";
  ck.history.rounds.resize(2);
  ck.history.rounds[0].round = 0;
  ck.history.rounds[1].round = 1;
  ck.algorithm_state = {1, 2, 3, 4, 5, 6, 7, 8};
  return ck;
}

TEST(CorruptCheckpointDeathTest, TruncatedRunCheckpointAborts) {
  const std::string path = ::testing::TempDir() + "run_truncated.ckpt";
  TinyRunCheckpoint().Save(path);
  std::vector<uint8_t> bytes = ReadAllBytes(path);
  bytes.resize(bytes.size() / 2);
  WriteAllBytes(path, bytes);
  EXPECT_DEATH(RunCheckpoint::Load(path), "RFED_CHECK failed");
}

TEST(CorruptCheckpointDeathTest, TrailingBytesInRunCheckpointAbort) {
  const std::string path = ::testing::TempDir() + "run_trailing.ckpt";
  TinyRunCheckpoint().Save(path);
  std::vector<uint8_t> bytes = ReadAllBytes(path);
  bytes.push_back(0x00);
  WriteAllBytes(path, bytes);
  EXPECT_DEATH(RunCheckpoint::Load(path), "RFED_CHECK failed");
}

TEST(CorruptCheckpointDeathTest, BitFlippedRunCheckpointAborts) {
  const std::string path = ::testing::TempDir() + "run_bitflip.ckpt";
  TinyRunCheckpoint().Save(path);
  std::vector<uint8_t> bytes = ReadAllBytes(path);
  bytes[bytes.size() - 8] ^= 0x01;
  WriteAllBytes(path, bytes);
  EXPECT_DEATH(RunCheckpoint::Load(path), "checksum mismatch");
}

TEST(CorruptCheckpointDeathTest, InconsistentRoundCountAborts) {
  // A checkpoint whose recorded history disagrees with next_round is
  // internally inconsistent even when the checksum is intact.
  RunCheckpoint ck = TinyRunCheckpoint();
  ck.next_round = 3;  // but only 2 rounds of history
  const std::string path = ::testing::TempDir() + "run_inconsistent.ckpt";
  ck.Save(path);
  EXPECT_DEATH(RunCheckpoint::Load(path), "RFED_CHECK failed");
}

TEST(CorruptCheckpointDeathTest, OlderContainerVersionAborts) {
  // A well-formed container from an older layout version (checksum
  // intact) is refused by name instead of being misparsed.
  const std::string path = ::testing::TempDir() + "run_v1.ckpt";
  TinyRunCheckpoint().Save(path);
  std::vector<uint8_t> bytes = ReadAllBytes(path);
  const uint32_t version = 1;
  std::memcpy(bytes.data() + 8, &version, sizeof version);  // after magic
  const size_t payload = bytes.size() - sizeof(uint32_t);
  const uint32_t checksum = Fnv1a32(bytes.data(), payload);
  std::memcpy(bytes.data() + payload, &checksum, sizeof checksum);
  WriteAllBytes(path, bytes);
  EXPECT_DEATH(RunCheckpoint::Load(path), "unsupported checkpoint version");
}

TEST(CheckedInvariantsDeathTest, ScalarBackwardOnlyFromScalar) {
  Variable x(Tensor(Shape{3}), true);
  EXPECT_DEATH(x.Backward(), "must start from a scalar");
}

TEST(CheckedInvariantsDeathTest, EmptyClientAborts) {
  Rng rng(1);
  auto data = GenerateImageData(MnistLikeProfile(), 40, 10, &rng);
  std::vector<ClientView> views(2);
  views[0].train_indices = {0, 1, 2};
  // views[1] left empty.
  CnnConfig mc;
  mc.conv1_channels = 2;
  mc.conv2_channels = 4;
  mc.feature_dim = 8;
  FlConfig config;
  EXPECT_DEATH(FedAvg(config, &data.train, views, MakeCnnFactory(mc)),
               "RFED_CHECK failed");
}

TEST(RobustnessTest, SingleExampleClientTrains) {
  Rng rng(2);
  auto data = GenerateImageData(MnistLikeProfile(), 120, 40, &rng);
  // Client 0 owns exactly one example; others share the rest.
  std::vector<ClientView> views(3);
  views[0].train_indices = {0};
  for (int i = 1; i < 120; ++i) {
    views[static_cast<size_t>(1 + (i % 2))].train_indices.push_back(i);
  }
  CnnConfig mc;
  mc.conv1_channels = 2;
  mc.conv2_channels = 4;
  mc.feature_dim = 8;
  FlConfig config;
  config.local_steps = 2;
  config.batch_size = 16;  // larger than client 0's data
  config.lr = 0.05;
  config.seed = 1;
  FedAvg algo(config, &data.train, views, MakeCnnFactory(mc));
  for (int r = 0; r < 3; ++r) algo.RunRound(r);
  for (int64_t i = 0; i < algo.global_state().size(); ++i) {
    ASSERT_TRUE(std::isfinite(algo.global_state().at(i)));
  }
}

TEST(RobustnessTest, MinimalSampleRatioStillSelectsOneClient) {
  Rng rng(3);
  auto data = GenerateImageData(MnistLikeProfile(), 120, 40, &rng);
  auto split = SimilarityPartition(data.train, 6, 0.5, &rng);
  std::vector<ClientView> views;
  for (auto& idx : split.client_indices) views.push_back({idx, {}});
  CnnConfig mc;
  mc.conv1_channels = 2;
  mc.conv2_channels = 4;
  mc.feature_dim = 8;
  FlConfig config;
  config.sample_ratio = 1e-6;  // rounds to zero; must clamp to one client
  config.local_steps = 1;
  config.seed = 2;
  FedAvg algo(config, &data.train, views, MakeCnnFactory(mc));
  algo.RunRound(0);
  // Exactly one model down + one up.
  EXPECT_EQ(algo.comm().down_messages(), 1);
  EXPECT_EQ(algo.comm().up_messages(), 1);
}

TEST(RobustnessTest, RegularizerSurvivesBatchOfOne) {
  Rng rng(4);
  auto data = GenerateImageData(MnistLikeProfile(), 60, 20, &rng);
  auto split = SimilarityPartition(data.train, 3, 0.0, &rng);
  std::vector<ClientView> views;
  for (auto& idx : split.client_indices) views.push_back({idx, {}});
  CnnConfig mc;
  mc.conv1_channels = 2;
  mc.conv2_channels = 4;
  mc.feature_dim = 8;
  FlConfig config;
  config.batch_size = 1;  // feature-mean of a single example
  config.local_steps = 2;
  config.lr = 0.05;
  config.seed = 3;
  RegularizerOptions reg;
  reg.lambda = 1e-3;
  RFedAvgPlus algo(config, reg, &data.train, views, MakeCnnFactory(mc));
  for (int r = 0; r < 2; ++r) algo.RunRound(r);
  for (int64_t i = 0; i < algo.global_state().size(); ++i) {
    ASSERT_TRUE(std::isfinite(algo.global_state().at(i)));
  }
}

TEST(RobustnessTest, UnevenTestSlicesInFairnessEval) {
  Rng rng(5);
  auto data = GenerateImageData(MnistLikeProfile(), 120, 60, &rng);
  auto split = SimilarityPartition(data.train, 4, 0.0, &rng);
  std::vector<ClientView> views;
  for (auto& idx : split.client_indices) views.push_back({idx, {}});
  views[0].test_indices = {0};          // one-example test slice
  views[2].test_indices = {1, 2, 3, 4};
  CnnConfig mc;
  mc.conv1_channels = 2;
  mc.conv2_channels = 4;
  mc.feature_dim = 8;
  FlConfig config;
  config.local_steps = 1;
  config.seed = 4;
  FedAvg algo(config, &data.train, views, MakeCnnFactory(mc));
  TrainerOptions options;
  FederatedTrainer trainer(&algo, &data.test, options);
  trainer.Run(1);
  const auto per_client = trainer.PerClientAccuracy(&data.test, views);
  EXPECT_FALSE(std::isnan(per_client[0]));
  EXPECT_TRUE(std::isnan(per_client[1]));  // no slice
  EXPECT_FALSE(std::isnan(per_client[2]));
}

TEST(RobustnessTest, ClientDropoutKeepsTrainingAlive) {
  Rng rng(7);
  auto data = GenerateImageData(MnistLikeProfile(), 300, 100, &rng);
  auto split = SimilarityPartition(data.train, 6, 0.0, &rng);
  std::vector<ClientView> views;
  for (auto& idx : split.client_indices) views.push_back({idx, {}});
  CnnConfig mc;
  mc.conv1_channels = 2;
  mc.conv2_channels = 4;
  mc.feature_dim = 8;
  FlConfig config;
  config.local_steps = 2;
  config.batch_size = 16;
  config.lr = 0.05;
  config.seed = 6;
  config.fault.drop_prob = 0.4;  // heavy straggler rate
  FedAvg algo(config, &data.train, views, MakeCnnFactory(mc));
  TrainerOptions options;
  options.eval_max_examples = 100;
  FederatedTrainer trainer(&algo, &data.test, options);
  const double before = trainer.EvaluateGlobal();
  RunHistory history = trainer.Run(18);
  EXPECT_GT(history.BestAccuracy(), before + 0.1);
  EXPECT_GT(std::as_const(algo).channel().stats().dropped, 0);
}

TEST(RobustnessTest, ZeroLambdaDpNoiseIsHarmless) {
  // DP noise configured but lambda = 0: maps are still communicated and
  // perturbed, training must match plain FedAvg dynamics in accuracy
  // terms (the reg term contributes nothing).
  Rng rng(6);
  auto data = GenerateImageData(MnistLikeProfile(), 120, 60, &rng);
  auto split = SimilarityPartition(data.train, 3, 0.5, &rng);
  std::vector<ClientView> views;
  for (auto& idx : split.client_indices) views.push_back({idx, {}});
  CnnConfig mc;
  mc.conv1_channels = 2;
  mc.conv2_channels = 4;
  mc.feature_dim = 8;
  FlConfig config;
  config.local_steps = 2;
  config.seed = 5;
  RegularizerOptions reg;
  reg.lambda = 0.0;
  reg.dp = DpNoiseConfig{10.0, 1.0, 8};
  RFedAvgPlus noisy(config, reg, &data.train, views, MakeCnnFactory(mc));
  FedAvg plain(config, &data.train, views, MakeCnnFactory(mc));
  noisy.RunRound(0);
  plain.RunRound(0);
  EXPECT_TRUE(AllClose(noisy.global_state(), plain.global_state(), 1e-6f));
}

}  // namespace
}  // namespace rfed
