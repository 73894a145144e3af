#include "nn/models.h"

#include "util/check.h"

namespace rfed {

CnnModel::CnnModel(const CnnConfig& config, Rng* rng)
    : config_(config),
      conv1_(config.in_channels, config.conv1_channels, /*kernel=*/5,
             /*stride=*/1, /*pad=*/2, rng),
      conv2_(config.conv1_channels, config.conv2_channels, /*kernel=*/5,
             /*stride=*/1, /*pad=*/2, rng),
      fc1_((config.image_size / 4) * (config.image_size / 4) *
               config.conv2_channels,
           config.feature_dim, rng),
      fc2_(config.feature_dim, config.num_classes, rng),
      flat_dim_((config.image_size / 4) * (config.image_size / 4) *
                config.conv2_channels) {
  RFED_CHECK_EQ(config.image_size % 4, 0)
      << "two 2x2 pools need image_size divisible by 4";
  RegisterSubmodule("conv1", &conv1_);
  RegisterSubmodule("conv2", &conv2_);
  RegisterSubmodule("fc1", &fc1_);
  RegisterSubmodule("fc2", &fc2_);
}

ModelOutput CnnModel::Forward(const Batch& batch) {
  RFED_CHECK_GT(batch.images.size(), 0) << "CnnModel needs image batches";
  Variable x = ag::Input(batch.images);
  Variable h1 = conv1_.ForwardReluPool(x);
  Variable h2 = conv2_.ForwardReluPool(h1);
  Variable flat = ag::Reshape(h2, Shape{batch.size(), flat_dim_});
  Variable features = fc1_.ForwardRelu(flat);
  Variable logits = fc2_.Forward(features);
  return ModelOutput{features, logits};
}

LstmModel::LstmModel(const LstmConfig& config, Rng* rng)
    : config_(config),
      embedding_(config.vocab_size, config.embed_dim, rng),
      lstm1_(config.embed_dim, config.hidden_dim, rng),
      lstm2_(config.hidden_dim, config.hidden_dim, rng),
      fc1_(config.hidden_dim, config.feature_dim, rng),
      fc2_(config.feature_dim, config.num_classes, rng) {
  RegisterSubmodule("embedding", &embedding_);
  RegisterSubmodule("lstm1", &lstm1_);
  RegisterSubmodule("lstm2", &lstm2_);
  RegisterSubmodule("fc1", &fc1_);
  RegisterSubmodule("fc2", &fc2_);
}

ModelOutput LstmModel::Forward(const Batch& batch) {
  RFED_CHECK(!batch.tokens.empty()) << "LstmModel needs token batches";
  const int64_t batch_size = batch.size();
  const size_t seq_len = batch.tokens[0].size();

  // Per-timestep embedded inputs: gather column t of the token matrix.
  std::vector<Variable> x_seq;
  x_seq.reserve(seq_len);
  std::vector<int> step_ids(static_cast<size_t>(batch_size));
  for (size_t t = 0; t < seq_len; ++t) {
    for (int64_t b = 0; b < batch_size; ++b) {
      step_ids[static_cast<size_t>(b)] =
          batch.tokens[static_cast<size_t>(b)][t];
    }
    x_seq.push_back(embedding_.Forward(step_ids, static_cast<int>(t)));
  }

  std::vector<Variable> h1 = lstm1_.Unroll(x_seq);
  std::vector<Variable> h2 = lstm2_.Unroll(h1);
  Variable last = h2.back();
  Variable features = fc1_.ForwardRelu(last);
  Variable logits = fc2_.Forward(features);
  return ModelOutput{features, logits};
}

MlpModel::MlpModel(const MlpConfig& config, Rng* rng)
    : config_(config),
      flat_dim_(config.in_channels * config.image_size * config.image_size),
      fc1_(config.in_channels * config.image_size * config.image_size,
           config.hidden_dim, rng),
      fc2_(config.hidden_dim, config.feature_dim, rng),
      fc3_(config.feature_dim, config.num_classes, rng) {
  RegisterSubmodule("fc1", &fc1_);
  RegisterSubmodule("fc2", &fc2_);
  RegisterSubmodule("fc3", &fc3_);
}

ModelOutput MlpModel::Forward(const Batch& batch) {
  RFED_CHECK_GT(batch.images.size(), 0) << "MlpModel needs image batches";
  // Input() records the flattened shape; replay re-flattens the fresh
  // batch's images to match.
  Variable x = ag::Input(batch.images.Reshaped(Shape{batch.size(), flat_dim_}));
  Variable h = fc1_.ForwardRelu(x);
  Variable features = fc2_.ForwardRelu(h);
  Variable logits = fc3_.Forward(features);
  return ModelOutput{features, logits};
}

ModelFactory MakeCnnFactory(const CnnConfig& config) {
  return [config](Rng* rng) -> std::unique_ptr<FeatureModel> {
    return std::make_unique<CnnModel>(config, rng);
  };
}

ModelFactory MakeLstmFactory(const LstmConfig& config) {
  return [config](Rng* rng) -> std::unique_ptr<FeatureModel> {
    return std::make_unique<LstmModel>(config, rng);
  };
}

ModelFactory MakeMlpFactory(const MlpConfig& config) {
  return [config](Rng* rng) -> std::unique_ptr<FeatureModel> {
    return std::make_unique<MlpModel>(config, rng);
  };
}

}  // namespace rfed
