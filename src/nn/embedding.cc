#include "nn/embedding.h"

namespace rfed {

Embedding::Embedding(int64_t vocab_size, int64_t embed_dim, Rng* rng)
    : vocab_size_(vocab_size), embed_dim_(embed_dim) {
  table_ = RegisterParameter(
      "table",
      Tensor::Normal(Shape{vocab_size, embed_dim}, 0.0f, 0.1f, rng));
}

Variable Embedding::Forward(const std::vector<int>& ids, int timestep) {
  return ag::GatherRows(*table_, ids, timestep);
}

}  // namespace rfed
