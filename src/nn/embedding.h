#ifndef RFED_NN_EMBEDDING_H_
#define RFED_NN_EMBEDDING_H_

#include <vector>

#include "autograd/ops.h"
#include "nn/module.h"
#include "util/rng.h"

namespace rfed {

/// Token embedding table [vocab_size, embed_dim] with row lookup.
class Embedding : public Module {
 public:
  Embedding(int64_t vocab_size, int64_t embed_dim, Rng* rng);

  /// ids: n token ids gathered from column `timestep` of the batch's
  /// token matrix -> [n, embed_dim]; tape replay recomputes them from
  /// the fresh batch.
  Variable Forward(const std::vector<int>& ids, int timestep);

  int64_t vocab_size() const { return vocab_size_; }
  int64_t embed_dim() const { return embed_dim_; }

 private:
  int64_t vocab_size_;
  int64_t embed_dim_;
  Variable* table_;
};

}  // namespace rfed

#endif  // RFED_NN_EMBEDDING_H_
