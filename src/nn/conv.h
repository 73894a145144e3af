#ifndef RFED_NN_CONV_H_
#define RFED_NN_CONV_H_

#include "autograd/ops.h"
#include "nn/module.h"
#include "util/rng.h"

namespace rfed {

/// 2-d convolution over NCHW inputs with a square kernel, run as the
/// CNN's conv block (conv, bias, ReLU, 2x2 max-pool). Weights are kept
/// in im2col layout [Cout, Cin*K*K].
class Conv2dLayer : public Module {
 public:
  /// Registers weight [Cout, Cin*K*K] (Kaiming-normal, fan_in = Cin*K*K)
  /// and bias [Cout] (zero).
  Conv2dLayer(int64_t in_channels, int64_t out_channels, int64_t kernel,
              int64_t stride, int64_t pad, Rng* rng);

  /// maxpool2x2(relu(conv2d(x) + bias)) as one ag::Conv2dBiasReluPool
  /// node: x [B, Cin, H, W] -> [B, Cout, Ho/2, Wo/2] (Ho, Wo even).
  Variable ForwardReluPool(const Variable& x);

  /// The static shape parameters this layer was built with.
  const Conv2dSpec& spec() const { return spec_; }

 private:
  Conv2dSpec spec_;
  Variable* weight_;
  Variable* bias_;
};

}  // namespace rfed

#endif  // RFED_NN_CONV_H_
