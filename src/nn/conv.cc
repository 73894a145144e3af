#include "nn/conv.h"

#include "nn/init.h"

namespace rfed {

Conv2dLayer::Conv2dLayer(int64_t in_channels, int64_t out_channels,
                         int64_t kernel, int64_t stride, int64_t pad,
                         Rng* rng) {
  spec_.in_channels = in_channels;
  spec_.out_channels = out_channels;
  spec_.kernel = kernel;
  spec_.stride = stride;
  spec_.pad = pad;
  const int64_t patch = in_channels * kernel * kernel;
  weight_ = RegisterParameter(
      "weight", KaimingNormal(Shape{out_channels, patch}, patch, rng));
  bias_ = RegisterParameter("bias", Tensor(Shape{out_channels}));
}

Variable Conv2dLayer::ForwardReluPool(const Variable& x) {
  return ag::Conv2dBiasReluPool(x, *weight_, *bias_, spec_);
}

}  // namespace rfed
