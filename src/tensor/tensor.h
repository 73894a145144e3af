#ifndef RFED_TENSOR_TENSOR_H_
#define RFED_TENSOR_TENSOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "tensor/shape.h"
#include "util/rng.h"

namespace rfed {

/// Dense row-major float32 tensor with value semantics (copyable,
/// movable). This is the single numeric container used throughout the
/// repository: model parameters, activations, gradients, datasets and the
/// communicated δ maps are all Tensors.
///
/// Storage is recycled through the thread-local BufferPool whenever a
/// pool scope is active (tensor/buffer_pool.h): construction draws from
/// the freelist, destruction and move-assign-overwrite donate back to
/// it. Recycled buffers are value-initialized exactly like fresh ones,
/// so pooling never changes a single bit of any computation.
class Tensor {
 public:
  /// Empty rank-1 tensor with zero elements.
  Tensor() : shape_({0}) {}

  ~Tensor();
  Tensor(const Tensor& other);
  /// Element-wise copy; reuses the existing buffer when capacity allows,
  /// else takes new storage the way the copy constructor does (from the
  /// active BufferPool scope, if any).
  Tensor& operator=(const Tensor& other);
  Tensor(Tensor&& other) noexcept;
  /// Steals `other`'s buffer; the overwritten buffer is donated to the
  /// active BufferPool scope (plain heap free otherwise).
  Tensor& operator=(Tensor&& other) noexcept;

  /// Zero-initialized tensor of the given shape.
  explicit Tensor(Shape shape);

  /// Tensor of the given shape filled with `value`.
  Tensor(Shape shape, float value);

  /// Tensor adopting the given data; data.size() must match the shape.
  Tensor(Shape shape, std::vector<float> data);

  static Tensor Zeros(Shape shape) { return Tensor(std::move(shape)); }
  static Tensor Full(Shape shape, float value) {
    return Tensor(std::move(shape), value);
  }
  /// Elements iid Uniform(lo, hi).
  static Tensor Uniform(Shape shape, float lo, float hi, Rng* rng);
  /// Elements iid Normal(mean, stddev).
  static Tensor Normal(Shape shape, float mean, float stddev, Rng* rng);

  const Shape& shape() const { return shape_; }
  int rank() const { return shape_.rank(); }
  int64_t dim(int axis) const { return shape_.dim(axis); }
  int64_t size() const { return static_cast<int64_t>(data_.size()); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  float& at(int64_t i) { return data_[static_cast<size_t>(i)]; }
  float at(int64_t i) const { return data_[static_cast<size_t>(i)]; }

  /// 2-d accessors (row-major). Requires rank 2.
  float& at2(int64_t r, int64_t c);
  float at2(int64_t r, int64_t c) const;

  /// Returns a tensor viewing the same data with a different shape.
  /// Element counts must match.
  Tensor Reshaped(Shape new_shape) const;

  /// Scalar extraction; requires exactly one element.
  float ToScalar() const;

  // ---- In-place arithmetic (shape-checked; the element-wise kernels
  // of tensor/kernels.h, bit-identical to the scalar loops) ----
  Tensor& AddInPlace(const Tensor& other);
  Tensor& SubInPlace(const Tensor& other);
  Tensor& MulInPlace(float scalar);
  /// this += scalar * other (a multiply, then an add: never fused).
  Tensor& Axpy(float scalar, const Tensor& other);
  void Fill(float value);

  // ---- Reductions ----
  float Sum() const;
  float Mean() const;
  float MaxAbs() const;
  /// Squared L2 norm of all elements.
  float SquaredNorm() const;

  std::string ToString(int max_elements = 16) const;

 private:
  Shape shape_;
  std::vector<float> data_;
  /// True iff data_ came from BufferPool::Acquire, i.e. its bytes are in
  /// the pool's outstanding counter and must be subtracted when this
  /// tensor dies — wherever that happens (see buffer_pool.h).
  bool pooled_ = false;
};

/// True iff the tensors have the same shape and all elements differ by at
/// most `tol`.
bool AllClose(const Tensor& a, const Tensor& b, float tol);

}  // namespace rfed

#endif  // RFED_TENSOR_TENSOR_H_
