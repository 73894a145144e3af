#include "tensor/tensor.h"

#include <cmath>

#include "tensor/buffer_pool.h"
#include "tensor/kernels.h"
#include "util/check.h"
#include "util/string_util.h"

namespace rfed {
namespace {

// Pool-aware fill construction: an exact-size recycled buffer when a
// BufferPool scope is active, a fresh heap vector otherwise. Every
// element is written, so recycled content never leaks through.
std::vector<float> FilledStorage(int64_t n, float value) {
  std::vector<float> buf;
  if (BufferPool::Active()) buf = BufferPool::Acquire(static_cast<size_t>(n));
  // Zeros by value-initialization, which compiles to a memset: assign()
  // is a scalar store loop, over ten times slower on an activation-sized
  // tensor, and every op output starts zeroed. -0 compares equal to +0
  // but is not all-zero bits, so it takes the assign().
  if (value == 0.0f && !std::signbit(value)) {
    buf.resize(static_cast<size_t>(n));
  } else {
    buf.assign(static_cast<size_t>(n), value);
  }
  return buf;
}

}  // namespace

Tensor::~Tensor() { BufferPool::MaybeRecycle(&data_, pooled_); }

Tensor::Tensor(const Tensor& other)
    : shape_(other.shape_),
      data_(BufferPool::CopyOf(other.data_)),
      pooled_(BufferPool::Active()) {}

Tensor& Tensor::operator=(const Tensor& other) {
  if (this == &other) return *this;
  shape_ = other.shape_;
  if (data_.capacity() >= other.data_.size()) {
    // Fits: copy in place, keeping this storage and its accounting flag.
    data_.assign(other.data_.begin(), other.data_.end());
  } else {
    // Too small (an empty tensor, typically): retire this storage and
    // copy into a fresh buffer exactly as the copy constructor would —
    // pooled and counted when a scope is active.
    BufferPool::MaybeRecycle(&data_, pooled_);
    data_ = BufferPool::CopyOf(other.data_);
    pooled_ = BufferPool::Active();
  }
  return *this;
}

Tensor::Tensor(Tensor&& other) noexcept
    : shape_(std::move(other.shape_)),
      data_(std::move(other.data_)),
      pooled_(other.pooled_) {
  other.pooled_ = false;
}

Tensor& Tensor::operator=(Tensor&& other) noexcept {
  if (this != &other) {
    BufferPool::MaybeRecycle(&data_, pooled_);
    shape_ = std::move(other.shape_);
    data_ = std::move(other.data_);
    pooled_ = other.pooled_;
    other.pooled_ = false;
  }
  return *this;
}

Tensor::Tensor(Shape shape)
    : shape_(std::move(shape)),
      data_(FilledStorage(shape_.num_elements(), 0.0f)),
      pooled_(BufferPool::Active()) {}

Tensor::Tensor(Shape shape, float value)
    : shape_(std::move(shape)),
      data_(FilledStorage(shape_.num_elements(), value)),
      pooled_(BufferPool::Active()) {}

Tensor::Tensor(Shape shape, std::vector<float> data)
    : shape_(std::move(shape)), data_(std::move(data)) {
  RFED_CHECK_EQ(static_cast<int64_t>(data_.size()), shape_.num_elements());
}

Tensor Tensor::Uniform(Shape shape, float lo, float hi, Rng* rng) {
  Tensor t(std::move(shape));
  for (int64_t i = 0; i < t.size(); ++i) {
    t.at(i) = static_cast<float>(rng->Uniform(lo, hi));
  }
  return t;
}

Tensor Tensor::Normal(Shape shape, float mean, float stddev, Rng* rng) {
  Tensor t(std::move(shape));
  for (int64_t i = 0; i < t.size(); ++i) {
    t.at(i) = static_cast<float>(rng->Normal(mean, stddev));
  }
  return t;
}

float& Tensor::at2(int64_t r, int64_t c) {
  RFED_CHECK_EQ(rank(), 2);
  return data_[static_cast<size_t>(r * dim(1) + c)];
}

float Tensor::at2(int64_t r, int64_t c) const {
  RFED_CHECK_EQ(rank(), 2);
  return data_[static_cast<size_t>(r * dim(1) + c)];
}

Tensor Tensor::Reshaped(Shape new_shape) const {
  RFED_CHECK_EQ(new_shape.num_elements(), shape_.num_elements())
      << new_shape.ToString() << " vs " << shape_.ToString();
  Tensor out;
  out.shape_ = std::move(new_shape);
  out.data_ = BufferPool::CopyOf(data_);
  out.pooled_ = BufferPool::Active();
  return out;
}

float Tensor::ToScalar() const {
  RFED_CHECK_EQ(size(), 1);
  return data_[0];
}

Tensor& Tensor::AddInPlace(const Tensor& other) {
  RFED_CHECK(shape_ == other.shape_)
      << shape_.ToString() << " vs " << other.shape_.ToString();
  AddKernel(data(), other.data(), size());
  return *this;
}

Tensor& Tensor::SubInPlace(const Tensor& other) {
  RFED_CHECK(shape_ == other.shape_)
      << shape_.ToString() << " vs " << other.shape_.ToString();
  SubKernel(data(), other.data(), size());
  return *this;
}

Tensor& Tensor::MulInPlace(float scalar) {
  ScaleKernel(data(), scalar, size());
  return *this;
}

Tensor& Tensor::Axpy(float scalar, const Tensor& other) {
  RFED_CHECK(shape_ == other.shape_)
      << shape_.ToString() << " vs " << other.shape_.ToString();
  AxpyKernel(data(), scalar, other.data(), size());
  return *this;
}

void Tensor::Fill(float value) { FillKernel(data(), value, size()); }

float Tensor::Sum() const {
  double acc = 0.0;
  for (float v : data_) acc += v;
  return static_cast<float>(acc);
}

float Tensor::Mean() const {
  RFED_CHECK_GT(size(), 0);
  return Sum() / static_cast<float>(size());
}

float Tensor::MaxAbs() const {
  float m = 0.0f;
  for (float v : data_) m = std::max(m, std::fabs(v));
  return m;
}

float Tensor::SquaredNorm() const {
  double acc = 0.0;
  for (float v : data_) acc += static_cast<double>(v) * v;
  return static_cast<float>(acc);
}

std::string Tensor::ToString(int max_elements) const {
  std::string out = "Tensor" + shape_.ToString() + " {";
  const int64_t n = std::min<int64_t>(size(), max_elements);
  for (int64_t i = 0; i < n; ++i) {
    if (i > 0) out += ", ";
    out += StrFormat("%.4g", static_cast<double>(data_[static_cast<size_t>(i)]));
  }
  if (size() > n) out += ", ...";
  out += "}";
  return out;
}

bool AllClose(const Tensor& a, const Tensor& b, float tol) {
  if (a.shape() != b.shape()) return false;
  for (int64_t i = 0; i < a.size(); ++i) {
    if (std::fabs(a.at(i) - b.at(i)) > tol) return false;
  }
  return true;
}

}  // namespace rfed
