#include "tensor/serialize.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "util/check.h"

namespace rfed {
namespace {

/// Largest rank an encoding may declare.
constexpr int64_t kMaxSerializedRank = 8;

template <typename T>
void AppendRaw(const T& value, std::vector<uint8_t>* out) {
  const auto* p = reinterpret_cast<const uint8_t*>(&value);
  out->insert(out->end(), p, p + sizeof(T));
}

template <typename T>
T ReadRaw(const std::vector<uint8_t>& buf, size_t* offset, const char* what) {
  RFED_CHECK(*offset <= buf.size() && sizeof(T) <= buf.size() - *offset)
      << what << " truncated (needs " << sizeof(T) << " bytes, "
      << buf.size() - std::min(*offset, buf.size()) << " left)";
  T value{};
  std::memcpy(&value, buf.data() + *offset, sizeof(T));
  *offset += sizeof(T);
  return value;
}

}  // namespace

int64_t SerializedBytes(const Tensor& t) {
  return static_cast<int64_t>(sizeof(int64_t)) * (1 + t.rank()) +
         PayloadBytes(t);
}

int64_t PayloadBytes(const Tensor& t) {
  return t.size() * static_cast<int64_t>(sizeof(float));
}

void SerializeTensor(const Tensor& t, std::vector<uint8_t>* out) {
  AppendRaw<int64_t>(t.rank(), out);
  for (int i = 0; i < t.rank(); ++i) AppendRaw<int64_t>(t.dim(i), out);
  const auto* p = reinterpret_cast<const uint8_t*>(t.data());
  out->insert(out->end(), p, p + t.size() * sizeof(float));
}

Tensor DeserializeTensor(const std::vector<uint8_t>& buf, size_t* offset,
                         const char* what) {
  const int64_t rank = ReadRaw<int64_t>(buf, offset, what);
  RFED_CHECK(rank >= 0 && rank <= kMaxSerializedRank)
      << what << " rank " << rank << " outside [0, " << kMaxSerializedRank
      << "]";
  int64_t dims[kMaxSerializedRank] = {};
  for (int64_t i = 0; i < rank; ++i) {
    dims[i] = ReadRaw<int64_t>(buf, offset, what);
  }
  // Each dim, and then their product, must fit in the floats the bytes
  // left can hold; the running product is tested for int64 overflow
  // before each multiply.
  const size_t left = buf.size() - *offset;
  const int64_t max_elements = static_cast<int64_t>(left / sizeof(float));
  int64_t elements = 1;
  for (int64_t i = 0; i < rank; ++i) {
    const int64_t dim = dims[i];
    RFED_CHECK(dim >= 0 && dim <= max_elements)
        << what << " dim " << i << " (" << dim << ") outside [0, "
        << max_elements << "], the floats the " << left
        << " bytes left can hold";
    RFED_CHECK(dim == 0 ||
               elements <= std::numeric_limits<int64_t>::max() / dim)
        << what << " element count overflows int64 at dim " << i;
    elements *= dim;
  }
  RFED_CHECK(elements <= max_elements)
      << what << " shape holds " << elements << " floats, but only " << left
      << " bytes are left";
  const size_t bytes = static_cast<size_t>(elements) * sizeof(float);
  std::vector<float> data(static_cast<size_t>(elements));
  if (bytes > 0) std::memcpy(data.data(), buf.data() + *offset, bytes);
  *offset += bytes;
  return Tensor(Shape(std::vector<int64_t>(dims, dims + rank)),
                std::move(data));
}

}  // namespace rfed
