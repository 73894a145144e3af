#ifndef RFED_TENSOR_SERIALIZE_H_
#define RFED_TENSOR_SERIALIZE_H_

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace rfed {

/// Wire encoding for Tensors. The FL communication layer charges every
/// simulated transfer with the exact number of bytes this codec would put
/// on the network, so Table III (size of δ) comes straight from here.

/// Bytes needed to encode `t` (header: rank + dims as int64, then float32
/// payload).
int64_t SerializedBytes(const Tensor& t);

/// Payload-only size used by the paper's Table III accounting
/// (4 bytes per float element).
int64_t PayloadBytes(const Tensor& t);

/// Appends the encoding of `t` to *out.
void SerializeTensor(const Tensor& t, std::vector<uint8_t>* out);

/// Decodes one tensor starting at (*offset), advancing it. Aborts on a
/// malformed buffer with a message that starts with `what` (the decoder
/// and field, e.g. "MODEL decoder: state"). Safe on hostile bytes:
/// the rank must be at most 8, and each dim and then
/// the element count must fit in the floats the bytes left can hold,
/// checked with overflow-safe arithmetic before anything is allocated.
Tensor DeserializeTensor(const std::vector<uint8_t>& buf, size_t* offset,
                         const char* what = "tensor decoder");

}  // namespace rfed

#endif  // RFED_TENSOR_SERIALIZE_H_
