#ifndef RFED_UTIL_HASH_H_
#define RFED_UTIL_HASH_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace rfed {

inline constexpr uint32_t kFnv32OffsetBasis = 2166136261u;
inline constexpr uint32_t kFnv32Prime = 16777619u;

/// 32-bit FNV-1a over [data, data + length). The integrity checksum of
/// every on-disk artifact (tensor files, run checkpoints) and of the
/// scenario fingerprint: byte-order independent and sensitive to single
/// bit flips. Byte-serial, so it runs at about one byte per multiply
/// latency; the wire uses WireChecksum32 below.
inline uint32_t Fnv1a32(const uint8_t* data, size_t length) {
  uint32_t hash = kFnv32OffsetBasis;
  for (size_t i = 0; i < length; ++i) {
    hash ^= data[i];
    hash *= kFnv32Prime;
  }
  return hash;
}

/// The frame checksum of the serve wire (net/frame.h): FNV-1a run on
/// eight independent 32-bit lanes. Each 32-byte block feeds one
/// little-endian word to each lane (lane ^= word; lane *= prime); the
/// lanes are then folded into one FNV-1a state, word by word in lane
/// order, and the bytes past the last whole block continue that state
/// bytewise. Every step is a bijection of the state it updates (an xor,
/// then a multiply by an odd constant), so a single bit flip anywhere
/// changes the result. The eight multiply chains are independent, so
/// the loop runs at multiply throughput rather than latency.
inline uint32_t WireChecksum32(const uint8_t* data, size_t length) {
  constexpr size_t kLanes = 8;
  constexpr size_t kBlock = kLanes * sizeof(uint32_t);
  uint32_t lanes[kLanes];
  for (uint32_t& lane : lanes) lane = kFnv32OffsetBasis;
  size_t i = 0;
  for (; i + kBlock <= length; i += kBlock) {
    for (size_t l = 0; l < kLanes; ++l) {
      uint32_t word = 0;
      std::memcpy(&word, data + i + l * sizeof(uint32_t), sizeof word);
      if constexpr (std::endian::native == std::endian::big) {
        word = (word >> 24) | ((word >> 8) & 0xff00u) |
               ((word << 8) & 0xff0000u) | (word << 24);
      }
      lanes[l] = (lanes[l] ^ word) * kFnv32Prime;
    }
  }
  uint32_t hash = kFnv32OffsetBasis;
  for (uint32_t lane : lanes) hash = (hash ^ lane) * kFnv32Prime;
  for (; i < length; ++i) hash = (hash ^ data[i]) * kFnv32Prime;
  return hash;
}

/// 64-bit splitmix-style mix of two words; used to derive deterministic
/// per-(client, round) RNG streams whose draws are call-order independent
/// (the same keying discipline as sim/compute_model.h).
inline uint64_t MixU64(uint64_t a, uint64_t b) {
  uint64_t z = a + 0x9e3779b97f4a7c15ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace rfed

#endif  // RFED_UTIL_HASH_H_
