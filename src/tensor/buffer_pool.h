#ifndef RFED_TENSOR_BUFFER_POOL_H_
#define RFED_TENSOR_BUFFER_POOL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rfed {

/// Thread-local recycling arena for Tensor storage.
///
/// While a BufferPool::Scope is active on a thread, every Tensor the
/// thread destroys donates its float buffer to a size-keyed freelist and
/// every Tensor it constructs tries that freelist before touching the
/// heap. Buffers are plain heap vectors whether or not they ever pass
/// through the pool, so pooled storage may safely outlive the scope or
/// migrate across threads (a worker-built model update destroyed on the
/// main thread simply frees to the heap).
///
/// The pool is grow-only within a thread: freelists are reset by reuse,
/// never trimmed, mirroring ScratchArena in tensor/kernels.h. Training
/// graphs allocate the same few dozen shapes every step, so after one
/// warm-up step the freelists serve every request and the per-step heap
/// allocation count drops to O(1) (see docs/AUTOGRAD.md).
///
/// Determinism: recycling changes *where* a buffer lives, never what is
/// written to it — Tensor's constructors value-initialize recycled
/// storage exactly as they would fresh storage — so pooled and unpooled
/// runs are bit-identical.
class BufferPool {
 public:
  /// RAII activation of the calling thread's pool. Scopes nest; the pool
  /// stays active until the outermost scope dies. ag::TapeSession opens
  /// one for the duration of a local-training bout.
  class Scope {
   public:
    Scope();
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
  };

  /// True iff a Scope is active on the calling thread.
  static bool Active();

  /// Returns an empty vector whose capacity is at least `n` floats:
  /// recycled when the freelist has an exact-size buffer, freshly
  /// reserved (counted as a heap allocation) otherwise. Requires an
  /// active scope.
  static std::vector<float> Acquire(size_t n);

  /// Retires a tensor's storage. `accounted` is the owning Tensor's
  /// came-from-Acquire flag: accounted buffers subtract their bytes from
  /// the outstanding counter wherever they die (so a pooled tensor that
  /// escapes its scope — e.g. a returned model update — still balances
  /// the books on destruction), and when a scope is active on the
  /// calling thread they are donated to its freelist. Everything else —
  /// unaccounted storage, or any storage outside a scope — falls to the
  /// ordinary heap free.
  static void MaybeRecycle(std::vector<float>* buf, bool accounted);

  /// Copy helper for Tensor's copy constructor: an exact-size copy of
  /// `src` backed by pooled storage when a scope is active.
  static std::vector<float> CopyOf(const std::vector<float>& src);

  /// High-water mark, in bytes, of Acquire()d storage whose owning
  /// tensor is still alive, across all threads since the last
  /// ResetPeak(). This is the live-tensor footprint of the autograd tape
  /// and is exported per round as the `autograd.tape_peak_bytes` gauge.
  static int64_t PeakBytes();
  static void ResetPeak();

  /// Number of freelist misses (true heap allocations) the calling
  /// thread has performed inside pool scopes. The per-step delta is the
  /// `autograd.allocs_per_step` gauge; it reaches O(1) once a static
  /// tape's replay steps stop allocating.
  static int64_t ThreadAllocCount();

  /// Number of freelist hits on the calling thread (recycled buffers).
  static int64_t ThreadHitCount();

  /// Bytes parked in the calling thread's freelists. Once a static
  /// tape's replay steps reach steady state this stops changing: every
  /// buffer a step parks, a later request takes out again.
  static int64_t ThreadPooledBytes();
};

}  // namespace rfed

#endif  // RFED_TENSOR_BUFFER_POOL_H_
