#include "tensor/buffer_pool.h"

#include <atomic>
#include <unordered_map>
#include <utility>

namespace rfed {
namespace {

// Freelists keyed by exact capacity. A capacity that never recurs strands
// its buffers in their bucket, but training tapes request the same few
// dozen sizes every step, so in practice every bucket cycles.
struct PoolState {
  std::unordered_map<size_t, std::vector<std::vector<float>>> buckets;
};

// Trivially destructible activation depth: safe to consult from Tensor
// destructors that run during static/thread teardown, after `state` below
// has been destroyed (the depth is back to zero by then, so the map is
// never touched).
thread_local int depth = 0;
thread_local int64_t thread_allocs = 0;
thread_local int64_t thread_hits = 0;
thread_local int64_t thread_parked_bytes = 0;

PoolState& State() {
  thread_local PoolState state;
  return state;
}

// Cross-thread outstanding-bytes accounting, mirroring ScratchArena's
// process-wide peak. Relaxed ordering: the peak is a monotone statistic,
// not a synchronization point.
std::atomic<int64_t> g_outstanding{0};
std::atomic<int64_t> g_peak{0};

void AddOutstanding(int64_t bytes) {
  const int64_t now = g_outstanding.fetch_add(bytes,
                                              std::memory_order_relaxed) +
                      bytes;
  int64_t peak = g_peak.load(std::memory_order_relaxed);
  while (now > peak &&
         !g_peak.compare_exchange_weak(peak, now,
                                       std::memory_order_relaxed)) {
  }
}

}  // namespace

BufferPool::Scope::Scope() { ++depth; }
BufferPool::Scope::~Scope() { --depth; }

bool BufferPool::Active() { return depth > 0; }

std::vector<float> BufferPool::Acquire(size_t n) {
  AddOutstanding(static_cast<int64_t>(n) * 4);
  if (n > 0) {
    auto it = State().buckets.find(n);
    if (it != State().buckets.end() && !it->second.empty()) {
      std::vector<float> buf = std::move(it->second.back());
      it->second.pop_back();
      buf.clear();
      ++thread_hits;
      thread_parked_bytes -= static_cast<int64_t>(n) * 4;
      return buf;
    }
  }
  ++thread_allocs;
  std::vector<float> buf;
  buf.reserve(n);
  return buf;
}

void BufferPool::MaybeRecycle(std::vector<float>* buf, bool accounted) {
  // Only Acquire()d storage is parked: a buffer the heap handed out
  // elsewhere would join the freelist without a matching request, and a
  // steady stream of such donations grows the pool without bound.
  if (!accounted) return;
  const int64_t bytes = static_cast<int64_t>(buf->capacity()) * 4;
  g_outstanding.fetch_sub(bytes, std::memory_order_relaxed);
  if (depth <= 0 || bytes == 0) return;
  State().buckets[buf->capacity()].push_back(std::move(*buf));
  thread_parked_bytes += bytes;
}

std::vector<float> BufferPool::CopyOf(const std::vector<float>& src) {
  if (!Active()) return src;
  std::vector<float> buf = Acquire(src.size());
  buf.assign(src.begin(), src.end());
  return buf;
}

int64_t BufferPool::PeakBytes() {
  return g_peak.load(std::memory_order_relaxed);
}

void BufferPool::ResetPeak() {
  g_peak.store(g_outstanding.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
}

int64_t BufferPool::ThreadAllocCount() { return thread_allocs; }

int64_t BufferPool::ThreadHitCount() { return thread_hits; }

int64_t BufferPool::ThreadPooledBytes() { return thread_parked_bytes; }

}  // namespace rfed
