#ifndef RFED_OBS_TRACE_H_
#define RFED_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace rfed {
namespace obs {

// Deterministic tracing layer.
//
// A TraceSpan is an RAII marker around one phase of work (a round, a
// client's local training, one GEMM). Spans record wall time *and* the
// sim runtime's virtual clock, nest through a per-thread span stack, and
// are buffered per thread — the hot path never takes a shared lock that
// another worker contends on. The collected stream can be exported as
// Chrome `trace_event` JSON (load in chrome://tracing or Perfetto) or
// folded into a per-phase summary table.
//
// Determinism contract (see docs/OBSERVABILITY.md):
//   1. Tracing never perturbs training: spans consume no RNG draws and
//      touch no tensor state, so seeded runs are byte-identical with
//      tracing on or off (pinned by tests/obs_test.cc).
//   2. Per-thread buffers are merged in (lane, seq) order, where a lane
//      is a thread's buffer (numbered in first-event order) and seq is
//      that lane's program order. Within one lane the event stream is a
//      deterministic function of the run; across lanes only wall-clock
//      timestamps vary. Per-name span *counts* are invariant under
//      `num_threads`.
//   3. The disabled path is one relaxed atomic load and a branch per
//      span site; nothing is allocated or recorded.
//
// Span names must be string literals (static storage duration): the
// buffers store the pointer, not a copy.

namespace internal {
extern std::atomic<bool> g_enabled;
extern std::atomic<double> g_virtual_now_ms;
}  // namespace internal

/// Whether spans are being recorded (process-global switch).
inline bool TracingEnabled() {
  return internal::g_enabled.load(std::memory_order_relaxed);
}

/// Turns span recording on or off. Enabling is process-global: every
/// instrumented site in every thread starts recording. Already-buffered
/// events are kept; use ClearTrace() to start fresh.
void EnableTracing(bool enabled);

/// Publishes the sim runtime's virtual clock so spans can stamp virtual
/// begin/end times. Called by VirtualClock on every advance; with more
/// than one active clock in a process the last writer wins (the repo
/// runs one federation at a time).
inline void SetTraceVirtualNowMs(double now_ms) {
  internal::g_virtual_now_ms.store(now_ms, std::memory_order_relaxed);
}
inline double TraceVirtualNowMs() {
  return internal::g_virtual_now_ms.load(std::memory_order_relaxed);
}

/// One completed span. Events are appended to their lane's buffer when
/// the span *ends*, so within a lane children precede their parent and
/// `seq` is the lane's end order.
struct TraceEvent {
  const char* name = nullptr;  ///< static string literal
  int depth = 0;               ///< open ancestors on this lane at begin
  int64_t seq = 0;             ///< per-lane append order
  double start_us = 0.0;       ///< wall begin, µs since the trace epoch
  double dur_us = 0.0;         ///< wall duration in µs
  double virt_start_ms = 0.0;  ///< virtual clock at begin
  double virt_end_ms = 0.0;    ///< virtual clock at end
};

/// RAII span. Construct with a string literal; the destructor records
/// the completed event into the calling thread's buffer. No-op (and
/// allocation-free) while tracing is disabled; a span that *starts*
/// enabled records even if tracing is disabled before it ends.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) {
    if (TracingEnabled()) Begin(name);
  }
  ~TraceSpan() {
    if (name_ != nullptr) End();
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  void Begin(const char* name);
  void End();

  const char* name_ = nullptr;
  int64_t start_ns_ = 0;
  double virt_start_ms_ = 0.0;
};

/// One lane's buffered events (events in seq order).
struct LaneTrace {
  int lane = 0;
  std::vector<TraceEvent> events;
};

/// Snapshot of every lane's buffer, ordered by (lane, seq). Safe to call
/// while tracing is enabled, but meant for quiescent points (after a
/// run) — events recorded concurrently with the snapshot may or may not
/// be included.
std::vector<LaneTrace> CollectTrace();

/// Drops all buffered events and restarts every lane's seq counter at
/// zero. Lane numbers are sticky — a thread keeps its lane for the
/// process lifetime.
void ClearTrace();

/// Writes the buffered events as Chrome trace_event JSON ("X" complete
/// events, one tid per lane). Load the file in chrome://tracing or
/// https://ui.perfetto.dev. Aborts on I/O failure.
void WriteChromeTrace(const std::string& path);

/// Per-phase aggregate of the buffered events.
struct PhaseStats {
  std::string name;
  int64_t count = 0;
  double wall_ms = 0.0;  ///< summed span durations (nested spans double-count)
  double virt_ms = 0.0;  ///< summed virtual durations
};

/// Aggregates buffered events by span name, sorted by wall_ms descending.
std::vector<PhaseStats> SummarizeTrace();

/// SummarizeTrace() rendered as an aligned text table for the CLI.
std::string FormatTraceSummary();

}  // namespace obs
}  // namespace rfed

#endif  // RFED_OBS_TRACE_H_
