// Causal span tracing for the ODA stack itself: RAII scopes recorded into
// per-thread buffers and exported as Chrome trace_event JSON, loadable in
// chrome://tracing or https://ui.perfetto.dev.
//
//   void Collector::collect() {
//     ODA_TRACE_SPAN("collector.collect");
//     ...
//   }
//
// Every span carries a 64-bit (trace id, span id, parent id) triple. On
// entry a span reads the thread-local TraceContext (common/trace_context.hpp):
// if a context is active the span joins that trace as a child; otherwise it
// roots a new trace. The context propagates across async boundaries —
// ThreadPool::submit captures it into the task and MessageBus delivery spans
// nest under the publish — so one collect pass forms a single connected tree
// from sensor read through bus fan-out, store ingest, and analytics cells.
// Zero-duration *instant* events (ODA_TRACE_INSTANT) mark point occurrences
// (a retry, a breaker transition) inside the owning span.
//
// Cost model:
//   * ODA_TRACING=OFF (CMake option): the macros expand to nothing — zero
//     code, zero data, zero overhead. The Tracer class itself still links
//     so tooling code compiles either way.
//   * compiled in, Tracer disabled and FlightRecorder disabled: one relaxed
//     atomic load (of the shared sink mask) per scope entry.
//   * FlightRecorder only (the default — see obs/recorder.hpp): two
//     steady-clock reads (most of the cost), two span ids from this
//     thread's block of the id counter, and a handful of stores into this
//     thread's ring, found through a thread-local cache. No write on this
//     path touches memory another thread writes.
//   * Tracer enabled: additionally a shared capacity counter and an
//     uncontended per-thread mutex push (the mutex is only contended while
//     a snapshot drains buffers).
//
// Span names must outlive the span (string literals in practice); the flight
// recorder retains them as raw pointers, so literals are mandatory there.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/sync.hpp"
#include "common/trace_context.hpp"

#ifndef ODA_TRACING_ENABLED
#define ODA_TRACING_ENABLED 1
#endif

namespace oda::obs {

enum class TraceEventKind : std::uint8_t {
  kSpan = 0,     // Chrome "X": has a duration
  kInstant = 1,  // Chrome "i": zero-duration point event
};

struct TraceEvent {
  std::string name;          // e.g. "collector.collect"
  std::string category;      // layer: "sim", "telemetry", "analytics", ...
  std::uint64_t ts_us = 0;   // start, microseconds since tracer epoch
  std::uint64_t dur_us = 0;  // duration in microseconds (0 for instants)
  std::uint32_t tid = 0;     // tracer-assigned thread index
  TraceEventKind kind = TraceEventKind::kSpan;
  std::uint64_t trace_id = 0;   // causal chain id; 0 = untraced event
  std::uint64_t span_id = 0;    // this event's own id
  std::uint64_t parent_id = 0;  // enclosing span's id; 0 = trace root
};

namespace detail {

// Shared sink mask read by every span/instant entry: bit 0 = the global
// Tracer is enabled, bit 1 = the global FlightRecorder is enabled. One
// relaxed load of this word is the entire cost of a span when both are off.
inline constexpr unsigned kTraceModeTracer = 1u;
inline constexpr unsigned kTraceModeRecorder = 2u;
extern std::atomic<unsigned> g_trace_mode;

/// Out-of-line slow paths (trace.cpp): dispatch a finished span / an
/// instant to whichever sinks `mode` has armed.
void finish_span(const char* name, const char* category,
                 std::uint64_t start_us, TraceContext ctx,
                 std::uint64_t parent_span_id, unsigned mode);
void emit_instant(const char* name, const char* category, unsigned mode);

}  // namespace detail

/// Renders events as Chrome trace_event JSON: "X" complete events and "i"
/// instants, each carrying args.{trace_id,span_id,parent_id} as 16-char hex
/// strings when the event belongs to a trace, plus "s"/"f" flow-event pairs
/// binding every cross-thread parent->child edge so Perfetto draws the
/// causality arrows. Names and categories are fully JSON-escaped.
std::string chrome_trace_json(const std::vector<TraceEvent>& events);

/// 16-char lowercase hex rendering of a trace/span id.
std::string trace_id_hex(std::uint64_t id);

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;
  ~Tracer();

  /// The process-wide tracer the ODA_TRACE_SPAN macro records into.
  static Tracer& global();

  /// Recording is off by default; spans taken while disabled cost one
  /// relaxed atomic load and record nothing (unless the always-on flight
  /// recorder picks them up — see obs/recorder.hpp).
  void set_enabled(bool enabled);
  bool enabled() const {
    // relaxed: an independent on/off flag; a span may see a toggle late,
    // which only means one more or fewer event — no data is guarded by it.
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Caps retained events across all threads (default 1<<16); further
  /// events are counted in dropped() instead of recorded.
  void set_capacity(std::size_t max_events);
  std::uint64_t dropped() const {
    // relaxed: statistics counter.
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Microseconds since this tracer was constructed (the trace epoch).
  std::uint64_t now_us() const;

  /// Records a completed span or instant. Usually called via the
  /// ODA_TRACE_* macros; the id triple defaults to 0 (untraced) so callers
  /// that predate causal tracing keep working.
  void record(const char* name, const char* category, std::uint64_t ts_us,
              std::uint64_t dur_us,
              TraceEventKind kind = TraceEventKind::kSpan,
              std::uint64_t trace_id = 0, std::uint64_t span_id = 0,
              std::uint64_t parent_id = 0);

  /// Copies every retained event (all threads), ordered by start time.
  std::vector<TraceEvent> events() const;
  std::size_t event_count() const;
  /// Discards retained events and resets the drop counter.
  void clear();

  /// Chrome trace_event JSON for every retained event (chrome_trace_json).
  std::string to_chrome_json() const;

 private:
  struct ThreadBuffer {
    /// Trace-level like mu_; the two are taken nested (mu_ then buf->mu in
    /// event_count/clear) but carry no mutual edge — the analysis only
    /// checks declared pairs, and this intra-subsystem nesting is uniform.
    Mutex mu ODA_ACQUIRED_AFTER(lock_order::trace)
        ODA_ACQUIRED_BEFORE(lock_order::log);
    std::vector<TraceEvent> events ODA_GUARDED_BY(mu);
    std::uint32_t tid = 0;
  };

  ThreadBuffer& local_buffer() ODA_EXCLUDES(mu_);

  const std::uint64_t tracer_id_;
  const std::chrono::steady_clock::time_point epoch_;
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> recorded_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::size_t> capacity_{1 << 16};
  mutable Mutex mu_ ODA_ACQUIRED_AFTER(lock_order::trace)
      ODA_ACQUIRED_BEFORE(lock_order::log);  // guards buffers_
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_ ODA_GUARDED_BY(mu_);
  std::uint32_t next_tid_ ODA_GUARDED_BY(mu_) = 1;
};

/// RAII causal span: on entry joins the thread's active trace (or roots a
/// new one), installs itself as the current context, and on exit restores
/// the parent and records into whichever sinks are armed. Prefer the
/// ODA_TRACE_SPAN macro, which compiles out under ODA_TRACING=OFF.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, const char* category = "oda")
      : name_(name), category_(category) {
    // relaxed: an advisory sink mask; a late-observed toggle only means one
    // more or fewer event — no data is guarded by it.
    const unsigned mode = detail::g_trace_mode.load(std::memory_order_relaxed);
    if (mode == 0) return;  // the disabled hot path: exactly this one load
    mode_ = mode;
    start_us_ = Tracer::global().now_us();
    parent_ = current_trace_context();
    ctx_.trace_id = parent_.active() ? parent_.trace_id : next_trace_id();
    ctx_.span_id = next_trace_id();
    exchange_trace_context(ctx_);
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  ~TraceSpan() {
    if (mode_ == 0) return;
    exchange_trace_context(parent_);
    detail::finish_span(name_, category_, start_us_, ctx_, parent_.span_id,
                        mode_);
  }

 private:
  const char* name_;
  const char* category_;
  std::uint64_t start_us_ = 0;
  unsigned mode_ = 0;
  TraceContext parent_;
  TraceContext ctx_;
};

/// Records a zero-duration instant event under the current span (trace ids
/// inherited from the thread's context). Prefer the ODA_TRACE_INSTANT macro.
inline void trace_instant(const char* name, const char* category) {
  // relaxed: see TraceSpan — advisory sink mask.
  const unsigned mode = detail::g_trace_mode.load(std::memory_order_relaxed);
  if (mode != 0) detail::emit_instant(name, category, mode);
}

}  // namespace oda::obs

#define ODA_TRACE_CONCAT_INNER(a, b) a##b
#define ODA_TRACE_CONCAT(a, b) ODA_TRACE_CONCAT_INNER(a, b)

#if ODA_TRACING_ENABLED
/// Traces the enclosing scope as a span named `name` (a string literal) in
/// layer `category`. Compiles to nothing when ODA_TRACING=OFF.
#define ODA_TRACE_SPAN_CAT(name, category)                 \
  ::oda::obs::TraceSpan ODA_TRACE_CONCAT(oda_trace_span_, \
                                         __LINE__)((name), (category))
/// Marks a point occurrence (retry, state flip) inside the current span.
#define ODA_TRACE_INSTANT_CAT(name, category) \
  ::oda::obs::trace_instant((name), (category))
#else
#define ODA_TRACE_SPAN_CAT(name, category) static_cast<void>(0)
#define ODA_TRACE_INSTANT_CAT(name, category) static_cast<void>(0)
#endif

#define ODA_TRACE_SPAN(name) ODA_TRACE_SPAN_CAT(name, "oda")
#define ODA_TRACE_INSTANT(name) ODA_TRACE_INSTANT_CAT(name, "oda")
