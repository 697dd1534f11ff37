#include "obs/trace.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <unordered_map>

#include "obs/recorder.hpp"

namespace oda::obs {

namespace detail {

// Recorder bit set at static-init time: the flight recorder is always-on by
// default (obs/recorder.hpp) even before its global instance is touched.
std::atomic<unsigned> g_trace_mode{kTraceModeRecorder};

void finish_span(const char* name, const char* category,
                 std::uint64_t start_us, TraceContext ctx,
                 std::uint64_t parent_span_id, unsigned mode) {
  Tracer& tracer = Tracer::global();
  const std::uint64_t dur_us = tracer.now_us() - start_us;
  if ((mode & kTraceModeTracer) != 0) {
    tracer.record(name, category, start_us, dur_us, TraceEventKind::kSpan,
                  ctx.trace_id, ctx.span_id, parent_span_id);
  }
  if ((mode & kTraceModeRecorder) != 0) {
    FlightRecorder::global().record(name, category, start_us, dur_us,
                                    TraceEventKind::kSpan, ctx.trace_id,
                                    ctx.span_id, parent_span_id);
  }
}

void emit_instant(const char* name, const char* category, unsigned mode) {
  Tracer& tracer = Tracer::global();
  const std::uint64_t ts_us = tracer.now_us();
  const TraceContext ctx = current_trace_context();
  // Instants get their own id but never become parents (they are not
  // installed into the thread context) — parents are always spans.
  const std::uint64_t span_id = next_trace_id();
  if ((mode & kTraceModeTracer) != 0) {
    tracer.record(name, category, ts_us, 0, TraceEventKind::kInstant,
                  ctx.trace_id, span_id, ctx.span_id);
  }
  if ((mode & kTraceModeRecorder) != 0) {
    FlightRecorder::global().record(name, category, ts_us, 0,
                                    TraceEventKind::kInstant, ctx.trace_id,
                                    span_id, ctx.span_id);
  }
}

}  // namespace detail

namespace {

std::atomic<std::uint64_t> g_next_tracer_id{1};

/// Per-thread registration: maps tracer id -> this thread's buffer in that
/// tracer. Keyed by id (not pointer) so a destroyed tracer's address being
/// reused can never alias a stale entry. The tracer holds its own shared_ptr
/// to every buffer, so events survive thread exit until drained.
std::map<std::uint64_t, std::shared_ptr<void>>& thread_buffer_map() {
  thread_local std::map<std::uint64_t, std::shared_ptr<void>> map;
  return map;
}

/// The buffer of the tracer this thread recorded into last, so the hot path
/// skips the map (same scheme as the flight recorder's ring cache).
struct BufferCache {
  std::uint64_t tracer_id = 0;
  void* buffer = nullptr;
};
thread_local BufferCache t_buffer_cache;

std::string json_escape(const std::string& s) {
  static const char* hex = "0123456789abcdef";
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += "\\u00";
          out += hex[(static_cast<unsigned char>(c) >> 4) & 0xf];
          out += hex[static_cast<unsigned char>(c) & 0xf];
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string trace_id_hex(std::uint64_t id) {
  static const char* hex = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = hex[id & 0xf];
    id >>= 4;
  }
  return out;
}

Tracer::Tracer()
    // relaxed: the id only needs uniqueness, not ordering.
    : tracer_id_(g_next_tracer_id.fetch_add(1, std::memory_order_relaxed)),
      epoch_(std::chrono::steady_clock::now()) {}

Tracer::~Tracer() = default;

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

void Tracer::set_enabled(bool enabled) {
  // relaxed: see enabled() — an independent flag.
  enabled_.store(enabled, std::memory_order_relaxed);
  if (this == &global()) {
    // Mirror the flag into the shared sink mask the span macros read.
    // relaxed RMW: same advisory on/off semantics as the flag itself.
    auto& mode = detail::g_trace_mode;
    if (enabled) {
      mode.fetch_or(detail::kTraceModeTracer, std::memory_order_relaxed);
    } else {
      mode.fetch_and(~detail::kTraceModeTracer, std::memory_order_relaxed);
    }
  }
}

void Tracer::set_capacity(std::size_t max_events) {
  // relaxed: the cap is advisory; record() may overshoot by in-flight spans.
  capacity_.store(max_events, std::memory_order_relaxed);
}

std::uint64_t Tracer::now_us() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

Tracer::ThreadBuffer& Tracer::local_buffer() {
  BufferCache& cache = t_buffer_cache;
  if (cache.tracer_id == tracer_id_) {
    return *static_cast<ThreadBuffer*>(cache.buffer);
  }
  auto& map = thread_buffer_map();
  auto it = map.find(tracer_id_);
  if (it == map.end()) {
    auto buf = std::make_shared<ThreadBuffer>();
    {
      MutexLock lock(mu_);
      buf->tid = next_tid_++;
      buffers_.push_back(buf);
    }
    it = map.emplace(tracer_id_, std::move(buf)).first;
  }
  cache = {tracer_id_, it->second.get()};
  return *static_cast<ThreadBuffer*>(cache.buffer);
}

void Tracer::record(const char* name, const char* category,
                    std::uint64_t ts_us, std::uint64_t dur_us,
                    TraceEventKind kind, std::uint64_t trace_id,
                    std::uint64_t span_id, std::uint64_t parent_id) {
  // relaxed loads/RMWs: recorded_/dropped_ are statistics; the capacity
  // check is advisory (a burst may land a few events past the cap, which
  // only trades a handful of drops — no correctness impact).
  if (recorded_.load(std::memory_order_relaxed) >=
      capacity_.load(std::memory_order_relaxed)) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  recorded_.fetch_add(1, std::memory_order_relaxed);
  ThreadBuffer& buf = local_buffer();
  TraceEvent ev;
  ev.name = name;
  ev.category = category;
  ev.ts_us = ts_us;
  ev.dur_us = dur_us;
  ev.tid = buf.tid;
  ev.kind = kind;
  ev.trace_id = trace_id;
  ev.span_id = span_id;
  ev.parent_id = parent_id;
  MutexLock lock(buf.mu);
  buf.events.push_back(std::move(ev));
}

std::vector<TraceEvent> Tracer::events() const {
  std::vector<TraceEvent> out;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    MutexLock lock(mu_);
    buffers = buffers_;
  }
  for (const auto& buf : buffers) {
    MutexLock lock(buf->mu);
    out.insert(out.end(), buf->events.begin(), buf->events.end());
  }
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.ts_us < b.ts_us;
            });
  return out;
}

std::size_t Tracer::event_count() const {
  std::size_t n = 0;
  MutexLock lock(mu_);
  for (const auto& buf : buffers_) {
    MutexLock buf_lock(buf->mu);
    n += buf->events.size();
  }
  return n;
}

void Tracer::clear() {
  MutexLock lock(mu_);
  for (const auto& buf : buffers_) {
    MutexLock buf_lock(buf->mu);
    buf->events.clear();
  }
  // relaxed: statistics reset; see record().
  recorded_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
}

std::string Tracer::to_chrome_json() const { return chrome_trace_json(events()); }

std::string chrome_trace_json(const std::vector<TraceEvent>& events) {
  // span id -> event index, for flow binding and parent lookups.
  std::unordered_map<std::uint64_t, std::size_t> by_span;
  by_span.reserve(events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].kind == TraceEventKind::kSpan && events[i].span_id != 0) {
      by_span.emplace(events[i].span_id, i);
    }
  }
  std::ostringstream out;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto emit_ids = [&out](const TraceEvent& ev) {
    out << ",\"args\":{\"trace_id\":\"" << trace_id_hex(ev.trace_id)
        << "\",\"span_id\":\"" << trace_id_hex(ev.span_id)
        << "\",\"parent_id\":\"" << trace_id_hex(ev.parent_id) << "\"}";
  };
  for (const auto& ev : events) {
    if (!first) out << ',';
    first = false;
    out << "{\"name\":\"" << json_escape(ev.name) << "\",\"cat\":\""
        << json_escape(ev.category) << "\"";
    if (ev.kind == TraceEventKind::kSpan) {
      out << ",\"ph\":\"X\",\"ts\":" << ev.ts_us << ",\"dur\":" << ev.dur_us;
    } else {
      out << ",\"ph\":\"i\",\"s\":\"t\",\"ts\":" << ev.ts_us;
    }
    out << ",\"pid\":1,\"tid\":" << ev.tid;
    if (ev.trace_id != 0) emit_ids(ev);
    out << '}';
  }
  // Flow pairs for every cross-thread parent->child edge: the "s" end sits
  // inside the parent slice (ts clamped into it), the "f" end on the child.
  for (const auto& ev : events) {
    if (ev.parent_id == 0 || ev.span_id == 0) continue;
    const auto it = by_span.find(ev.parent_id);
    if (it == by_span.end()) continue;
    const TraceEvent& parent = events[it->second];
    if (parent.tid == ev.tid) continue;  // same-thread nesting needs no arrow
    const std::uint64_t s_ts =
        std::clamp(ev.ts_us, parent.ts_us, parent.ts_us + parent.dur_us);
    out << ",{\"name\":\"trace\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":\""
        << trace_id_hex(ev.span_id) << "\",\"ts\":" << s_ts
        << ",\"pid\":1,\"tid\":" << parent.tid << '}'
        << ",{\"name\":\"trace\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\","
           "\"id\":\""
        << trace_id_hex(ev.span_id) << "\",\"ts\":" << ev.ts_us
        << ",\"pid\":1,\"tid\":" << ev.tid << '}';
  }
  out << "]}";
  return out.str();
}

}  // namespace oda::obs
