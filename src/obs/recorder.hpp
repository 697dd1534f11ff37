// Always-on flight recorder: a bounded per-thread ring of the most recent
// spans and instants, recording even while full tracing is disabled. It is
// the black box of the pipeline — when a health check trips or a chaos
// campaign fails, the last moments of every thread are still in memory and
// can be dumped to Chrome trace JSON for postmortem inspection
// (assess_pipeline_health dumps it automatically on the healthy->unhealthy
// edge when a dump path is configured).
//
// Cost model: enabled by default, a recorded event is two steady-clock reads
// (shared with the tracer path) plus a handful of release atomic stores into
// a fixed ring slot (plain movs on x86) — no locks, no allocation, no
// branches on capacity. The ring is found through a one-entry thread-local
// cache, and its head doubles as its recorded count, so a record writes
// nothing another thread writes.
// Disabling it (set_enabled(false)) together with a disabled Tracer returns
// span entry to a single relaxed load (see trace.hpp's cost model).
//
// Concurrency: each thread writes only its own ring; slots are plain atomic
// words guarded by a per-slot sequence counter (a seqlock), so a concurrent
// snapshot() skips slots that are mid-write instead of tearing. Names and
// categories are retained as raw `const char*` — string literals only.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/sync.hpp"
#include "obs/trace.hpp"

namespace oda::obs {

class FlightRecorder {
 public:
  /// ring_capacity: events retained per thread, rounded up to a power of
  /// two (default 1024). Applies to rings created after construction.
  explicit FlightRecorder(std::size_t ring_capacity = 1024);
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;
  ~FlightRecorder();

  /// The process-wide recorder the ODA_TRACE_* macros feed. Enabled by
  /// default (always-on).
  static FlightRecorder& global();

  void set_enabled(bool enabled);
  bool enabled() const {
    // relaxed: advisory on/off flag, same semantics as Tracer::enabled().
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Records one event into the calling thread's ring, overwriting the
  /// oldest. name/category must be string literals (retained as pointers).
  void record(const char* name, const char* category, std::uint64_t ts_us,
              std::uint64_t dur_us, TraceEventKind kind,
              std::uint64_t trace_id, std::uint64_t span_id,
              std::uint64_t parent_id) noexcept;

  /// Copies every currently-retained event (all threads), ordered by start
  /// time. Slots concurrently being overwritten are skipped, not torn.
  std::vector<TraceEvent> snapshot() const;
  /// Chrome trace JSON of snapshot(). Ring eviction may orphan parent ids;
  /// scripts/check_trace.py --allow-missing-parents accepts such dumps.
  std::string to_chrome_json() const;

  /// Events currently retained / recorded since construction / dumps taken.
  /// The first two read each ring's head, no slot: O(threads), and on a
  /// quiescent recorder event_count() == snapshot().size().
  std::size_t event_count() const;
  std::uint64_t recorded_total() const;
  std::uint64_t dump_count() const {
    // relaxed: statistics counter.
    return dumps_.load(std::memory_order_relaxed);
  }

  /// Resets every ring. Callers must quiesce writers first (test helper).
  void clear();

  /// Destination for automatic postmortem dumps ("" disables, the default).
  void set_dump_path(std::string path);
  std::string dump_path() const;

  /// Writes to_chrome_json() to `path` (or dump_path() when empty).
  /// Returns false when no path is configured or the write fails.
  bool dump_to_file(const std::string& path = "");

 private:
  // One event slot. All members are atomics written by the owning thread
  // only; `seq` is the seqlock word readers use to detect tearing
  // (odd = write in progress; stable value encodes the ring head position
  // so readers also reject slots lapped mid-scan).
  struct Slot {
    std::atomic<std::uint64_t> seq{0};
    std::atomic<const char*> name{nullptr};
    std::atomic<const char*> category{nullptr};
    std::atomic<std::uint64_t> ts_us{0};
    std::atomic<std::uint64_t> dur_us{0};
    std::atomic<std::uint64_t> trace_id{0};
    std::atomic<std::uint64_t> span_id{0};
    std::atomic<std::uint64_t> parent_id{0};
    std::atomic<std::uint32_t> kind{0};
  };
  struct Ring {
    explicit Ring(std::size_t capacity) : slots(capacity) {}
    /// First position still retained when the head is at `at`: the ring's
    /// last `capacity` events, none from before the last clear().
    std::uint64_t retained_begin(std::uint64_t at) const;

    std::vector<Slot> slots;  // power-of-two length
    /// Next write position; monotonic, so also the events ever recorded.
    std::atomic<std::uint64_t> head{0};
    std::atomic<std::uint64_t> cleared{0};  // head at the last clear()
    std::uint32_t tid = 0;
  };

  /// This thread's ring, registered on first use (a thread-local cache hit
  /// on the hot path).
  Ring& local_ring();
  std::vector<std::shared_ptr<Ring>> rings() const ODA_EXCLUDES(mu_);

  const std::uint64_t recorder_id_;
  const std::size_t ring_capacity_;
  std::atomic<bool> enabled_{true};
  std::atomic<std::uint64_t> dumps_{0};
  // Guards ring registration and the dump path only. The per-slot seqlock
  // protocol (Slot::seq) deliberately stays outside the annotated-mutex
  // world: writers are lock-free by design (record() is called from span
  // destructors on every instrumented thread) and readers detect torn slots
  // via the sequence word, so there is no capability the analysis could
  // associate with the payload atomics.
  mutable Mutex mu_ ODA_ACQUIRED_AFTER(lock_order::trace)
      ODA_ACQUIRED_BEFORE(lock_order::log){LockRankId::kTrace};
  std::vector<std::shared_ptr<Ring>> rings_ ODA_GUARDED_BY(mu_);
  std::uint32_t next_tid_ ODA_GUARDED_BY(mu_) = 1;
  std::string dump_path_ ODA_GUARDED_BY(mu_);
};

}  // namespace oda::obs
