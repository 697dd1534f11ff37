// Collector: samples the simulated facility's sensors into the store and
// onto the bus — the LDMS/DCDB "sampler plugin" role. Sampling is organized
// in groups, each with its own glob filter and period (facility sensors are
// typically slower than node sensors), and the sensor reads of a pass can be
// spread across a thread pool.
//
// The read path is failure-aware (docs/RESILIENCE.md): every sensor read
// goes through a bounded retry loop with deterministic exponential backoff
// and a per-read simulated-latency deadline, behind a per-sensor three-state
// circuit breaker (closed -> open after N consecutive failures -> half-open
// probe). A failed or skipped read becomes an accounted gap — never a hang
// and never a silent hole: samples_expected() == samples_collected() +
// gaps_total() holds exactly. Outcomes feed an optional SensorHealthTracker.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "common/types.hpp"
#include "sim/cluster.hpp"
#include "telemetry/bus.hpp"
#include "telemetry/health.hpp"
#include "telemetry/sample.hpp"
#include "telemetry/series_id.hpp"
#include "telemetry/store.hpp"

namespace oda::obs {
class Counter;
class Gauge;
}  // namespace oda::obs

namespace oda::telemetry {

struct CollectorGroup {
  std::string name;
  std::string pattern;   // glob over sensor paths
  Duration period = 15;  // sampling period (multiple of sim dt recommended)
};

/// Bounded-retry policy for one sensor read. All durations are *simulated*
/// seconds: backoff and stall latency are charged against the deadline, so a
/// stalled sensor costs its budget and nothing more.
struct RetryPolicy {
  int max_attempts = 3;          // total attempts (1 = no retry)
  double base_backoff_s = 0.25;  // delay before the first retry
  double backoff_multiplier = 2.0;
  double jitter_fraction = 0.25;  // ± fraction, drawn from the read's Rng
  double read_deadline_s = 5.0;   // latency budget for the whole chain
};

/// Backoff before retry `retry_index` (0-based), jittered from `rng`.
/// Deterministic for a given policy, index, and Rng state.
double retry_backoff_s(const RetryPolicy& policy, int retry_index, Rng& rng);

/// Per-sensor circuit-breaker policy. Cooldown is simulated time.
struct BreakerPolicy {
  int failure_threshold = 5;     // consecutive failed reads to open
  Duration open_cooldown = 120;  // sim seconds before a half-open probe
  int half_open_successes = 2;   // probe successes required to close
};

enum class BreakerState : std::uint8_t { kClosed = 0, kOpen, kHalfOpen };
const char* breaker_state_name(BreakerState s);

class Collector {
 public:
  /// Store and bus may be null if unused; pool may be null for serial reads.
  Collector(sim::ClusterSimulation& cluster, TimeSeriesStore* store,
            MessageBus* bus, ThreadPool* pool = nullptr);

  /// Adds a sampling group; returns the number of sensors it matched.
  /// A pattern matching zero sensors is almost always a config bug: it is
  /// warned about and exported as oda_collector_empty_groups.
  std::size_t add_group(CollectorGroup group);
  /// Convenience: one group covering every sensor at the given period.
  std::size_t add_all_sensors(Duration period);

  /// Samples every group whose period divides the current sim time. Call
  /// once per sim step (after cluster.step()).
  void collect();

  // -- resilience configuration ------------------------------------------------
  void set_retry_policy(const RetryPolicy& policy) { retry_ = policy; }
  const RetryPolicy& retry_policy() const { return retry_; }
  void set_breaker_policy(const BreakerPolicy& policy) { breaker_ = policy; }
  const BreakerPolicy& breaker_policy() const { return breaker_; }
  /// Optional health tracker fed with every read outcome (may be null).
  /// Must outlive the collector or be reset to null first.
  void set_health_tracker(SensorHealthTracker* tracker) { health_ = tracker; }

  /// Breaker state for one sensor (kClosed if the path is unknown).
  BreakerState breaker_state(const std::string& path) const;
  /// Sensors whose breaker is currently open.
  std::size_t open_breakers() const {
    // relaxed: statistics gauge; synchronizes nothing.
    return static_cast<std::size_t>(
        open_breakers_.load(std::memory_order_relaxed));
  }

  // -- accounting --------------------------------------------------------------
  /// Catalog of all sensors known to the collector's cluster.
  const SensorCatalog& catalog() const { return catalog_; }
  /// Successfully read samples fanned out across all groups. Atomic so
  /// dashboards may poll it while collect() runs on the pipeline thread.
  std::uint64_t samples_collected() const {
    // relaxed: monotonic statistics counter; synchronizes nothing.
    return samples_collected_.load(std::memory_order_relaxed);
  }
  /// Samples every due group *should* have produced (matched sensors per
  /// pass). Invariant: samples_expected() == samples_collected() +
  /// gaps_total().
  std::uint64_t samples_expected() const {
    // relaxed: monotonic statistics counter; synchronizes nothing.
    return samples_expected_.load(std::memory_order_relaxed);
  }
  /// Reads that produced no sample (dropout, deadline, breaker open).
  std::uint64_t gaps_total() const {
    // relaxed: monotonic statistics counter; synchronizes nothing.
    return gaps_total_.load(std::memory_order_relaxed);
  }
  /// Retry attempts taken beyond first attempts.
  std::uint64_t retries_total() const {
    // relaxed: monotonic statistics counter; synchronizes nothing.
    return retries_total_.load(std::memory_order_relaxed);
  }

 private:
  struct Group {
    CollectorGroup def;
    std::vector<std::string> sensor_paths;
    std::vector<SeriesId> sensor_ids;  // interned once at add_group()
    obs::Counter* samples = nullptr;   // owned by the global registry
    obs::Counter* retries = nullptr;
    // Gap counters indexed by ReadOutcome (kDropout/kDeadline/kBreakerOpen).
    obs::Counter* gaps[3] = {nullptr, nullptr, nullptr};
  };

  /// Per-sensor breaker. Entries are created in add_group() and the map is
  /// never mutated during collect(); each sensor belongs to exactly one
  /// chunk of one group pass, so its entry is only mutated by one thread at
  /// a time (pass boundaries synchronize via the pool's futures). `state`
  /// is additionally atomic because breaker_state() observes it from
  /// arbitrary threads while a parallel pass is transitioning it.
  struct Breaker {
    std::atomic<BreakerState> state{BreakerState::kClosed};
    int consecutive_failures = 0;
    int probe_successes = 0;
    TimePoint opened_at = 0;
  };

  /// Outcome of the full retry chain for one sensor slot in a pass.
  struct SlotResult {
    double value = 0.0;
    std::uint32_t retries = 0;
    ReadOutcome outcome = ReadOutcome::kOk;
  };

  /// Runs the breaker gate + retry loop for one sensor. `value_rng` draws
  /// the fault-overlay randomness (null = the simulation's own stream, the
  /// serial path); `aux_rng` draws backoff jitter. May run on pool threads.
  SlotResult attempt_read(const std::string& path, SeriesId id, TimePoint now,
                          Rng* value_rng, Rng& aux_rng);
  void transition_breaker(Breaker& breaker, BreakerState to, TimePoint now);
  void on_read_success(Breaker& breaker, TimePoint now);
  void on_read_failure(Breaker& breaker, TimePoint now);

  void read_group(const Group& group, TimePoint now,
                  std::vector<SlotResult>& slots);

  sim::ClusterSimulation& cluster_;
  TimeSeriesStore* store_;
  MessageBus* bus_;
  ThreadPool* pool_;
  SensorCatalog catalog_;
  std::vector<Group> groups_;
  RetryPolicy retry_;
  BreakerPolicy breaker_;
  SensorHealthTracker* health_ = nullptr;
  std::unordered_map<std::uint32_t, Breaker> breakers_;
  std::atomic<std::uint64_t> samples_collected_{0};
  std::atomic<std::uint64_t> samples_expected_{0};
  std::atomic<std::uint64_t> gaps_total_{0};
  std::atomic<std::uint64_t> retries_total_{0};
  // relaxed counters; open_breakers_ is signed so transient over-decrement
  // bugs would show up as negative rather than wrapping.
  std::atomic<std::int64_t> open_breakers_{0};
  std::size_t empty_groups_ = 0;
  obs::Counter* breaker_transitions_[3] = {nullptr, nullptr, nullptr};
  obs::Gauge* open_breakers_gauge_ = nullptr;
  obs::Gauge* empty_groups_gauge_ = nullptr;
  /// Root stream for the parallel read path's per-chunk fault-overlay Rngs.
  /// Parallel passes draw overlay randomness from split children instead of
  /// the simulation stream, so sensor reads run genuinely concurrently; the
  /// serial path keeps using the cluster's own Rng.
  Rng overlay_rng_;
  /// The bus batch of the current group pass; see collect().
  std::vector<Reading> bus_batch_;
  /// Backoff-jitter stream for the serial path (the parallel path draws
  /// jitter from its chunk Rng). Only consumed when a read actually retries,
  /// so fault-free runs never touch it.
  Rng serial_backoff_rng_;
};

}  // namespace oda::telemetry
