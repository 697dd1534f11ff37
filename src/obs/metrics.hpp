// Self-instrumentation metrics: the ODA stack observing itself.
//
// A MetricsRegistry holds named counters, gauges, and fixed-bucket
// histograms following the Prometheus data model (metric family + label
// set -> one series). Registration takes a mutex; the returned instrument
// reference is stable for the registry's lifetime and its hot-path
// operations (inc / set / observe) are lock-free atomics, so instrumented
// code pays a few relaxed atomic RMWs per event and nothing more.
//
// Naming convention (docs/OBSERVABILITY.md): oda_<layer>_<name>_<unit>,
// e.g. oda_bus_publish_seconds, oda_store_inserts_total.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/sync.hpp"

namespace oda::obs {

/// Label key/value pairs identifying one series within a metric family.
/// Registration sorts them by key, so order does not matter to callers.
using LabelSet = std::vector<std::pair<std::string, std::string>>;

enum class MetricType { kCounter, kGauge, kHistogram };

const char* to_string(MetricType type);

/// Monotonically increasing event count.
class Counter {
 public:
  // relaxed (all accesses): counters are standalone monotonic statistics;
  // they publish no other data and order nothing, so readers only need an
  // eventually-current value.
  void inc(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written measurement (queue depth, resident bytes, ...).
class Gauge {
 public:
  // relaxed (all accesses): a gauge is an independent last-writer-wins
  // sample; no inter-thread ordering is implied by reading it.
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(double delta) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram (Prometheus semantics: per-bucket counts are
/// exported cumulatively; internally each atomic holds its own bucket only).
class Histogram {
 public:
  /// `bounds` are ascending inclusive upper bounds; an implicit +Inf bucket
  /// is appended.
  explicit Histogram(std::vector<double> bounds);

  /// Records `count` observations of `value` (a bulk add of identical
  /// values, e.g. a batch's zero-latency readings).
  void observe(double value, std::uint64_t count = 1) noexcept;

  /// Exemplar (OpenMetrics): the trace id of the most recent extreme
  /// observation — the running-max value seen while a trace context was
  /// active on the observing thread. trace_id == 0 means none yet. The
  /// (value, trace_id) pair is read without a lock, so under concurrent
  /// extremes it may mix two observations; both fields are still valid
  /// exemplars of the series, so the link stays useful.
  struct Exemplar {
    double value = 0.0;
    std::uint64_t trace_id = 0;
  };
  Exemplar exemplar() const noexcept {
    // relaxed (both): debugging breadcrumb, no ordering obligations.
    return {exemplar_value_.load(std::memory_order_relaxed),
            exemplar_trace_id_.load(std::memory_order_relaxed)};
  }

  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket (non-cumulative) counts; size == bounds().size() + 1.
  std::vector<std::uint64_t> bucket_counts() const;
  std::uint64_t count() const noexcept {
    // relaxed: see Counter — statistics only.
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const noexcept {
    // relaxed: see Counter — statistics only.
    return sum_.load(std::memory_order_relaxed);
  }

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> counts_;  // bounds_.size() + 1
  std::atomic<double> sum_{0.0};
  std::atomic<std::uint64_t> count_{0};
  // -inf start so the first traced observation always becomes the exemplar.
  std::atomic<double> exemplar_value_{
      -std::numeric_limits<double>::infinity()};
  std::atomic<std::uint64_t> exemplar_trace_id_{0};
};

/// Default latency buckets: 1us .. ~65s, doubling.
std::vector<double> default_latency_bounds();
/// `count` bounds starting at `start`, each `factor` times the previous.
std::vector<double> exponential_bounds(double start, double factor,
                                       std::size_t count);

// ---------------------------------------------------------------- snapshot

/// One exported series of a counter or gauge family.
struct SeriesValue {
  LabelSet labels;
  double value = 0.0;
};

/// One exported histogram series.
struct HistogramValue {
  LabelSet labels;
  std::vector<double> bounds;
  std::vector<std::uint64_t> counts;  // non-cumulative, bounds.size() + 1
  double sum = 0.0;
  std::uint64_t count = 0;
  // OpenMetrics exemplar (see Histogram::exemplar); trace_id 0 = none.
  double exemplar_value = 0.0;
  std::uint64_t exemplar_trace_id = 0;
};

struct MetricFamily {
  std::string name;
  std::string help;
  MetricType type = MetricType::kCounter;
  std::vector<SeriesValue> values;          // counter/gauge families
  std::vector<HistogramValue> histograms;   // histogram families
};

/// Point-in-time histogram state returned by a histogram callback (pull
/// model). `counts` are per-bucket (non-cumulative) and must have exactly
/// bounds.size() + 1 entries (the last is the +Inf bucket). The exported
/// _count is derived from the bucket sum, not taken from `count`, so the
/// +Inf cumulative bucket always equals _count even when the callback reads
/// concurrently-updated atomics.
struct HistogramSnapshot {
  std::vector<double> bounds;
  std::vector<std::uint64_t> counts;  // bounds.size() + 1
  double sum = 0.0;
};

/// A point-in-time copy of every registered series. Individual series are
/// read atomically but the snapshot as a whole is not a consistent cut —
/// standard scrape semantics.
struct MetricsSnapshot {
  std::vector<MetricFamily> families;

  const MetricFamily* find(const std::string& name) const;
  /// Sum of every series value in a counter/gauge family (0 if absent).
  double total(const std::string& name) const;
};

// ---------------------------------------------------------------- registry

/// Unregisters a callback series when destroyed. The registry must outlive
/// the handle (trivially true for MetricsRegistry::global()).
class CallbackHandle {
 public:
  CallbackHandle() = default;
  CallbackHandle(CallbackHandle&& other) noexcept;
  CallbackHandle& operator=(CallbackHandle&& other) noexcept;
  CallbackHandle(const CallbackHandle&) = delete;
  CallbackHandle& operator=(const CallbackHandle&) = delete;
  ~CallbackHandle();

  void release();  // unregister now

 private:
  friend class MetricsRegistry;
  CallbackHandle(class MetricsRegistry* registry, std::uint64_t id)
      : registry_(registry), id_(id) {}
  MetricsRegistry* registry_ = nullptr;
  std::uint64_t id_ = 0;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry every built-in instrumentation point uses.
  static MetricsRegistry& global();

  /// Returns the instrument for (name, labels), creating it on first use.
  /// Re-registration with the same name+labels returns the same instrument;
  /// re-registration of a name with a different type throws ContractError.
  Counter& counter(const std::string& name, const std::string& help,
                   const LabelSet& labels = {}) ODA_EXCLUDES(mu_);
  Gauge& gauge(const std::string& name, const std::string& help,
               const LabelSet& labels = {}) ODA_EXCLUDES(mu_);
  Histogram& histogram(const std::string& name, const std::string& help,
                       std::vector<double> bounds, const LabelSet& labels = {})
      ODA_EXCLUDES(mu_);
  /// Histogram with default_latency_bounds() — the common latency case.
  Histogram& histogram(const std::string& name, const std::string& help,
                       const LabelSet& labels = {}) ODA_EXCLUDES(mu_);

  /// Registers a series whose value is computed at snapshot time (pull
  /// model — e.g. a queue depth read from the queue itself). The callback
  /// must not call back into this registry. Dropped when the returned
  /// handle is destroyed.
  [[nodiscard]] CallbackHandle gauge_callback(const std::string& name,
                                              const std::string& help,
                                              const LabelSet& labels,
                                              std::function<double()> fn);
  [[nodiscard]] CallbackHandle counter_callback(const std::string& name,
                                                const std::string& help,
                                                const LabelSet& labels,
                                                std::function<double()> fn);
  /// Histogram variant: the callback returns the full bucket state each
  /// scrape (e.g. the lock-contention table in common/contention.hpp, whose
  /// atomics live outside the registry). Same re-registration and
  /// no-reentrancy rules as the scalar callbacks.
  [[nodiscard]] CallbackHandle histogram_callback(
      const std::string& name, const std::string& help, const LabelSet& labels,
      std::function<HistogramSnapshot()> fn);

  MetricsSnapshot snapshot() const ODA_EXCLUDES(mu_);

  std::size_t family_count() const ODA_EXCLUDES(mu_);

 private:
  struct Instrument {
    LabelSet labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  struct Family {
    std::string help;
    MetricType type = MetricType::kCounter;
    std::map<std::string, Instrument> series;  // key: serialized labels
  };
  struct CallbackSeries {
    std::uint64_t id = 0;
    std::string name;
    std::string help;
    MetricType type = MetricType::kGauge;
    LabelSet labels;
    std::function<double()> fn;                    // counter/gauge callbacks
    std::function<HistogramSnapshot()> hist_fn;    // histogram callbacks
  };

  friend class CallbackHandle;
  void remove_callback(std::uint64_t id) ODA_EXCLUDES(mu_);
  Family& family_locked(const std::string& name, const std::string& help,
                        MetricType type) ODA_REQUIRES(mu_);
  CallbackHandle add_callback(const std::string& name, const std::string& help,
                              MetricType type, const LabelSet& labels,
                              std::function<double()> fn) ODA_EXCLUDES(mu_);

  /// Registration-path lock only (instrument hot paths are lock-free
  /// atomics). Held while snapshot() runs pull callbacks, which therefore
  /// must not re-enter the registry — but may log or trace (both rank
  /// below metrics).
  mutable Mutex mu_ ODA_ACQUIRED_AFTER(lock_order::metrics)
      ODA_ACQUIRED_BEFORE(lock_order::trace){LockRankId::kMetrics};
  std::map<std::string, Family> families_ ODA_GUARDED_BY(mu_);
  std::vector<CallbackSeries> callbacks_ ODA_GUARDED_BY(mu_);
  std::uint64_t next_callback_id_ ODA_GUARDED_BY(mu_) = 1;
};

/// Validates a metric name ([a-zA-Z_:][a-zA-Z0-9_:]*); throws ContractError.
void validate_metric_name(const std::string& name);
/// Validates a label name ([a-zA-Z_][a-zA-Z0-9_]*); throws ContractError.
void validate_label_name(const std::string& name);

}  // namespace oda::obs
