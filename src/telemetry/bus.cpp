#include "telemetry/bus.hpp"

#include <algorithm>
#include <chrono>

#include "common/log.hpp"
#include "common/string_util.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace oda::telemetry {

namespace {

/// Process-wide bus metrics, registered once on first use. Counters
/// aggregate over every MessageBus instance (Prometheus semantics); the
/// per-instance published_count()/delivered_count() accessors remain exact
/// per bus.
struct BusMetrics {
  obs::Counter& published;
  obs::Counter& delivered;
  obs::Counter& slow;
  obs::Counter& unrouted;
  obs::Histogram& publish_seconds;

  static BusMetrics& get() {
    static BusMetrics m{
        obs::MetricsRegistry::global().counter(
            "oda_bus_published_total", "Readings published on any bus"),
        obs::MetricsRegistry::global().counter(
            "oda_bus_delivered_total", "Subscriber callback invocations"),
        obs::MetricsRegistry::global().counter(
            "oda_bus_slow_deliveries_total",
            "Deliveries exceeding the bus slow threshold"),
        obs::MetricsRegistry::global().counter(
            "oda_bus_unrouted_total",
            "Publishes that matched zero subscribers"),
        obs::MetricsRegistry::global().histogram(
            "oda_bus_publish_seconds",
            "End-to-end publish latency (all matching subscribers)"),
    };
    return m;
  }
};

}  // namespace

MessageBus::SubscriptionId MessageBus::subscribe(std::string pattern,
                                                 Callback callback) {
  auto stats = std::make_shared<SubStats>();
  stats->pattern = std::move(pattern);
  stats->callback = std::move(callback);
  stats->per_pattern = &obs::MetricsRegistry::global().counter(
      "oda_bus_subscriber_deliveries_total",
      "Deliveries per subscription pattern", {{"pattern", stats->pattern}});
  MutexLock lock(mu_);
  const SubscriptionId id = next_id_++;
  auto next = std::make_shared<SubscriptionList>(*subs_);
  next->push_back({id, std::move(stats)});
  subs_ = std::move(next);
  // relaxed: a staleness hint only; a batch re-reads subs_ under mu_.
  generation_.fetch_add(1, std::memory_order_relaxed);
  return id;
}

void MessageBus::unsubscribe(SubscriptionId id) {
  MutexLock lock(mu_);
  auto next = std::make_shared<SubscriptionList>(*subs_);
  next->erase(std::remove_if(next->begin(), next->end(),
                             [id](const Subscription& s) { return s.id == id; }),
              next->end());
  subs_ = std::move(next);
  // relaxed: see subscribe().
  generation_.fetch_add(1, std::memory_order_relaxed);
}

void MessageBus::publish_batch(std::span<const Reading> readings) {
  if (readings.empty()) return;
  ODA_TRACE_SPAN_CAT("bus.publish", "bus");
  BusMetrics& metrics = BusMetrics::get();

  // Batch totals, folded into the shared counters once when the batch ends
  // — also when a callback throws, so the readings handed over so far stay
  // counted exactly as single publishes would have counted them.
  struct Totals {
    MessageBus& bus;
    BusMetrics& metrics;
    std::uint64_t published = 0;
    std::uint64_t delivered = 0;
    std::uint64_t unrouted = 0;
    ~Totals() {
      // relaxed: pure statistics counters — they guard no data and order
      // nothing; readers only need eventual counts.
      bus.published_.fetch_add(published, std::memory_order_relaxed);
      metrics.published.inc(published);
      if (delivered != 0) {
        bus.delivered_.fetch_add(delivered, std::memory_order_relaxed);
        metrics.delivered.inc(delivered);
      }
      if (unrouted != 0) {
        bus.unrouted_.fetch_add(unrouted, std::memory_order_relaxed);
        metrics.unrouted.inc(unrouted);
        // An unrouted reading's publish latency is exactly zero.
        metrics.publish_seconds.observe(0.0, unrouted);
      }
    }
  } totals{*this, metrics};

  // Snapshot the subscriptions under the lock and deliver outside it, so a
  // subscriber may publish (or subscribe) re-entrantly without deadlock.
  // The snapshot is one immutable list (see subs_), retaken before the next
  // reading whenever the generation moved.
  std::shared_ptr<const SubscriptionList> subs;
  std::uint64_t generation = 0;
  const auto take_snapshot = [&] {
    MutexLock lock(mu_);
    // relaxed: read under mu_, which every writer of generation_ holds.
    generation = generation_.load(std::memory_order_relaxed);
    subs = subs_;
  };
  take_snapshot();

  using Clock = std::chrono::steady_clock;
  const double slow_threshold = slow_threshold_s_.load(std::memory_order_relaxed);
  // Top-level prefix of the last unrouted reading, already probed. The
  // caller's readings stay put for the whole batch, so a view is stable.
  std::string_view probed_prefix;
  bool probed = false;
  for (const Reading& reading : readings) {
    // relaxed: a change made by a callback of this thread is sequenced
    // before this load; one made by another thread races with the batch
    // anyway, exactly as it races with a single publish.
    if (generation_.load(std::memory_order_relaxed) != generation) {
      take_snapshot();
    }
    ++totals.published;
    bool routed = false;
    double publish_seconds = 0.0;
    for (const Subscription& s : *subs) {
      SubStats& t = *s.stats;
      if (!glob_match(t.pattern, reading.path)) continue;
      routed = true;
      // Child of the publish span (same-thread nesting), so each
      // subscriber's work hangs off the publish in the causal trace.
      ODA_TRACE_SPAN_CAT("bus.deliver", "bus");
      const Clock::time_point t0 = Clock::now();
      t.callback(reading);
      const auto elapsed_ns = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               t0)
              .count());
      const double elapsed_s = static_cast<double>(elapsed_ns) * 1e-9;
      publish_seconds += elapsed_s;
      ++totals.delivered;
      t.per_pattern->inc();
      // relaxed (all SubStats fields): standalone statistics; they
      // synchronize nothing and subscriber_stats() only needs
      // eventually-consistent sums.
      t.deliveries.fetch_add(1, std::memory_order_relaxed);
      t.busy_ns.fetch_add(elapsed_ns, std::memory_order_relaxed);
      if (elapsed_s > slow_threshold) {
        metrics.slow.inc();
        t.slow.fetch_add(1, std::memory_order_relaxed);
        // relaxed exchange: warned is a best-effort once-flag for log noise
        // control; a duplicate warning under a rare race would be harmless.
        if (!t.warned.exchange(true, std::memory_order_relaxed)) {
          ODA_LOG_WARN << "slow bus subscriber (pattern '" << t.pattern
                       << "'): delivery took " << elapsed_s * 1e3
                       << " ms (threshold " << slow_threshold * 1e3 << " ms)";
        }
      }
    }
    if (routed) {
      metrics.publish_seconds.observe(publish_seconds);
      continue;
    }
    ++totals.unrouted;
    // Silent-drop visibility: nobody consumed this reading. Warn once per
    // top-level path prefix so a misrouted family surfaces without a log
    // line per sample.
    const std::string_view path = reading.path;
    const std::string_view prefix = path.substr(0, path.find('/'));
    if (probed && prefix == probed_prefix) continue;
    probed = true;
    probed_prefix = prefix;
    bool warn = false;
    {
      MutexLock lock(mu_);
      if (unrouted_warned_.find(prefix) == unrouted_warned_.end()) {
        unrouted_warned_.emplace(prefix);
        warn = true;
      }
    }
    if (warn) {
      ODA_LOG_WARN << "bus publish matched no subscribers (path '"
                   << reading.path << "'); counting under prefix '" << prefix
                   << "'";
    }
  }
}

void MessageBus::publish(const std::string& path, TimePoint time, double value) {
  publish(Reading{path, {time, value}});
}

std::size_t MessageBus::subscriber_count() const {
  MutexLock lock(mu_);
  return subs_->size();
}

std::vector<SubscriberStats> MessageBus::subscriber_stats() const {
  MutexLock lock(mu_);
  std::vector<SubscriberStats> out;
  out.reserve(subs_->size());
  for (const auto& s : *subs_) {
    SubscriberStats stats;
    stats.pattern = s.stats->pattern;
    // relaxed: statistics snapshot; see publish_batch().
    stats.deliveries = s.stats->deliveries.load(std::memory_order_relaxed);
    stats.slow_deliveries = s.stats->slow.load(std::memory_order_relaxed);
    stats.busy_seconds =
        static_cast<double>(s.stats->busy_ns.load(std::memory_order_relaxed)) *
        1e-9;
    out.push_back(std::move(stats));
  }
  return out;
}

}  // namespace oda::telemetry
