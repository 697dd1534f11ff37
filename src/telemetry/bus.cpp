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
  subs_.push_back({id, std::move(stats)});
  return id;
}

void MessageBus::unsubscribe(SubscriptionId id) {
  MutexLock lock(mu_);
  subs_.erase(std::remove_if(subs_.begin(), subs_.end(),
                             [id](const Subscription& s) { return s.id == id; }),
              subs_.end());
}

void MessageBus::publish(const Reading& reading) {
  ODA_TRACE_SPAN_CAT("bus.publish", "bus");
  BusMetrics& metrics = BusMetrics::get();
  // relaxed (here and for delivered_ below): pure statistics counters — they
  // guard no data and order nothing; readers only need eventual counts.
  published_.fetch_add(1, std::memory_order_relaxed);
  metrics.published.inc();
  // Snapshot matching subscribers under the lock, call outside it so a
  // subscriber may publish (or subscribe) re-entrantly without deadlock.
  // Holding the shared block (not a pointer into subs_, which a concurrent
  // subscribe may reallocate) keeps the callback and its accounting valid
  // even if the subscription is removed mid-delivery.
  std::vector<std::shared_ptr<SubStats>> targets;
  bool warn_unrouted = false;
  {
    MutexLock lock(mu_);
    for (const auto& s : subs_) {
      if (glob_match(s.stats->pattern, reading.path)) {
        targets.push_back(s.stats);
      }
    }
    if (targets.empty()) {
      // Silent-drop visibility: nobody consumed this reading. Warn once per
      // top-level path prefix so a misrouted family surfaces without a log
      // line per sample.
      const std::string_view path = reading.path;
      const std::string_view prefix = path.substr(0, path.find('/'));
      if (unrouted_warned_.find(prefix) == unrouted_warned_.end()) {
        unrouted_warned_.emplace(prefix);
        warn_unrouted = true;
      }
    }
  }
  if (targets.empty()) {
    // relaxed: statistics counter, like published_ above.
    unrouted_.fetch_add(1, std::memory_order_relaxed);
    metrics.unrouted.inc();
    if (warn_unrouted) {
      ODA_LOG_WARN << "bus publish matched no subscribers (path '"
                   << reading.path << "'); counting under prefix '"
                   << reading.path.substr(0, reading.path.find('/')) << "'";
    }
  }
  using Clock = std::chrono::steady_clock;
  const double slow_threshold = slow_threshold_s_.load(std::memory_order_relaxed);
  double publish_seconds = 0.0;
  for (const auto& t : targets) {
    // Child of the publish span (same-thread nesting), so each subscriber's
    // work hangs off the publish in the causal trace.
    ODA_TRACE_SPAN_CAT("bus.deliver", "bus");
    const Clock::time_point t0 = Clock::now();
    t->callback(reading);
    const auto elapsed_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
            .count());
    const double elapsed_s = static_cast<double>(elapsed_ns) * 1e-9;
    publish_seconds += elapsed_s;
    delivered_.fetch_add(1, std::memory_order_relaxed);
    metrics.delivered.inc();
    t->per_pattern->inc();
    // relaxed (all SubStats fields): standalone statistics; they synchronize
    // nothing and subscriber_stats() only needs eventually-consistent sums.
    t->deliveries.fetch_add(1, std::memory_order_relaxed);
    t->busy_ns.fetch_add(elapsed_ns, std::memory_order_relaxed);
    if (elapsed_s > slow_threshold) {
      metrics.slow.inc();
      t->slow.fetch_add(1, std::memory_order_relaxed);
      // relaxed exchange: warned is a best-effort once-flag for log noise
      // control; a duplicate warning under a rare race would be harmless.
      if (!t->warned.exchange(true, std::memory_order_relaxed)) {
        ODA_LOG_WARN << "slow bus subscriber (pattern '" << t->pattern
                     << "'): delivery took " << elapsed_s * 1e3
                     << " ms (threshold " << slow_threshold * 1e3 << " ms)";
      }
    }
  }
  metrics.publish_seconds.observe(publish_seconds);
}

void MessageBus::publish(const std::string& path, TimePoint time, double value) {
  publish(Reading{path, {time, value}});
}

std::size_t MessageBus::subscriber_count() const {
  MutexLock lock(mu_);
  return subs_.size();
}

std::vector<SubscriberStats> MessageBus::subscriber_stats() const {
  MutexLock lock(mu_);
  std::vector<SubscriberStats> out;
  out.reserve(subs_.size());
  for (const auto& s : subs_) {
    SubscriberStats stats;
    stats.pattern = s.stats->pattern;
    // relaxed: statistics snapshot; see the publish() comment.
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
