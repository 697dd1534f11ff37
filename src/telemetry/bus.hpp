// Topic-based publish/subscribe message bus — the transport layer of the
// monitoring pipeline (the role MQTT plays in DCDB or AMQP in ExaMon).
// Subscriptions take glob patterns over sensor paths; publishing is
// thread-safe and delivers synchronously on the publisher's thread.
// Producers hand readings over in batches (publish_batch; publish() is a
// batch of one). A batch costs one span, one lock to snapshot the
// subscriptions and one update of each shared counter; each reading in it
// costs one glob match per subscription, a histogram observation when it
// is routed, and — only when the top-level prefix of an unrouted path
// differs from the previous unrouted one — a locked O(1) hash probe of that
// prefix. Nothing scales with the number of distinct paths or prefixes.
//
// Self-instrumentation: publishing feeds the global obs registry
// (oda_bus_publish_seconds, oda_bus_published_total, oda_bus_delivered_total,
// oda_bus_subscriber_deliveries_total{pattern=...}) and flags subscribers
// whose callback exceeds the slow threshold (oda_bus_slow_deliveries_total,
// plus a warn-once log line) — a synchronous bus is only as fast as its
// slowest subscriber.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "common/sync.hpp"
#include "telemetry/sample.hpp"

namespace oda::obs {
class Counter;
}  // namespace oda::obs

namespace oda::telemetry {

/// Per-subscription delivery statistics snapshot (see subscriber_stats()).
struct SubscriberStats {
  std::string pattern;
  std::uint64_t deliveries = 0;
  std::uint64_t slow_deliveries = 0;
  double busy_seconds = 0.0;  // total wall time spent inside the callback
};

class MessageBus {
 public:
  using Callback = std::function<void(const Reading&)>;
  using SubscriptionId = std::uint64_t;

  /// Subscribes to all paths matching the glob pattern.
  SubscriptionId subscribe(std::string pattern, Callback callback)
      ODA_EXCLUDES(mu_);
  void unsubscribe(SubscriptionId id) ODA_EXCLUDES(mu_);

  /// Delivers each reading, in order, to every matching subscriber: the
  /// same deliveries and statistics as one publish() per reading. Callbacks
  /// run outside the bus lock, so they may publish or (un)subscribe
  /// re-entrantly; a subscription change takes effect from the next
  /// reading of the batch. The shared counters (published/delivered/
  /// unrouted, here and in the registry) advance once, when the batch ends.
  void publish_batch(std::span<const Reading> readings) ODA_EXCLUDES(mu_);
  /// A batch of one.
  void publish(const Reading& reading) ODA_EXCLUDES(mu_) {
    publish_batch({&reading, 1});
  }
  void publish(const std::string& path, TimePoint time, double value)
      ODA_EXCLUDES(mu_);

  std::size_t subscriber_count() const ODA_EXCLUDES(mu_);
  // relaxed: published_/delivered_ are monotonic statistics counters; they
  // synchronize nothing and no other data is published through them.
  std::uint64_t published_count() const {
    return published_.load(std::memory_order_relaxed);
  }
  std::uint64_t delivered_count() const {
    return delivered_.load(std::memory_order_relaxed);
  }
  /// Publishes that matched zero subscribers — "data nobody consumed".
  /// Counted (oda_bus_unrouted_total) and warn-logged once per top-level
  /// path prefix, so chaos runs can tell silent drops from real gaps.
  std::uint64_t unrouted_count() const {
    // relaxed: monotonic statistics counter, like published_/delivered_.
    return unrouted_.load(std::memory_order_relaxed);
  }

  /// A delivery slower than this is counted as slow and warned about once
  /// per subscription. Default 1ms — generous for an in-process callback.
  void set_slow_threshold(double seconds) {
    // relaxed: an independent tuning knob; a late-observed change only
    // mis-classifies deliveries racing with the setter.
    slow_threshold_s_.store(seconds, std::memory_order_relaxed);
  }
  double slow_threshold() const {
    return slow_threshold_s_.load(std::memory_order_relaxed);
  }

  /// Per-subscription delivery statistics, in subscription order.
  std::vector<SubscriberStats> subscriber_stats() const ODA_EXCLUDES(mu_);

 private:
  /// Shared by every list version that holds the subscription, so the
  /// statistics survive subscribe()/unsubscribe() replacing the list.
  /// `pattern` and `callback` are immutable after construction; the
  /// counters are atomics.
  struct SubStats {
    std::string pattern;
    Callback callback;
    std::atomic<std::uint64_t> deliveries{0};
    std::atomic<std::uint64_t> slow{0};
    std::atomic<std::uint64_t> busy_ns{0};
    std::atomic<bool> warned{false};
    obs::Counter* per_pattern = nullptr;  // owned by the global registry
  };

  struct Subscription {
    SubscriptionId id;
    std::shared_ptr<SubStats> stats;
  };

  /// Outermost data-plane lock: publish_batch() nests store/metrics/log work
  /// under the snapshot taken here (via subscribers), never the reverse.
  mutable Mutex mu_ ODA_ACQUIRED_AFTER(lock_order::bus)
      ODA_ACQUIRED_BEFORE(lock_order::health){LockRankId::kBus};
  using SubscriptionList = std::vector<Subscription>;
  /// Copy-on-write: subscribe()/unsubscribe() swap in a new list and never
  /// touch a published one, so a batch snapshots the subscriptions by
  /// copying this pointer, and a list it holds stays valid (callbacks and
  /// statistics included) however the subscriptions change meanwhile.
  std::shared_ptr<const SubscriptionList> subs_ ODA_GUARDED_BY(mu_) =
      std::make_shared<const SubscriptionList>();
  SubscriptionId next_id_ ODA_GUARDED_BY(mu_) = 1;
  /// Bumped (under mu_) by every subscribe/unsubscribe, so a batch in
  /// flight knows when its subscription snapshot went stale.
  std::atomic<std::uint64_t> generation_{0};
  /// Lets unrouted_warned_ be probed with a string_view of the prefix, so an
  /// unrouted publish allocates nothing.
  struct PrefixHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };
  /// Top-level path prefixes already warned about as unrouted (bounded by
  /// the number of distinct prefixes).
  std::unordered_set<std::string, PrefixHash, std::equal_to<>> unrouted_warned_
      ODA_GUARDED_BY(mu_);
  std::atomic<std::uint64_t> published_{0};
  std::atomic<std::uint64_t> delivered_{0};
  std::atomic<std::uint64_t> unrouted_{0};
  std::atomic<double> slow_threshold_s_{1e-3};
};

}  // namespace oda::telemetry
