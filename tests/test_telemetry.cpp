// Tests for the telemetry pipeline: catalog, bus, store, collector, alerts,
// and derived sensors — including the sim -> store integration path.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "common/error.hpp"
#include "common/log.hpp"
#include "obs/metrics.hpp"
#include "sim/cluster.hpp"
#include "telemetry/alerts.hpp"
#include "telemetry/bus.hpp"
#include "telemetry/collector.hpp"
#include "telemetry/derived.hpp"
#include "telemetry/sample.hpp"
#include "telemetry/store.hpp"

namespace oda::telemetry {
namespace {

// ---------------------------------------------------------------- catalog

TEST(SensorCatalog, AddFindMatch) {
  SensorCatalog cat;
  cat.add({"rack00/node00/power", "W"});
  cat.add({"rack00/node00/cpu_temp", "degC"});
  cat.add({"facility/pue", "ratio"});
  EXPECT_TRUE(cat.contains("facility/pue"));
  EXPECT_EQ(cat.find("rack00/node00/power")->unit, "W");
  EXPECT_EQ(cat.match("rack00/node00/*").size(), 2u);
  EXPECT_EQ(cat.match("*").size(), 3u);
  EXPECT_TRUE(cat.match("nothing/*").empty());
}

TEST(SensorCatalog, ReAddUpdates) {
  SensorCatalog cat;
  cat.add({"s", "W"});
  cat.add({"s", "kW"});
  EXPECT_EQ(cat.size(), 1u);
  EXPECT_EQ(cat.find("s")->unit, "kW");
}

// -------------------------------------------------------------------- bus

TEST(MessageBus, DeliversToMatchingSubscribers) {
  MessageBus bus;
  int node_hits = 0, all_hits = 0;
  bus.subscribe("rack*/node*/power", [&](const Reading&) { ++node_hits; });
  bus.subscribe("*", [&](const Reading&) { ++all_hits; });
  bus.publish("rack00/node01/power", 10, 150.0);
  bus.publish("facility/pue", 10, 1.3);
  EXPECT_EQ(node_hits, 1);
  EXPECT_EQ(all_hits, 2);
  EXPECT_EQ(bus.published_count(), 2u);
  EXPECT_EQ(bus.delivered_count(), 3u);
}

TEST(MessageBus, UnsubscribeStopsDelivery) {
  MessageBus bus;
  int hits = 0;
  const auto id = bus.subscribe("*", [&](const Reading&) { ++hits; });
  bus.publish("x", 0, 1.0);
  bus.unsubscribe(id);
  bus.publish("x", 0, 1.0);
  EXPECT_EQ(hits, 1);
  EXPECT_EQ(bus.subscriber_count(), 0u);
}

TEST(MessageBus, ReentrantPublishDoesNotDeadlock) {
  MessageBus bus;
  int secondary = 0;
  bus.subscribe("primary", [&](const Reading& r) {
    bus.publish("secondary", r.sample.time, r.sample.value * 2.0);
  });
  bus.subscribe("secondary", [&](const Reading&) { ++secondary; });
  bus.publish("primary", 0, 1.0);
  EXPECT_EQ(secondary, 1);
}

// ------------------------------------------------------------------ store

TEST(Store, InsertAndQueryRange) {
  TimeSeriesStore store;
  for (TimePoint t = 0; t < 100; t += 10) {
    store.insert("s", {t, static_cast<double>(t)});
  }
  const auto slice = store.query("s", 20, 60);
  ASSERT_EQ(slice.size(), 4u);
  EXPECT_EQ(slice.times.front(), 20);
  EXPECT_EQ(slice.times.back(), 50);
  EXPECT_EQ(store.sample_count("s"), 10u);
}

TEST(Store, LatestAndMissing) {
  TimeSeriesStore store;
  EXPECT_FALSE(store.latest("nope").has_value());
  store.insert("s", {5, 1.5});
  store.insert("s", {6, 2.5});
  EXPECT_DOUBLE_EQ(store.latest("s")->value, 2.5);
  EXPECT_TRUE(store.query("nope", 0, 100).empty());
}

TEST(Store, CapacityBoundsRetention) {
  TimeSeriesStore store(4);
  for (TimePoint t = 0; t < 10; ++t) store.insert("s", {t, 0.0});
  EXPECT_EQ(store.sample_count("s"), 4u);
  const auto slice = store.query_all("s");
  EXPECT_EQ(slice.times.front(), 6);
}

TEST(Store, AggregatedBuckets) {
  TimeSeriesStore store;
  for (TimePoint t = 0; t < 60; ++t) {
    store.insert("s", {t, static_cast<double>(t < 30 ? 10 : 20)});
  }
  const auto agg = store.query_aggregated("s", 0, 60, 30, Aggregation::kMean);
  ASSERT_EQ(agg.size(), 2u);
  EXPECT_DOUBLE_EQ(agg.values[0], 10.0);
  EXPECT_DOUBLE_EQ(agg.values[1], 20.0);
  const auto mx = store.query_aggregated("s", 0, 60, 60, Aggregation::kMax);
  EXPECT_DOUBLE_EQ(mx.values[0], 20.0);
  const auto cnt = store.query_aggregated("s", 0, 60, 60, Aggregation::kCount);
  EXPECT_DOUBLE_EQ(cnt.values[0], 60.0);
}

TEST(Store, FrameAlignsMultipleSensors) {
  TimeSeriesStore store;
  for (TimePoint t = 0; t < 40; t += 10) {
    store.insert("a", {t, 1.0});
    if (t < 20) store.insert("b", {t, 2.0});  // b stops early
  }
  const auto f = store.frame({"a", "b"}, 0, 40, 10);
  ASSERT_EQ(f.rows(), 4u);
  ASSERT_EQ(f.cols(), 2u);
  EXPECT_DOUBLE_EQ(f.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(f.at(0, 1), 2.0);
  EXPECT_TRUE(std::isnan(f.at(3, 1)));  // missing data is NaN
  EXPECT_EQ(f.column_values(1).size(), 4u);
  EXPECT_DOUBLE_EQ(f.column_values(1)[1], 2.0);
  const auto col = f.column("a");
  EXPECT_EQ(col.size(), 4u);
  EXPECT_THROW(f.column("zzz"), ContractError);
}

TEST(Store, MatchGlob) {
  TimeSeriesStore store;
  store.insert("rack00/node00/power", {0, 1.0});
  store.insert("rack00/node01/power", {0, 1.0});
  store.insert("facility/pue", {0, 1.0});
  EXPECT_EQ(store.match("rack*/node*/power").size(), 2u);
}

// -------------------------------------------------------------- collector

TEST(Collector, SamplesIntoStoreAtPeriod) {
  sim::ClusterParams params;
  params.racks = 1;
  params.nodes_per_rack = 2;
  params.dt = 15;
  sim::ClusterSimulation cluster(params);
  TimeSeriesStore store;
  Collector collector(cluster, &store, nullptr);
  collector.add_group({"facility", "facility/*", 30});
  for (int i = 0; i < 8; ++i) {  // 2 minutes at dt=15
    cluster.step();
    collector.collect();
  }
  // period 30 with dt 15 -> every other step.
  EXPECT_EQ(store.sample_count("facility/pue"), 4u);
  EXPECT_EQ(store.sample_count("weather/drybulb_temp"), 0u);  // not in group
}

TEST(Collector, PublishesToBus) {
  sim::ClusterParams params;
  params.racks = 1;
  params.nodes_per_rack = 2;
  sim::ClusterSimulation cluster(params);
  MessageBus bus;
  std::atomic<int> readings{0};
  bus.subscribe("rack00/*", [&](const Reading&) { ++readings; });
  Collector collector(cluster, nullptr, &bus);
  collector.add_all_sensors(15);
  cluster.step();
  collector.collect();
  EXPECT_GT(readings.load(), 0);
}

TEST(Collector, GroupReportsMatchedCount) {
  sim::ClusterParams params;
  params.racks = 2;
  params.nodes_per_rack = 4;
  sim::ClusterSimulation cluster(params);
  Collector collector(cluster, nullptr, nullptr);
  EXPECT_EQ(collector.add_group({"power", "rack*/node*/power", 60}), 8u);
}

// ----------------------------------------------------------------- alerts

TEST(Alerts, FiresAfterHoldAndClearsWithHysteresis) {
  AlertEngine engine;
  AlertRule rule;
  rule.name = "hot";
  rule.sensor_pattern = "t";
  rule.threshold = 80.0;
  rule.hold = 20;
  rule.hysteresis = 5.0;
  engine.add_rule(rule);

  engine.observe({"t", {0, 85.0}});   // violation starts
  EXPECT_EQ(engine.active_count(), 0u);  // hold not elapsed
  engine.observe({"t", {10, 86.0}});
  EXPECT_EQ(engine.active_count(), 0u);
  engine.observe({"t", {25, 87.0}});
  EXPECT_EQ(engine.active_count(), 1u);  // fired
  engine.observe({"t", {30, 78.0}});     // below threshold but inside hysteresis
  EXPECT_EQ(engine.active_count(), 1u);
  engine.observe({"t", {35, 74.0}});     // below threshold - hysteresis
  EXPECT_EQ(engine.active_count(), 0u);
  ASSERT_EQ(engine.history().size(), 1u);
  EXPECT_TRUE(engine.history()[0].cleared);
}

TEST(Alerts, ViolationInterruptedResetsHold) {
  AlertEngine engine;
  AlertRule rule;
  rule.name = "hot";
  rule.sensor_pattern = "t";
  rule.threshold = 80.0;
  rule.hold = 20;
  engine.add_rule(rule);
  engine.observe({"t", {0, 85.0}});
  engine.observe({"t", {10, 70.0}});  // back to normal
  engine.observe({"t", {15, 85.0}});
  engine.observe({"t", {30, 85.0}});  // only 15s of continuous violation
  EXPECT_EQ(engine.active_count(), 0u);
  engine.observe({"t", {40, 85.0}});
  EXPECT_EQ(engine.active_count(), 1u);
}

TEST(Alerts, BelowComparisonAndCallback) {
  AlertEngine engine;
  AlertRule rule;
  rule.name = "flow-low";
  rule.sensor_pattern = "flow";
  rule.comparison = AlertComparison::kBelow;
  rule.threshold = 1.0;
  rule.severity = AlertSeverity::kCritical;
  engine.add_rule(rule);
  int callbacks = 0;
  engine.set_callback([&](const Alert& a) {
    ++callbacks;
    EXPECT_EQ(a.severity, AlertSeverity::kCritical);
  });
  engine.observe({"flow", {0, 0.2}});
  EXPECT_EQ(engine.active_count(), 1u);
  EXPECT_EQ(callbacks, 1);
}

TEST(Alerts, PerSensorStateIndependent) {
  AlertEngine engine;
  AlertRule rule;
  rule.name = "hot";
  rule.sensor_pattern = "rack*/temp";
  rule.threshold = 50.0;
  engine.add_rule(rule);
  engine.observe({"rack0/temp", {0, 60.0}});
  engine.observe({"rack1/temp", {0, 40.0}});
  EXPECT_EQ(engine.active_count(), 1u);
  EXPECT_EQ(engine.active()[0].sensor, "rack0/temp");
}

// Hysteresis edge cases: the threshold itself is not a violation (strict
// compare), and the clear band is exclusive at threshold - hysteresis.
TEST(Alerts, ValueExactlyAtThresholdEdges) {
  AlertEngine engine;
  AlertRule rule;
  rule.name = "hot";
  rule.sensor_pattern = "t";
  rule.threshold = 80.0;
  rule.hold = 0;
  rule.hysteresis = 5.0;
  engine.add_rule(rule);

  engine.observe({"t", {0, 80.0}});  // exactly at threshold: no violation
  EXPECT_EQ(engine.active_count(), 0u);
  engine.observe({"t", {10, std::nextafter(80.0, 81.0)}});  // one ulp above
  EXPECT_EQ(engine.active_count(), 1u);
  engine.observe({"t", {20, 75.0}});  // exactly threshold - hysteresis: holds
  EXPECT_EQ(engine.active_count(), 1u);
  engine.observe({"t", {30, std::nextafter(75.0, 74.0)}});  // one ulp below
  EXPECT_EQ(engine.active_count(), 0u);
}

// A collection gap (no readings for a while) must not reset the hold timer:
// the violation window straddles the gap.
TEST(Alerts, HoldWindowStraddlesCollectionGap) {
  AlertEngine engine;
  AlertRule rule;
  rule.name = "hot";
  rule.sensor_pattern = "t";
  rule.threshold = 80.0;
  rule.hold = 60;
  engine.add_rule(rule);

  engine.observe({"t", {0, 85.0}});  // violation starts
  EXPECT_EQ(engine.active_count(), 0u);
  // Sensor quarantined / breaker open: nothing arrives until t = 300.
  engine.observe({"t", {300, 85.0}});  // still violating after the gap
  EXPECT_EQ(engine.active_count(), 1u);
  ASSERT_EQ(engine.history().size(), 1u);
  EXPECT_EQ(engine.history()[0].raised_at, 300);
}

TEST(Alerts, RefiresAfterClear) {
  AlertEngine engine;
  AlertRule rule;
  rule.name = "hot";
  rule.sensor_pattern = "t";
  rule.threshold = 80.0;
  rule.hold = 20;
  rule.hysteresis = 5.0;
  engine.add_rule(rule);

  engine.observe({"t", {0, 85.0}});
  engine.observe({"t", {20, 85.0}});
  EXPECT_EQ(engine.active_count(), 1u);
  engine.observe({"t", {40, 70.0}});  // clears
  EXPECT_EQ(engine.active_count(), 0u);
  engine.observe({"t", {60, 85.0}});  // second episode: hold starts fresh
  EXPECT_EQ(engine.active_count(), 0u);
  engine.observe({"t", {80, 85.0}});
  EXPECT_EQ(engine.active_count(), 1u);
  ASSERT_EQ(engine.history().size(), 2u);
  EXPECT_TRUE(engine.history()[0].cleared);
  EXPECT_FALSE(engine.history()[1].cleared);
}

TEST(Alerts, HistoryCapEvictsOldestClearedAndKeepsActiveValid) {
  AlertEngine engine;
  engine.set_history_limit(16);
  AlertRule rule;
  rule.name = "hot";
  rule.sensor_pattern = "*";
  rule.threshold = 1.0;
  rule.hysteresis = 0.0;
  engine.add_rule(rule);

  // One alert stays active the whole time (pinned in history).
  engine.observe({"pinned", {0, 5.0}});
  EXPECT_EQ(engine.active_count(), 1u);

  // Churn far more fire/clear episodes than the cap on another sensor.
  TimePoint t = 10;
  for (int i = 0; i < 100; ++i) {
    engine.observe({"churn", {t, 5.0}});
    engine.observe({"churn", {t + 1, 0.0}});
    t += 10;
  }
  EXPECT_LE(engine.history().size(), 16u);
  EXPECT_GT(engine.history_evicted(), 0u);
  // The long-lived alert's record survived eviction and still clears
  // correctly through its remapped history index.
  ASSERT_EQ(engine.active_count(), 1u);
  EXPECT_EQ(engine.active()[0].sensor, "pinned");
  engine.observe({"pinned", {t, 0.0}});
  EXPECT_EQ(engine.active_count(), 0u);
  bool found_cleared_pinned = false;
  for (const auto& a : engine.history()) {
    if (a.sensor == "pinned" && a.cleared) found_cleared_pinned = true;
  }
  EXPECT_TRUE(found_cleared_pinned);
}

// ------------------------------------------------------------- unrouted

TEST(MessageBus, CountsUnroutedPublishes) {
  MessageBus bus;
  bus.subscribe("rack0/*", [](const Reading&) {});
  const auto before = bus.unrouted_count();
  bus.publish("rack0/power", 0, 1.0);   // routed
  bus.publish("orphan/metric", 0, 1.0);  // no subscriber
  bus.publish("orphan/other", 0, 1.0);   // same prefix: counted, logged once
  EXPECT_EQ(bus.unrouted_count(), before + 2);
}

TEST(MessageBus, UnroutedWarnsOncePerPrefixAcrossManyPrefixes) {
  MessageBus bus;
  int routed = 0;
  bus.subscribe("routed/*", [&routed](const Reading&) { ++routed; });
  CaptureSink capture(1024);

  // 300 distinct top-level prefixes, each published to several times under
  // different sub-paths, interleaved with routed traffic. Only the first
  // path component is the prefix; "bare<p>" paths have no '/', so the whole
  // path is the prefix.
  constexpr int kPrefixes = 300;
  constexpr int kRepeats = 4;
  std::vector<std::string> prefixes;
  for (int p = 0; p < kPrefixes; ++p) {
    prefixes.push_back((p % 10 == 0 ? "bare" : "orphan") + std::to_string(p));
  }
  for (int rep = 0; rep < kRepeats; ++rep) {
    for (const std::string& prefix : prefixes) {
      const bool bare = prefix.rfind("bare", 0) == 0;
      bus.publish(
          bare ? prefix : prefix + "/dev" + std::to_string(rep) + "/leaf", rep,
          1.0);
      bus.publish("routed/m", rep, 2.0);
    }
  }

  const auto publishes = static_cast<std::uint64_t>(kPrefixes * kRepeats);
  EXPECT_EQ(bus.unrouted_count(), publishes);
  EXPECT_EQ(bus.published_count(), 2 * publishes);
  EXPECT_EQ(bus.delivered_count(), publishes);
  EXPECT_EQ(static_cast<std::uint64_t>(routed), publishes);

  std::map<std::string, int> warnings;
  for (const auto& line : capture.lines()) {
    if (line.find("matched no subscribers") == std::string::npos) continue;
    const std::string marker = "under prefix '";
    const auto at = line.find(marker);
    ASSERT_NE(at, std::string::npos) << line;
    const auto begin = at + marker.size();
    ++warnings[line.substr(begin, line.find('\'', begin) - begin)];
  }
  EXPECT_EQ(warnings.size(), prefixes.size());
  for (const std::string& prefix : prefixes) {
    EXPECT_EQ(warnings[prefix], 1) << prefix;
  }
}

// ----------------------------------------------------------- batches

/// The global-registry bus series, read before and after one run so two
/// runs can be compared by their deltas.
struct BusTally {
  double published = 0.0;
  double delivered = 0.0;
  double unrouted = 0.0;
  std::map<std::string, double> per_pattern;
  std::uint64_t latency_count = 0;
  double latency_sum = 0.0;
  std::vector<std::uint64_t> latency_buckets;

  static BusTally read() {
    const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
    BusTally t;
    t.published = snap.total("oda_bus_published_total");
    t.delivered = snap.total("oda_bus_delivered_total");
    t.unrouted = snap.total("oda_bus_unrouted_total");
    if (const obs::MetricFamily* fam =
            snap.find("oda_bus_subscriber_deliveries_total")) {
      for (const auto& v : fam->values) {
        for (const auto& [k, label] : v.labels) {
          if (k == "pattern") t.per_pattern[label] += v.value;
        }
      }
    }
    if (const obs::MetricFamily* fam = snap.find("oda_bus_publish_seconds")) {
      for (const auto& h : fam->histograms) {
        t.latency_count += h.count;
        t.latency_sum += h.sum;
        t.latency_buckets.resize(h.counts.size());
        for (std::size_t i = 0; i < h.counts.size(); ++i) {
          t.latency_buckets[i] += h.counts[i];
        }
      }
    }
    return t;
  }

  /// after - before, series by series.
  BusTally minus(const BusTally& before) const {
    BusTally d = *this;
    d.published -= before.published;
    d.delivered -= before.delivered;
    d.unrouted -= before.unrouted;
    for (auto& [pattern, value] : d.per_pattern) {
      const auto it = before.per_pattern.find(pattern);
      if (it != before.per_pattern.end()) value -= it->second;
    }
    d.latency_count -= before.latency_count;
    d.latency_sum -= before.latency_sum;
    for (std::size_t i = 0; i < before.latency_buckets.size(); ++i) {
      d.latency_buckets[i] -= before.latency_buckets[i];
    }
    return d;
  }
};

using Delivery = std::tuple<std::string, std::string, TimePoint, double>;

/// Everything one run of a bus left behind.
struct BusRun {
  std::vector<Delivery> deliveries;  // (pattern, path, time, value)
  std::vector<std::string> log;
  BusTally tally;
  std::uint64_t published = 0, delivered = 0, unrouted = 0;
  std::vector<std::uint64_t> per_subscription;
};

/// Runs `readings` through a fresh bus with a fixed set of subscriptions,
/// either as one batch or as one publish per reading.
BusRun run_bus(const std::vector<Reading>& readings, bool batch) {
  BusRun run;
  MessageBus bus;
  for (const char* pattern : {"rack*/node*/power", "rack00/*", "facility/*"}) {
    bus.subscribe(pattern, [&run, pattern](const Reading& r) {
      run.deliveries.emplace_back(pattern, r.path, r.sample.time,
                                  r.sample.value);
    });
  }
  CaptureSink capture(1024);
  const BusTally before = BusTally::read();
  if (batch) {
    bus.publish_batch(readings);
  } else {
    for (const Reading& r : readings) bus.publish(r);
  }
  run.tally = BusTally::read().minus(before);
  run.log = capture.lines();
  run.published = bus.published_count();
  run.delivered = bus.delivered_count();
  run.unrouted = bus.unrouted_count();
  for (const auto& stats : bus.subscriber_stats()) {
    run.per_subscription.push_back(stats.deliveries);
  }
  return run;
}

TEST(MessageBus, BatchMatchesSinglePublishesOnTwinBuses) {
  // Routed and unrouted readings interleaved; unrouted prefixes come back
  // after others (orphanA, orphanB, orphanA) and bare paths have no '/'.
  std::vector<Reading> readings;
  const std::vector<std::string> paths = {
      "rack00/node01/power", "orphanA/x", "orphanA/y",  "rack01/node02/power",
      "orphanB/x",           "orphanA/z", "facility/pue", "bare",
      "rack00/pdu",          "bare",      "orphanB/y",  "rack02/node00/temp"};
  for (int rep = 0; rep < 5; ++rep) {
    for (std::size_t i = 0; i < paths.size(); ++i) {
      readings.push_back(
          Reading{paths[i], {rep * 15, static_cast<double>(rep * 100 + i)}});
    }
  }

  const BusRun single = run_bus(readings, /*batch=*/false);
  const BusRun batch = run_bus(readings, /*batch=*/true);

  EXPECT_EQ(batch.deliveries, single.deliveries);
  EXPECT_FALSE(single.deliveries.empty());
  EXPECT_EQ(batch.published, readings.size());
  EXPECT_EQ(batch.published, single.published);
  EXPECT_EQ(batch.delivered, single.delivered);
  EXPECT_EQ(batch.unrouted, single.unrouted);
  EXPECT_EQ(batch.per_subscription, single.per_subscription);

  // One warning per unrouted prefix, identical lines in identical order.
  EXPECT_EQ(batch.log, single.log);
  std::map<std::string, int> warnings;
  for (const auto& line : batch.log) {
    if (line.find("matched no subscribers") == std::string::npos) continue;
    const std::string marker = "under prefix '";
    const auto begin = line.find(marker) + marker.size();
    ++warnings[line.substr(begin, line.find('\'', begin) - begin)];
  }
  EXPECT_EQ(warnings, (std::map<std::string, int>{
                          {"bare", 1}, {"orphanA", 1}, {"orphanB", 1},
                          {"rack02", 1}}));

  // Registry series: published/delivered/unrouted, per pattern, latency.
  EXPECT_DOUBLE_EQ(batch.tally.published, single.tally.published);
  EXPECT_DOUBLE_EQ(batch.tally.delivered, single.tally.delivered);
  EXPECT_DOUBLE_EQ(batch.tally.unrouted, single.tally.unrouted);
  for (const char* pattern : {"rack*/node*/power", "rack00/*", "facility/*"}) {
    EXPECT_DOUBLE_EQ(batch.tally.per_pattern.at(pattern),
                     single.tally.per_pattern.at(pattern))
        << pattern;
  }
  // One latency observation per reading. The routed ones time real
  // callbacks, so only their number is comparable across buses.
  EXPECT_EQ(single.tally.latency_count, readings.size());
  EXPECT_EQ(batch.tally.latency_count, single.tally.latency_count);
}

TEST(MessageBus, BatchOfUnroutedReadingsObservesExactZeroLatencies) {
  std::vector<Reading> readings;
  for (int i = 0; i < 64; ++i) {
    readings.push_back(
        Reading{"nowhere" + std::to_string(i % 3) + "/leaf", {i, 1.0}});
  }
  const BusRun single = run_bus(readings, /*batch=*/false);
  const BusRun batch = run_bus(readings, /*batch=*/true);
  EXPECT_EQ(batch.unrouted, readings.size());
  EXPECT_EQ(batch.tally.latency_count, single.tally.latency_count);
  EXPECT_DOUBLE_EQ(batch.tally.latency_sum, single.tally.latency_sum);
  EXPECT_DOUBLE_EQ(batch.tally.latency_sum, 0.0);
  EXPECT_EQ(batch.tally.latency_buckets, single.tally.latency_buckets);
  ASSERT_FALSE(batch.tally.latency_buckets.empty());
  EXPECT_EQ(batch.tally.latency_buckets[0], readings.size());
  EXPECT_EQ(batch.log, single.log);
  EXPECT_EQ(batch.log.size(), 3u);
}

TEST(MessageBus, SubscriptionChangeMidBatchTakesEffectFromNextReading) {
  const auto run = [](bool batch) {
    MessageBus bus;
    std::vector<std::string> got;
    MessageBus::SubscriptionId first = 0;
    first = bus.subscribe("*", [&](const Reading& r) {
      got.push_back("first:" + r.path);
      if (r.path == "r2") {
        bus.subscribe("*", [&](const Reading& s) {
          got.push_back("late:" + s.path);
        });
      }
      if (r.path == "r4") bus.unsubscribe(first);
    });
    std::vector<Reading> readings;
    for (int i = 0; i < 6; ++i) {
      readings.push_back(Reading{"r" + std::to_string(i), {i, 0.0}});
    }
    if (batch) {
      bus.publish_batch(readings);
    } else {
      for (const Reading& r : readings) bus.publish(r);
    }
    return got;
  };
  const std::vector<std::string> batch = run(true);
  // The late subscriber gets the rest of the batch (from r3); the first
  // one is gone from the reading after it unsubscribed (r5).
  EXPECT_EQ(batch, (std::vector<std::string>{
                       "first:r0", "first:r1", "first:r2", "first:r3",
                       "late:r3", "first:r4", "late:r4", "late:r5"}));
  EXPECT_EQ(batch, run(false));
}

TEST(MessageBus, EmptyBatchPublishesNothing) {
  MessageBus bus;
  bus.publish_batch({});
  EXPECT_EQ(bus.published_count(), 0u);
  EXPECT_EQ(bus.unrouted_count(), 0u);
}

// ---------------------------------------------------------- empty groups

TEST(Collector, WarnsOnPatternMatchingNothing) {
  sim::ClusterParams params;
  params.racks = 1;
  params.nodes_per_rack = 2;
  sim::ClusterSimulation cluster(params);
  Collector collector(cluster, nullptr, nullptr);
  CaptureSink capture;
  EXPECT_EQ(collector.add_group({"typo", "rak*/node*/power", 60}), 0u);
  bool warned = false;
  for (const auto& line : capture.lines()) {
    if (line.find("matched no sensors") != std::string::npos) warned = true;
  }
  EXPECT_TRUE(warned);
}

// ---------------------------------------------------------------- derived

TEST(Derived, RatioAndSum) {
  TimeSeriesStore store;
  store.insert("a", {0, 10.0});
  store.insert("b", {0, 4.0});
  DerivedSensors derived(store);
  derived.define_ratio("r", "a", "b");
  derived.define("total", {"a", "b"}, [](const std::vector<double>& v) {
    return v[0] + v[1];
  });
  derived.evaluate(0);
  EXPECT_DOUBLE_EQ(store.latest("r")->value, 2.5);
  EXPECT_DOUBLE_EQ(store.latest("total")->value, 14.0);
}

TEST(Derived, SkipsWhenInputMissing) {
  TimeSeriesStore store;
  store.insert("a", {0, 1.0});
  DerivedSensors derived(store);
  derived.define_ratio("r", "a", "missing");
  derived.evaluate(0);
  EXPECT_FALSE(store.latest("r").has_value());
}

TEST(Derived, SumOverPattern) {
  TimeSeriesStore store;
  store.insert("rack0/power", {0, 100.0});
  store.insert("rack1/power", {0, 150.0});
  DerivedSensors derived(store);
  derived.define_sum("total_power", "rack*/power");
  derived.evaluate(0);
  EXPECT_DOUBLE_EQ(store.latest("total_power")->value, 250.0);
}

}  // namespace
}  // namespace oda::telemetry
