// Tests for the telemetry pipeline: catalog, bus, store, collector, alerts,
// and derived sensors — including the sim -> store integration path.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <map>

#include "common/error.hpp"
#include "common/log.hpp"
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
