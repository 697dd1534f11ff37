// Tests for the prescriptive pillar: control plumbing, cooling optimization,
// DVFS governors, placement policies, power capping, auto-tuning, and
// anomaly response — each verified against the live simulated facility.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>

#include "analytics/prescriptive/autotune.hpp"
#include "analytics/prescriptive/controller.hpp"
#include "analytics/prescriptive/cooling.hpp"
#include "analytics/prescriptive/dvfs.hpp"
#include "analytics/prescriptive/placement.hpp"
#include "analytics/prescriptive/powercap.hpp"
#include "analytics/prescriptive/recommend.hpp"
#include "analytics/prescriptive/response.hpp"
#include "common/stats.hpp"
#include "sim/cluster.hpp"
#include "telemetry/collector.hpp"
#include "telemetry/series_id.hpp"

namespace oda::analytics {
namespace {

struct Rig {
  explicit Rig(sim::ClusterParams params,
               std::size_t ring_capacity = std::size_t{1} << 16) {
    cluster = std::make_unique<sim::ClusterSimulation>(params);
    store = std::make_unique<telemetry::TimeSeriesStore>(ring_capacity);
    collector =
        std::make_unique<telemetry::Collector>(*cluster, store.get(), nullptr);
    collector->add_all_sensors(60);
    loop = std::make_unique<ControlLoop>(*cluster, *store);
  }

  void run_for(Duration d) {
    const TimePoint end = cluster->now() + d;
    while (cluster->now() < end) {
      cluster->step();
      collector->collect();
      loop->tick();
    }
  }

  /// Submits one steady 1-node job per node.
  void steady_load(double cpu_util = 0.9, double mem_bw = 0.3,
                   double mem_boundedness = 0.2) {
    steady_load_on(*cluster, cpu_util, mem_bw, mem_boundedness);
  }

  static void steady_load_on(sim::ClusterSimulation& cluster, double cpu_util,
                             double mem_bw, double mem_boundedness) {
    cluster.set_workload_enabled(false);
    for (std::size_t i = 0; i < cluster.node_count(); ++i) {
      sim::JobSpec spec;
      spec.id = 5000 + i;
      spec.user = "steady";
      spec.nodes_requested = 1;
      sim::JobPhase phase;
      phase.nominal_duration = 200 * kHour;
      phase.cpu_util = cpu_util;
      phase.mem_bw_util = mem_bw;
      phase.mem_boundedness = mem_boundedness;
      spec.phases = {phase};
      spec.walltime_requested = 400 * kHour;
      cluster.scheduler().submit(spec);
    }
  }

  std::unique_ptr<sim::ClusterSimulation> cluster;
  std::unique_ptr<telemetry::TimeSeriesStore> store;
  std::unique_ptr<telemetry::Collector> collector;
  std::unique_ptr<ControlLoop> loop;
};

sim::ClusterParams small_cluster(std::uint64_t seed = 3) {
  sim::ClusterParams params;
  params.racks = 2;
  params.nodes_per_rack = 4;
  params.seed = seed;
  return params;
}

// ------------------------------------------------------------- control loop

TEST(ControlLoop, ActuateRecordsAudit) {
  Rig rig(small_cluster());
  std::vector<Actuation> log;
  actuate(*rig.cluster, log, "test", "facility/supply_setpoint", 35.0, "probe");
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].knob, "facility/supply_setpoint");
  EXPECT_DOUBLE_EQ(log[0].new_value, 35.0);
  EXPECT_DOUBLE_EQ(rig.cluster->knobs().get("facility/supply_setpoint"), 35.0);
  // No-op changes are not logged.
  actuate(*rig.cluster, log, "test", "facility/supply_setpoint", 35.0, "same");
  EXPECT_EQ(log.size(), 1u);
}

TEST(ControlLoop, ClampsToKnobRange) {
  Rig rig(small_cluster());
  std::vector<Actuation> log;
  actuate(*rig.cluster, log, "test", "facility/supply_setpoint", 500.0, "over");
  EXPECT_LE(rig.cluster->knobs().get("facility/supply_setpoint"), 45.0);
}

TEST(ControlLoop, PeriodGating) {
  class CountingController : public Controller {
   public:
    const char* name() const override { return "counter"; }
    Duration period() const override { return 60; }
    void act(sim::ClusterSimulation&, const telemetry::TimeSeriesStore&,
             std::vector<Actuation>&) override {
      ++calls;
    }
    int calls = 0;
  };
  Rig rig(small_cluster());
  auto counter = std::make_shared<CountingController>();
  rig.loop->add(counter);
  rig.run_for(10 * kMinute);  // dt=15s, period=60s -> every 4th step
  EXPECT_EQ(counter->calls, 10);
}

// ----------------------------------------------------------------- cooling

TEST(Cooling, SetpointOptimizerReducesFacilityPower) {
  // Start from a deliberately bad (cold) setpoint in chiller conditions;
  // the optimizer should walk the setpoint up and cut facility power.
  auto params = small_cluster(11);
  params.facility.supply_setpoint_c = 19.0;
  // Warm *constant* weather: a probing optimizer needs the outdoor
  // conditions held still or COP variability swamps the per-move signal
  // (the same control-of-variables the E1 bench applies).
  params.weather.mean_temp_c = 26.0;
  params.weather.seasonal_amplitude = 0.0;
  params.weather.diurnal_amplitude = 0.0;
  params.weather.front_stddev = 0.0;

  // Baseline without control.
  Rig baseline(params);
  baseline.steady_load();
  baseline.run_for(36 * kHour);

  Rig controlled(params);
  controlled.steady_load();
  CoolingSetpointOptimizer::Params op;
  op.period = kHour;  // faster moves for the test
  controlled.loop->add(std::make_shared<CoolingSetpointOptimizer>(op));
  controlled.run_for(36 * kHour);

  EXPECT_GT(controlled.cluster->knobs().get("facility/supply_setpoint"), 20.0);
  EXPECT_LT(controlled.cluster->facility_energy_j(),
            baseline.cluster->facility_energy_j());
}

TEST(Cooling, ModeSwitcherFollowsWetbulb) {
  auto params = small_cluster(13);
  params.facility.supply_setpoint_c = 28.0;
  params.weather.mean_temp_c = 26.0;     // wet-bulb straddles the free limit:
  params.weather.diurnal_amplitude = 8.0;  // nights free-cool, afternoons not
  params.weather.seasonal_amplitude = 1.0;
  params.weather.front_stddev = 1.0;
  Rig rig(params);
  rig.steady_load();
  auto switcher = std::make_shared<CoolingModeSwitcher>();
  rig.loop->add(switcher);
  rig.run_for(3 * kDay);
  EXPECT_GE(switcher->switches(), 2u);  // at least one full day cycle
}

TEST(Cooling, OptimizerBacksOffWhenNodesHot) {
  auto params = small_cluster(17);
  params.facility.supply_setpoint_c = 44.0;  // near max: nodes run very hot
  params.node.fan_target_temp_c = 95.0;      // lazy fans to force heat
  Rig rig(params);
  rig.steady_load(1.0, 0.3);
  CoolingSetpointOptimizer::Params op;
  op.period = kHour;
  op.cpu_temp_limit_c = 80.0;
  rig.loop->add(std::make_shared<CoolingSetpointOptimizer>(op));
  rig.run_for(12 * kHour);
  EXPECT_LT(rig.cluster->knobs().get("facility/supply_setpoint"), 44.0);
}

// -------------------------------------------------------------------- DVFS

TEST(Dvfs, EnergyModeDownclocksMemoryBound) {
  Rig rig(small_cluster(19));
  rig.steady_load(/*cpu=*/0.6, /*mem_bw=*/0.9, /*mem_boundedness=*/0.8);
  DvfsGovernor::Params gp;
  gp.mode = DvfsGovernor::Mode::kEnergy;
  rig.loop->add(std::make_shared<DvfsGovernor>(gp));
  rig.run_for(2 * kHour);
  for (std::size_t i = 0; i < rig.cluster->node_count(); ++i) {
    EXPECT_NEAR(rig.cluster->knobs().get(rig.cluster->node(i).path() +
                                         "/freq_setpoint"),
                gp.energy_freq_ghz, 1e-9);
  }
}

TEST(Dvfs, EnergyModeKeepsComputeBoundAtNominal) {
  Rig rig(small_cluster(23));
  rig.steady_load(/*cpu=*/0.95, /*mem_bw=*/0.2, /*mem_boundedness=*/0.1);
  DvfsGovernor::Params gp;
  gp.mode = DvfsGovernor::Mode::kEnergy;
  rig.loop->add(std::make_shared<DvfsGovernor>(gp));
  rig.run_for(2 * kHour);
  for (std::size_t i = 0; i < rig.cluster->node_count(); ++i) {
    EXPECT_NEAR(rig.cluster->knobs().get(rig.cluster->node(i).path() +
                                         "/freq_setpoint"),
                rig.cluster->node(i).params().freq_nominal_ghz, 1e-9);
  }
}

TEST(Dvfs, ThermalGovernorLimitsTemperature) {
  auto params = small_cluster(29);
  params.facility.supply_setpoint_c = 43.0;  // hot loop: thermal stress
  params.node.fan_target_temp_c = 90.0;      // weak fan response
  Rig uncontrolled(params);
  uncontrolled.steady_load(1.0, 0.3);
  uncontrolled.run_for(6 * kHour);
  double max_temp_uncontrolled = 0.0;
  for (std::size_t i = 0; i < uncontrolled.cluster->node_count(); ++i) {
    max_temp_uncontrolled = std::max(max_temp_uncontrolled,
                                     uncontrolled.cluster->node(i).cpu_temp_c());
  }

  Rig governed(params);
  governed.steady_load(1.0, 0.3);
  DvfsGovernor::Params gp;
  gp.mode = DvfsGovernor::Mode::kThermalReactive;
  gp.temp_limit_c = 78.0;
  governed.loop->add(std::make_shared<DvfsGovernor>(gp));
  governed.run_for(6 * kHour);
  for (std::size_t i = 0; i < governed.cluster->node_count(); ++i) {
    EXPECT_LT(governed.cluster->node(i).cpu_temp_c(), 80.5);
  }
  EXPECT_GT(max_temp_uncontrolled, 80.5);  // the governor made the difference
}

// -------------------------------------------------------------- placement

TEST(Placement, ThermalAwareSpreadsAcrossRacks) {
  Rig rig(small_cluster(31));
  rig.cluster->set_workload_enabled(false);
  rig.cluster->scheduler().set_placement(make_thermal_placement(*rig.cluster));
  // Four 2-node jobs: thermal-aware placement should alternate racks.
  for (int j = 0; j < 2; ++j) {
    sim::JobSpec spec;
    spec.id = 100 + j;
    spec.user = "u";
    spec.nodes_requested = 2;
    sim::JobPhase phase;
    phase.nominal_duration = 10 * kHour;
    phase.cpu_util = 1.0;
    spec.phases = {phase};
    spec.walltime_requested = 20 * kHour;
    rig.cluster->scheduler().submit(spec);
    rig.run_for(kHour);  // let rack power differentiate between placements
  }
  // Each rack should hold exactly one job's nodes.
  std::size_t rack0 = 0, rack1 = 0;
  for (const auto& job : rig.cluster->scheduler().running()) {
    for (std::size_t n : job.nodes) {
      (rig.cluster->rack_of(n) == 0 ? rack0 : rack1) += 1;
    }
  }
  EXPECT_EQ(rack0, 2u);
  EXPECT_EQ(rack1, 2u);
}

TEST(Placement, PackConcentratesButStaysRackLocal) {
  PackPlacement pack(4);
  std::vector<bool> busy(8, false);
  busy[0] = true;  // rack 0 partially used
  // A job that fits the partially-used rack goes there (packing).
  sim::JobSpec small;
  small.nodes_requested = 3;
  const auto local = pack.place(small, busy);
  ASSERT_TRUE(local.has_value());
  for (std::size_t n : *local) EXPECT_LT(n, 4u);
  // A job too big for rack 0 is placed whole in rack 1 rather than split —
  // locality beats packing (cross-rack splits cost network contention).
  sim::JobSpec big;
  big.nodes_requested = 4;
  const auto whole = pack.place(big, busy);
  ASSERT_TRUE(whole.has_value());
  for (std::size_t n : *whole) EXPECT_GE(n, 4u);
  // When no single rack fits, the job spills across racks.
  sim::JobSpec huge;
  huge.nodes_requested = 7;
  const auto spilled = pack.place(huge, busy);
  ASSERT_TRUE(spilled.has_value());
  EXPECT_EQ(spilled->size(), 7u);
}

TEST(Placement, ReturnsNulloptWhenFull) {
  sim::JobSpec spec;
  spec.nodes_requested = 2;
  std::vector<bool> busy(4, true);
  PackPlacement pack(4);
  EXPECT_FALSE(pack.place(spec, busy).has_value());
  ThermalAwarePlacement thermal([](std::size_t) { return 0.0; }, 1, 4);
  EXPECT_FALSE(thermal.place(spec, busy).has_value());
}

// --------------------------------------------------------------- powercap

TEST(PowerCap, EnforcesCapByShedding) {
  auto params = small_cluster(37);
  Rig rig(params);
  rig.steady_load(1.0, 0.3);
  rig.run_for(kHour);
  const double unconstrained = rig.cluster->facility().facility_power_w();

  auto governed_params = small_cluster(37);
  Rig governed(governed_params);
  governed.steady_load(1.0, 0.3);
  PowerCapGovernor::Params pp;
  pp.cap_w = unconstrained * 0.85;  // force a binding cap
  pp.period = 2 * kMinute;
  auto governor = std::make_shared<PowerCapGovernor>(pp);
  governed.loop->add(governor);
  governed.run_for(8 * kHour);
  // Once settled, power stays near/below the cap.
  EXPECT_LT(governed.cluster->facility().facility_power_w(), pp.cap_w * 1.02);
  // And at least one node was actually downclocked.
  bool any_shed = false;
  for (std::size_t i = 0; i < governed.cluster->node_count(); ++i) {
    if (governed.cluster->knobs().get(governed.cluster->node(i).path() +
                                      "/freq_setpoint") <
        governed.cluster->node(i).params().freq_nominal_ghz - 1e-9) {
      any_shed = true;
    }
  }
  EXPECT_TRUE(any_shed);
}

TEST(PowerCap, RestoresWhenHeadroom) {
  auto params = small_cluster(41);
  Rig rig(params);
  rig.cluster->set_workload_enabled(false);  // idle machine
  // Pre-shed every node, then let the governor restore.
  for (std::size_t i = 0; i < rig.cluster->node_count(); ++i) {
    rig.cluster->knobs().set(rig.cluster->node(i).path() + "/freq_setpoint", 1.2);
  }
  PowerCapGovernor::Params pp;
  pp.cap_w = 1e9;  // never binding
  pp.period = 2 * kMinute;
  rig.loop->add(std::make_shared<PowerCapGovernor>(pp));
  rig.run_for(2 * kHour);
  for (std::size_t i = 0; i < rig.cluster->node_count(); ++i) {
    EXPECT_NEAR(rig.cluster->knobs().get(rig.cluster->node(i).path() +
                                         "/freq_setpoint"),
                rig.cluster->node(i).params().freq_nominal_ghz, 1e-9);
  }
}

// --------------------------------------------------------------- autotune

TEST(AutoTune, AllStrategiesImproveOnDefault) {
  const std::vector<TunableParam> space{
      {"tile_size", 8.0, 256.0, {}},
      {"threads", 1.0, 64.0, {}},
      {"blocking", 0.0, 1.0, {}},
  };
  const auto surface = synthetic_app_surface(space, 120.0, /*seed=*/5, 0.005);
  AutoTuner::Params tp;
  tp.budget = 120;
  AutoTuner tuner(space, surface, tp);
  for (const auto& result : tuner.tune_all()) {
    EXPECT_GT(result.improvement, -0.05) << result.strategy;
    EXPECT_GT(result.evaluations, 1u);
    EXPECT_EQ(result.best_config.size(), space.size());
  }
  // The best strategy should find a clearly better configuration.
  const auto results = tuner.tune_all();
  EXPECT_GT(results.front().improvement, 0.05);
}

TEST(AutoTune, RespectsBounds) {
  const std::vector<TunableParam> space{{"x", 0.0, 1.0, {}}};
  const auto surface = synthetic_app_surface(space, 10.0, 7);
  AutoTuner tuner(space, surface);
  for (const auto& r : tuner.tune_all()) {
    EXPECT_GE(r.best_config[0], 0.0);
    EXPECT_LE(r.best_config[0], 1.0);
  }
}

TEST(AutoTune, SurfaceDeterministicPerConfig) {
  const std::vector<TunableParam> space{{"x", 0.0, 1.0, {}}};
  const auto surface = synthetic_app_surface(space, 10.0, 9);
  const std::vector<double> config{0.42};
  EXPECT_DOUBLE_EQ(surface(config), surface(config));
}

// --------------------------------------------------------------- response

TEST(Response, AutomaticFanFailureHandling) {
  Rig rig(small_cluster(43));
  auto policy = ResponsePolicy::standard(ResponseMode::kAutomatic);
  std::vector<Actuation> log;
  const auto action = policy.respond(
      {"fan-failure", rig.cluster->node(0).path(), 0.9}, *rig.cluster, log);
  EXPECT_TRUE(action.executed);
  EXPECT_FALSE(log.empty());
  EXPECT_NEAR(rig.cluster->knobs().get(rig.cluster->node(0).path() +
                                       "/freq_setpoint"),
              rig.cluster->node(0).params().freq_min_ghz, 1e-9);
}

TEST(Response, RecommendModeDoesNotActuate) {
  Rig rig(small_cluster(47));
  auto policy = ResponsePolicy::standard(ResponseMode::kRecommend);
  std::vector<Actuation> log;
  const double before = rig.cluster->knobs().get("facility/pump_speed");
  const auto action =
      policy.respond({"pump-degradation", "facility/cooling/pump", 0.7},
                     *rig.cluster, log);
  EXPECT_FALSE(action.executed);
  EXPECT_TRUE(log.empty());
  EXPECT_DOUBLE_EQ(rig.cluster->knobs().get("facility/pump_speed"), before);
}

TEST(Response, UnknownConditionFallsBack) {
  Rig rig(small_cluster(53));
  auto policy = ResponsePolicy::standard(ResponseMode::kAutomatic);
  std::vector<Actuation> log;
  const auto action =
      policy.respond({"alien-invasion", "facility", 1.0}, *rig.cluster, log);
  EXPECT_FALSE(action.executed);
  EXPECT_NE(action.action.find("no handler"), std::string::npos);
}


// ---------------------------------------------------------- recommendations

TEST(Recommend, MemoryBoundJobGetsLocalityAdvice) {
  JobProfile p;
  p.cpu_util = 0.6;
  p.mem_bw_util = 0.9;
  p.boundedness = Boundedness::kMemory;
  const auto recs = recommend(p);
  ASSERT_FALSE(recs.empty());
  EXPECT_EQ(recs[0].category, "memory");
  EXPECT_NE(recs[0].advice.find("locality"), std::string::npos);
}

TEST(Recommend, ImbalanceAndOverRequestStack) {
  JobProfile p;
  p.cpu_util = 0.8;
  p.boundedness = Boundedness::kCompute;
  p.cpu_util_stddev = 0.3;
  p.walltime_request_ratio = 6.0;
  const auto recs = recommend(p);
  ASSERT_GE(recs.size(), 2u);
  EXPECT_EQ(recs[0].category, "imbalance");   // priority 1 before priority 3
  EXPECT_EQ(recs.back().category, "sizing");
}

TEST(Recommend, IdleAllocationFlagged) {
  JobProfile p;  // all utilizations zero
  const auto recs = recommend(p);
  ASSERT_FALSE(recs.empty());
  EXPECT_EQ(recs[0].category, "sizing");
}

TEST(Recommend, EndToEndOnLiveJob) {
  Rig rig(small_cluster(59));
  rig.cluster->set_workload_enabled(false);
  sim::JobSpec spec;
  spec.id = 1;
  spec.user = "dev";
  spec.nodes_requested = 2;
  sim::JobPhase phase;
  phase.nominal_duration = 2 * kHour;
  phase.cpu_util = 0.6;
  phase.mem_bw_util = 0.92;
  phase.mem_boundedness = 0.8;
  spec.phases = {phase};
  spec.walltime_requested = 12 * kHour;  // 6x over-request
  rig.cluster->scheduler().submit(spec);
  rig.run_for(2 * kHour + 10 * kMinute);
  ASSERT_FALSE(rig.cluster->scheduler().completed().empty());
  const auto& record = rig.cluster->scheduler().completed().front();
  std::vector<std::string> prefixes;
  for (std::size_t i = 0; i < rig.cluster->node_count(); ++i) {
    prefixes.push_back(rig.cluster->node(i).path());
  }
  const auto recs = recommend_for_job(*rig.store, record, prefixes);
  ASSERT_FALSE(recs.empty());
  EXPECT_EQ(recs[0].category, "memory");
  bool sizing = false;
  for (const auto& r : recs) sizing |= r.category == "sizing";
  EXPECT_TRUE(sizing);  // the 6x walltime over-request
  const auto report = render_recommendations(record, recs);
  EXPECT_NE(report.find("RECOMMENDATIONS"), std::string::npos);
}

// --------------------------------------------------- per-node handle caches
//
// DvfsGovernor and PowerCapGovernor resolve each node's series ids and knob
// once (NodeHandles). The references below make the same decisions with
// plain path lookups: every pass rebuilds "<node>/<leaf>" and looks it up
// by string. They share name() with the real governors, so the audit logs
// of the two can be compared field by field.

class ReferenceDvfs : public Controller {
 public:
  explicit ReferenceDvfs(DvfsGovernor::Params params) : params_(params) {}
  const char* name() const override { return "dvfs-governor"; }
  Duration period() const override { return params_.period; }
  void act(sim::ClusterSimulation& cluster,
           const telemetry::TimeSeriesStore& store,
           std::vector<Actuation>& log) override {
    if (params_.mode == DvfsGovernor::Mode::kEnergy) {
      act_energy(cluster, store, log);
    } else {
      act_thermal(cluster, store, log);
    }
  }

 private:
  void act_energy(sim::ClusterSimulation& cluster,
                  const telemetry::TimeSeriesStore& store,
                  std::vector<Actuation>& log) {
    const TimePoint now = cluster.now();
    for (std::size_t i = 0; i < cluster.node_count(); ++i) {
      const std::string& prefix = cluster.node(i).path();
      const auto cpu =
          store.query(prefix + "/cpu_util", now - params_.period, now);
      const auto mem =
          store.query(prefix + "/mem_bw_util", now - params_.period, now);
      if (cpu.empty() || mem.empty()) continue;
      const double cpu_mean = mean(cpu.values);
      const double mem_mean = mean(mem.values);
      const std::string knob = prefix + "/freq_setpoint";
      const double nominal = cluster.node(i).params().freq_nominal_ghz;
      if (cpu_mean < 0.05) {
        if (cluster.knobs().get(knob) != nominal) {
          actuate(cluster, log, name(), knob, nominal,
                  "node idle; restore nominal");
        }
        continue;
      }
      const bool memory_bound =
          mem_mean > params_.membound_ratio * cpu_mean || mem_mean > 0.7;
      const double target = memory_bound ? params_.energy_freq_ghz : nominal;
      if (std::abs(cluster.knobs().get(knob) - target) > 1e-9) {
        actuate(cluster, log, name(), knob, target,
                memory_bound ? "memory-bound phase; downclocking"
                             : "compute-bound phase; nominal frequency");
      }
    }
  }

  double effective_temp(const telemetry::TimeSeriesStore& store,
                        const std::string& node_prefix, TimePoint now) const {
    const auto latest = store.latest(node_prefix + "/cpu_temp");
    if (!latest) return 0.0;
    if (params_.mode != DvfsGovernor::Mode::kThermalProactive) {
      return latest->value;
    }
    const auto slice =
        store.query(node_prefix + "/cpu_temp", now - 30 * kMinute, now);
    if (slice.size() < 8) return latest->value;
    const Duration sample = (slice.times.back() - slice.times.front()) /
                            static_cast<Duration>(slice.size() - 1);
    HoltForecaster holt(0.4, 0.2);
    holt.fit(slice.values);
    const auto steps = std::max<std::size_t>(
        1, static_cast<std::size_t>(params_.forecast_lead /
                                    std::max<Duration>(sample, 1)));
    const auto path = holt.forecast(steps);
    return std::max(latest->value, *std::max_element(path.begin(), path.end()));
  }

  void act_thermal(sim::ClusterSimulation& cluster,
                   const telemetry::TimeSeriesStore& store,
                   std::vector<Actuation>& log) {
    const TimePoint now = cluster.now();
    for (std::size_t i = 0; i < cluster.node_count(); ++i) {
      const std::string& prefix = cluster.node(i).path();
      const double temp = effective_temp(store, prefix, now);
      if (temp <= 0.0) continue;
      const std::string knob = prefix + "/freq_setpoint";
      const double current = cluster.knobs().get(knob);
      const auto& np = cluster.node(i).params();
      if (temp >= params_.temp_limit_c - params_.temp_headroom_c) {
        const double depth =
            (temp - (params_.temp_limit_c - params_.temp_headroom_c)) /
            std::max(params_.temp_headroom_c, 0.5);
        const double target = std::max(
            np.freq_min_ghz, current - params_.step_ghz * (1.0 + 2.0 * depth));
        if (target < current - 1e-9) {
          actuate(cluster, log, name(), knob, target,
                  "temperature near limit; shedding frequency");
        }
      } else if (temp < params_.temp_limit_c - 2.0 * params_.temp_headroom_c &&
                 current < np.freq_nominal_ghz) {
        const double target =
            std::min(np.freq_nominal_ghz, current + params_.step_ghz);
        actuate(cluster, log, name(), knob, target,
                "thermal headroom available; restoring frequency");
      }
    }
  }

  DvfsGovernor::Params params_;
};

/// Reactive mode only (Params::plan_based = false).
class ReferencePowerCap : public Controller {
 public:
  explicit ReferencePowerCap(PowerCapGovernor::Params params)
      : params_(params) {}
  const char* name() const override { return "power-cap-governor"; }
  Duration period() const override { return params_.period; }
  void act(sim::ClusterSimulation& cluster,
           const telemetry::TimeSeriesStore& store,
           std::vector<Actuation>& log) override {
    const auto latest = store.latest("facility/total_power");
    const double power = latest ? latest->value : 0.0;
    if (power <= 0.0) return;
    const double trigger = params_.cap_w * params_.guard_band;
    if (power > trigger) {
      const double overshoot = (power - trigger) / params_.cap_w;
      std::vector<std::pair<double, std::size_t>> by_power;
      for (std::size_t i = 0; i < cluster.node_count(); ++i) {
        const auto p = store.latest(cluster.node(i).path() + "/power");
        by_power.push_back({p ? p->value : 0.0, i});
      }
      std::sort(by_power.rbegin(), by_power.rend());
      const auto shed_count = std::max<std::size_t>(
          1, static_cast<std::size_t>(
                 overshoot * 3.0 * static_cast<double>(cluster.node_count())));
      for (std::size_t k = 0; k < std::min(shed_count, by_power.size()); ++k) {
        const std::size_t i = by_power[k].second;
        const std::string knob = cluster.node(i).path() + "/freq_setpoint";
        const double current_f = cluster.knobs().get(knob);
        const double target =
            std::max(cluster.node(i).params().freq_min_ghz,
                     current_f - params_.step_ghz * (1.0 + 2.0 * overshoot));
        if (target < current_f - 1e-9) {
          actuate(cluster, log, name(), knob, target,
                  "power above cap; shedding");
        }
      }
    } else if (power < trigger * 0.95) {
      for (std::size_t i = 0; i < cluster.node_count(); ++i) {
        const std::string knob = cluster.node(i).path() + "/freq_setpoint";
        const double current_f = cluster.knobs().get(knob);
        const double nominal = cluster.node(i).params().freq_nominal_ghz;
        if (current_f < nominal - 1e-9) {
          actuate(cluster, log, name(), knob,
                  std::min(nominal, current_f + params_.step_ghz),
                  "power headroom; restoring frequency");
        }
      }
    }
  }

 private:
  PowerCapGovernor::Params params_;
};

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Field-by-field, bit-exact comparison of two audit logs.
void expect_identical_logs(const std::vector<Actuation>& got,
                           const std::vector<Actuation>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE("actuation " + std::to_string(i));
    EXPECT_EQ(got[i].time, want[i].time);
    EXPECT_EQ(got[i].controller, want[i].controller);
    EXPECT_EQ(got[i].knob, want[i].knob);
    EXPECT_TRUE(same_bits(got[i].old_value, want[i].old_value));
    EXPECT_TRUE(same_bits(got[i].new_value, want[i].new_value));
    EXPECT_EQ(got[i].reason, want[i].reason);
  }
}

std::size_t count_reason(const std::vector<Actuation>& log,
                         const std::string& reason) {
  return static_cast<std::size_t>(
      std::count_if(log.begin(), log.end(),
                    [&](const Actuation& a) { return a.reason == reason; }));
}

/// 256 nodes under the default random workload.
sim::ClusterParams large_cluster(std::uint64_t seed) {
  sim::ClusterParams params;
  params.racks = 16;
  params.nodes_per_rack = 16;
  params.seed = seed;
  params.workload.seed = seed;
  return params;
}

/// Ring slots per series: enough for the runs below at one sample a minute.
constexpr std::size_t kTwinRingCapacity = 1024;

/// Runs `governor` and `reference` on twin clusters (same params, same
/// seed, same `prepare` step) and returns both audit logs.
std::pair<std::vector<Actuation>, std::vector<Actuation>> run_twins(
    const sim::ClusterParams& params, std::shared_ptr<Controller> governor,
    std::shared_ptr<Controller> reference, Duration d,
    const std::function<void(Rig&)>& prepare = [](Rig&) {}) {
  Rig a(params, kTwinRingCapacity);
  Rig b(params, kTwinRingCapacity);
  prepare(a);
  prepare(b);
  a.loop->add(std::move(governor));
  b.loop->add(std::move(reference));
  a.run_for(d);
  b.run_for(d);
  return {a.loop->audit_log(), b.loop->audit_log()};
}

TEST(GovernorHandles, DvfsEnergyMatchesStringPathReference) {
  DvfsGovernor::Params gp;
  gp.mode = DvfsGovernor::Mode::kEnergy;
  const auto [got, want] =
      run_twins(large_cluster(43), std::make_shared<DvfsGovernor>(gp),
                std::make_shared<ReferenceDvfs>(gp), 4 * kHour);
  // Both decisions occur, so the comparison covers both branches.
  EXPECT_GT(count_reason(want, "memory-bound phase; downclocking"), 0u);
  EXPECT_GT(count_reason(want, "compute-bound phase; nominal frequency"), 0u);
  expect_identical_logs(got, want);
}

TEST(GovernorHandles, DvfsProactiveThermalMatchesStringPathReference) {
  auto params = large_cluster(47);
  params.facility.supply_setpoint_c = 43.0;  // hot loop: thermal stress
  params.node.fan_target_temp_c = 90.0;      // weak fan response
  DvfsGovernor::Params gp;
  gp.mode = DvfsGovernor::Mode::kThermalProactive;
  gp.temp_limit_c = 70.0;
  const auto [got, want] =
      run_twins(params, std::make_shared<DvfsGovernor>(gp),
                std::make_shared<ReferenceDvfs>(gp), 4 * kHour);
  EXPECT_GT(count_reason(want, "temperature near limit; shedding frequency"),
            0u);
  EXPECT_GT(
      count_reason(want, "thermal headroom available; restoring frequency"),
      0u);
  expect_identical_logs(got, want);
}

TEST(GovernorHandles, PowerCapMatchesStringPathReference) {
  const auto params = large_cluster(53);
  double unconstrained = 0.0;
  {
    Rig probe(params, kTwinRingCapacity);
    probe.run_for(kHour);
    unconstrained = probe.cluster->facility().facility_power_w();
  }
  // Every node starts at its minimum frequency, well under the cap, so the
  // governor first restores; the workload then ramps past the cap (the
  // draw one hour in) and it sheds.
  const auto preshed = [](Rig& rig) {
    for (std::size_t i = 0; i < rig.cluster->node_count(); ++i) {
      rig.cluster->knobs().set(rig.cluster->node(i).path() + "/freq_setpoint",
                               1.2);
    }
  };
  PowerCapGovernor::Params pp;
  pp.cap_w = unconstrained;
  pp.period = 2 * kMinute;
  const auto [got, want] =
      run_twins(params, std::make_shared<PowerCapGovernor>(pp),
                std::make_shared<ReferencePowerCap>(pp), 4 * kHour, preshed);
  EXPECT_GT(count_reason(want, "power above cap; shedding"), 0u);
  EXPECT_GT(count_reason(want, "power headroom; restoring frequency"), 0u);
  expect_identical_logs(got, want);
}

TEST(GovernorHandles, SeriesMissingOnFirstPassAreResolvedLater) {
  // A node-count no other test uses, so these paths are not interned yet
  // and the first pass really meets unresolvable series.
  sim::ClusterParams params;
  params.racks = 1;
  params.nodes_per_rack = 103;
  params.seed = 59;
  const std::string probe = sim::node_path(0, 102) + "/cpu_util";
  ASSERT_FALSE(telemetry::SeriesInterner::global().lookup(probe).has_value());

  sim::ClusterSimulation cluster(params);
  telemetry::TimeSeriesStore store(kTwinRingCapacity);
  DvfsGovernor::Params gp;
  gp.mode = DvfsGovernor::Mode::kEnergy;
  DvfsGovernor dvfs(gp);
  PowerCapGovernor::Params pp;
  pp.cap_w = 1.0;  // always binding once power is visible
  PowerCapGovernor powercap(pp);

  std::vector<Actuation> log;
  dvfs.act(cluster, store, log);
  powercap.act(cluster, store, log);
  EXPECT_TRUE(log.empty());

  // Samples arrive: the collector interns every path and fills the store.
  telemetry::Collector collector(cluster, &store, nullptr);
  collector.add_all_sensors(60);
  Rig::steady_load_on(cluster, /*cpu=*/0.6, /*mem_bw=*/0.9,
                      /*mem_boundedness=*/0.8);
  for (int i = 0; i < 16; ++i) {
    cluster.step();
    collector.collect();
  }
  ASSERT_TRUE(telemetry::SeriesInterner::global().lookup(probe).has_value());
  dvfs.act(cluster, store, log);
  EXPECT_EQ(count_reason(log, "memory-bound phase; downclocking"),
            cluster.node_count());
  log.clear();
  powercap.act(cluster, store, log);
  EXPECT_GT(count_reason(log, "power above cap; shedding"), 0u);
}

TEST(GovernorHandles, OneGovernorOnTwoClustersAddressesEachOwnKnobs) {
  // Same node count, different shapes: node i has a different path in each
  // cluster, so handles resolved for one are wrong for the other.
  auto wide = small_cluster(61);  // 2 racks x 4 nodes
  auto tall = small_cluster(61);
  tall.racks = 4;
  tall.nodes_per_rack = 2;
  DvfsGovernor::Params gp;
  gp.mode = DvfsGovernor::Mode::kEnergy;

  // `shared` alternates between the two clusters; each twin has a governor
  // of its own.
  Rig a(wide, kTwinRingCapacity), b(tall, kTwinRingCapacity);
  Rig a_twin(wide, kTwinRingCapacity), b_twin(tall, kTwinRingCapacity);
  DvfsGovernor shared(gp), own_a(gp), own_b(gp);
  std::vector<Actuation> log_a, log_b, want_a, want_b;
  for (TimePoint t = 0; t < 3 * kHour; t += wide.dt) {
    for (Rig* rig : {&a, &b, &a_twin, &b_twin}) {
      rig->cluster->step();
      rig->collector->collect();
    }
    if (a.cluster->now() % gp.period != 0) continue;
    shared.act(*a.cluster, *a.store, log_a);
    shared.act(*b.cluster, *b.store, log_b);
    own_a.act(*a_twin.cluster, *a_twin.store, want_a);
    own_b.act(*b_twin.cluster, *b_twin.store, want_b);
  }
  EXPECT_FALSE(want_a.empty());
  EXPECT_FALSE(want_b.empty());
  expect_identical_logs(log_a, want_a);
  expect_identical_logs(log_b, want_b);
  for (std::size_t i = 0; i < b.cluster->node_count(); ++i) {
    const std::string knob = b.cluster->node(i).path() + "/freq_setpoint";
    EXPECT_EQ(b.cluster->knobs().get(knob), b_twin.cluster->knobs().get(knob))
        << knob;
  }
}

}  // namespace
}  // namespace oda::analytics
