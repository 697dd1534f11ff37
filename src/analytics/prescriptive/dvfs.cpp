#include "analytics/prescriptive/dvfs.hpp"

#include <algorithm>
#include <cmath>

#include "common/stats.hpp"

#include "obs/cell.hpp"

namespace oda::analytics {

namespace {
// Leaf slots in nodes_: energy mode reads two sensors, thermal modes one.
constexpr std::size_t kCpuUtil = 0, kMemBwUtil = 1;
constexpr std::size_t kCpuTemp = 0;
}  // namespace

DvfsGovernor::DvfsGovernor(Params params)
    : params_(params),
      nodes_(params.mode == Mode::kEnergy
                 ? std::vector<std::string>{"cpu_util", "mem_bw_util"}
                 : std::vector<std::string>{"cpu_temp"}) {}

void DvfsGovernor::act(sim::ClusterSimulation& cluster,
                       const telemetry::TimeSeriesStore& store,
                       std::vector<Actuation>& log) {
  ::oda::obs::CellScope oda_cell_scope("system-hardware", "prescriptive", "presc.dvfs");
  nodes_.bind(cluster);
  if (params_.mode == Mode::kEnergy) {
    act_energy(cluster, store, log);
  } else {
    act_thermal(cluster, store, log);
  }
}

void DvfsGovernor::act_energy(sim::ClusterSimulation& cluster,
                              const telemetry::TimeSeriesStore& store,
                              std::vector<Actuation>& log) {
  const TimePoint now = cluster.now();
  for (std::size_t i = 0; i < cluster.node_count(); ++i) {
    const auto cpu =
        store.query(nodes_.series(i, kCpuUtil), now - params_.period, now);
    const auto mem =
        store.query(nodes_.series(i, kMemBwUtil), now - params_.period, now);
    if (cpu.empty() || mem.empty()) continue;
    const double cpu_mean = mean(cpu.values);
    const double mem_mean = mean(mem.values);
    const sim::KnobDef& knob = nodes_.freq_knob(i);
    const double nominal = cluster.node(i).params().freq_nominal_ghz;

    if (cpu_mean < 0.05) {
      // Idle nodes: race-to-idle is moot here; park at nominal.
      if (knob.get() != nominal) {
        actuate(cluster, log, name(), knob.path, nominal,
                "node idle; restore nominal");
      }
      continue;
    }
    const bool memory_bound = mem_mean > params_.membound_ratio * cpu_mean ||
                              mem_mean > 0.7;
    const double target = memory_bound ? params_.energy_freq_ghz : nominal;
    if (std::abs(knob.get() - target) > 1e-9) {
      actuate(cluster, log, name(), knob.path, target,
              memory_bound ? "memory-bound phase; downclocking"
                           : "compute-bound phase; nominal frequency");
    }
  }
}

double DvfsGovernor::effective_temp(const telemetry::TimeSeriesStore& store,
                                    telemetry::SeriesId cpu_temp,
                                    TimePoint now) const {
  const auto latest = store.latest(cpu_temp);
  if (!latest) return 0.0;
  if (params_.mode != Mode::kThermalProactive) return latest->value;

  // Proactive: Holt forecast of the temperature over the lead window; act
  // on the max of measured and forecast so warming trends are pre-empted.
  const auto slice = store.query(cpu_temp, now - 30 * kMinute, now);
  if (slice.size() < 8) return latest->value;
  const Duration sample = (slice.times.back() - slice.times.front()) /
                          static_cast<Duration>(slice.size() - 1);
  HoltForecaster holt(0.4, 0.2);
  holt.fit(slice.values);
  const auto steps = std::max<std::size_t>(
      1, static_cast<std::size_t>(params_.forecast_lead /
                                  std::max<Duration>(sample, 1)));
  const auto path = holt.forecast(steps);
  const double forecast_max = *std::max_element(path.begin(), path.end());
  return std::max(latest->value, forecast_max);
}

void DvfsGovernor::act_thermal(sim::ClusterSimulation& cluster,
                               const telemetry::TimeSeriesStore& store,
                               std::vector<Actuation>& log) {
  const TimePoint now = cluster.now();
  for (std::size_t i = 0; i < cluster.node_count(); ++i) {
    const double temp = effective_temp(store, nodes_.series(i, kCpuTemp), now);
    if (temp <= 0.0) continue;
    const sim::KnobDef& knob = nodes_.freq_knob(i);
    const double current = knob.get();
    const auto& np = cluster.node(i).params();

    if (temp >= params_.temp_limit_c - params_.temp_headroom_c) {
      // Proportional shed: the deeper into the headroom band, the harder we
      // downclock.
      const double depth =
          (temp - (params_.temp_limit_c - params_.temp_headroom_c)) /
          std::max(params_.temp_headroom_c, 0.5);
      const double target = std::max(
          np.freq_min_ghz, current - params_.step_ghz * (1.0 + 2.0 * depth));
      if (target < current - 1e-9) {
        actuate(cluster, log, name(), knob.path, target,
                "temperature near limit; shedding frequency");
      }
    } else if (temp < params_.temp_limit_c - 2.0 * params_.temp_headroom_c &&
               current < np.freq_nominal_ghz) {
      // Cool again: recover frequency gradually.
      const double target =
          std::min(np.freq_nominal_ghz, current + params_.step_ghz);
      actuate(cluster, log, name(), knob.path, target,
              "thermal headroom available; restoring frequency");
    }
  }
}

}  // namespace oda::analytics
