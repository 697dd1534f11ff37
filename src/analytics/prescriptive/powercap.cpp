#include "analytics/prescriptive/powercap.hpp"

#include <algorithm>
#include <cmath>

#include "common/stats.hpp"

namespace oda::analytics {

namespace {
constexpr std::size_t kPower = 0;  // the only leaf slot in nodes_
}  // namespace

PowerCapGovernor::PowerCapGovernor(Params params) : params_(params) {}

double PowerCapGovernor::anticipated_power(
    const telemetry::TimeSeriesStore& store, TimePoint now) const {
  const auto latest = store.latest("facility/total_power");
  const double current = latest ? latest->value : 0.0;
  if (!params_.plan_based) return current;

  const auto slice = store.query("facility/total_power", now - 6 * kHour, now);
  if (slice.size() < 32) return current;
  const Duration sample = (slice.times.back() - slice.times.front()) /
                          static_cast<Duration>(slice.size() - 1);
  HoltForecaster holt(0.3, 0.1);
  holt.fit(slice.values);
  const auto steps = std::max<std::size_t>(
      1, static_cast<std::size_t>(params_.forecast_lead /
                                  std::max<Duration>(sample, 1)));
  const auto path = holt.forecast(steps);
  return std::max(current, *std::max_element(path.begin(), path.end()));
}

void PowerCapGovernor::act(sim::ClusterSimulation& cluster,
                           const telemetry::TimeSeriesStore& store,
                           std::vector<Actuation>& log) {
  const TimePoint now = cluster.now();
  const auto latest = store.latest("facility/total_power");
  if (latest && latest->value > params_.cap_w) ++violations_;

  const double power = anticipated_power(store, now);
  if (power <= 0.0) return;
  const double trigger = params_.cap_w * params_.guard_band;
  nodes_.bind(cluster);

  if (power > trigger) {
    // Shed proportionally to the overshoot, hottest (highest-power) nodes
    // first so the perf cost lands where the watts are.
    const double overshoot = (power - trigger) / params_.cap_w;
    std::vector<std::pair<double, std::size_t>> by_power;
    for (std::size_t i = 0; i < cluster.node_count(); ++i) {
      const auto p = store.latest(nodes_.series(i, kPower));
      by_power.push_back({p ? p->value : 0.0, i});
    }
    std::sort(by_power.rbegin(), by_power.rend());
    const auto shed_count = std::max<std::size_t>(
        1, static_cast<std::size_t>(overshoot * 3.0 *
                                    static_cast<double>(cluster.node_count())));
    for (std::size_t k = 0; k < std::min(shed_count, by_power.size()); ++k) {
      const std::size_t i = by_power[k].second;
      const sim::KnobDef& knob = nodes_.freq_knob(i);
      const double current_f = knob.get();
      const double target =
          std::max(cluster.node(i).params().freq_min_ghz,
                   current_f - params_.step_ghz * (1.0 + 2.0 * overshoot));
      if (target < current_f - 1e-9) {
        actuate(cluster, log, name(), knob.path, target,
                params_.plan_based ? "forecast power above cap; pre-shedding"
                                   : "power above cap; shedding");
      }
    }
  } else if (power < trigger * 0.95) {
    // Headroom: restore frequency gradually across the fleet.
    for (std::size_t i = 0; i < cluster.node_count(); ++i) {
      const sim::KnobDef& knob = nodes_.freq_knob(i);
      const double current_f = knob.get();
      const double nominal = cluster.node(i).params().freq_nominal_ghz;
      if (current_f < nominal - 1e-9) {
        actuate(cluster, log, name(), knob.path,
                std::min(nominal, current_f + params_.step_ghz),
                "power headroom; restoring frequency");
      }
    }
  }
}

}  // namespace oda::analytics
