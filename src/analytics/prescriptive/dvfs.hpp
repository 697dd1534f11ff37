// DVFS governors (Table I, prescriptive/system-hardware — GEOPM [11],
// EAR [24], energy-aware scheduling [40]):
//  * energy mode — downclock nodes whose workload is memory-bound (observed
//    mem_bw/cpu ratio), where frequency buys little progress but much power;
//  * thermal-cap mode — keep CPU temperature under a limit. The *reactive*
//    governor reacts to the measured temperature; the *proactive* one acts
//    on a short-horizon forecast, shedding frequency before the limit is
//    hit (the Sec. V-A multi-type claim benchmarked in E5).
#pragma once

#include <map>

#include "analytics/predictive/forecaster.hpp"
#include "analytics/prescriptive/controller.hpp"
#include "analytics/prescriptive/node_handles.hpp"

namespace oda::analytics {

class DvfsGovernor : public Controller {
 public:
  enum class Mode { kEnergy, kThermalReactive, kThermalProactive };

  struct Params {
    Mode mode = Mode::kEnergy;
    Duration period = 2 * kMinute;
    // Energy mode.
    double membound_ratio = 1.0;   // mem_bw/cpu util ratio marking memory-bound
    double energy_freq_ghz = 1.8;  // frequency for memory-bound nodes
    // Thermal modes.
    double temp_limit_c = 82.0;
    double temp_headroom_c = 3.0;   // start shedding this far below the limit
    Duration forecast_lead = 4 * kMinute;  // proactive look-ahead
    double step_ghz = 0.2;
  };

  DvfsGovernor() : DvfsGovernor(Params{}) {}
  explicit DvfsGovernor(Params params);

  const char* name() const override { return "dvfs-governor"; }
  Duration period() const override { return params_.period; }
  void act(sim::ClusterSimulation& cluster,
           const telemetry::TimeSeriesStore& store,
           std::vector<Actuation>& log) override;

  const Params& params() const { return params_; }

 private:
  void act_energy(sim::ClusterSimulation& cluster,
                  const telemetry::TimeSeriesStore& store,
                  std::vector<Actuation>& log);
  void act_thermal(sim::ClusterSimulation& cluster,
                   const telemetry::TimeSeriesStore& store,
                   std::vector<Actuation>& log);
  /// Temperature the governor should regulate against: measured now, or the
  /// forecast max over the lead window in proactive mode.
  double effective_temp(const telemetry::TimeSeriesStore& store,
                        telemetry::SeriesId cpu_temp, TimePoint now) const;

  Params params_;
  /// Per-node series for the mode's sensors plus the frequency knob.
  NodeHandles nodes_;
};

}  // namespace oda::analytics
