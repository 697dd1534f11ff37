// Cluster power capping (prescriptive/system-software+hardware — the
// PowerStack [41] composition): keep facility power under a cap by shedding
// node frequency fleet-wide (RAPL-style) and restoring it when headroom
// returns. The plan-based variant uses a facility-power forecast to begin
// shedding *before* the cap is hit (plan-based scheduling [43] flavour).
#pragma once

#include "analytics/predictive/forecaster.hpp"
#include "analytics/prescriptive/controller.hpp"
#include "analytics/prescriptive/node_handles.hpp"

namespace oda::analytics {

class PowerCapGovernor : public Controller {
 public:
  struct Params {
    double cap_w = 300000.0;
    Duration period = 5 * kMinute;
    /// Start shedding at cap * guard_band (e.g. 0.95).
    double guard_band = 0.97;
    double step_ghz = 0.2;
    bool plan_based = false;   // use forecast to pre-shed
    Duration forecast_lead = 30 * kMinute;
  };

  PowerCapGovernor() : PowerCapGovernor(Params{}) {}
  explicit PowerCapGovernor(Params params);

  const char* name() const override { return "power-cap-governor"; }
  Duration period() const override { return params_.period; }
  void act(sim::ClusterSimulation& cluster,
           const telemetry::TimeSeriesStore& store,
           std::vector<Actuation>& log) override;

  std::size_t cap_violations() const { return violations_; }
  const Params& params() const { return params_; }

 private:
  double anticipated_power(const telemetry::TimeSeriesStore& store,
                           TimePoint now) const;

  Params params_;
  std::size_t violations_ = 0;
  /// Per-node power series plus the frequency knob.
  NodeHandles nodes_{std::vector<std::string>{"power"}};
};

}  // namespace oda::analytics
