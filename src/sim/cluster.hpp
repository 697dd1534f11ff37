// Top-level assembly of the simulated HPC data center: weather + facility
// (building-infrastructure pillar), racks of nodes and the network fabric
// (system-hardware pillar), the scheduler (system-software pillar), and the
// workload generator (applications pillar) — one component per pillar of the
// 4-Pillar Framework, which is exactly why the ODA grid maps cleanly onto it.
//
// Telemetry is read through read_sensor()/sample_all(), which apply the
// fault injector's sensor overlays; analytics therefore sees lying sensors
// exactly as a production monitoring system would.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "sim/engine.hpp"
#include "sim/facility.hpp"
#include "sim/faults.hpp"
#include "sim/network.hpp"
#include "sim/node.hpp"
#include "sim/scheduler.hpp"
#include "sim/weather.hpp"
#include "sim/workload.hpp"

namespace oda::sim {

/// Outcome of one failure-aware sensor read attempt (try_read_sensor).
struct SensorReadResult {
  bool ok = true;          // false => dropout: no value was produced
  double value = 0.0;      // fault-overlaid reading; valid only when ok
  double latency_s = 0.0;  // simulated latency this attempt cost (stalls)
};

struct ClusterParams {
  std::size_t racks = 4;
  std::size_t nodes_per_rack = 16;
  double gpu_node_fraction = 0.25;  // last fraction of each rack has GPUs
  Duration dt = 15;
  std::uint64_t seed = 1;

  WeatherParams weather;
  WorkloadParams workload;
  SchedulerParams scheduler;
  FacilityParams facility;
  NodeParams node;
  double uplink_capacity_gbps = 800.0;
  double nic_capacity_gbps = 100.0;

  /// Rack air/water heat-exchanger offset: node inlet = supply + offset.
  double rack_inlet_offset_c = 5.0;
  /// Extra inlet rise at full rack utilization (local hotspot coupling);
  /// this is what thermal-aware placement exploits.
  double rack_thermal_coupling_c = 7.0;
};

class ClusterSimulation {
 public:
  explicit ClusterSimulation(const ClusterParams& params);

  /// Process-unique id of this simulation. Callers that cache per-cluster
  /// handles (knob indices) key the cache on it, which stays exact even when
  /// a cluster is built at the address of one that was destroyed.
  std::uint64_t instance_id() const { return instance_id_; }

  // -- time ------------------------------------------------------------------
  void step();
  void run_for(Duration d);
  TimePoint now() const { return now_; }
  Duration dt() const { return params_.dt; }

  // -- monitoring plane --------------------------------------------------------
  /// All sensor definitions (stable order, fault-free raw readers).
  const std::vector<SensorDef>& sensors() const { return sensors_; }
  /// Reading with the fault overlay applied — what ODA should consume.
  double read_sensor(const std::string& path);
  /// Same, but drawing overlay randomness (spike/noise faults) from the
  /// caller's Rng instead of the simulation stream. Safe to call from many
  /// threads at once over a quiescent simulator (between step()s) — the
  /// collector's parallel read path uses one split Rng per chunk.
  double read_sensor(const std::string& path, Rng& rng) const;
  /// Failure-aware read: rolls the injector's read faults (dropout/stall)
  /// before producing a value. With no read fault active on `path` this is
  /// exactly read_sensor() — same value, same random stream, zero latency —
  /// so fault-free pipelines behave bit-identically to the plain read.
  SensorReadResult try_read_sensor(const std::string& path);
  SensorReadResult try_read_sensor(const std::string& path, Rng& rng) const;
  bool has_sensor(const std::string& path) const;
  /// Samples every sensor (fault overlay applied).
  std::vector<std::pair<std::string, double>> sample_all();

  // -- control plane ------------------------------------------------------------
  KnobRegistry& knobs() { return knobs_; }

  // -- part access (experiments / ground truth) --------------------------------
  Scheduler& scheduler() { return *scheduler_; }
  const Scheduler& scheduler() const { return *scheduler_; }
  Facility& facility() { return facility_; }
  Weather& weather() { return weather_; }
  Network& network() { return network_; }
  FaultInjector& faults() { return faults_; }
  WorkloadGenerator& workload() { return workload_; }
  Node& node(std::size_t i) { return *nodes_.at(i); }
  std::size_t node_count() const { return nodes_.size(); }
  std::size_t rack_count() const { return params_.racks; }
  std::size_t rack_of(std::size_t node_idx) const {
    return node_idx / params_.nodes_per_rack;
  }
  const ClusterParams& params() const { return params_; }

  double it_power_w() const { return it_power_w_; }
  double rack_power_w(std::size_t rack) const { return rack_power_w_.at(rack); }
  double rack_inlet_temp_c(std::size_t rack) const {
    return rack_inlet_c_.at(rack);
  }
  /// Facility energy integrated since construction (J).
  double facility_energy_j() const { return facility_energy_j_; }
  double it_energy_j() const { return it_energy_j_; }

  /// Disables automatic workload generation (manual submit via scheduler()).
  void set_workload_enabled(bool enabled) { workload_enabled_ = enabled; }

 private:
  void build_sensors();
  void apply_component_fault(const FaultEvent& event, bool activate);
  void update_rack_inlets();

  std::uint64_t instance_id_;
  ClusterParams params_;
  Rng rng_;

  Weather weather_;
  Facility facility_;
  Network network_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::unique_ptr<Scheduler> scheduler_;
  WorkloadGenerator workload_;
  FaultInjector faults_;
  KnobRegistry knobs_;

  std::vector<SensorDef> sensors_;
  /// path -> sensors_ slot; one hash probe per sensor read.
  std::unordered_map<std::string, std::size_t> sensor_index_;

  TimePoint now_ = 0;
  bool workload_enabled_ = true;
  double it_power_w_ = 0.0;
  std::vector<double> rack_power_w_;
  std::vector<double> rack_inlet_c_;
  double facility_energy_j_ = 0.0;
  double it_energy_j_ = 0.0;
};

/// Convenience: node sensor path, e.g. node_path(0, 3) == "rack00/node03".
std::string node_path(std::size_t rack, std::size_t node_in_rack);

}  // namespace oda::sim
