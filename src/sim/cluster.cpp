#include "sim/cluster.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "common/error.hpp"
#include "common/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace oda::sim {

std::string node_path(std::size_t rack, std::size_t node_in_rack) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "rack%02zu/node%02zu", rack, node_in_rack);
  return buf;
}

namespace {

/// Scales the facility's fixed loads (pumps, overhead, design IT power) to
/// the actual machine size so a 8-node test cluster is not saddled with a
/// 64-node plant. Ratios of user-provided values are preserved.
FacilityParams scale_facility(FacilityParams fp, const ClusterParams& cp) {
  const double design_w =
      static_cast<double>(cp.racks * cp.nodes_per_rack) *
      (cp.node.idle_power_w + cp.node.cpu_max_dynamic_w +
       (cp.node.has_gpu ? cp.node.gpu_max_dynamic_w : 0.0) +
       cp.node.mem_max_power_w);
  const double factor = design_w / fp.it_nominal_w;
  fp.it_nominal_w = design_w;
  fp.pump_nominal_w *= factor;
  fp.misc_overhead_w *= factor;
  return fp;
}

std::uint64_t next_instance_id() {
  // relaxed: only uniqueness matters; the id orders nothing.
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

ClusterSimulation::ClusterSimulation(const ClusterParams& params)
    : instance_id_(next_instance_id()),
      params_(params),
      rng_(params.seed),
      weather_(params.weather, Rng(params.seed ^ 0x57EA74E2ULL)),
      facility_(scale_facility(params.facility, params)),
      network_(NetworkParams{params.racks, params.nodes_per_rack,
                             params.nic_capacity_gbps,
                             params.uplink_capacity_gbps}),
      workload_([&] {
        WorkloadParams wp = params.workload;
        wp.max_nodes_per_job =
            std::min(wp.max_nodes_per_job, params.racks * params.nodes_per_rack);
        wp.seed ^= params.seed * 0x9E3779B97F4A7C15ULL;
        return wp;
      }()) {
  ODA_REQUIRE(params.racks > 0 && params.nodes_per_rack > 0,
              "cluster needs racks and nodes");
  ODA_REQUIRE(params.dt > 0, "cluster dt must be positive");

  const std::size_t gpu_per_rack = static_cast<std::size_t>(
      params.gpu_node_fraction * static_cast<double>(params.nodes_per_rack));
  for (std::size_t r = 0; r < params.racks; ++r) {
    for (std::size_t n = 0; n < params.nodes_per_rack; ++n) {
      NodeParams np = params.node;
      np.has_gpu = n >= params.nodes_per_rack - gpu_per_rack;
      nodes_.push_back(std::make_unique<Node>(node_path(r, n), np));
    }
  }
  scheduler_ = std::make_unique<Scheduler>(nodes_.size(), params.scheduler);

  rack_power_w_.assign(params.racks, 0.0);
  rack_inlet_c_.assign(params.racks,
                       facility_.supply_temp_c() + params.rack_inlet_offset_c);

  faults_.set_component_hook([this](const FaultEvent& e, bool activate) {
    apply_component_fault(e, activate);
  });

  build_sensors();
  knobs_.add_all(facility_);
  for (auto& node : nodes_) knobs_.add_all(*node);
}

void ClusterSimulation::build_sensors() {
  weather_.enumerate_sensors(sensors_);
  facility_.enumerate_sensors(sensors_);
  network_.enumerate_sensors(sensors_);
  scheduler_->enumerate_sensors(sensors_);
  for (const auto& node : nodes_) node->enumerate_sensors(sensors_);

  sensors_.push_back({"cluster/it_power", "W", [this] { return it_power_w_; }});
  for (std::size_t r = 0; r < params_.racks; ++r) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "rack%02zu/power", r);
    sensors_.push_back({buf, "W", [this, r] { return rack_power_w_[r]; }});
    std::snprintf(buf, sizeof(buf), "rack%02zu/inlet_temp", r);
    sensors_.push_back({buf, "degC", [this, r] { return rack_inlet_c_[r]; }});
  }

  for (std::size_t i = 0; i < sensors_.size(); ++i) {
    ODA_REQUIRE(sensor_index_.emplace(sensors_[i].path, i).second,
                "duplicate sensor path: " + sensors_[i].path);
  }
}

void ClusterSimulation::apply_component_fault(const FaultEvent& event,
                                              bool activate) {
  switch (event.kind) {
    case FaultKind::kFanFailure:
    case FaultKind::kThermalDegradation: {
      for (auto& node : nodes_) {
        if (node->path() == event.target) {
          if (event.kind == FaultKind::kFanFailure) {
            node->set_fan_failed(activate);
          } else {
            node->set_thermal_degradation(activate ? event.magnitude : 1.0);
          }
          return;
        }
      }
      ODA_LOG_WARN << "fault target not found: " << event.target;
      break;
    }
    case FaultKind::kPumpDegradation:
      facility_.set_pump_degradation(activate ? event.magnitude : 1.0);
      break;
    case FaultKind::kChillerFouling:
      facility_.set_chiller_fouling(activate ? event.magnitude : 0.0);
      break;
    case FaultKind::kNetworkDegradation: {
      const auto rack = static_cast<std::size_t>(std::stoul(event.target));
      network_.set_uplink_degradation(rack, activate ? event.magnitude : 1.0);
      break;
    }
    default:
      break;  // sensor faults are handled at read time
  }
}

void ClusterSimulation::update_rack_inlets() {
  // Node inlet = loop supply + HX offset + hotspot term. The hotspot term is
  // quadratic in the rack's load fraction: hot-air recirculation and HX
  // saturation grow superlinearly with rack density, which is what makes
  // concentrating heat in one rack costlier than spreading it (E6).
  const double per_rack_design =
      static_cast<double>(params_.nodes_per_rack) *
      (params_.node.idle_power_w + params_.node.cpu_max_dynamic_w);
  for (std::size_t r = 0; r < params_.racks; ++r) {
    const double load_frac =
        std::clamp(rack_power_w_[r] / per_rack_design, 0.0, 1.2);
    rack_inlet_c_[r] = facility_.supply_temp_c() + params_.rack_inlet_offset_c +
                       params_.rack_thermal_coupling_c * load_frac * load_frac;
  }
}

void ClusterSimulation::step() {
  ODA_TRACE_SPAN_CAT("sim.step", "sim");
  static obs::Histogram& step_seconds = obs::MetricsRegistry::global().histogram(
      "oda_sim_step_seconds", "Wall time of one simulation step");
  static obs::Counter& steps = obs::MetricsRegistry::global().counter(
      "oda_sim_steps_total", "Simulation steps executed");
  const auto step_start = std::chrono::steady_clock::now();

  const Duration dt = params_.dt;
  const TimePoint next = now_ + dt;

  weather_.step(now_, dt);

  if (workload_enabled_) {
    for (auto& job : workload_.generate(now_, dt)) {
      scheduler_->submit(std::move(job));
    }
  }

  faults_.step(now_, next);
  scheduler_->schedule(now_);

  // Network: register per-job traffic from the active phase.
  network_.begin_step();
  for (const auto& job : scheduler_->running()) {
    const JobPhase& phase = job.current_phase();
    network_.add_job_traffic(job.spec.id, job.nodes,
                             phase.net_util * params_.nic_capacity_gbps);
  }
  network_.finalize_step();

  // Map nodes to their occupying job.
  std::vector<const RunningJob*> node_job(nodes_.size(), nullptr);
  for (const auto& job : scheduler_->running()) {
    for (std::size_t n : job.nodes) node_job[n] = &job;
  }

  // Physical node update using the inlet temperatures from the previous
  // step's rack state (explicit coupling, stable for dt << thermal tau).
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    NodeDemand demand;
    if (const RunningJob* job = node_job[i]) {
      const JobPhase& phase = job->current_phase();
      demand.busy = true;
      demand.cpu_util = phase.cpu_util;
      demand.mem_bw_util = phase.mem_bw_util;
      demand.net_util = phase.net_util;
      demand.io_util = phase.io_util;
      demand.gpu_util = phase.gpu_util;
      demand.mem_boundedness = phase.mem_boundedness;
      demand.contention = network_.contention(job->spec.id);
      demand.mem_used_gb = job->mem_used_gb(now_);
    }
    nodes_[i]->step(demand, rack_inlet_c_[rack_of(i)], dt);
  }

  // Advance job progress: a tightly coupled application moves at the pace of
  // its slowest node.
  for (const auto& job : scheduler_->running()) {
    double rate = std::numeric_limits<double>::infinity();
    double power = 0.0;
    for (std::size_t n : job.nodes) {
      rate = std::min(rate, nodes_[n]->progress_rate());
      power += nodes_[n]->power_w();
    }
    if (!std::isfinite(rate)) rate = 0.0;
    scheduler_->advance_job(job.spec.id, rate * static_cast<double>(dt),
                            power * static_cast<double>(dt));
  }

  scheduler_->reap(next, params_.node.memory_capacity_gb);

  // Aggregate power and update the facility.
  it_power_w_ = 0.0;
  std::fill(rack_power_w_.begin(), rack_power_w_.end(), 0.0);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    it_power_w_ += nodes_[i]->power_w();
    rack_power_w_[rack_of(i)] += nodes_[i]->power_w();
  }
  facility_.step(it_power_w_, weather_.wetbulb_c(), dt);
  update_rack_inlets();

  it_energy_j_ += it_power_w_ * static_cast<double>(dt);
  facility_energy_j_ += facility_.facility_power_w() * static_cast<double>(dt);

  now_ = next;

  steps.inc();
  step_seconds.observe(
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    step_start)
          .count());
}

void ClusterSimulation::run_for(Duration d) {
  const TimePoint target = now_ + d;
  while (now_ < target) step();
}

bool ClusterSimulation::has_sensor(const std::string& path) const {
  return sensor_index_.count(path) != 0;
}

double ClusterSimulation::read_sensor(const std::string& path) {
  return read_sensor(path, rng_);
}

double ClusterSimulation::read_sensor(const std::string& path, Rng& rng) const {
  const auto it = sensor_index_.find(path);
  ODA_REQUIRE(it != sensor_index_.end(), "unknown sensor: " + path);
  const double raw = sensors_[it->second].read();
  return faults_.apply_sensor_faults(path, raw, now_, rng);
}

SensorReadResult ClusterSimulation::try_read_sensor(const std::string& path) {
  return try_read_sensor(path, rng_);
}

SensorReadResult ClusterSimulation::try_read_sensor(const std::string& path,
                                                    Rng& rng) const {
  SensorReadResult result;
  const ReadFault fault = faults_.read_fault_at(path, now_, rng);
  result.latency_s = fault.stall_seconds;
  if (fault.dropout) {
    result.ok = false;
    return result;
  }
  result.value = read_sensor(path, rng);
  return result;
}

std::vector<std::pair<std::string, double>> ClusterSimulation::sample_all() {
  std::vector<std::pair<std::string, double>> out;
  out.reserve(sensors_.size());
  for (const auto& s : sensors_) {
    out.emplace_back(s.path,
                     faults_.apply_sensor_faults(s.path, s.read(), now_, rng_));
  }
  return out;
}

}  // namespace oda::sim
