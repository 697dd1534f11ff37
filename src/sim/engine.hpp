// Simulation substrate interfaces.
//
// The data-center simulator stands in for a real HPC facility (see
// DESIGN.md §2): it advances on a fixed time step and publishes its state
// through two registries that mirror how ODA interacts with production
// systems — *sensors* (read-only telemetry, the monitoring plane) and
// *knobs* (writable actuators, the control plane). Analytics code never
// touches simulator internals; it sees exactly what it would see on a real
// machine: sensor paths and knob paths.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace oda::sim {

/// A readable telemetry channel exposed by the simulated facility.
struct SensorDef {
  std::string path;  // hierarchical, '/'-separated, e.g. "rack00/node003/power"
  std::string unit;  // "W", "degC", "ratio", ...
  std::function<double()> read;
};

/// A writable actuator exposed by the simulated facility.
struct KnobDef {
  std::string path;  // e.g. "facility/cooling/supply_setpoint"
  std::string unit;
  double min_value = 0.0;
  double max_value = 1.0;
  std::function<double()> get;
  std::function<void(double)> set;
};

/// Anything that contributes sensors to the monitoring plane.
class SensorProvider {
 public:
  virtual ~SensorProvider() = default;
  virtual void enumerate_sensors(std::vector<SensorDef>& out) const = 0;
};

/// Anything that contributes knobs to the control plane.
class KnobProvider {
 public:
  virtual ~KnobProvider() = default;
  virtual void enumerate_knobs(std::vector<KnobDef>& out) = 0;
};

/// Registry resolving knob paths to actuators; the prescriptive pillar's
/// only way to influence the system. Every path lookup is one hash probe
/// (O(1) per path, independent of the knob count).
class KnobRegistry {
 public:
  void add(KnobDef knob);
  void add_all(KnobProvider& provider);

  bool contains(const std::string& path) const;
  /// Knob paths in insertion order.
  std::vector<std::string> paths() const;
  const KnobDef& at(const std::string& path) const;

  /// Stable handle for `path`: its insertion index, valid for this
  /// registry's lifetime (knobs are never removed). Resolve once, then read
  /// through at(index) without re-hashing the path.
  std::size_t index_of(const std::string& path) const;
  const KnobDef& at(std::size_t index) const;

  double get(const std::string& path) const;
  /// Clamps to the knob's range and applies.
  void set(const std::string& path, double value);

 private:
  std::vector<KnobDef> knobs_;  // insertion order
  std::unordered_map<std::string, std::size_t> index_;  // path -> knobs_ slot
};

}  // namespace oda::sim
