// Per-layer self time from recorded trace spans. A span's self time is its
// duration minus the part covered by its child spans on the same thread;
// children on other threads (pool workers under a fan-out) run in parallel
// and are not subtracted. The benchmark wraps each operation (a pipeline
// tick, a dashboard refresh) in a root span on the thread that drives the
// workload. Children nest inside their parents, so the self times of the
// spans inside those roots add up to the roots' duration exactly: the
// shares split the operations' wall time into layers with nothing left
// over. The root's own self time is the benchmark's loop overhead.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

/// The repository module a span belongs to, from its category.
std::string layer_of(const oda::obs::TraceEvent& e);

class LayerAccount {
 public:
  /// Adds the events of one traced window. `root_name` names the
  /// benchmark's per-operation span.
  void add_window(const std::vector<oda::obs::TraceEvent>& events,
                  const std::string& root_name);

  /// Share of operation wall time per layer.
  std::map<std::string, double> main_shares() const;

  /// The self-time table and the share table, as printable text.
  std::string render() const;

 private:
  struct Row {
    std::string layer;
    std::uint64_t count = 0;
    double self_us = 0.0;       // all threads
    double main_self_us = 0.0;  // inside operation spans only
  };
  std::map<std::string, Row> rows_;
  double wall_us_ = 0.0;
  std::uint64_t windows_ = 0;
};

}  // namespace perfbench
