// Per-node handles for governors that scan the whole fleet every control
// pass (DVFS, power capping). Building "<node>/<sensor>" strings and looking
// them up by path on every pass costs more than the control decision itself
// at thousands of nodes. This table resolves each node's series ids and
// frequency knob once per cluster and reuses them, the way Wintermute
// operators bind sensor and actuator names to handles at set-up
// (PAPERS.md, 1910.06156).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/cluster.hpp"
#include "telemetry/series_id.hpp"

namespace oda::analytics {

class NodeHandles {
 public:
  /// `leaves` are per-node sensor names, e.g. {"cpu_util", "mem_bw_util"};
  /// series(i, k) addresses leaf k of node i.
  explicit NodeHandles(std::vector<std::string> leaves);

  /// Points the table at `cluster` for this pass, rebuilding it when the
  /// cluster is not the one it was last built for. Call at the top of every
  /// pass, before series() and freq_knob().
  void bind(sim::ClusterSimulation& cluster);

  /// Series id of leaf `k` on node `node`. A path the interner has not seen
  /// yet gives an invalid id (store reads of it come back empty) and is
  /// looked up again on the next call, so a governor that first runs before
  /// any samples exist still picks the series up once they arrive.
  telemetry::SeriesId series(std::size_t node, std::size_t k);

  /// Node `node`'s frequency knob, resolved on first use. An unknown knob
  /// throws ContractError, exactly as the path lookup does.
  const sim::KnobDef& freq_knob(std::size_t node);

 private:
  std::vector<std::string> leaves_;
  sim::ClusterSimulation* cluster_ = nullptr;
  std::uint64_t cluster_id_ = 0;  // instance_id() the table was built for
  std::vector<telemetry::SeriesId> ids_;  // node-major, leaves_.size() per node
  std::vector<std::size_t> knobs_;        // registry index, or kUnresolved
};

}  // namespace oda::analytics
