#include "analytics/prescriptive/node_handles.hpp"

#include <limits>
#include <utility>

namespace oda::analytics {

namespace {
constexpr std::size_t kUnresolved = std::numeric_limits<std::size_t>::max();
}  // namespace

NodeHandles::NodeHandles(std::vector<std::string> leaves)
    : leaves_(std::move(leaves)) {}

void NodeHandles::bind(sim::ClusterSimulation& cluster) {
  cluster_ = &cluster;
  if (cluster_id_ == cluster.instance_id()) return;
  cluster_id_ = cluster.instance_id();
  ids_.assign(cluster.node_count() * leaves_.size(), telemetry::SeriesId{});
  knobs_.assign(cluster.node_count(), kUnresolved);
}

telemetry::SeriesId NodeHandles::series(std::size_t node, std::size_t k) {
  telemetry::SeriesId& id = ids_[node * leaves_.size() + k];
  if (!id.valid()) {
    const auto found = telemetry::SeriesInterner::global().lookup(
        cluster_->node(node).path() + "/" + leaves_[k]);
    if (found) id = *found;
  }
  return id;
}

const sim::KnobDef& NodeHandles::freq_knob(std::size_t node) {
  std::size_t& index = knobs_[node];
  if (index == kUnresolved) {
    index = cluster_->knobs().index_of(cluster_->node(node).path() +
                                       "/freq_setpoint");
  }
  return cluster_->knobs().at(index);
}

}  // namespace oda::analytics
