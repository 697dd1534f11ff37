#include "layers.hpp"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

std::string layer_of(const oda::obs::TraceEvent& e) {
  // Library spans name their subsystem in the category; the benchmark's own
  // spans around public calls use the module name directly.
  static const std::map<std::string, std::string> kByCategory = {
      {"sim", "sim"},
      {"collector", "telemetry.collector"},
      {"telemetry", "telemetry.collector"},
      {"store", "telemetry.store"},
      {"bus", "telemetry.bus"},
      {"analytics", "analytics"},
      {"net", "net"},
      {"bench", "bench"},
  };
  const auto it = kByCategory.find(e.category);
  return it == kByCategory.end() ? e.category : it->second;
}

void LayerAccount::add_window(const std::vector<oda::obs::TraceEvent>& events,
                              const std::string& root_name) {
  std::unordered_map<std::uint64_t, std::size_t> by_span;
  std::vector<double> self(events.size(), 0.0);
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& e = events[i];
    if (e.kind != oda::obs::TraceEventKind::kSpan) continue;
    by_span.emplace(e.span_id, i);
    self[i] = static_cast<double>(e.dur_us);
  }
  for (const auto& e : events) {
    if (e.kind != oda::obs::TraceEventKind::kSpan || e.parent_id == 0) continue;
    const auto parent = by_span.find(e.parent_id);
    if (parent == by_span.end()) continue;
    if (events[parent->second].tid != e.tid) continue;  // parallel child
    self[parent->second] -= static_cast<double>(e.dur_us);
  }
  // Whether a span runs inside one of the benchmark's operation spans on
  // the same thread (the driving thread), found by walking up its parents.
  const auto under_root = [&](std::size_t i) {
    const std::uint32_t tid = events[i].tid;
    for (int depth = 0; depth < 64; ++depth) {
      const auto& e = events[i];
      if (e.tid != tid) return false;
      if (e.name == root_name) return true;
      const auto parent = by_span.find(e.parent_id);
      if (e.parent_id == 0 || parent == by_span.end()) return false;
      i = parent->second;
    }
    return false;
  };
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& e = events[i];
    if (e.kind != oda::obs::TraceEventKind::kSpan) continue;
    Row& row = rows_[e.name];
    row.layer = layer_of(e);
    ++row.count;
    // Microsecond truncation can leave a parent a hair below its children.
    const double s = std::max(0.0, self[i]);
    row.self_us += s;
    if (under_root(i)) row.main_self_us += s;
    if (e.name == root_name) wall_us_ += static_cast<double>(e.dur_us);
  }
  ++windows_;
}

std::map<std::string, double> LayerAccount::main_shares() const {
  std::map<std::string, double> shares;
  if (wall_us_ <= 0.0) return shares;
  for (const auto& [name, row] : rows_) {
    shares[row.layer] += row.main_self_us / wall_us_;
  }
  return shares;
}

std::string LayerAccount::render() const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof line,
                "self time by span (%llu traced windows, %.1f ms in operations)\n",
                static_cast<unsigned long long>(windows_), wall_us_ / 1e3);
  out += line;
  std::snprintf(line, sizeof line, "  %-24s %-22s %10s %12s %12s\n", "span",
                "layer", "count", "self_ms", "in_op_ms");
  out += line;
  std::vector<std::pair<std::string, Row>> sorted(rows_.begin(), rows_.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.second.self_us > b.second.self_us;
  });
  for (const auto& [name, row] : sorted) {
    std::snprintf(line, sizeof line, "  %-24s %-22s %10llu %12.3f %12.3f\n",
                  name.c_str(), row.layer.c_str(),
                  static_cast<unsigned long long>(row.count),
                  row.self_us / 1e3, row.main_self_us / 1e3);
    out += line;
  }
  out += "operation wall time by layer\n";
  double total = 0.0;
  for (const auto& [layer, share] : main_shares()) {
    std::snprintf(line, sizeof line, "  %-24s %8.2f %%\n", layer.c_str(),
                  100.0 * share);
    out += line;
    total += share;
  }
  std::snprintf(line, sizeof line, "  %-24s %8.2f %%\n", "total",
                100.0 * total);
  out += line;
  return out;
}

}  // namespace perfbench
