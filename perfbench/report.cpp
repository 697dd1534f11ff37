#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

bool labels_match(const oda::obs::LabelSet& have,
                  const oda::obs::LabelSet& want) {
  for (const auto& w : want) {
    if (std::find(have.begin(), have.end(), w) == have.end()) return false;
  }
  return true;
}

// Nearest-rank quantile over sorted values.
double quantile_sorted(const std::vector<double>& v, double q) {
  const auto n = v.size();
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return v[rank - 1];
}

void print_metric(const char* kind, const std::string& name, double value,
                  const std::string& unit) {
  std::printf("%-6s %-44s %16.6f %s\n", kind, name.c_str(), value,
              unit.c_str());
}

void print_json_metrics(const char* sep_first, const std::string& name,
                        double value, const std::string& unit) {
  std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep_first,
              name.c_str(), value, unit.c_str());
}

}  // namespace

Distribution distribution(std::vector<double> values) {
  Distribution d;
  d.count = values.size();
  if (values.empty()) return d;
  std::sort(values.begin(), values.end());
  d.p50 = quantile_sorted(values, 0.5);
  for (const double pct : {90.0, 50.0}) {
    const double q = pct / 100.0;
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    const std::size_t beyond = values.size() - std::max<std::size_t>(rank, 1);
    if (beyond >= 10 || pct == 50.0) {
      d.tail = quantile_sorted(values, q);
      d.tail_pct = pct;
      d.beyond = beyond;
      break;
    }
  }
  return d;
}

double counter_sum(const oda::obs::MetricsSnapshot& snap,
                   const std::string& name, const oda::obs::LabelSet& want) {
  const oda::obs::MetricFamily* f = snap.find(name);
  if (f == nullptr) return 0.0;
  double sum = 0.0;
  for (const auto& v : f->values) {
    if (labels_match(v.labels, want)) sum += v.value;
  }
  return sum;
}

HistTotals hist_totals(const oda::obs::MetricsSnapshot& snap,
                       const std::string& name,
                       const oda::obs::LabelSet& want) {
  HistTotals t;
  const oda::obs::MetricFamily* f = snap.find(name);
  if (f == nullptr) return t;
  for (const auto& h : f->histograms) {
    if (!labels_match(h.labels, want)) continue;
    t.sum += h.sum;
    t.count += h.count;
  }
  return t;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void Report::e2e(const std::string& name, double value,
                 const std::string& unit) {
  check(std::isfinite(value), "end-to-end metric " + name + " is finite");
  e2e_.push_back({name, value, unit});
}

void Report::layer(const std::string& name, double value,
                   const std::string& unit) {
  check(std::isfinite(value), "per-layer metric " + name + " is finite");
  layer_.push_back({name, value, unit});
}

void Report::note(const std::string& line) { notes_.push_back(line); }

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  correct_ = false;
  failures_.push_back(what);
}

void Report::print(bool traced) const {
  for (const auto& n : notes_) std::printf("%s\n", n.c_str());
  for (const auto& m : e2e_) print_metric("e2e", m.name, m.value, m.unit);
  for (const auto& m : layer_) print_metric("layer", m.name, m.value, m.unit);
  std::printf("%-6s %-44s %16.6f ratio\n", "e2e", "error_rate", error_rate());
  for (const auto& f : failures_) std::printf("CHECK FAILED: %s\n", f.c_str());
  std::printf("correctness: %s\n", correct_ ? "all checks passed" : "FAILED");

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct_ ? "true" : "false",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  const auto& set = traced ? layer_ : e2e_;
  const char* sep = "";
  for (const auto& m : set) {
    print_json_metrics(sep, m.name, m.value, m.unit);
    sep = ", ";
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
