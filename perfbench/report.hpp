// Result bookkeeping for the end-to-end benchmark: latency statistics, call
// timers, metric-registry diffs, correctness checks and the final report
// (human-readable lines plus the one-line JSON result).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median and tail of a set of timings. The tail is the highest percentile
/// of a fixed ladder (90, 50) that leaves at least ten samples beyond it, so
/// a short run never reports a maximum as its tail. The ladder stops at p90:
/// on a shared host, the p99 of pipeline_256's 3-ms intervals is set by
/// host stalls of a few milliseconds and spread 30-65% between runs, beyond
/// any bound, while its p90 spread about 5% (perfbench/README.md).
struct Distribution {
  double p50 = 0.0;
  double tail = 0.0;
  double tail_pct = 0.0;
  std::size_t count = 0;
  std::size_t beyond = 0;  // samples above the tail percentile
};
Distribution distribution(std::vector<double> values);

/// Wall time spent inside one public call, summed over the timed window.
struct CallStats {
  double total_s = 0.0;
  std::uint64_t calls = 0;
  void add(double s) {
    total_s += s;
    ++calls;
  }
  double mean_ms() const { return calls == 0 ? 0.0 : 1e3 * total_s / calls; }
};

/// Sum of the counter/gauge series of `name` whose labels include `want`.
double counter_sum(const oda::obs::MetricsSnapshot& snap,
                   const std::string& name, const oda::obs::LabelSet& want = {});
/// Sum and count over the histogram series of `name` matching `want`.
struct HistTotals {
  double sum = 0.0;
  std::uint64_t count = 0;
};
HistTotals hist_totals(const oda::obs::MetricsSnapshot& snap,
                       const std::string& name,
                       const oda::obs::LabelSet& want = {});

/// Registry diff over a timed window: `before` is taken when the window
/// opens, the accessors read `after - before`.
struct RegistryDiff {
  oda::obs::MetricsSnapshot before;
  oda::obs::MetricsSnapshot after;
  double counter(const std::string& name,
                 const oda::obs::LabelSet& want = {}) const {
    return counter_sum(after, name, want) - counter_sum(before, name, want);
  }
  double hist_sum(const std::string& name,
                  const oda::obs::LabelSet& want = {}) const {
    return hist_totals(after, name, want).sum -
           hist_totals(before, name, want).sum;
  }
};

/// Peak resident set size of this process, in MB.
double peak_rss_mb();

class Report {
 public:
  /// An end-to-end metric (printed in the JSON line of an untraced run).
  void e2e(const std::string& name, double value, const std::string& unit);
  /// A per-layer metric (printed in the JSON line of a traced run).
  void layer(const std::string& name, double value, const std::string& unit);
  /// A human-readable line only (context such as sample counts).
  void note(const std::string& line);

  /// Records a correctness check; a failed check fails the run.
  void check(bool ok, const std::string& what);
  /// Counts operations for error_rate and the JSON attempted/failed fields.
  void ops(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  bool correct() const { return correct_; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  double error_rate() const {
    return attempted_ == 0 ? 0.0
                           : static_cast<double>(failed_) /
                                 static_cast<double>(attempted_);
  }

  /// Prints every metric by name with its unit, then the JSON result line
  /// carrying the end-to-end set (traced == false) or the per-layer set.
  void print(bool traced) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> e2e_;
  std::vector<Metric> layer_;
  std::vector<std::string> notes_;
  std::vector<std::string> failures_;
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

}  // namespace perfbench
