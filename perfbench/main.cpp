// End-to-end benchmark of the ODA pipeline: collect telemetry -> store (and
// WAL) -> bus -> analytics -> control, driven only through the library's
// public calls, with one named workload per process (the metrics registry,
// the series interner and the flight recorder are process-global).
//
//   oda_perfbench --workload NAME --seed N --seconds S --trace 0|1 --out DIR
//
// Workloads (see perfbench/README.md for why each exists):
//   pipeline_256   16x16 nodes, thermal placement, cooling + DVFS control,
//                  obs plane on (ObsServer, a self-scrape per tick, one
//                  open-loop /metrics scraper), WAL off.
//   pipeline_4096  256x16 nodes, WAL on (group commit + fsync under DIR),
//                  obs plane off; the run ends with a WAL replay into a
//                  fresh store.
//   dashboard_512  32x16 nodes pre-filled by the pipeline during set-up;
//                  one closed-loop reader refreshes a fixed dashboard panel
//                  set while one open-loop writer appends minute batches.
//
// --trace 0 measures the end-to-end metrics for the whole window. --trace 1
// splits the window: an untraced half yields the per-layer timers and
// registry diffs, a traced half yields per-layer self time from spans the
// benchmark records around each public call (plus the library's own spans)
// and the tracing overhead. The first traced window is written as Chrome
// trace JSON to DIR/trace.json.
//
// Output: every metric by name with its unit, then one JSON line
// {"correct", "attempted", "failed", "metrics"}. Exit code 1 when a
// correctness check fails.
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analytics/descriptive/dashboard.hpp"
#include "analytics/descriptive/kpi.hpp"
#include "analytics/diagnostic/anomaly.hpp"
#include "analytics/prescriptive/controller.hpp"
#include "analytics/prescriptive/cooling.hpp"
#include "analytics/prescriptive/dvfs.hpp"
#include "analytics/prescriptive/placement.hpp"
#include "common/rng.hpp"
#include "common/sync.hpp"
#include "common/thread_pool.hpp"
#include "layers.hpp"
#include "net/obs_server.hpp"
#include "net/self_scrape.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "report.hpp"
#include "scraper.hpp"
#include "sim/cluster.hpp"
#include "telemetry/bus.hpp"
#include "telemetry/collector.hpp"
#include "telemetry/series_id.hpp"
#include "telemetry/store.hpp"
#include "telemetry/wal.hpp"

namespace {

using namespace oda;
using perfbench::CallStats;
using perfbench::Clock;
using perfbench::Distribution;
using perfbench::RegistryDiff;
using perfbench::Report;
using perfbench::seconds_since;

constexpr std::size_t kNodesPerRack = 16;
constexpr Duration kIntervalS = 60;         // node sampling period
constexpr Duration kFullPassS = 300;        // every group due (weather)
// Open-loop /metrics scraper: one scrape per simulated minute, the default
// Prometheus scrape interval and the node sampling period, at pipeline_256's
// measured pace of 1.7-3.0 ms per 60-s interval (perfbench/README.md).
// Fixed in wall time, so runs of a faster pipeline stay comparable.
constexpr double kScrapeHz = 400.0;
constexpr std::size_t kTraceCapacity = 1 << 18;
constexpr std::size_t kReplayCheckSeries = 64;
constexpr double kQueueSlack = 16.0;        // jobs of queue-length noise
// Set-up is repeated at least kMinSetups times and until kSetupBudgetS has
// been spent (at most kMaxSetups), so cheap set-ups get a steadier median.
constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 25;
constexpr double kSetupBudgetS = 1.0;

// Dashboard workload.
constexpr Duration kPrefill = 4 * kHour;
constexpr Duration kShortWindow = 30 * kMinute;
constexpr Duration kLongWindow = 4 * kHour;
// One simulated minute per batch. A refresh takes 8-25 ms on the reference
// host, so nearly every refresh overlaps an insert_batch call and contends
// with the writer for shard locks (perfbench/README.md has the sweep).
constexpr double kWriterBatchesPerS = 100.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") a.workload = val;
    else if (key == "--seed") a.seed = std::stoull(val);
    else if (key == "--seconds") a.seconds = std::stod(val);
    else if (key == "--trace") a.trace = val != "0";
    else if (key == "--out") a.out_dir = val;
    else throw std::invalid_argument("unknown argument " + key);
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  if (a.seconds <= 0.0) throw std::invalid_argument("--seconds must be positive");
  return a;
}

/// A span recorded only while the traced phase runs, so untraced windows
/// pay nothing for the benchmark's own instrumentation (the always-on
/// flight recorder would otherwise record these spans too).
class MaybeSpan {
 public:
  MaybeSpan(bool on, const char* name, const char* category) {
    if (on) span_.emplace(name, category);
  }

 private:
  std::optional<obs::TraceSpan> span_;
};

template <class F>
auto timed(CallStats& stats, bool traced, const char* name,
           const char* category, F&& f) {
  MaybeSpan span(traced, name, category);
  const auto t0 = Clock::now();
  if constexpr (std::is_void_v<decltype(f())>) {
    f();
    stats.add(seconds_since(t0));
  } else {
    auto out = f();
    stats.add(seconds_since(t0));
    return out;
  }
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// ------------------------------------------------------------- pipeline

/// Peak job arrivals per node per hour. Chosen so the scheduler queue stays
/// flat: a growing backlog would make sim.step cost grow with run length and
/// the run non-stationary. At 0.06 some seeds queued dozens of jobs within
/// 200 simulated hours (perfbench/README.md).
constexpr double kJobsPerNodeHour = 0.03;

struct PipelineSpec {
  std::size_t racks = 4;
  /// Ring slots per series, sized to the samples one run retains.
  std::size_t ring_capacity = 4096;
  /// Pool workers; the pipeline thread joins every fan-out as well. Kept
  /// below the core count so the WAL writer, the HTTP reactor or the
  /// dashboard writer has a core of its own.
  std::size_t pool_workers = 2;
  bool wal = false;
  bool obs_plane = false;
};

sim::ClusterParams cluster_params(const PipelineSpec& spec,
                                  std::uint64_t seed) {
  sim::ClusterParams p;
  p.racks = spec.racks;
  p.nodes_per_rack = kNodesPerRack;
  p.seed = seed;
  p.workload.seed = seed;
  p.workload.peak_arrival_rate_per_hour =
      kJobsPerNodeHour * static_cast<double>(spec.racks * kNodesPerRack);
  return p;
}

struct Timers {
  CallStats step, collect, control, scrape;
};

/// The self_monitor pipeline: simulated facility -> collector (pooled
/// reads) -> sharded store (+ WAL) and bus -> control loop, with an
/// optional live obs plane feeding the process's own metrics back in.
class Pipeline {
 public:
  Pipeline(const PipelineSpec& spec, std::uint64_t seed,
           const std::string& wal_dir)
      : cluster(cluster_params(spec, seed)),
        store(spec.ring_capacity),
        pool(spec.pool_workers),
        pool_handles(obs::register_thread_pool(obs::MetricsRegistry::global(),
                                               pool, "bench")),
        collector(cluster, &store, &bus, &pool),
        control(cluster, store),
        selfscrape(store) {
    cluster.scheduler().set_placement(
        analytics::make_thermal_placement(cluster));
    if (spec.wal) {
      wal = std::make_unique<telemetry::Wal>(telemetry::WalOptions{.dir = wal_dir});
      wal->recover_into(store);
      store.set_wal(wal.get());
      if (!wal->start()) throw std::runtime_error("WAL failed to start");
    }
    collector.add_group({"facility", "facility/*", 60});
    collector.add_group({"cluster", "cluster/*", 60});
    collector.add_group({"weather", "weather/*", 300});
    collector.add_group({"nodes", "rack*/node*/*", kIntervalS});
    // The alerting role: a consumer of facility readings on the bus.
    bus.subscribe("facility/*", [this](const telemetry::Reading& r) {
      const auto t0 = Clock::now();
      if (std::isfinite(r.sample.value)) ++facility_readings;
      subscriber_s += seconds_since(t0);
    });
    // Controller periods shape the interval distribution. DVFS acts once per
    // node pass, so every interval carries one scan; at its default 2 minutes
    // half the intervals would, and the median would sit between the two
    // populations. The setpoint move every 6 hours lands in well under 1% of
    // intervals, below every reported percentile.
    analytics::CoolingSetpointOptimizer::Params cooling;
    cooling.period = 6 * kHour;
    analytics::DvfsGovernor::Params dvfs;
    dvfs.period = kIntervalS;
    control.add(std::make_shared<analytics::CoolingSetpointOptimizer>(cooling));
    control.add(std::make_shared<analytics::DvfsGovernor>(dvfs));
    if (spec.obs_plane) {
      server = std::make_unique<net::ObsServer>();
      server->set_store(&store);
      if (!server->start()) throw std::runtime_error("ObsServer failed to start");
    }
  }

  ~Pipeline() {
    if (server) server->stop();
    if (wal) {
      store.set_wal(nullptr);
      wal->stop();
    }
  }

  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  void tick(Timers& t, bool traced) {
    MaybeSpan root(traced, "bench.tick", "bench");
    timed(t.step, traced, "api.step", "sim", [&] { cluster.step(); });
    timed(t.collect, traced, "api.collect", "collector",
          [&] { collector.collect(); });
    timed(t.control, traced, "api.control_tick", "analytics",
          [&] { control.tick(); });
    if (server) {
      timed(t.scrape, traced, "api.scrape_once", "net",
            [&] { selfscrape.scrape_once(cluster.now()); });
    }
  }

  /// Ticks until every collector group has been sampled once: series
  /// creation and ring allocation belong to set-up, not steady state.
  void warm_up() {
    Timers scratch;
    while (cluster.now() < kFullPassS) tick(scratch, false);
  }

  sim::ClusterSimulation cluster;
  telemetry::TimeSeriesStore store;
  std::unique_ptr<telemetry::Wal> wal;
  telemetry::MessageBus bus;
  ThreadPool pool;
  obs::InstrumentationHandles pool_handles;
  telemetry::Collector collector;
  analytics::ControlLoop control;
  net::SelfScrape selfscrape;
  std::unique_ptr<net::ObsServer> server;
  std::uint64_t facility_readings = 0;
  double subscriber_s = 0.0;
};

/// Counters of one pipeline read at a window edge.
struct PipelineCounters {
  std::uint64_t collected = 0, expected = 0, gaps = 0, retries = 0;
  std::uint64_t published = 0, delivered = 0, recorded_spans = 0;
  double subscriber_s = 0.0;

  static PipelineCounters read(const Pipeline& p) {
    PipelineCounters c;
    c.collected = p.collector.samples_collected();
    c.expected = p.collector.samples_expected();
    c.gaps = p.collector.gaps_total();
    c.retries = p.collector.retries_total();
    c.published = p.bus.published_count();
    c.delivered = p.bus.delivered_count();
    c.recorded_spans = obs::FlightRecorder::global().recorded_total();
    c.subscriber_s = p.subscriber_s;
    return c;
  }
};

/// Everything one untraced measurement window produced.
struct PipelineWindow {
  double wall_s = 0.0;
  std::uint64_t ticks = 0;
  std::vector<double> interval_ms;
  Timers timers;
  PipelineCounters begin, end;
  RegistryDiff registry;
  std::size_t queue_mid = 0, queue_end = 0;
  /// Mean queue length over the interval boundaries of each half.
  double queue_mean[2] = {0.0, 0.0};
  std::vector<double> scrape_ms;
  std::uint64_t scrapes = 0, scrapes_failed = 0;
};

PipelineWindow measure_pipeline(Pipeline& p, double seconds) {
  PipelineWindow w;
  std::unique_ptr<perfbench::Scraper> scraper;
  if (p.server) {
    scraper = std::make_unique<perfbench::Scraper>(p.server->port(),
                                                   "/metrics", kScrapeHz);
    scraper->start();
  }
  w.registry.before = obs::MetricsRegistry::global().snapshot();
  w.begin = PipelineCounters::read(p);
  const auto t0 = Clock::now();
  std::optional<Clock::time_point> interval_start;
  bool mid_taken = false;
  double elapsed = 0.0;
  double queue_sum[2] = {0.0, 0.0};
  std::uint64_t queue_n[2] = {0, 0};
  while (elapsed < seconds) {
    p.tick(w.timers, false);
    ++w.ticks;
    if (p.cluster.now() % kIntervalS == 0) {
      // An interval is one node sampling period: the four ticks ending
      // with the one whose collect() ran the node pass.
      const auto now = Clock::now();
      if (interval_start) {
        w.interval_ms.push_back(
            std::chrono::duration<double, std::milli>(now - *interval_start)
                .count());
      }
      interval_start = now;
      const int half = mid_taken ? 1 : 0;
      queue_sum[half] += static_cast<double>(p.cluster.scheduler().queue().size());
      ++queue_n[half];
    }
    elapsed = seconds_since(t0);
    if (!mid_taken && elapsed >= seconds / 2) {
      w.queue_mid = p.cluster.scheduler().queue().size();
      mid_taken = true;
    }
  }
  w.wall_s = seconds_since(t0);
  w.end = PipelineCounters::read(p);
  w.registry.after = obs::MetricsRegistry::global().snapshot();
  w.queue_end = p.cluster.scheduler().queue().size();
  for (int half = 0; half < 2; ++half) {
    w.queue_mean[half] =
        queue_n[half] == 0 ? 0.0 : queue_sum[half] / static_cast<double>(queue_n[half]);
  }
  if (scraper) {
    scraper->stop();
    w.scrape_ms = scraper->latencies_ms();
    w.scrapes = scraper->attempted();
    w.scrapes_failed = scraper->failed();
  }
  return w;
}

/// Traced phase: runs the workload with the tracer on, in windows small
/// enough that the bounded trace buffer never drops a span, and folds each
/// window into `account`. Returns operations per second while traced.
/// The first window is written to `trace_path`.
template <class Op>
double measure_traced(double seconds, const std::string& root_name,
                      const std::string& trace_path,
                      perfbench::LayerAccount& account, Op&& op) {
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.set_capacity(kTraceCapacity);
  double traced_s = 0.0;
  std::uint64_t traced_ops = 0;
  std::size_t max_op_events = 0;
  bool written = false;
  while (traced_s < seconds) {
    tracer.clear();
    tracer.set_enabled(true);
    const auto t0 = Clock::now();
    std::size_t prev = 0;
    std::uint64_t ops = 0;
    while (true) {
      const bool boundary = op();
      ++ops;
      const std::size_t count = tracer.event_count();
      max_op_events = std::max(max_op_events, count - prev);
      prev = count;
      const bool full = count + 2 * max_op_events > kTraceCapacity;
      // The first window (the one written out) ends at the first
      // operation boundary after a few operations, which keeps the
      // exported file small.
      const bool first_done = !written && boundary && ops >= 4;
      if (full || first_done || traced_s + seconds_since(t0) >= seconds) break;
    }
    tracer.set_enabled(false);
    traced_s += seconds_since(t0);
    traced_ops += ops;
    account.add_window(tracer.events(), root_name);
    if (!written) {
      std::ofstream(trace_path) << tracer.to_chrome_json();
      written = true;
    }
  }
  tracer.clear();
  return static_cast<double>(traced_ops) / traced_s;
}

/// Prints the layer shares; returns the share the named modules cover.
/// Pool dispatch, WAL appends and span recording have no spans of their
/// own: their time shows inside the collector, store and every other layer.
double report_layer_shares(Report& r, const perfbench::LayerAccount& account) {
  r.note(account.render());
  double covered = 0.0;
  static const char* kLayers[] = {"sim",           "telemetry.collector",
                                  "telemetry.store", "telemetry.bus",
                                  "analytics",     "net"};
  const auto shares = account.main_shares();
  for (const char* layer : kLayers) {
    const auto it = shares.find(layer);
    const double share = it == shares.end() ? 0.0 : it->second;
    r.layer(std::string("share.") + layer, 100.0 * share, "%");
    covered += share;
  }
  const auto bench = shares.find("bench");
  r.layer("share.bench", bench == shares.end() ? 0.0 : 100.0 * bench->second,
          "%");
  r.layer("share.covered", 100.0 * covered, "%");
  return covered;
}

/// Sets up repeatedly and keeps the last; reports the median set-up time.
/// `prepare(i)` runs before set-up i, outside the clock, once the previous
/// set-up is gone.
template <class Prepare, class Build>
auto repeated_setup(Report& r, Prepare&& prepare, Build&& build) {
  std::vector<double> times;
  double spent = 0.0;
  decltype(build(0)) kept;
  for (int i = 0; i < kMaxSetups; ++i) {
    if (i >= kMinSetups && spent >= kSetupBudgetS) break;
    // Tear down the previous set-up outside the clock and hand its memory
    // back to the OS, so every set-up pays for fresh pages (ring
    // allocation) the way a cold start does, not for a warm free list.
    kept.reset();
    malloc_trim(0);
    prepare(i);
    const auto t0 = Clock::now();
    kept = build(i);
    times.push_back(seconds_since(t0));
    spent += times.back();
  }
  const int setups = static_cast<int>(times.size());
  std::sort(times.begin(), times.end());
  const double median = times[times.size() / 2];
  char line[160];
  std::snprintf(line, sizeof line,
                "setup: %d repetitions, median %.4f s (min %.4f, max %.4f)",
                setups, median, times.front(), times.back());
  r.note(line);
  r.e2e("setup_s", median, "s");
  return kept;
}

void report_tail(Report& r, const std::string& name, const Distribution& d) {
  char line[200];
  std::snprintf(line, sizeof line,
                "%s: p50 %.4f ms, tail p%.1f %.4f ms (%zu samples, %zu beyond)",
                name.c_str(), d.p50, d.tail_pct, d.tail, d.count, d.beyond);
  r.note(line);
}

/// Every per-layer metric with its unit, in report order. Each workload
/// fills in the layers it drives; an idle layer reads 0, so the traced runs
/// of all workloads print the same set.
constexpr std::pair<const char*, const char*> kLayerMetrics[] = {
    {"sim.step_ms", "ms"},
    {"sim.queue_len_mid", "count"},
    {"sim.queue_len_end", "count"},
    {"collector.collect_ms", "ms"},
    {"collector.ns_per_sample", "ns"},
    {"collector.gaps", "count"},
    {"collector.retries", "count"},
    {"pool.task_run_s", "s"},
    {"pool.queue_wait_s", "s"},
    {"pool.chunks", "count"},
    {"store.lock_wait_s", "s"},
    {"store.lock_contended", "count"},
    {"store.frame_ms", "ms"},
    {"store.query_aggregated_ms", "ms"},
    {"store.memory_mb", "MB"},
    {"wal.commit_s", "s"},
    {"wal.commits", "count"},
    {"wal.bytes_per_sample", "B"},
    {"wal.flush_ms", "ms"},
    {"wal.replay_s", "s"},
    {"bus.published", "count"},
    {"bus.delivered_ratio", "ratio"},
    {"bus.subscriber_s", "s"},
    {"control.tick_ms", "ms"},
    {"analytics.system-software.prescriptive_s", "s"},
    {"analytics.building-infrastructure.prescriptive_s", "s"},
    {"analytics.system-hardware.prescriptive_s", "s"},
    {"analytics.building-infrastructure.descriptive_s", "s"},
    {"analytics.system-hardware.diagnostic_s", "s"},
    {"dashboard.anomaly_scan_ms", "ms"},
    {"dashboard.pue_ms", "ms"},
    {"dashboard.writer_late_ms", "ms"},
    {"obs.spans_per_sample", "count"},
    {"obs.tracing_overhead", "ratio"},
    {"selfscrape.scrape_once_ms", "ms"},
    {"net.scrape_ms", "ms"},
};

using LayerValues = std::map<std::string, double>;

void report_layers(Report& r, const LayerValues& values) {
  for (const auto& [name, unit] : kLayerMetrics) {
    const auto it = values.find(name);
    r.layer(name, it == values.end() ? 0.0 : it->second, unit);
  }
  for (const auto& [name, value] : values) {
    const bool declared =
        std::any_of(std::begin(kLayerMetrics), std::end(kLayerMetrics),
                    [&](const auto& m) { return name == m.first; });
    r.check(declared, "per-layer metric " + name + " is declared");
  }
}

/// Per-layer metrics read from the registry diff of a timed window: the
/// pool, shard-lock contention, and the grid cells this benchmark drives
/// (placement and control on the pipelines, the dashboard's PUE and anomaly
/// scan on dashboard_512).
void registry_layers(LayerValues& v, const RegistryDiff& d) {
  const obs::LabelSet pool = {{"pool", "bench"}};
  const obs::LabelSet shard = {{"rank", "store_shard"}};
  v["pool.task_run_s"] = d.hist_sum("oda_pool_task_run_seconds", pool);
  v["pool.queue_wait_s"] = d.hist_sum("oda_pool_task_queue_wait_seconds", pool);
  v["pool.chunks"] = d.counter("oda_pool_parallel_for_chunks_total", pool);
  v["store.lock_wait_s"] = d.hist_sum("oda_lock_wait_seconds", shard);
  v["store.lock_contended"] = d.counter("oda_lock_contended_total", shard);
  static const std::pair<const char*, const char*> kCells[] = {
      {"system-software", "prescriptive"},
      {"building-infrastructure", "prescriptive"},
      {"system-hardware", "prescriptive"},
      {"building-infrastructure", "descriptive"},
      {"system-hardware", "diagnostic"}};
  for (const auto& [pillar, type] : kCells) {
    v[std::string("analytics.") + pillar + "." + type + "_s"] = d.hist_sum(
        "oda_analytics_run_seconds", {{"pillar", pillar}, {"type", type}});
  }
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

std::vector<std::string> sample_paths(const telemetry::TimeSeriesStore& store,
                                      std::size_t n, std::uint64_t seed) {
  std::vector<std::string> all = store.paths();
  Rng rng(seed ^ 0x5eed);
  std::vector<std::string> out;
  for (std::size_t i = 0; i < n && !all.empty(); ++i) {
    const std::size_t j = rng.uniform_int(0, static_cast<int>(all.size()) - 1);
    out.push_back(all[j]);
  }
  return out;
}

int run_pipeline(const Args& args, const PipelineSpec& spec) {
  Report r;
  const std::string wal_root = args.out_dir + "/wal";
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  double store_bytes_before = 0.0;

  auto p = repeated_setup(
      r,
      [&](int) {
        std::filesystem::remove_all(wal_root);
        store_bytes_before = registry.snapshot().total("oda_store_memory_bytes");
      },
      [&](int i) {
        auto built = std::make_unique<Pipeline>(
            spec, args.seed, wal_root + "/setup-" + std::to_string(i));
        built->warm_up();
        return built;
      });

  const double measured_s = args.trace ? args.seconds / 2 : args.seconds;
  const PipelineWindow w = measure_pipeline(*p, measured_s);
  const double ticks_per_s = static_cast<double>(w.ticks) / w.wall_s;
  const std::uint64_t samples = w.end.collected - w.begin.collected;
  const Distribution intervals = perfbench::distribution(w.interval_ms);
  report_tail(r, "interval", intervals);

  // -- stationarity: the scheduler backlog must not grow over the run.
  char line[200];
  std::snprintf(line, sizeof line,
                "scheduler queue: %zu jobs at mid-run, %zu at end; mean %.2f in "
                "the first half, %.2f in the second",
                w.queue_mid, w.queue_end, w.queue_mean[0], w.queue_mean[1]);
  r.note(line);
  // Half means rather than the two snapshots: a diurnal burst that happens
  // to straddle the end of the run is not a growing backlog.
  r.check(w.queue_mean[1] <= 2.0 * w.queue_mean[0] + kQueueSlack,
          "scheduler backlog does not grow over the run");

  // -- correctness: collector conservation and fan-out accounting.
  const auto& c = p->collector;
  r.check(c.samples_expected() == c.samples_collected() + c.gaps_total(),
          "collector conservation: expected == collected + gaps");
  r.check(p->store.total_inserted() ==
              c.samples_collected() + p->selfscrape.samples_ingested(),
          "store total_inserted == samples collected (+ self-scrape)");
  r.check(p->bus.published_count() == c.samples_collected(),
          "bus published == samples collected");
  r.ops(c.samples_expected(), c.gaps_total());
  if (p->server) {
    const Distribution scrapes = perfbench::distribution(w.scrape_ms);
    std::snprintf(line, sizeof line,
                  "scraper: %llu scrapes (%.1f/s offered), p50 %.4f ms from due",
                  static_cast<unsigned long long>(w.scrapes), kScrapeHz,
                  scrapes.p50);
    r.note(line);
    r.check(w.scrapes > 0, "open-loop scraper ran");
    r.check(w.scrapes_failed == 0, "every /metrics scrape returned 200");
    r.ops(w.scrapes, w.scrapes_failed);
  }

  // -- traced phase (per-layer self time and tracing overhead).
  std::optional<perfbench::LayerAccount> account;
  double traced_ticks_per_s = 0.0;
  if (args.trace) {
    account.emplace();
    Timers scratch;
    std::unique_ptr<perfbench::Scraper> scraper;
    if (p->server) {
      scraper = std::make_unique<perfbench::Scraper>(p->server->port(),
                                                     "/metrics", kScrapeHz);
      scraper->start();
    }
    traced_ticks_per_s = measure_traced(
        args.seconds - measured_s, "bench.tick", args.out_dir + "/trace.json",
        *account, [&] {
          p->tick(scratch, true);
          return p->cluster.now() % kIntervalS == 0;
        });
    if (scraper) {
      scraper->stop();
      r.check(scraper->failed() == 0, "every traced-phase scrape returned 200");
      r.ops(scraper->attempted(), scraper->failed());
    }
  }
  const double store_mb =
      (registry.snapshot().total("oda_store_memory_bytes") - store_bytes_before) /
      1e6;
  // Read before the WAL replay, whose buffer grows with the samples the run
  // committed: peak RSS covers set-up and the steady-state window only.
  const double peak_rss_mb = perfbench::peak_rss_mb();

  // -- WAL: flush, conservation, replay into a fresh store, bit identity.
  double flush_ms = 0.0, recovery_s = 0.0;
  if (p->wal) {
    CallStats flush;
    const bool flushed =
        timed(flush, false, "api.wal_flush", "wal", [&] { return p->wal->flush(); });
    flush_ms = flush.mean_ms();
    telemetry::Wal& wal = *p->wal;
    r.check(flushed, "WAL flush succeeded");
    r.check(wal.accepted_samples() ==
                wal.committed_samples() + wal.lost_samples(),
            "WAL accepted == committed + lost");
    r.check(wal.lost_samples() == 0, "WAL lost no samples");
    r.check(wal.accepted_samples() == p->store.total_inserted(),
            "WAL accepted every stored sample");
    r.ops(wal.accepted_samples(), wal.lost_samples());
    const std::string dir = wal.options().dir;
    p->store.set_wal(nullptr);
    wal.stop();

    telemetry::TimeSeriesStore replayed(spec.ring_capacity);
    telemetry::Wal replay(telemetry::WalOptions{.dir = dir});
    const auto t0 = Clock::now();
    const auto stats = replay.recover_into(replayed);
    recovery_s = seconds_since(t0);
    std::snprintf(line, sizeof line,
                  "wal replay: %llu samples from %llu segments in %.4f s",
                  static_cast<unsigned long long>(stats.samples_replayed),
                  static_cast<unsigned long long>(stats.segments_scanned),
                  recovery_s);
    r.note(line);
    r.check(stats.samples_replayed == wal.committed_samples(),
            "replayed samples == committed samples");
    r.check(!stats.tail_truncated, "replay found no torn tail");
    bool identical = true;
    for (const auto& path : sample_paths(p->store, kReplayCheckSeries, args.seed)) {
      const auto live = p->store.query_all(path);
      const auto back = replayed.query_all(path);
      identical = identical && live.times == back.times &&
                  same_bits(live.values, back.values) && !live.empty();
    }
    r.check(identical, "replayed store is bit-identical on sampled series");
  }

  // -- end-to-end metrics.
  const double samples_per_s = static_cast<double>(samples) / w.wall_s;
  r.e2e("ops_per_s", ticks_per_s, "1/s");
  r.e2e("samples_per_s", samples_per_s, "1/s");
  r.e2e("op_p50_ms", intervals.p50, "ms");
  r.e2e("op_tail_ms", intervals.tail, "ms");
  r.e2e("peak_rss_mb", peak_rss_mb, "MB");
  r.e2e("success_rate", 1.0 - r.error_rate(), "ratio");
  std::snprintf(line, sizeof line,
                "ticks_per_s %.3f, samples_per_s %.1f over %.3f s (%llu ticks)",
                ticks_per_s, samples_per_s, w.wall_s,
                static_cast<unsigned long long>(w.ticks));
  r.note(line);
  std::snprintf(line, sizeof line,
                "interval_p50_ms %.4f, interval_tail_ms %.4f (p%.1f), "
                "recovery_s %.4f",
                intervals.p50, intervals.tail, intervals.tail_pct, recovery_s);
  r.note(line);

  // -- per-layer metrics (untraced window).
  const RegistryDiff& d = w.registry;
  const auto delta = [](std::uint64_t end, std::uint64_t begin) {
    return static_cast<double>(end - begin);
  };
  LayerValues v;
  registry_layers(v, d);
  v["sim.step_ms"] = w.timers.step.mean_ms();
  v["sim.queue_len_mid"] = static_cast<double>(w.queue_mid);
  v["sim.queue_len_end"] = static_cast<double>(w.queue_end);
  v["collector.collect_ms"] = w.timers.collect.mean_ms();
  v["collector.ns_per_sample"] =
      ratio(1e9 * w.timers.collect.total_s, static_cast<double>(samples));
  v["collector.gaps"] = delta(w.end.gaps, w.begin.gaps);
  v["collector.retries"] = delta(w.end.retries, w.begin.retries);
  v["store.memory_mb"] = store_mb;
  v["wal.commit_s"] = d.hist_sum("oda_wal_commit_seconds");
  v["wal.commits"] = d.counter("oda_wal_commits_total");
  v["wal.bytes_per_sample"] = ratio(d.counter("oda_wal_bytes_written_total"),
                                    d.counter("oda_wal_committed_samples_total"));
  v["wal.flush_ms"] = flush_ms;
  v["wal.replay_s"] = recovery_s;
  v["bus.published"] = delta(w.end.published, w.begin.published);
  v["bus.delivered_ratio"] = ratio(delta(w.end.delivered, w.begin.delivered),
                                   v["bus.published"]);
  v["bus.subscriber_s"] = w.end.subscriber_s - w.begin.subscriber_s;
  v["control.tick_ms"] = w.timers.control.mean_ms();
  v["obs.spans_per_sample"] =
      ratio(delta(w.end.recorded_spans, w.begin.recorded_spans),
            static_cast<double>(samples));
  v["obs.tracing_overhead"] =
      traced_ticks_per_s > 0.0 ? ticks_per_s / traced_ticks_per_s - 1.0 : 0.0;
  v["selfscrape.scrape_once_ms"] = w.timers.scrape.mean_ms();
  v["net.scrape_ms"] = perfbench::distribution(w.scrape_ms).p50;
  report_layers(r, v);
  if (account) {
    // The layer split is only useful if the modules account for nearly all
    // of the pipeline thread's wall time.
    r.check(report_layer_shares(r, *account) >= 0.9,
            "layer shares cover at least 90% of traced wall time");
  }

  p.reset();
  std::filesystem::remove_all(wal_root);
  r.check(r.attempted() > 0, "at least one operation attempted");
  r.print(args.trace);
  return r.correct() ? 0 : 1;
}

// ------------------------------------------------------------ dashboard

/// Reference reads: a left fold over the raw samples query() returns,
/// bucketed exactly like the store's kernels (bucket k covers
/// [from + k*bucket, from + (k+1)*bucket)).
struct Fold {
  std::size_t n = 0;
  double sum = 0.0;
  double max = 0.0;
  void add(double v) {
    if (n == 0 || max < v) max = v;
    sum += v;
    ++n;
  }
  double result(telemetry::Aggregation agg) const {
    if (n == 0) return std::nan("");
    return agg == telemetry::Aggregation::kMax ? max
                                               : sum / static_cast<double>(n);
  }
};

std::vector<Fold> fold_buckets(const telemetry::SeriesSlice& raw,
                               TimePoint from, TimePoint to, Duration bucket) {
  std::vector<Fold> folds(static_cast<std::size_t>((to - from + bucket - 1) / bucket));
  for (std::size_t i = 0; i < raw.size(); ++i) {
    folds[static_cast<std::size_t>((raw.times[i] - from) / bucket)].add(
        raw.values[i]);
  }
  return folds;
}

/// The checks below add the raw samples each read aggregated to `samples`.
bool frame_matches(const telemetry::Frame& f,
                   const telemetry::TimeSeriesStore& store,
                   const std::vector<telemetry::SeriesId>& ids, TimePoint from,
                   TimePoint to, Duration bucket, telemetry::Aggregation agg,
                   std::uint64_t& samples) {
  if (f.cols() != ids.size()) return false;
  for (std::size_t c = 0; c < ids.size(); ++c) {
    const auto raw = store.query(ids[c], from, to);
    samples += raw.size();
    const auto folds = fold_buckets(raw, from, to, bucket);
    if (folds.size() != f.rows()) return false;
    std::vector<double> expect(folds.size());
    for (std::size_t k = 0; k < folds.size(); ++k) expect[k] = folds[k].result(agg);
    const auto got = f.column_values(c);
    if (std::memcmp(got.data(), expect.data(), expect.size() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

bool aggregated_matches(const telemetry::SeriesSlice& got,
                        const telemetry::TimeSeriesStore& store,
                        telemetry::SeriesId id, TimePoint from, TimePoint to,
                        Duration bucket, std::uint64_t& samples) {
  const auto raw = store.query(id, from, to);
  samples += raw.size();
  const auto folds = fold_buckets(raw, from, to, bucket);
  telemetry::SeriesSlice expect;
  for (std::size_t k = 0; k < folds.size(); ++k) {
    if (folds[k].n == 0) continue;
    expect.times.push_back(from + static_cast<TimePoint>(k) * bucket);
    expect.values.push_back(folds[k].result(telemetry::Aggregation::kMean));
  }
  return got.times == expect.times && same_bits(got.values, expect.values);
}

/// Set-up state of dashboard_512: a pre-filled store behind a pipeline
/// that stays idle during measurement, and a trained anomaly monitor.
struct Dashboard {
  std::unique_ptr<Pipeline> pipe;
  std::unique_ptr<analytics::NodeAnomalyMonitor> monitor;
  std::vector<std::string> power_paths, node_paths;
  std::vector<telemetry::SeriesId> power_ids, node_ids, all_ids;
  std::vector<double> last_values;
  telemetry::SeriesId total_power;
};

std::unique_ptr<Dashboard> build_dashboard(const PipelineSpec& spec,
                                           std::uint64_t seed) {
  auto d = std::make_unique<Dashboard>();
  d->pipe = std::make_unique<Pipeline>(spec, seed, "");
  Timers scratch;
  while (d->pipe->cluster.now() < kPrefill) d->pipe->tick(scratch, false);
  auto& interner = telemetry::SeriesInterner::global();
  std::vector<std::string> prefixes;
  for (std::size_t i = 0; i < d->pipe->cluster.node_count(); ++i) {
    const std::string prefix = d->pipe->cluster.node(i).path();
    prefixes.push_back(prefix);
    d->power_paths.push_back(prefix + "/power");
  }
  d->node_paths = d->pipe->store.match("rack*/node*/*");
  for (const auto& path : d->power_paths) d->power_ids.push_back(*interner.lookup(path));
  for (const auto& path : d->node_paths) d->node_ids.push_back(*interner.lookup(path));
  d->total_power = *interner.lookup("facility/total_power");
  for (const auto& path : d->pipe->store.paths()) {
    const auto id = *interner.lookup(path);
    d->all_ids.push_back(id);
    d->last_values.push_back(d->pipe->store.latest(id)->value);
  }
  Rng rng(seed);
  d->monitor = std::make_unique<analytics::NodeAnomalyMonitor>(
      analytics::NodeAnomalyMonitor::Params{}, prefixes);
  d->monitor->train(d->pipe->store, kHour, kPrefill, rng);
  d->pipe->store.set_pool(&d->pipe->pool);
  return d;
}

/// Open-loop writer: appends one simulated minute for every series at a
/// fixed rate, each value its series' last pre-filled reading with 0.5%
/// seeded noise (no drift, so KPIs over the window stay physical). Each
/// batch is timed from when it was due.
class MinuteWriter {
 public:
  MinuteWriter(Dashboard& d, std::uint64_t seed)
      : d_(d), rng_(seed ^ 0x3717e5) {}
  ~MinuteWriter() { stop(); }
  MinuteWriter(const MinuteWriter&) = delete;
  MinuteWriter& operator=(const MinuteWriter&) = delete;

  void start() {
    thread_ = std::thread([this] {
      try {
        run();
      } catch (const std::exception& e) {
        MutexLock lock(mu_);
        totals_.error = e.what();
      }
    });
  }
  void stop() {
    // relaxed: a stop request only; join() publishes the writer's results.
    stop_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) thread_.join();
  }
  /// Exclusive end of the data the writer has fully inserted.
  /// acquire: pairs with the writer's release after each insert_batch, so
  /// a reader reads only minutes that are fully in the store.
  TimePoint committed_until() const {
    return until_.load(std::memory_order_acquire);
  }

  struct Totals {
    std::vector<double> late_ms;  // due time to batch inserted
    std::uint64_t batches = 0;
    std::uint64_t samples = 0;
    std::string error;  // why the writer stopped early, if it did
  };
  /// What the writer has done so far; safe to call while it runs.
  Totals totals() const {
    MutexLock lock(mu_);
    return totals_;
  }

 private:
  void run() {
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / kWriterBatchesPerS));
    std::vector<telemetry::IdReading> batch(d_.all_ids.size());
    TimePoint t = until_.load(std::memory_order_relaxed);  // own value
    auto due = Clock::now();
    while (!stop_.load(std::memory_order_relaxed)) {
      for (std::size_t i = 0; i < batch.size(); ++i) {
        const double base = d_.last_values[i];
        batch[i] = {d_.all_ids[i],
                    {t, base + rng_.normal(0.0, 0.005 * std::fabs(base))}};
      }
      std::this_thread::sleep_until(due);
      if (stop_.load(std::memory_order_relaxed)) break;
      d_.pipe->store.insert_batch(batch);
      const double late =
          std::chrono::duration<double, std::milli>(Clock::now() - due).count();
      {
        MutexLock lock(mu_);
        totals_.late_ms.push_back(late);
        ++totals_.batches;
        totals_.samples += batch.size();
      }
      t += kMinute;
      until_.store(t, std::memory_order_release);
      due += period;
    }
  }

  Dashboard& d_;
  Rng rng_;
  // The pre-fill's last pass sampled at t == kPrefill; appends start one
  // minute later.
  std::atomic<TimePoint> until_{kPrefill + kMinute};
  std::atomic<bool> stop_{false};
  mutable Mutex mu_;
  Totals totals_ ODA_GUARDED_BY(mu_);
  std::thread thread_;
};

struct RefreshTimers {
  CallStats frame, query_aggregated, pue, dashboard, scan;
  /// Raw samples the frames and query_aggregated reads aggregated.
  std::uint64_t samples_read = 0;
};

/// One dashboard refresh over data ending at `to`; returns whether every
/// read matched its reference (the checks run outside the timers).
bool refresh(Dashboard& d, TimePoint to, RefreshTimers& t, bool traced,
             std::vector<double>* refresh_ms) {
  const auto& store = d.pipe->store;
  const TimePoint short_from = to - kShortWindow;
  const TimePoint long_from = to - kLongWindow;
  const auto t0 = Clock::now();
  telemetry::Frame wide_short, wide_long;
  telemetry::SeriesSlice power;
  analytics::PueReport pue;
  std::string text;
  std::vector<analytics::AnomalyVerdict> verdicts;
  {
    MaybeSpan root(traced, "bench.refresh", "bench");
    wide_short = timed(t.frame, traced, "api.frame", "store", [&] {
      return store.frame(d.power_paths, short_from, to, kMinute,
                         telemetry::Aggregation::kMean);
    });
    wide_long = timed(t.frame, traced, "api.frame", "store", [&] {
      return store.frame(d.node_paths, long_from, to, 5 * kMinute,
                         telemetry::Aggregation::kMax);
    });
    power = timed(t.query_aggregated, traced, "api.query_aggregated", "store", [&] {
      return store.query_aggregated(d.total_power, long_from, to, kMinute,
                                    telemetry::Aggregation::kMean);
    });
    pue = timed(t.pue, traced, "api.compute_pue", "analytics",
                [&] { return analytics::compute_pue(store, long_from, to); });
    text = timed(t.dashboard, traced, "api.facility_dashboard", "analytics",
                 [&] { return analytics::facility_dashboard(store, long_from, to); });
    verdicts = timed(t.scan, traced, "api.anomaly_scan", "analytics",
                     [&] { return d.monitor->scan(store, to); });
  }
  if (refresh_ms != nullptr) refresh_ms->push_back(1e3 * seconds_since(t0));

  MaybeSpan verify(traced, "bench.verify", "bench");
  return frame_matches(wide_short, store, d.power_ids, short_from, to, kMinute,
                       telemetry::Aggregation::kMean, t.samples_read) &&
         frame_matches(wide_long, store, d.node_ids, long_from, to, 5 * kMinute,
                       telemetry::Aggregation::kMax, t.samples_read) &&
         aggregated_matches(power, store, d.total_power, long_from, to, kMinute,
                            t.samples_read) &&
         !power.empty() && std::isfinite(pue.pue) && pue.pue > 1.0 &&
         !text.empty() && verdicts.size() == d.power_paths.size();
}

int run_dashboard(const Args& args, const PipelineSpec& spec) {
  Report r;
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  double store_bytes_before = 0.0;
  auto d = repeated_setup(
      r,
      [&](int) {
        store_bytes_before = registry.snapshot().total("oda_store_memory_bytes");
      },
      [&](int) { return build_dashboard(spec, args.seed); });

  const double measured_s = args.trace ? args.seconds / 2 : args.seconds;
  RefreshTimers t;
  std::vector<double> refresh_ms;
  std::uint64_t refreshes = 0, refresh_failed = 0;
  MinuteWriter writer(*d, args.seed);
  RegistryDiff diff;
  diff.before = registry.snapshot();
  const std::uint64_t spans0 = obs::FlightRecorder::global().recorded_total();
  writer.start();
  const auto t0 = Clock::now();
  while (seconds_since(t0) < measured_s) {
    ++refreshes;
    if (!refresh(*d, writer.committed_until(), t, false, &refresh_ms)) {
      ++refresh_failed;
    }
  }
  const double wall_s = seconds_since(t0);
  const std::uint64_t spans1 = obs::FlightRecorder::global().recorded_total();
  diff.after = registry.snapshot();
  const MinuteWriter::Totals window = writer.totals();
  const std::uint64_t written0 = window.samples;
  const double writer_samples_per_s = static_cast<double>(written0) / wall_s;
  const auto late = perfbench::distribution(window.late_ms);

  std::optional<perfbench::LayerAccount> account;
  double traced_per_s = 0.0;
  if (args.trace) {
    account.emplace();
    RefreshTimers scratch;
    traced_per_s = measure_traced(
        args.seconds - measured_s, "bench.refresh", args.out_dir + "/trace.json",
        *account, [&] {
          ++refreshes;
          if (!refresh(*d, writer.committed_until(), scratch, true, nullptr)) {
            ++refresh_failed;
          }
          return true;
        });
  }
  writer.stop();
  const MinuteWriter::Totals written = writer.totals();
  const double store_mb =
      (registry.snapshot().total("oda_store_memory_bytes") - store_bytes_before) /
      1e6;

  r.check(refresh_failed == 0, "every dashboard read equals its reference fold");
  r.check(written.batches > 0 && written.error.empty(),
          "open-loop writer appended batches" +
              (written.error.empty() ? "" : ": " + written.error));
  r.check(d->pipe->store.total_inserted() ==
              d->pipe->collector.samples_collected() + written.samples,
          "store total_inserted == collected + appended");
  r.ops(refreshes, refresh_failed);
  r.ops(written.batches, 0);

  const Distribution rd = perfbench::distribution(refresh_ms);
  report_tail(r, "refresh", rd);
  report_tail(r, "writer lateness", late);
  // Refreshes per second of reader time: the reference checks between
  // refreshes are the benchmark's work, not the dashboard's.
  double reader_s = 0.0;
  for (const double ms : refresh_ms) reader_s += ms / 1e3;
  const double refresh_per_s = static_cast<double>(rd.count) / reader_s;
  // Raw samples the dashboard's frames and query_aggregated read per second
  // of reader time: a rate the read path sets. The writer's rate is offered
  // load, fixed by kWriterBatchesPerS, and is only printed.
  const double read_samples_per_s = static_cast<double>(t.samples_read) / reader_s;
  r.e2e("ops_per_s", refresh_per_s, "1/s");
  r.e2e("samples_per_s", read_samples_per_s, "1/s");
  r.e2e("op_p50_ms", rd.p50, "ms");
  r.e2e("op_tail_ms", rd.tail, "ms");
  r.e2e("peak_rss_mb", perfbench::peak_rss_mb(), "MB");
  r.e2e("success_rate", 1.0 - r.error_rate(), "ratio");
  char line[200];
  std::snprintf(line, sizeof line,
                "refresh_p50_ms %.4f, refresh_tail_ms %.4f (p%.1f); %.3f "
                "refreshes/s, reader %.1f samples/s; writer offered %.1f, "
                "achieved %.1f samples/s",
                rd.p50, rd.tail, rd.tail_pct, refresh_per_s, read_samples_per_s,
                kWriterBatchesPerS * static_cast<double>(d->all_ids.size()),
                writer_samples_per_s);
  r.note(line);

  // Per-layer metrics: sim, collector, WAL, bus and net are idle here.
  LayerValues v;
  registry_layers(v, diff);
  v["store.frame_ms"] = t.frame.mean_ms();
  v["store.query_aggregated_ms"] = t.query_aggregated.mean_ms();
  v["store.memory_mb"] = store_mb;
  v["bus.published"] = diff.counter("oda_bus_published_total");
  v["dashboard.anomaly_scan_ms"] = t.scan.mean_ms();
  v["dashboard.pue_ms"] = t.pue.mean_ms();
  v["dashboard.writer_late_ms"] = late.tail;
  v["obs.spans_per_sample"] = ratio(static_cast<double>(spans1 - spans0),
                                    static_cast<double>(written0));
  // Both rates count the reference checks' time, like measure_traced does.
  v["obs.tracing_overhead"] =
      traced_per_s > 0.0
          ? static_cast<double>(rd.count) / wall_s / traced_per_s - 1.0
          : 0.0;
  report_layers(r, v);
  if (account) report_layer_shares(r, *account);

  d.reset();
  r.print(args.trace);
  return r.correct() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    std::filesystem::create_directories(args.out_dir);
    const auto lock_handles =
        obs::register_lock_contention(obs::MetricsRegistry::global());
    if (args.workload == "pipeline_256") {
      // 256 rather than self_monitor's 64 nodes: a 64-node tick takes a
      // fifth of a millisecond, and on a shared host its rate moved by a
      // third between runs. One worker: the node pass is 2560 reads.
      return run_pipeline(args, {.racks = 16, .ring_capacity = 2048,
                                 .pool_workers = 1, .obs_plane = true});
    }
    if (args.workload == "pipeline_4096") {
      return run_pipeline(args, {.racks = 256, .ring_capacity = 256, .wal = true});
    }
    if (args.workload == "dashboard_512") {
      return run_dashboard(args, {.racks = 32, .ring_capacity = 1024});
    }
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "oda_perfbench: %s\n", e.what());
    return 2;
  }
}
