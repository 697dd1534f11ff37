// Experiment P1 (DESIGN.md): telemetry-pipeline microbenchmarks — the
// infrastructure costs behind every ODA deployment: bus publish fan-out,
// store insert/query/aggregate, full collector passes, and simulator step
// cost at several machine sizes.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench_util.hpp"

#include "common/rng.hpp"
#include "common/sync.hpp"
#include "obs/profiler.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "sim/cluster.hpp"
#include "telemetry/bus.hpp"
#include "telemetry/collector.hpp"
#include "telemetry/store.hpp"

namespace {

using namespace oda;

void BM_BusPublish(benchmark::State& state) {
  telemetry::MessageBus bus;
  const auto subscribers = state.range(0);
  std::size_t delivered = 0;
  for (std::int64_t i = 0; i < subscribers; ++i) {
    bus.subscribe(i % 2 ? "rack*/node*/power" : "*",
                  [&delivered](const telemetry::Reading&) { ++delivered; });
  }
  std::int64_t t = 0;
  for (auto _ : state) {
    bus.publish("rack00/node01/power", ++t, 150.0);
  }
  state.SetItemsProcessed(state.iterations());
  benchmark::DoNotOptimize(delivered);
}
BENCHMARK(BM_BusPublish)->Arg(1)->Arg(8)->Arg(64);

// The collector's common case: readings no subscriber wants (one
// subscription on another family). The same 256 readings go out as single
// publishes or as one batch per call; both count iterations in readings, so
// real_time is ns per reading either way.
constexpr std::int64_t kBusBatch = 256;

std::vector<telemetry::Reading> unrouted_readings() {
  std::vector<telemetry::Reading> readings;
  for (std::int64_t i = 0; i < kBusBatch; ++i) {
    readings.push_back({"rack00/node" + std::to_string(i) + "/power",
                        {i, 150.0}});
  }
  return readings;
}

void BM_BusPublishUnrouted(benchmark::State& state) {
  telemetry::MessageBus bus;
  bus.subscribe("facility/*", [](const telemetry::Reading&) {});
  const std::vector<telemetry::Reading> readings = unrouted_readings();
  while (state.KeepRunningBatch(kBusBatch)) {
    for (const telemetry::Reading& r : readings) bus.publish(r);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BusPublishUnrouted);

void BM_BusPublishBatch(benchmark::State& state) {
  telemetry::MessageBus bus;
  bus.subscribe("facility/*", [](const telemetry::Reading&) {});
  const std::vector<telemetry::Reading> readings = unrouted_readings();
  while (state.KeepRunningBatch(kBusBatch)) {
    bus.publish_batch(readings);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BusPublishBatch);

void BM_StoreInsert(benchmark::State& state) {
  telemetry::TimeSeriesStore store(1 << 16);
  TimePoint t = 0;
  for (auto _ : state) {
    store.insert("rack00/node01/power", {++t, 150.0});
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StoreInsert);

void BM_StoreQueryRange(benchmark::State& state) {
  telemetry::TimeSeriesStore store(1 << 16);
  for (TimePoint t = 0; t < 40000; ++t) {
    store.insert("s", {t, static_cast<double>(t % 100)});
  }
  const auto span = state.range(0);
  for (auto _ : state) {
    auto slice = store.query("s", 20000, 20000 + span);
    benchmark::DoNotOptimize(slice.values.data());
  }
  state.SetItemsProcessed(state.iterations() * span);
}
BENCHMARK(BM_StoreQueryRange)->Arg(100)->Arg(1000)->Arg(10000);

void BM_StoreAggregate(benchmark::State& state) {
  telemetry::TimeSeriesStore store(1 << 16);
  for (TimePoint t = 0; t < 40000; ++t) {
    store.insert("s", {t, static_cast<double>(t % 100)});
  }
  for (auto _ : state) {
    auto slice = store.query_aggregated("s", 0, 40000, 600,
                                        telemetry::Aggregation::kMean);
    benchmark::DoNotOptimize(slice.values.data());
  }
}
BENCHMARK(BM_StoreAggregate);

void BM_StoreFrame(benchmark::State& state) {
  telemetry::TimeSeriesStore store(1 << 14);
  std::vector<std::string> paths;
  for (int s = 0; s < 16; ++s) {
    paths.push_back("sensor" + std::to_string(s));
    for (TimePoint t = 0; t < 5000; ++t) {
      store.insert(paths.back(), {t, static_cast<double>(t + s)});
    }
  }
  for (auto _ : state) {
    auto frame = store.frame(paths, 0, 5000, 60);
    benchmark::DoNotOptimize(frame.column_values(0).data());
  }
}
BENCHMARK(BM_StoreFrame);

void BM_CollectorPass(benchmark::State& state) {
  sim::ClusterParams params;
  params.racks = static_cast<std::size_t>(state.range(0));
  params.nodes_per_rack = 16;
  sim::ClusterSimulation cluster(params);
  telemetry::TimeSeriesStore store(1 << 12);
  telemetry::Collector collector(cluster, &store, nullptr);
  collector.add_all_sensors(cluster.dt());
  cluster.step();
  collector.collect();  // warm-up: first insert allocates each ring buffer
  for (auto _ : state) {
    collector.collect();
  }
  state.counters["sensors"] =
      static_cast<double>(collector.catalog().size());
}
BENCHMARK(BM_CollectorPass)->Arg(1)->Arg(4)->Arg(16);

// The tracing cost ladder (trace.hpp's cost model). Both sinks off must
// price a span at one relaxed atomic load — compare against RecorderOnly
// (the always-on default: clock reads + ring stores) and Full (tracer
// buffer push on top). Spans are taken via the TraceSpan class directly so
// the ladder is measurable in ODA_TRACING=OFF builds too; the macro path
// compiles to literally nothing there.
void BM_TraceSpanDisabled(benchmark::State& state) {
  obs::Tracer::global().set_enabled(false);
  obs::FlightRecorder::global().set_enabled(false);
  for (auto _ : state) {
    obs::TraceSpan span("bench.span", "bench");
  }
  state.SetItemsProcessed(state.iterations());
  obs::FlightRecorder::global().set_enabled(true);  // restore the default
}
BENCHMARK(BM_TraceSpanDisabled);

// The threaded run shows what the always-on span shares between threads:
// any shared write on the span path (a counter RMW) would make it slower
// per span than the single-threaded run.
void BM_TraceSpanRecorderOnly(benchmark::State& state) {
  obs::Tracer::global().set_enabled(false);
  obs::FlightRecorder::global().set_enabled(true);
  for (auto _ : state) {
    obs::TraceSpan span("bench.span", "bench");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceSpanRecorderOnly);
BENCHMARK(BM_TraceSpanRecorderOnly)->Threads(4);

void BM_TraceSpanFull(benchmark::State& state) {
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.set_capacity(1 << 12);  // small cap: steady state is count-drops
  tracer.set_enabled(true);
  for (auto _ : state) {
    obs::TraceSpan span("bench.span", "bench");
  }
  state.SetItemsProcessed(state.iterations());
  tracer.set_enabled(false);
  tracer.clear();
  tracer.set_capacity(1 << 16);
}
BENCHMARK(BM_TraceSpanFull);

// The profiler gate ladder (profiler.hpp's cost model): compiled in but
// stopped, SamplingProfiler::active() must price at one relaxed load —
// the entire steady-state cost instrumented threads pay when nobody is
// profiling. Compare against BM_TraceSpanDisabled, the same claim for
// spans.
void BM_ProfilerGateDisabled(benchmark::State& state) {
  for (auto _ : state) {
    bool active = obs::SamplingProfiler::active();
    benchmark::DoNotOptimize(active);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProfilerGateDisabled);

// The lock-accounting ladder (contention.hpp's cost model): an uncontended
// RAII acquisition with accounting armed (the default — one relaxed load
// plus a try_lock fast path that skips both clock reads) against the same
// acquisition disarmed (plain lock() behind the relaxed load).
void BM_LockUncontendedAccountingOn(benchmark::State& state) {
  contention::set_enabled(true);
  Mutex mu;
  long counter = 0;
  for (auto _ : state) {
    MutexLock lock(mu);
    benchmark::DoNotOptimize(++counter);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LockUncontendedAccountingOn);

void BM_LockUncontendedAccountingOff(benchmark::State& state) {
  contention::set_enabled(false);
  Mutex mu;
  long counter = 0;
  for (auto _ : state) {
    MutexLock lock(mu);
    benchmark::DoNotOptimize(++counter);
  }
  contention::set_enabled(true);  // restore the default
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LockUncontendedAccountingOff);

void BM_SimStep(benchmark::State& state) {
  sim::ClusterParams params;
  params.racks = static_cast<std::size_t>(state.range(0));
  params.nodes_per_rack = 16;
  params.workload.peak_arrival_rate_per_hour = 60.0;
  sim::ClusterSimulation cluster(params);
  cluster.run_for(kHour);  // warm up with jobs running
  for (auto _ : state) {
    cluster.step();
  }
  state.counters["nodes"] = static_cast<double>(cluster.node_count());
}
BENCHMARK(BM_SimStep)->Arg(1)->Arg(4)->Arg(16);

}  // namespace

ODA_BENCH_MAIN()
