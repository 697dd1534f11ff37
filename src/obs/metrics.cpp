#include "obs/metrics.hpp"

#include <algorithm>
#include <cctype>

#include "common/error.hpp"
#include "common/trace_context.hpp"

namespace oda::obs {

namespace {

bool valid_name(const std::string& name, bool allow_colon) {
  if (name.empty()) return false;
  for (std::size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool alpha = std::isalpha(static_cast<unsigned char>(c)) != 0;
    const bool digit = std::isdigit(static_cast<unsigned char>(c)) != 0;
    const bool extra = c == '_' || (allow_colon && c == ':');
    if (i == 0 ? !(alpha || extra) : !(alpha || digit || extra)) return false;
  }
  return true;
}

LabelSet sorted_labels(LabelSet labels) {
  for (const auto& [k, v] : labels) {
    static_cast<void>(v);
    validate_label_name(k);
  }
  std::sort(labels.begin(), labels.end());
  return labels;
}

/// Serializes a sorted label set into a map key. Uses \x1f separators so no
/// printable label value can collide with another set.
std::string label_key(const LabelSet& labels) {
  std::string key;
  for (const auto& [k, v] : labels) {
    key += k;
    key += '\x1f';
    key += v;
    key += '\x1f';
  }
  return key;
}

}  // namespace

const char* to_string(MetricType type) {
  switch (type) {
    case MetricType::kCounter: return "counter";
    case MetricType::kGauge: return "gauge";
    case MetricType::kHistogram: return "histogram";
  }
  return "?";
}

void validate_metric_name(const std::string& name) {
  ODA_REQUIRE(valid_name(name, /*allow_colon=*/true),
              "invalid metric name: " + name);
}

void validate_label_name(const std::string& name) {
  ODA_REQUIRE(valid_name(name, /*allow_colon=*/false),
              "invalid label name: " + name);
}

// ---------------------------------------------------------------- Histogram

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1) {
  ODA_REQUIRE(std::is_sorted(bounds_.begin(), bounds_.end()),
              "histogram bounds must be ascending");
  ODA_REQUIRE(std::adjacent_find(bounds_.begin(), bounds_.end()) ==
                  bounds_.end(),
              "histogram bounds must be distinct");
}

void Histogram::observe(double value, std::uint64_t count) noexcept {
  if (count == 0) return;
  std::size_t bucket = bounds_.size();  // +Inf bucket
  for (std::size_t i = 0; i < bounds_.size(); ++i) {
    if (value <= bounds_[i]) {
      bucket = i;
      break;
    }
  }
  // relaxed (all three): per-bucket counts, the running sum, and the total
  // count are independent statistics; a scrape may observe them at slightly
  // different instants, which Prometheus semantics explicitly permit.
  counts_[bucket].fetch_add(count, std::memory_order_relaxed);
  const double added = value * static_cast<double>(count);
  sum_.fetch_add(added, std::memory_order_relaxed);
  count_.fetch_add(count, std::memory_order_relaxed);
  // Exemplar: remember the trace that produced the most recent extreme
  // observation so a slow bucket links straight to its causal trace.
  const TraceContext ctx = current_trace_context();
  if (ctx.active() &&
      // relaxed (all three): a debugging breadcrumb — the check-then-store
      // pair may interleave under concurrent extremes, leaving either
      // observation's (value, id); both are valid exemplars.
      value >= exemplar_value_.load(std::memory_order_relaxed)) {
    exemplar_value_.store(value, std::memory_order_relaxed);
    exemplar_trace_id_.store(ctx.trace_id, std::memory_order_relaxed);
  }
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(counts_.size());
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    // relaxed: statistics read; see observe().
    out[i] = counts_[i].load(std::memory_order_relaxed);
  }
  return out;
}

std::vector<double> exponential_bounds(double start, double factor,
                                       std::size_t count) {
  ODA_REQUIRE(start > 0.0 && factor > 1.0 && count > 0,
              "exponential_bounds requires start > 0, factor > 1, count > 0");
  std::vector<double> out;
  out.reserve(count);
  double b = start;
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(b);
    b *= factor;
  }
  return out;
}

std::vector<double> default_latency_bounds() {
  return exponential_bounds(1e-6, 2.0, 27);  // 1us .. ~67s
}

// ----------------------------------------------------------------- snapshot

const MetricFamily* MetricsSnapshot::find(const std::string& name) const {
  for (const auto& f : families) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

double MetricsSnapshot::total(const std::string& name) const {
  const MetricFamily* f = find(name);
  if (f == nullptr) return 0.0;
  double sum = 0.0;
  for (const auto& v : f->values) sum += v.value;
  return sum;
}

// ----------------------------------------------------------- CallbackHandle

CallbackHandle::CallbackHandle(CallbackHandle&& other) noexcept
    : registry_(other.registry_), id_(other.id_) {
  other.registry_ = nullptr;
}

CallbackHandle& CallbackHandle::operator=(CallbackHandle&& other) noexcept {
  if (this != &other) {
    release();
    registry_ = other.registry_;
    id_ = other.id_;
    other.registry_ = nullptr;
  }
  return *this;
}

CallbackHandle::~CallbackHandle() { release(); }

void CallbackHandle::release() {
  if (registry_ != nullptr) {
    registry_->remove_callback(id_);
    registry_ = nullptr;
  }
}

// ----------------------------------------------------------------- registry

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

MetricsRegistry::Family& MetricsRegistry::family_locked(
    const std::string& name, const std::string& help, MetricType type) {
  validate_metric_name(name);
  auto [it, inserted] = families_.try_emplace(name);
  if (inserted) {
    it->second.help = help;
    it->second.type = type;
  } else {
    ODA_REQUIRE(it->second.type == type,
                "metric family re-registered with a different type: " + name);
  }
  return it->second;
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const std::string& help,
                                  const LabelSet& labels) {
  const LabelSet sorted = sorted_labels(labels);
  MutexLock lock(mu_);
  Family& fam = family_locked(name, help, MetricType::kCounter);
  auto [it, inserted] = fam.series.try_emplace(label_key(sorted));
  if (inserted) {
    it->second.labels = sorted;
    it->second.counter = std::make_unique<Counter>();
  }
  return *it->second.counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name, const std::string& help,
                              const LabelSet& labels) {
  const LabelSet sorted = sorted_labels(labels);
  MutexLock lock(mu_);
  Family& fam = family_locked(name, help, MetricType::kGauge);
  auto [it, inserted] = fam.series.try_emplace(label_key(sorted));
  if (inserted) {
    it->second.labels = sorted;
    it->second.gauge = std::make_unique<Gauge>();
  }
  return *it->second.gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const std::string& help,
                                      std::vector<double> bounds,
                                      const LabelSet& labels) {
  const LabelSet sorted = sorted_labels(labels);
  MutexLock lock(mu_);
  Family& fam = family_locked(name, help, MetricType::kHistogram);
  auto [it, inserted] = fam.series.try_emplace(label_key(sorted));
  if (inserted) {
    it->second.labels = sorted;
    it->second.histogram = std::make_unique<Histogram>(std::move(bounds));
  }
  return *it->second.histogram;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const std::string& help,
                                      const LabelSet& labels) {
  return histogram(name, help, default_latency_bounds(), labels);
}

CallbackHandle MetricsRegistry::add_callback(const std::string& name,
                                             const std::string& help,
                                             MetricType type,
                                             const LabelSet& labels,
                                             std::function<double()> fn) {
  validate_metric_name(name);
  ODA_REQUIRE(fn != nullptr, "metric callback must not be null");
  const LabelSet sorted = sorted_labels(labels);
  MutexLock lock(mu_);
  const auto fam = families_.find(name);
  ODA_REQUIRE(fam == families_.end() || fam->second.type == type,
              "metric family re-registered with a different type: " + name);
  CallbackSeries cb;
  cb.id = next_callback_id_++;
  cb.name = name;
  cb.help = help;
  cb.type = type;
  cb.labels = sorted;
  cb.fn = std::move(fn);
  callbacks_.push_back(std::move(cb));
  return CallbackHandle(this, callbacks_.back().id);
}

CallbackHandle MetricsRegistry::gauge_callback(const std::string& name,
                                               const std::string& help,
                                               const LabelSet& labels,
                                               std::function<double()> fn) {
  return add_callback(name, help, MetricType::kGauge, labels, std::move(fn));
}

CallbackHandle MetricsRegistry::counter_callback(const std::string& name,
                                                 const std::string& help,
                                                 const LabelSet& labels,
                                                 std::function<double()> fn) {
  return add_callback(name, help, MetricType::kCounter, labels, std::move(fn));
}

CallbackHandle MetricsRegistry::histogram_callback(
    const std::string& name, const std::string& help, const LabelSet& labels,
    std::function<HistogramSnapshot()> fn) {
  validate_metric_name(name);
  ODA_REQUIRE(fn != nullptr, "metric callback must not be null");
  const LabelSet sorted = sorted_labels(labels);
  MutexLock lock(mu_);
  const auto fam = families_.find(name);
  ODA_REQUIRE(fam == families_.end() ||
                  fam->second.type == MetricType::kHistogram,
              "metric family re-registered with a different type: " + name);
  CallbackSeries cb;
  cb.id = next_callback_id_++;
  cb.name = name;
  cb.help = help;
  cb.type = MetricType::kHistogram;
  cb.labels = sorted;
  cb.hist_fn = std::move(fn);
  callbacks_.push_back(std::move(cb));
  return CallbackHandle(this, callbacks_.back().id);
}

void MetricsRegistry::remove_callback(std::uint64_t id) {
  MutexLock lock(mu_);
  callbacks_.erase(std::remove_if(callbacks_.begin(), callbacks_.end(),
                                  [id](const CallbackSeries& cb) {
                                    return cb.id == id;
                                  }),
                   callbacks_.end());
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MutexLock lock(mu_);
  MetricsSnapshot snap;
  std::map<std::string, std::size_t> index;  // name -> families index
  for (const auto& [name, fam] : families_) {
    MetricFamily out;
    out.name = name;
    out.help = fam.help;
    out.type = fam.type;
    for (const auto& [key, inst] : fam.series) {
      static_cast<void>(key);
      if (fam.type == MetricType::kHistogram) {
        HistogramValue h;
        h.labels = inst.labels;
        h.bounds = inst.histogram->bounds();
        h.counts = inst.histogram->bucket_counts();
        h.sum = inst.histogram->sum();
        h.count = inst.histogram->count();
        const Histogram::Exemplar ex = inst.histogram->exemplar();
        if (ex.trace_id != 0) {
          h.exemplar_value = ex.value;
          h.exemplar_trace_id = ex.trace_id;
        }
        out.histograms.push_back(std::move(h));
      } else {
        SeriesValue v;
        v.labels = inst.labels;
        v.value = fam.type == MetricType::kCounter
                      ? static_cast<double>(inst.counter->value())
                      : inst.gauge->value();
        out.values.push_back(std::move(v));
      }
    }
    index[name] = snap.families.size();
    snap.families.push_back(std::move(out));
  }
  for (const auto& cb : callbacks_) {
    const auto it = index.find(cb.name);
    if (it == index.end()) {
      MetricFamily fam;
      fam.name = cb.name;
      fam.help = cb.help;
      fam.type = cb.type;
      index[cb.name] = snap.families.size();
      snap.families.push_back(std::move(fam));
    }
    MetricFamily& fam = snap.families[index[cb.name]];
    if (cb.type == MetricType::kHistogram) {
      HistogramSnapshot hs = cb.hist_fn();
      HistogramValue h;
      h.labels = cb.labels;
      h.bounds = std::move(hs.bounds);
      h.counts = std::move(hs.counts);
      h.counts.resize(h.bounds.size() + 1);  // tolerate short callbacks
      h.sum = hs.sum;
      // Derive _count from the buckets so the cumulative +Inf bucket always
      // equals _count, even if the callback read racing atomics.
      for (const std::uint64_t c : h.counts) h.count += c;
      fam.histograms.push_back(std::move(h));
    } else {
      SeriesValue v;
      v.labels = cb.labels;
      v.value = cb.fn();
      fam.values.push_back(std::move(v));
    }
  }
  return snap;
}

std::size_t MetricsRegistry::family_count() const {
  MutexLock lock(mu_);
  std::map<std::string, bool> names;
  for (const auto& [name, fam] : families_) {
    static_cast<void>(fam);
    names[name] = true;
  }
  for (const auto& cb : callbacks_) names[cb.name] = true;
  return names.size();
}

}  // namespace oda::obs
