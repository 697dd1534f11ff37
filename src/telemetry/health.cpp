#include "telemetry/health.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "common/string_util.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace oda::telemetry {

const char* sensor_state_name(SensorState s) {
  switch (s) {
    case SensorState::kHealthy: return "healthy";
    case SensorState::kFlaky: return "flaky";
    case SensorState::kQuarantined: return "quarantined";
  }
  return "?";
}

const char* read_outcome_name(ReadOutcome o) {
  switch (o) {
    case ReadOutcome::kOk: return "ok";
    case ReadOutcome::kDropout: return "dropout";
    case ReadOutcome::kDeadline: return "deadline";
    case ReadOutcome::kBreakerOpen: return "breaker_open";
  }
  return "?";
}

SensorHealthTracker::SensorHealthTracker(HealthPolicy policy, MessageBus* bus)
    : policy_(policy), bus_(bus) {
  policy_.window = std::min<std::size_t>(policy_.window, 64);
  auto& registry = obs::MetricsRegistry::global();
  for (int s = 0; s < 3; ++s) {
    const char* name = sensor_state_name(static_cast<SensorState>(s));
    transition_counters_[s] = &registry.counter(
        "oda_health_transitions_total",
        "Sensor-health state transitions by destination state",
        {{"to", name}});
    state_gauges_[s] = &registry.gauge(
        "oda_health_sensors", "Tracked sensors per health state",
        {{"state", name}});
  }
}

void SensorHealthTracker::set_range(const std::string& pattern, double lo,
                                    double hi) {
  MutexLock lock(mu_);
  ranges_.push_back({pattern, lo, hi});
  // Ranges registered after a series was first seen should still apply.
  for (auto& [id, s] : series_) s.range_resolved = false;
}

SensorHealthTracker::SeriesHealth& SensorHealthTracker::series_locked(
    SeriesId id, const std::string& path) {
  SeriesHealth& s = series_[id.value];
  if (s.path.empty()) s.path = path;
  if (!s.range_resolved) {
    s.range_resolved = true;
    s.has_range = false;
    for (const auto& rule : ranges_) {
      if (glob_match(rule.pattern, s.path)) {
        s.has_range = true;
        s.range_lo = rule.lo;
        s.range_hi = rule.hi;
        break;
      }
    }
  }
  return s;
}

void SensorHealthTracker::push_outcome_locked(SeriesHealth& s, bool failure) {
  const std::size_t w = policy_.window;
  if (s.window_fill == w) {
    // Drop the oldest outcome (bit w-1).
    const std::uint64_t oldest = (s.window_bits >> (w - 1)) & 1ULL;
    s.window_failures -= static_cast<std::size_t>(oldest);
  } else {
    ++s.window_fill;
  }
  s.window_bits = (s.window_bits << 1) | (failure ? 1ULL : 0ULL);
  if (w < 64) s.window_bits &= (1ULL << w) - 1ULL;
  if (failure) ++s.window_failures;
}

double SensorHealthTracker::failure_rate_locked(const SeriesHealth& s) const {
  if (s.window_fill == 0) return 0.0;
  return static_cast<double>(s.window_failures) /
         static_cast<double>(s.window_fill);
}

void SensorHealthTracker::record_success(SeriesId id, const std::string& path,
                                         TimePoint now, double value) {
  std::vector<Reading> pending;
  {
    MutexLock lock(mu_);
    SeriesHealth& s = series_locked(id, path);
    push_outcome_locked(s, /*failure=*/false);
    s.last_success = now;

    const bool in_range =
        !s.has_range || (value >= s.range_lo && value <= s.range_hi);
    if (in_range) {
      s.oor_run = 0;
    } else {
      ++s.oor_run;
    }

    if (s.has_value) {
      if (value == s.last_value) {
        ++s.flat_run;
      } else {
        s.has_varied = true;
        s.flat_run = 0;
      }
    }
    s.last_value = value;
    s.has_value = true;

    const bool flat_suspect = policy_.flatline_run > 0 && s.has_varied &&
                              s.flat_run >= policy_.flatline_run;
    if (in_range && !flat_suspect) {
      ++s.clean_run;
    } else {
      s.clean_run = 0;
    }

    reevaluate_locked(s, now);
    pending.swap(pending_publish_);
  }
  flush_publishes(pending);
}

void SensorHealthTracker::record_failure(SeriesId id, const std::string& path,
                                         TimePoint now, ReadOutcome reason) {
  (void)reason;  // per-reason accounting lives in the collector's metrics
  std::vector<Reading> pending;
  {
    MutexLock lock(mu_);
    SeriesHealth& s = series_locked(id, path);
    push_outcome_locked(s, /*failure=*/true);
    s.clean_run = 0;
    reevaluate_locked(s, now);
    pending.swap(pending_publish_);
  }
  flush_publishes(pending);
}

void SensorHealthTracker::reevaluate_locked(SeriesHealth& s, TimePoint now) {
  const double rate = failure_rate_locked(s);
  const bool rates_trusted = s.window_fill >= policy_.min_observations;
  const bool flat_quarantine = policy_.flatline_run > 0 && s.has_varied &&
                               s.flat_run >= policy_.flatline_run;
  const bool oor_quarantine =
      policy_.out_of_range_run > 0 && s.oor_run >= policy_.out_of_range_run;
  const bool stale =
      policy_.staleness > 0 && s.last_success != kTimeMin &&
      now - s.last_success > policy_.staleness;

  if (s.state == SensorState::kQuarantined) {
    // Leave quarantine only on sustained clean evidence; reset the outcome
    // window so the old failure burst cannot immediately re-quarantine.
    if (s.clean_run >= policy_.recovery_successes && !flat_quarantine &&
        !oor_quarantine && !stale) {
      s.window_bits = 0;
      s.window_fill = 0;
      s.window_failures = 0;
      transition_locked(s, SensorState::kHealthy, now);
    }
    return;
  }

  if ((rates_trusted && rate >= policy_.quarantine_failure_rate) ||
      flat_quarantine || oor_quarantine || stale) {
    transition_locked(s, SensorState::kQuarantined, now);
    return;
  }

  const bool flaky_evidence =
      (rates_trusted && rate >= policy_.flaky_failure_rate) || s.oor_run > 0;
  if (s.state == SensorState::kHealthy) {
    if (flaky_evidence) transition_locked(s, SensorState::kFlaky, now);
  } else if (s.state == SensorState::kFlaky) {
    if (!flaky_evidence && s.clean_run >= policy_.recovery_successes) {
      transition_locked(s, SensorState::kHealthy, now);
    }
  }
}

void SensorHealthTracker::transition_locked(SeriesHealth& s, SensorState to,
                                            TimePoint now) {
  if (s.state == to) return;
  const SensorState from = s.state;
  s.state = to;
  ++transitions_;
  transition_counters_[static_cast<int>(to)]->inc();
  update_gauges_locked();
  if (to == SensorState::kQuarantined) {
    // Instant under whichever span noticed the evidence (collector pass or
    // direct record_* caller) — quarantine onset lands in the causal trace.
    ODA_TRACE_INSTANT_CAT("health.quarantine", "telemetry");
    ODA_LOG_WARN << "sensor quarantined: " << s.path << " (was "
                 << sensor_state_name(from) << ")";
  } else if (from == SensorState::kQuarantined) {
    ODA_TRACE_INSTANT_CAT("health.recover", "telemetry");
    ODA_LOG_INFO << "sensor recovered from quarantine: " << s.path;
  }
  if (bus_ != nullptr &&
      (to == SensorState::kQuarantined || from == SensorState::kQuarantined)) {
    // Queued, not published: bus_->publish() under mu_ would invert the
    // bus -> health lock order, and a subscriber querying this tracker from
    // its callback would self-deadlock on the non-recursive mutex. The
    // public entry points drain the queue once mu_ is released.
    pending_publish_.push_back(
        Reading{"_health/" + s.path,
                {now, static_cast<double>(static_cast<int>(to))}});
  }
}

void SensorHealthTracker::flush_publishes(std::vector<Reading>& pending) {
  // Queued only when bus_ is set (transition_locked); one hand-off for all.
  if (!pending.empty()) bus_->publish_batch(pending);
  pending.clear();
}

void SensorHealthTracker::update_gauges_locked() {
  std::size_t by_state[3] = {0, 0, 0};
  for (const auto& [id, s] : series_) {
    ++by_state[static_cast<int>(s.state)];
  }
  for (int i = 0; i < 3; ++i) {
    state_gauges_[i]->set(static_cast<double>(by_state[i]));
  }
}

void SensorHealthTracker::step(TimePoint now) {
  if (policy_.staleness <= 0) return;
  std::vector<Reading> pending;
  {
    MutexLock lock(mu_);
    for (auto& [id, s] : series_) {
      if (s.state != SensorState::kQuarantined && s.last_success != kTimeMin &&
          now - s.last_success > policy_.staleness) {
        transition_locked(s, SensorState::kQuarantined, now);
      }
    }
    pending.swap(pending_publish_);
  }
  flush_publishes(pending);
}

SensorState SensorHealthTracker::state(SeriesId id) const {
  MutexLock lock(mu_);
  const auto it = series_.find(id.value);
  return it == series_.end() ? SensorState::kHealthy : it->second.state;
}

SensorState SensorHealthTracker::state(const std::string& path) const {
  const auto id = SeriesInterner::global().lookup(path);
  if (!id.has_value()) return SensorState::kHealthy;
  return state(*id);
}

bool SensorHealthTracker::usable(SeriesId id) const {
  return state(id) != SensorState::kQuarantined;
}

bool SensorHealthTracker::usable(const std::string& path) const {
  return state(path) != SensorState::kQuarantined;
}

std::vector<std::string> SensorHealthTracker::quarantined() const {
  MutexLock lock(mu_);
  std::vector<std::string> out;
  for (const auto& [id, s] : series_) {
    if (s.state == SensorState::kQuarantined) out.push_back(s.path);
  }
  std::sort(out.begin(), out.end());
  return out;
}

SensorHealthTracker::Counts SensorHealthTracker::counts() const {
  MutexLock lock(mu_);
  Counts c;
  for (const auto& [id, s] : series_) {
    switch (s.state) {
      case SensorState::kHealthy: ++c.healthy; break;
      case SensorState::kFlaky: ++c.flaky; break;
      case SensorState::kQuarantined: ++c.quarantined; break;
    }
  }
  c.tracked = series_.size();
  return c;
}

std::uint64_t SensorHealthTracker::transitions() const {
  MutexLock lock(mu_);
  return transitions_;
}

}  // namespace oda::telemetry
