#include "common/log.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <utility>

#include "common/sync.hpp"

namespace oda {

namespace {
std::atomic<LogLevel> g_level{LogLevel::kWarn};
// The innermost lock in the hierarchy: logging happens under every other
// subsystem's lock, so nothing may be acquired while holding it.
Mutex g_sink_mu ODA_ACQUIRED_AFTER(lock_order::log){LockRankId::kLog};
Log::Sink g_sink ODA_GUARDED_BY(g_sink_mu);

/// Formats the current wall-clock time as "2026-08-07T14:03:11" into `out`
/// (must hold >= 20 bytes). Seconds resolution keeps the default sink cheap
/// and diffable; sub-second timing belongs to the tracer, not the log.
void format_timestamp(char* out, std::size_t out_size) {
  const std::time_t now =
      std::chrono::system_clock::to_time_t(std::chrono::system_clock::now());
  std::tm tm_buf{};
#if defined(_WIN32)
  localtime_s(&tm_buf, &now);
#else
  localtime_r(&now, &tm_buf);
#endif
  if (std::strftime(out, out_size, "%Y-%m-%dT%H:%M:%S", &tm_buf) == 0) {
    out[0] = '\0';
  }
}
}  // namespace

const char* log_level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}

// relaxed: the level is an independent filter flag — no other data is
// published through it, so threads may observe a level change late at worst.
void Log::set_level(LogLevel level) {
  g_level.store(level, std::memory_order_relaxed);
}
LogLevel Log::level() { return g_level.load(std::memory_order_relaxed); }

void Log::set_sink(Sink sink) {
  MutexLock lock(g_sink_mu);
  g_sink = std::move(sink);
}

std::size_t Log::thread_id() {
  // relaxed: the counter only hands out unique ids; no ordering is implied
  // between threads that happen to log around the same time.
  static std::atomic<std::size_t> next{1};
  thread_local const std::size_t id =
      next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

void Log::write(LogLevel level, const std::string& message) {
  if (level < g_level.load(std::memory_order_relaxed)) return;
  MutexLock lock(g_sink_mu);
  if (g_sink) {
    g_sink(level, message);
  } else {
    char ts[32];
    format_timestamp(ts, sizeof(ts));
    std::fprintf(stderr, "[%s] [%s] [t%zu] %s\n", ts, log_level_name(level),
                 thread_id(), message.c_str());
  }
}

CaptureSink::CaptureSink(std::size_t capacity) : entries_(capacity) {
  Log::set_sink([this](LogLevel level, const std::string& message) {
    MutexLock lock(mu_);
    entries_.push(Entry{level, message});
  });
}

CaptureSink::~CaptureSink() { Log::set_sink(nullptr); }

std::vector<std::string> CaptureSink::lines() const {
  MutexLock lock(mu_);
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    std::string line = "[";
    line += log_level_name(e.level);
    line += "] ";
    line += e.message;
    out.push_back(std::move(line));
  }
  return out;
}

bool CaptureSink::contains(const std::string& substring) const {
  MutexLock lock(mu_);
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].message.find(substring) != std::string::npos) return true;
  }
  return false;
}

std::size_t CaptureSink::count(LogLevel level) const {
  MutexLock lock(mu_);
  std::size_t n = 0;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].level == level) ++n;
  }
  return n;
}

std::size_t CaptureSink::size() const {
  MutexLock lock(mu_);
  return entries_.size();
}

void CaptureSink::clear() {
  MutexLock lock(mu_);
  entries_.clear();
}

}  // namespace oda
