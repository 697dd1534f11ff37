#include "common/trace_context.hpp"

#include <atomic>

namespace oda {

namespace {

thread_local TraceContext t_context;

// splitmix64 finalizer: bijective, so distinct counter values can never
// collide, but the output looks uniformly random in hex dumps.
std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

TraceContext current_trace_context() noexcept { return t_context; }

TraceContext exchange_trace_context(TraceContext ctx) noexcept {
  const TraceContext prev = t_context;
  t_context = ctx;
  return prev;
}

std::uint64_t next_trace_id() noexcept {
  // Each thread claims a block of counter values at a time, so the shared
  // counter is touched once per kBlock ids instead of once per span. Blocks
  // never overlap and mix64 is a bijection, so ids stay process-unique; a
  // thread that exits mid-block just leaves the rest of its block unused.
  constexpr std::uint64_t kBlock = 1024;
  static std::atomic<std::uint64_t> counter{0};
  thread_local std::uint64_t next = 0;
  thread_local std::uint64_t end = 0;
  for (;;) {
    if (next == end) {
      // relaxed: uniqueness comes from the atomic RMW itself; ids carry no
      // ordering obligations with respect to any other memory.
      next = counter.fetch_add(kBlock, std::memory_order_relaxed);
      end = next + kBlock;
    }
    const std::uint64_t id = mix64(next++);
    if (id != 0) return id;  // 0 is the "no trace" sentinel: skip its value
  }
}

}  // namespace oda
