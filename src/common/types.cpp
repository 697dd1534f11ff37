#include "common/types.hpp"

#include <cstdio>

namespace oda {

std::string format_duration(Duration d) {
  const char* sign = d < 0 ? "-" : "";
  if (d < 0) d = -d;
  const Duration days = d / kDay;
  const Duration hours = (d % kDay) / kHour;
  const Duration minutes = (d % kHour) / kMinute;
  const Duration seconds = d % kMinute;
  char buf[64];
  if (days > 0) {
    std::snprintf(buf, sizeof(buf), "%s%lldd %02lld:%02lld:%02lld", sign,
                  static_cast<long long>(days), static_cast<long long>(hours),
                  static_cast<long long>(minutes), static_cast<long long>(seconds));
  } else {
    std::snprintf(buf, sizeof(buf), "%s%02lld:%02lld:%02lld", sign,
                  static_cast<long long>(hours), static_cast<long long>(minutes),
                  static_cast<long long>(seconds));
  }
  return buf;
}

std::string format_time(TimePoint t) {
  if (t < 0) {
    std::string out = "t";
    out += format_duration(t);
    return out;
  }
  const Duration days = t / kDay;
  const Duration hours = (t % kDay) / kHour;
  const Duration minutes = (t % kHour) / kMinute;
  const Duration seconds = t % kMinute;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "d%02lld %02lld:%02lld:%02lld",
                static_cast<long long>(days), static_cast<long long>(hours),
                static_cast<long long>(minutes), static_cast<long long>(seconds));
  return buf;
}

}  // namespace oda
