// Open-loop HTTP client: one keep-alive connection that GETs a path at a
// fixed rate, the way a Prometheus server scrapes an exporter. Each request
// is timed from when it was due, not from when it was sent, so a stalled
// server charges its stall to every request queued behind it.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

class Scraper {
 public:
  Scraper(std::uint16_t port, std::string path, double rate_hz);
  ~Scraper();
  Scraper(const Scraper&) = delete;
  Scraper& operator=(const Scraper&) = delete;

  void start();
  /// Stops the schedule and joins the thread; the results are final after.
  void stop();

  /// Milliseconds from due time to the last body byte, one per request.
  const std::vector<double>& latencies_ms() const { return latencies_ms_; }
  std::uint64_t attempted() const { return attempted_; }
  /// Requests that did not end in a complete 200 response.
  std::uint64_t failed() const { return failed_; }

 private:
  void run();
  bool request_once();
  bool connect_socket();
  void close_socket();

  const std::uint16_t port_;
  const std::string path_;
  const double rate_hz_;
  int fd_ = -1;
  std::string buffer_;
  std::vector<double> latencies_ms_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

}  // namespace perfbench
