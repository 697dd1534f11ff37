#include "scraper.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <utility>

namespace perfbench {

namespace {
using Clock = std::chrono::steady_clock;
constexpr std::size_t kMaxResponseBytes = 64u << 20;
}  // namespace

Scraper::Scraper(std::uint16_t port, std::string path, double rate_hz)
    : port_(port), path_(std::move(path)), rate_hz_(rate_hz) {}

Scraper::~Scraper() { stop(); }

void Scraper::start() { thread_ = std::thread([this] { run(); }); }

void Scraper::stop() {
  // relaxed: a stop request only; join() publishes the results.
  stop_.store(true, std::memory_order_relaxed);
  if (thread_.joinable()) thread_.join();
  close_socket();
}

void Scraper::run() {
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / rate_hz_));
  auto due = Clock::now();
  while (!stop_.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_until(due);
    if (stop_.load(std::memory_order_relaxed)) break;
    ++attempted_;
    bool ok = false;
    try {
      ok = request_once();
    } catch (const std::exception&) {
      ok = false;  // counted as a failed scrape below
    }
    if (!ok) {
      ++failed_;
      close_socket();
    }
    latencies_ms_.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - due).count());
    due += period;
  }
}

bool Scraper::connect_socket() {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  // A bounded receive timeout keeps a wedged server from hanging the run.
  timeval tv{};
  tv.tv_sec = 5;
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    close_socket();
    return false;
  }
  buffer_.clear();
  return true;
}

void Scraper::close_socket() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

bool Scraper::request_once() {
  if (fd_ < 0 && !connect_socket()) return false;
  const std::string req = "GET " + path_ +
                          " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                          "Connection: keep-alive\r\n\r\n";
  std::size_t sent = 0;
  while (sent < req.size()) {
    const ssize_t n =
        ::send(fd_, req.data() + sent, req.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }

  // Read the header block, then exactly Content-Length body bytes.
  char chunk[16384];
  std::size_t header_end = std::string::npos;
  while ((header_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n <= 0 || buffer_.size() > kMaxResponseBytes) return false;
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
  const std::string head = buffer_.substr(0, header_end);
  if (head.compare(0, 9, "HTTP/1.1 ") != 0) return false;
  const int code = std::atoi(head.c_str() + 9);
  std::size_t length = 0;
  const std::size_t cl = head.find("Content-Length:");
  if (cl == std::string::npos) return false;
  length = std::strtoull(head.c_str() + cl + 15, nullptr, 10);
  const std::size_t total = header_end + 4 + length;
  if (total > kMaxResponseBytes) return false;
  while (buffer_.size() < total) {
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
  buffer_.erase(0, total);
  return code == 200 && length > 0;
}

}  // namespace perfbench
