/// \file selftest.cpp
/// Self-tests of the harness's statistics: the percentile rule, the round
/// aggregates, and due-time latency and lateness accounting against a
/// synthetic stalled server. The compare rule is tested in compare.py.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>

#include "common.hpp"
#include "ingest.hpp"

namespace perfbench {

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

void test_percentile() {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  const Percentile p99 = percentile(v, 0.99);
  expect(p99.value == 990 && p99.beyond == 10 && p99.supported(),
         "p99 of 1..1000 is 990 with ten samples beyond it");
  expect(percentile(v, 0.5).value == 500, "p50 of 1..1000 is 500");
  expect(trimmed_mean({1, 2, 3, 4, 1000}) == 3,
         "trimmed mean drops the highest and the lowest value");
  expect(second_slowest({5, 9, 1, 7}, true) == 7 &&
             second_slowest({5, 9, 1, 7}, false) == 5,
         "second-slowest round: second highest time, second lowest rate");
  v.pop_back();
  expect(!percentile(v, 0.99).supported(),
         "p99 of 999 samples has fewer than ten beyond it");
}

/// Answers siad's OPEN_STREAM / COMMIT / CLOSE on one connection, and
/// stalls once for \p stall_ms at \p stall_after_ms into the commits.
class StalledServer {
 public:
  StalledServer(int stall_after_ms, int stall_ms)
      : stall_after_ms_(stall_after_ms), stall_ms_(stall_ms) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    (void)::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    (void)::listen(listen_fd_, 4);
    socklen_t len = sizeof(addr);
    (void)::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { serve(); });
  }
  ~StalledServer() {
    ::shutdown(listen_fd_, SHUT_RDWR);
    thread_.join();
    ::close(listen_fd_);
  }
  StalledServer(const StalledServer&) = delete;
  StalledServer& operator=(const StalledServer&) = delete;
  [[nodiscard]] std::uint16_t port() const { return port_; }

 private:
  void serve() {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;
    using sia::service::Message;
    using sia::service::MsgType;
    sia::service::FrameDecoder dec;
    std::uint64_t next_id = 1;
    std::int64_t first_commit = 0;
    bool stalled = false;
    std::uint8_t buf[16384];
    for (;;) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) break;
      dec.feed(buf, static_cast<std::size_t>(n));
      Message m;
      while (dec.next(m) == sia::service::FrameDecoder::Status::kFrame) {
        Message reply;
        reply.stream = m.stream == 0 ? 1 : m.stream;
        if (m.type == MsgType::kOpenStream) {
          reply.type = MsgType::kStreamOpened;
        } else if (m.type == MsgType::kCommit) {
          if (first_commit == 0) first_commit = now_ns();
          if (!stalled && now_ns() - first_commit > stall_after_ms_ * 1'000'000LL) {
            stalled = true;
            std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms_));
          }
          reply.type = MsgType::kCommitted;
          for (std::size_t i = 0; i < m.commits.size(); ++i) {
            reply.ids.push_back(static_cast<sia::TxnId>(next_id++));
          }
        } else {
          reply.type = MsgType::kClosed;
          reply.commit_count = next_id - 1;
        }
        const std::vector<std::uint8_t> out = sia::service::encode_frame(reply);
        (void)::send(fd, out.data(), out.size(), MSG_NOSIGNAL);
      }
    }
    ::close(fd);
  }

  int stall_after_ms_;
  int stall_ms_;
  int listen_fd_{-1};
  std::uint16_t port_{0};
  std::thread thread_;
};

void test_open_loop_stall() {
  // 2000 frames/s for 1 s; the server freezes for 200 ms after 400 ms.
  StalledServer server(400, 200);
  IngestShape shape;
  shape.spec.num_keys = 64;
  Tracer tracer(false);
  OpenLoop loop(shape, server.port(), tracer);
  loop.open();
  const PhaseResult r = loop.run(2000, 1.0, false);
  std::vector<double> lat = r.latency_ms;
  std::sort(lat.begin(), lat.end());
  std::vector<double> late = r.late_ms;
  std::sort(late.begin(), late.end());
  const auto slow = static_cast<std::size_t>(
      std::count_if(lat.begin(), lat.end(), [](double ms) { return ms >= 100; }));
  expect(r.frames_acked == r.frames_due && r.frames_due == 2000,
         "every due frame is sent and answered");
  // Frames due in the first 100 ms of the stall (~200 of them) each waited
  // >= 100 ms from their due time, though the window held only four.
  expect(slow >= 150 && slow <= 250,
         "stall is charged to every frame due during it (" +
             std::to_string(slow) + " frames >= 100 ms)");
  expect(lat.back() >= 180, "worst latency covers the stall");
  expect(percentile(lat, 0.5).value < 5, "median is untouched by the stall");
  expect(percentile(late, 0.99).value < 20,
         "the generator itself stayed on schedule (late p99 " +
             std::to_string(percentile(late, 0.99).value) + " ms)");
  std::string why;
  expect(loop.close_all(why), "close count equals acked commits");
}

}  // namespace

int run_selftest() {
  test_percentile();
  test_open_loop_stall();
  std::printf("{\"selftest_failures\": %d}\n", failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
