/// \file ingest.cpp
/// The ingest workload: the open-loop generator against a live siad, and
/// an in-process replay of the exact frames it sent through the wire codec
/// and the streaming monitor, which times siad's per-frame work in CPU
/// time and, in traced runs, splits the ack latency into layers.

#include "ingest.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <utility>

#include "graph/incremental.hpp"

namespace perfbench {

using sia::service::FrameDecoder;
using sia::service::Message;
using sia::service::MsgType;

namespace {

constexpr std::int64_t kDrainCapNs = 10'000'000'000;  // unanswered after this

sia::workload::StreamSpec stream_spec(const IngestShape& shape,
                                      std::size_t i) {
  sia::workload::StreamSpec spec = shape.spec;
  spec.seed = shape.spec.seed + 7919 * i;
  return spec;
}

/// User + system CPU seconds of process \p pid so far, from /proc.
double process_cpu_s(int pid) {
  const std::string path = "/proc/" + std::to_string(pid) + "/stat";
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) throw std::runtime_error("cannot read " + path);
  char buf[1024];
  const std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  buf[n] = '\0';
  // Fields after the parenthesised command name: state is field 3, utime
  // and stime are fields 14 and 15.
  const char* p = std::strrchr(buf, ')');
  unsigned long long utime = 0;
  unsigned long long stime = 0;
  if (p == nullptr ||
      std::sscanf(p + 1, " %*c %*d %*d %*d %*d %*d %*u %*u %*u %*u %*u %llu %llu",
                  &utime, &stime) != 2) {
    throw std::runtime_error("cannot parse " + path);
  }
  return static_cast<double>(utime + stime) /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

}  // namespace

OpenLoop::OpenLoop(IngestShape shape, std::uint16_t port, Tracer& tracer)
    : shape_(shape), port_(port), tracer_(tracer) {
  span_frame_ = tracer_.name("frame");
  span_wait_ = tracer_.name("gen.wait");
  span_source_ = tracer_.name("source.next");
  span_encode_ = tracer_.name("wire.encode");
  span_decode_ = tracer_.name("wire.decode");
}

OpenLoop::~OpenLoop() {
  for (Conn& c : conns_) {
    if (c.fd >= 0) ::close(c.fd);
  }
}

void OpenLoop::open() {
  conns_.resize(shape_.connections);
  for (Conn& c : conns_) {
    c.fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (c.fd < 0) throw std::runtime_error("socket failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port_);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(c.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
        0) {
      throw std::runtime_error("connect to siad failed: " +
                               std::string(std::strerror(errno)));
    }
    const int one = 1;
    (void)::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    (void)::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL) | O_NONBLOCK);
  }
  const std::size_t total = shape_.connections * shape_.streams_per_connection;
  streams_.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    const std::size_t conn = i / shape_.streams_per_connection;
    Message req;
    req.type = MsgType::kOpenStream;
    req.model = static_cast<std::uint8_t>(sia::service::ServiceModel::kSI);
    const Message reply = roundtrip(conns_[conn], req);
    if (reply.type != MsgType::kStreamOpened) {
      throw std::runtime_error("OPEN_STREAM answered " +
                               sia::service::to_string(reply.type));
    }
    streams_.push_back(Stream{reply.stream, conn,
                              sia::workload::StreamSource(stream_spec(shape_, i)),
                              {}, {}, 0, 0});
  }
  log_.assign(total, {});
  // Smooth weighted round-robin over weights 16..31: streams advance at
  // different paces, as independent clients do, so their monitors do not
  // reach each GC pass in lockstep.
  std::vector<long> weight(total), credit(total, 0);
  long sum = 0;
  for (std::size_t i = 0; i < total; ++i) {
    weight[i] = 16 + static_cast<long>(i % 16);
    sum += weight[i];
  }
  schedule_.clear();
  for (long step = 0; step < sum; ++step) {
    std::size_t best = 0;
    for (std::size_t i = 0; i < total; ++i) {
      credit[i] += weight[i];
      if (credit[i] > credit[best]) best = i;
    }
    credit[best] -= sum;
    schedule_.push_back(best);
  }
}

Message OpenLoop::roundtrip(Conn& c, const Message& req) {
  const std::vector<std::uint8_t> bytes = sia::service::encode_frame(req);
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(c.fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EINTR)) {
      pollfd p{c.fd, POLLOUT, 0};
      (void)::poll(&p, 1, 1000);
    } else {
      throw std::runtime_error("siad closed the connection");
    }
  }
  std::uint8_t buf[16384];
  for (;;) {
    Message reply;
    const FrameDecoder::Status st = c.decoder.next(reply);
    if (st == FrameDecoder::Status::kFrame) return reply;
    if (st == FrameDecoder::Status::kMalformed) {
      throw std::runtime_error("malformed reply from siad");
    }
    pollfd p{c.fd, POLLIN, 0};
    if (::poll(&p, 1, 10'000) <= 0) {
      throw std::runtime_error("siad did not answer within 10 s");
    }
    const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      c.decoder.feed(buf, static_cast<std::size_t>(n));
    } else if (n == 0 || (errno != EAGAIN && errno != EINTR)) {
      throw std::runtime_error("siad closed the connection");
    }
  }
}

double OpenLoop::rtt_floor_us(std::size_t samples) {
  std::vector<double> rtt;
  Message req;
  req.type = MsgType::kStatus;
  req.stream = 0;
  for (std::size_t i = 0; i < samples; ++i) {
    const std::int64_t t0 = now_ns();
    const Message reply = roundtrip(conns_[0], req);
    rtt.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    if (reply.type != MsgType::kStatusReply) {
      throw std::runtime_error("STATUS(0) answered " +
                               sia::service::to_string(reply.type));
    }
  }
  return median(rtt);
}

void OpenLoop::send_frame(Stream& s, PhaseResult& r, bool traced) {
  const Waiting w = s.waiting.front();
  s.waiting.pop_front();
  const std::int64_t t_send = now_ns();
  Message m;
  m.type = MsgType::kCommit;
  m.stream = s.id;
  m.commits.push_back(s.source.next());
  const std::int64_t t_src = traced ? now_ns() : 0;
  const std::vector<std::uint8_t> bytes = sia::service::encode_frame(m);
  Conn& c = conns_[s.conn];
  c.out.insert(c.out.end(), bytes.begin(), bytes.end());
  InFlight f{w.due, s.sent_commits + 1, -1, w.request};
  if (traced) {
    const std::int64_t t_enc = now_ns();
    f.span = tracer_.add(span_frame_, w.due, 0, -1, w.request);
    tracer_.add(span_wait_, w.due, t_send, f.span, w.request);
    tracer_.add(span_source_, t_send, t_src, f.span, w.request);
    tracer_.add(span_encode_, t_src, t_enc, f.span, w.request);
  }
  const std::size_t idx = static_cast<std::size_t>(&s - streams_.data());
  log_[idx].push_back(FrameRecord{w.request, traced});
  ++s.sent_commits;
  s.inflight.push_back(f);
  ++inflight_total_;
  ++r.frames_sent;
  ++r.commits_sent;
}

void OpenLoop::flush() {
  for (Conn& c : conns_) {
    while (c.out_pos < c.out.size()) {
      const ssize_t n = ::send(c.fd, c.out.data() + c.out_pos,
                               c.out.size() - c.out_pos,
                               MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n > 0) {
        c.out_pos += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EINTR)) break;
      throw std::runtime_error("siad closed the connection");
    }
    if (c.out_pos == c.out.size()) {
      c.out.clear();
      c.out_pos = 0;
    }
  }
}

void OpenLoop::on_reply(const Message& m, PhaseResult& r, std::int64_t now,
                        bool traced, std::int64_t decode_start) {
  Stream* s = nullptr;
  for (Stream& cand : streams_) {
    if (cand.id == m.stream) {
      s = &cand;
      break;
    }
  }
  if (s == nullptr || s->inflight.empty()) {
    ++r.bad_replies;
    return;
  }
  const InFlight f = s->inflight.front();
  s->inflight.pop_front();
  --inflight_total_;
  if (m.type == MsgType::kCommitted) {
    if (m.ids.size() != 1 || m.ids[0] != f.first_id || m.verdict != 0) {
      ++r.bad_replies;
    }
    if (m.quarantined.empty()) {
      ++s->acked;
      ++r.commits_acked;
    } else {
      ++r.quarantined;
    }
    ++r.frames_acked;
    r.latency_ms.push_back(static_cast<double>(now - f.due) / 1e6);
  } else {
    ++r.refused;
    r.latency_ms.push_back(kMissedMs);
  }
  if (traced && f.span >= 0) {
    tracer_.set_end(f.span, now);
    tracer_.add(span_decode_, decode_start, now, f.span, f.request);
  }
}

void OpenLoop::receive(Conn& c, PhaseResult& r, bool traced) {
  std::uint8_t buf[65536];
  for (;;) {
    const ssize_t n = ::recv(c.fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (n > 0) {
      c.decoder.feed(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EINTR)) break;
    throw std::runtime_error("siad closed the connection");
  }
  for (;;) {
    const std::int64_t t0 = now_ns();
    Message m;
    const FrameDecoder::Status st = c.decoder.next(m);
    if (st == FrameDecoder::Status::kNeedMore) break;
    if (st == FrameDecoder::Status::kMalformed) {
      throw std::runtime_error("malformed reply from siad");
    }
    on_reply(m, r, now_ns(), traced, t0);
  }
}

PhaseResult OpenLoop::run(double rate, double seconds, bool traced) {
  PhaseResult r;
  r.offered_rate = rate;
  traced = traced && tracer_.enabled();
  const double interval = 1e9 / rate;
  const auto total = static_cast<std::size_t>(std::llround(rate * seconds));
  r.frames_due = total;
  r.latency_ms.reserve(total);
  r.late_ms.reserve(total);
  const std::int64_t cpu0 = thread_cpu_ns();
  const std::int64_t t0 = now_ns() + 1'000'000;
  const std::uint64_t request0 = next_request_;
  next_request_ += total;
  std::size_t k = 0;
  std::size_t waiting = 0;
  std::int64_t deadline = 0;
  std::vector<pollfd> fds(conns_.size());
  for (;;) {
    const std::int64_t now = now_ns();
    while (k < total) {
      const auto due = t0 + static_cast<std::int64_t>(static_cast<double>(k) *
                                                      interval);
      if (due > now) break;
      streams_[schedule_[k % schedule_.size()]].waiting.push_back(
          Waiting{due, request0 + k});
      r.late_ms.push_back(static_cast<double>(now - due) / 1e6);
      ++k;
      ++waiting;
    }
    if (k == total && deadline == 0) {
      r.backlog = waiting + inflight_total_;
      deadline = now + kDrainCapNs;
    }
    for (Stream& s : streams_) {
      if (waiting == 0) break;
      while (!s.waiting.empty() && s.inflight.size() < kWindow) {
        send_frame(s, r, traced);
        --waiting;
      }
    }
    flush();
    if (k == total && waiting == 0 && inflight_total_ == 0) break;
    if (deadline != 0 && now > deadline) break;
    std::int64_t wait_ns = 2'000'000;
    if (k < total) {
      const auto due = t0 + static_cast<std::int64_t>(static_cast<double>(k) *
                                                      interval);
      wait_ns = std::max<std::int64_t>(0, due - now_ns());
    }
    bool pending_out = false;
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      const bool out = conns_[i].out_pos < conns_[i].out.size();
      pending_out = pending_out || out;
      fds[i] = pollfd{conns_[i].fd,
                      static_cast<short>(POLLIN | (out ? POLLOUT : 0)), 0};
    }
    const timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                      static_cast<long>(wait_ns % 1'000'000'000)};
    const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (ready > 0) {
      for (std::size_t i = 0; i < conns_.size(); ++i) {
        if ((fds[i].revents & (POLLIN | POLLERR | POLLHUP)) != 0) {
          receive(conns_[i], r, traced);
        }
      }
    }
  }
  // Whatever is still in flight after the drain cap counts as unanswered;
  // frames never sent are dropped (their commits were never generated),
  // which fails the run's correctness gate.
  for (Stream& s : streams_) {
    for (std::size_t i = 0; i < s.inflight.size(); ++i) {
      ++r.unanswered;
      r.latency_ms.push_back(kMissedMs);
    }
    s.inflight.clear();
    s.waiting.clear();
  }
  inflight_total_ = 0;
  r.gen_cpu_ns = thread_cpu_ns() - cpu0;
  return r;
}

void PhaseResult::add(const PhaseResult& o) {
  offered_rate = o.offered_rate;
  frames_due += o.frames_due;
  frames_sent += o.frames_sent;
  frames_acked += o.frames_acked;
  commits_sent += o.commits_sent;
  commits_acked += o.commits_acked;
  refused += o.refused;
  quarantined += o.quarantined;
  unanswered += o.unanswered;
  bad_replies += o.bad_replies;
  backlog += o.backlog;
  latency_ms.insert(latency_ms.end(), o.latency_ms.begin(), o.latency_ms.end());
  late_ms.insert(late_ms.end(), o.late_ms.begin(), o.late_ms.end());
  gen_cpu_ns += o.gen_cpu_ns;
}

std::pair<std::uint64_t, std::uint64_t> OpenLoop::server_gauges() {
  std::uint64_t retained = 0;
  std::uint64_t bytes = 0;
  for (Stream& s : streams_) {
    Message req;
    req.type = MsgType::kStatus;
    req.stream = s.id;
    const Message reply = roundtrip(conns_[s.conn], req);
    if (reply.type == MsgType::kStatusReply) {
      retained = std::max(retained, reply.retained);
      bytes = std::max(bytes, reply.approx_bytes);
    }
  }
  return {retained, bytes};
}

bool OpenLoop::close_all(std::string& why) {
  bool ok = true;
  for (Stream& s : streams_) {
    Message req;
    req.type = MsgType::kClose;
    req.stream = s.id;
    const Message reply = roundtrip(conns_[s.conn], req);
    if (reply.type != MsgType::kClosed || reply.verdict != 0 ||
        reply.commit_count != s.acked) {
      ok = false;
      why += "stream " + std::to_string(s.id) + " closed " +
             sia::service::to_string(reply.type) + " verdict " +
             std::to_string(reply.verdict) + " count " +
             std::to_string(reply.commit_count) + " (acked " +
             std::to_string(s.acked) + "); ";
    }
  }
  return ok;
}

std::uint64_t OpenLoop::acked_commits() const {
  std::uint64_t total = 0;
  for (const Stream& s : streams_) total += s.acked;
  return total;
}

namespace {

// The ingest_wide workload's shape and measurement rules; README.md says
// why they are what they are. They are printed in every result.
constexpr std::size_t kConnections = 4;
constexpr std::size_t kStreamsPerConnection = 16;
constexpr std::uint32_t kKeys = 256;
constexpr double kWriteRatio = 0.1;
constexpr std::size_t kWriterSessions = 8;
constexpr std::size_t kOpsPerTxn = 4;
/// A run is a warm-up at the high rate, then kRounds rounds; each round is
/// a high-rate slice, a low-rate slice and the replay of the round's
/// frames. Shares of --seconds:
constexpr double kWarmupShare = 0.08;
constexpr double kHighShare = 0.035;
constexpr double kLowShare = 0.045;
constexpr std::size_t kRounds = 10;
/// Service time per round: the median and a quantile that lands in the
/// middle of the frames whose batch ran a GC pass (one frame in
/// gc_window / 2). Each figure, and siad's CPU per commit, is the
/// second-slowest round's (see second_slowest).
constexpr double kServiceTailQ = 0.998;
/// Ack latency (traced runs): p50 and tail per slice, then the mean of the
/// slices' values without the highest and the lowest.
constexpr double kAckTailQ = 0.99;
constexpr std::size_t kRttSamples = 2000;

IngestShape wide_shape(std::uint64_t seed) {
  IngestShape s;
  s.connections = kConnections;
  s.streams_per_connection = kStreamsPerConnection;
  s.spec.seed = seed;
  s.spec.num_keys = kKeys;
  s.spec.write_ratio = kWriteRatio;
  s.spec.writer_sessions = kWriterSessions;
  s.spec.ops_per_txn = kOpsPerTxn;
  s.spec.snapshot_every = 0;
  return s;
}

std::string constants_json(std::size_t gc_window) {
  JsonObject o;
  o.num("connections", static_cast<double>(kConnections))
      .num("streams_per_connection", static_cast<double>(kStreamsPerConnection))
      .num("commits_per_frame", 1)
      .num("num_keys", kKeys)
      .num("write_ratio", kWriteRatio)
      .num("writer_sessions", static_cast<double>(kWriterSessions))
      .num("ops_per_txn", static_cast<double>(kOpsPerTxn))
      .num("window_frames_per_stream", static_cast<double>(kWindow))
      .num("gc_window", static_cast<double>(gc_window))
      .num("warmup_share", kWarmupShare)
      .num("high_share", kHighShare)
      .num("low_share", kLowShare)
      .num("rounds", static_cast<double>(kRounds))
      .num("service_tail_q", kServiceTailQ)
      .num("ack_tail_q", kAckTailQ)
      .num("rtt_samples", static_cast<double>(kRttSamples));
  return o.render();
}

/// Ack latency of a rate's slices (one slice per round, in reply order).
struct AckStats {
  double p50_ms{0};
  double tail_ms{0};
  std::vector<double> p50s, tails;  ///< per slice
  std::size_t n{0};       ///< samples per slice
  std::size_t beyond{0};  ///< samples beyond each slice's tail
};

AckStats ack_stats(const PhaseResult& r) {
  AckStats out;
  const std::size_t per = r.latency_ms.size() / kRounds;
  for (std::size_t w = 0; w < kRounds && per > 0; ++w) {
    std::vector<double> lat(r.latency_ms.begin() + static_cast<std::ptrdiff_t>(w * per),
                            r.latency_ms.begin() + static_cast<std::ptrdiff_t>((w + 1) * per));
    std::sort(lat.begin(), lat.end());
    out.p50s.push_back(percentile(lat, 0.5).value);
    const Percentile tail = percentile(lat, kAckTailQ);
    out.tails.push_back(tail.value);
    out.n = per;
    out.beyond = tail.beyond;
  }
  out.p50_ms = trimmed_mean(out.p50s);
  out.tail_ms = trimmed_mean(out.tails);
  return out;
}

std::string phase_json(const PhaseResult& r) {
  const AckStats st = ack_stats(r);
  std::vector<double> late = r.late_ms;
  std::sort(late.begin(), late.end());
  JsonObject o;
  o.num("rate", r.offered_rate)
      .num("frames_due", static_cast<double>(r.frames_due))
      .num("frames_acked", static_cast<double>(r.frames_acked))
      .num("commits_sent", static_cast<double>(r.commits_sent))
      .num("n", static_cast<double>(st.n))
      .num("ack_p50_ms", st.p50_ms)
      .num("ack_tail_ms", st.tail_ms)
      .num("ack_tail_beyond", static_cast<double>(st.beyond))
      .nums("slice_ack_p50_ms", st.p50s)
      .nums("slice_ack_tail_ms", st.tails)
      .num("late_p99_ms", percentile(late, 0.99).value)
      .num("refused", static_cast<double>(r.refused))
      .num("quarantined", static_cast<double>(r.quarantined))
      .num("unanswered", static_cast<double>(r.unanswered))
      .num("bad_replies", static_cast<double>(r.bad_replies))
      .num("backlog", static_cast<double>(r.backlog));
  return o.render();
}

/// Replays, in-process, the exact frames the open loop sent, each stream
/// through its own StreamingMonitor: request decode, commit_all_guarded
/// (exactly what a siad shard runs) and reply encode — the work siad does
/// for a COMMIT frame, less its sockets and queues. Every frame's service
/// time is that work's thread CPU time; traced frames also get spans and
/// the per-layer figures.
class Replayer {
 public:
  Replayer(const OpenLoop& loop, std::size_t gc_window, Tracer& tracer)
      : loop_(loop), tracer_(tracer) {
    n_frame_ = tracer_.name("replay.frame");
    n_source_ = tracer_.name("replay.source.next");
    n_encode_ = tracer_.name("replay.wire.encode");
    n_decode_ = tracer_.name("replay.wire.decode");
    n_monitor_ = tracer_.name("replay.monitor.commit_all_guarded");
    sia::StreamingConfig cfg;
    cfg.gc_window = gc_window;
    const std::size_t n = loop.frame_log().size();
    monitor_ns_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      streams_.push_back(std::make_unique<Stream>(
          sia::workload::StreamSource(stream_spec(loop.shape(), i)), cfg));
    }
  }

  /// Replays every frame sent since the last call; returns the service
  /// times (ns) of those frames.
  std::vector<double> advance() {
    std::vector<double> service_ns;
    const auto& log = loop_.frame_log();
    for (std::size_t i = 0; i < log.size(); ++i) {
      Stream& st = *streams_[i];
      for (; st.cursor < log[i].size(); ++st.cursor) {
        service_ns.push_back(replay_frame(i, st, log[i][st.cursor]));
      }
    }
    return service_ns;
  }

  // Figures over the traced frames.
  double encode_ns{0}, decode_ns{0}, server_codec_ns{0}, source_ns{0};
  double bytes{0};
  std::uint64_t traced_frames{0};
  std::vector<double> gc_batch_us;
  std::uint64_t retained_peak{0}, bytes_peak{0};
  // Over every frame: the correctness gate.
  std::uint64_t quarantined{0}, bad_ids{0};

  /// Monitor time of every traced frame, pooled over streams.
  [[nodiscard]] std::vector<double> monitor_ns() const {
    std::vector<double> all;
    for (const auto& v : monitor_ns_) all.insert(all.end(), v.begin(), v.end());
    return all;
  }
  /// Commits per second of monitor time over the first and the last tenth
  /// of each stream's traced frames.
  [[nodiscard]] std::pair<double, double> decile_rates() const {
    double first_n = 0, first_ns = 0, last_n = 0, last_ns = 0;
    for (const auto& v : monitor_ns_) {
      const std::size_t d = std::max<std::size_t>(1, v.size() / 10);
      for (std::size_t j = 0; j < v.size(); ++j) {
        if (j < d) {
          ++first_n;
          first_ns += v[j];
        }
        if (j + d >= v.size()) {
          ++last_n;
          last_ns += v[j];
        }
      }
    }
    return {first_ns > 0 ? first_n / first_ns * 1e9 : 0,
            last_ns > 0 ? last_n / last_ns * 1e9 : 0};
  }
  /// Every stream's monitor is still consistent.
  [[nodiscard]] bool all_consistent() const {
    for (const auto& s : streams_) {
      if (!s->monitor.consistent()) return false;
    }
    return true;
  }

 private:
  struct Stream {
    Stream(sia::workload::StreamSource src, const sia::StreamingConfig& cfg)
        : source(std::move(src)), monitor(sia::Model::kSI, cfg) {}
    sia::workload::StreamSource source;
    sia::StreamingMonitor monitor;
    FrameDecoder request_decoder;
    FrameDecoder reply_decoder;
    std::uint64_t next_id{1};
    std::size_t cursor{0};
  };

  double replay_frame(std::size_t i, Stream& st,
                      const OpenLoop::FrameRecord& rec) {
    const bool traced = rec.traced && tracer_.enabled();
    const auto stamp = [traced] { return traced ? now_ns() : 0; };
    Message m;
    m.type = MsgType::kCommit;
    m.stream = loop_.stream_id(i);
    const std::int64_t t0 = stamp();
    m.commits.push_back(st.source.next());
    const std::int64_t t1 = stamp();
    const std::vector<std::uint8_t> req = sia::service::encode_frame(m);
    const std::int64_t t2 = stamp();

    const std::int64_t cpu0 = thread_cpu_ns();
    st.request_decoder.feed(req.data(), req.size());
    Message decoded;
    if (st.request_decoder.next(decoded) != FrameDecoder::Status::kFrame) {
      throw std::runtime_error("replay: request frame does not decode");
    }
    const std::int64_t t3 = stamp();
    const std::size_t pruned_before = st.monitor.pruned();
    const sia::BatchResult res = st.monitor.commit_all_guarded(decoded.commits);
    const std::int64_t t4 = stamp();
    Message reply;
    reply.type = MsgType::kCommitted;
    reply.stream = m.stream;
    reply.verdict = static_cast<std::uint8_t>(st.monitor.verdict());
    reply.ids = res.ids;
    reply.quarantined.assign(res.quarantined.begin(), res.quarantined.end());
    const std::vector<std::uint8_t> out = sia::service::encode_frame(reply);
    const std::int64_t cpu1 = thread_cpu_ns();

    quarantined += res.quarantined.size();
    if (res.ids.size() != 1 || res.ids[0] != st.next_id) ++bad_ids;
    ++st.next_id;
    if (!traced) return static_cast<double>(cpu1 - cpu0);

    const std::int64_t t5 = now_ns();
    st.reply_decoder.feed(out.data(), out.size());
    Message reply_decoded;
    if (st.reply_decoder.next(reply_decoded) != FrameDecoder::Status::kFrame) {
      throw std::runtime_error("replay: reply frame does not decode");
    }
    const std::int64_t t6 = now_ns();
    const std::int64_t root = tracer_.add(n_frame_, t0, t6, -1, rec.request);
    tracer_.add(n_source_, t0, t1, root, rec.request);
    tracer_.add(n_encode_, t1, t2, root, rec.request);
    tracer_.add(n_decode_, t2, t3, root, rec.request);
    tracer_.add(n_monitor_, t3, t4, root, rec.request);
    tracer_.add(n_encode_, t4, t5, root, rec.request);
    tracer_.add(n_decode_, t5, t6, root, rec.request);

    const double monitor = static_cast<double>(t4 - t3);
    source_ns += static_cast<double>(t1 - t0);
    encode_ns += static_cast<double>((t2 - t1) + (t5 - t4));
    decode_ns += static_cast<double>((t3 - t2) + (t6 - t5));
    // What a siad shard and IO thread spend on codec for this frame.
    server_codec_ns += static_cast<double>((t3 - t2) + (t5 - t4));
    bytes += static_cast<double>(req.size());
    ++traced_frames;
    monitor_ns_[i].push_back(monitor);
    if (st.monitor.pruned() > pruned_before) gc_batch_us.push_back(monitor / 1e3);
    retained_peak = std::max<std::uint64_t>(retained_peak, st.monitor.retained());
    bytes_peak = std::max<std::uint64_t>(bytes_peak, st.monitor.approx_bytes());
    return static_cast<double>(cpu1 - cpu0);
  }

  const OpenLoop& loop_;
  Tracer& tracer_;
  std::vector<std::unique_ptr<Stream>> streams_;
  std::vector<std::vector<double>> monitor_ns_;  ///< per stream, traced frames
  std::uint32_t n_frame_{0}, n_source_{0}, n_encode_{0}, n_decode_{0},
      n_monitor_{0};
};

}  // namespace

int run_ingest(const Args& args) {
  const auto seed = static_cast<std::uint64_t>(args.num("seed"));
  const double seconds = args.num("seconds");
  const bool trace = args.num("trace") != 0;
  const double low = args.num("low");
  const double high = args.num("high");
  // siad's own window, as its startup line reported it.
  const auto gc_window = static_cast<std::size_t>(args.num("gc-window"));
  const auto siad_pid = static_cast<int>(args.num("siad-pid"));
  if (low <= 0 || high <= low) throw std::runtime_error("need 0 < --low < --high");

  Tracer tracer(trace);
  OpenLoop loop(wide_shape(seed), static_cast<std::uint16_t>(args.num("port")),
                tracer);
  loop.open();
  const double rtt_us = loop.rtt_floor_us(kRttSamples);
  Replayer replayer(loop, gc_window, tracer);

  // The warm-up is long enough for every stream's monitor to pass its GC
  // window and reach steady state; its frames are replayed but not timed.
  // Each round's replay runs while siad idles between slices, so the
  // service times sample the host across the whole run. Traced, each
  // round adds an untraced high slice that prices the tracing itself.
  (void)loop.run(high, kWarmupShare * seconds, false);
  (void)replayer.advance();
  PhaseResult high_r, high_untraced, low_r;
  std::vector<double> round_p50_us, round_tail_us, round_siad_ms;
  std::size_t service_n = 0;
  std::size_t tail_beyond = 0;
  for (std::size_t i = 0; i < kRounds; ++i) {
    const double siad0 = process_cpu_s(siad_pid);
    const PhaseResult h = loop.run(high, kHighShare * seconds, trace);
    const PhaseResult hu =
        trace ? loop.run(high, kHighShare * seconds, false) : PhaseResult{};
    const PhaseResult l = loop.run(low, kLowShare * seconds, trace);
    // siad's CPU per 1000 commits over the round's slices; it idles while
    // the replay runs.
    const double commits = static_cast<double>(
        h.commits_acked + hu.commits_acked + l.commits_acked);
    round_siad_ms.push_back((process_cpu_s(siad_pid) - siad0) * 1e6 /
                            std::max(1.0, commits));
    high_r.add(h);
    high_untraced.add(hu);
    low_r.add(l);
    std::vector<double> round = replayer.advance();
    std::sort(round.begin(), round.end());
    round_p50_us.push_back(percentile(round, 0.5).value / 1e3);
    const Percentile tail = percentile(round, kServiceTailQ);
    round_tail_us.push_back(tail.value / 1e3);
    service_n += round.size();
    tail_beyond = tail.beyond;
  }

  const auto [server_retained, server_bytes] = loop.server_gauges();
  std::string why;
  bool correct = loop.close_all(why);
  for (const PhaseResult* r : {&high_r, &high_untraced, &low_r}) {
    if (r->bad_replies != 0 || r->failed() != 0 || r->frames_acked != r->frames_due) {
      correct = false;
      why += "a fixed-rate phase had failed, missing or unexpected replies; ";
    }
  }
  if (replayer.bad_ids != 0 || replayer.quarantined != 0 ||
      !replayer.all_consistent()) {
    correct = false;
    why += "the replay's monitors disagree with siad; ";
  }

  JsonObject service;
  service.num("n", static_cast<double>(service_n))
      .num("p50_us", second_slowest(round_p50_us, true))
      .nums("round_p50_us", round_p50_us)
      .num("tail_q", kServiceTailQ)
      .num("tail_us", second_slowest(round_tail_us, true))
      .nums("round_tail_us", round_tail_us)
      .num("tail_beyond_per_round", static_cast<double>(tail_beyond));
  JsonObject siad;
  siad.num("cpu_ms_per_kcommit", second_slowest(round_siad_ms, true))
      .nums("round_cpu_ms_per_kcommit", round_siad_ms);
  JsonObject out;
  out.boolean("correct", correct)
      .str("why", why)
      .raw("constants", constants_json(gc_window))
      .raw("service", service.render())
      .raw("siad", siad.render())
      .num("rtt_floor_us", rtt_us)
      .raw("low", phase_json(low_r))
      .raw("high", phase_json(high_r))
      .num("attempted", static_cast<double>(low_r.commits_sent + high_r.commits_sent +
                                            high_untraced.commits_sent))
      .num("failed", static_cast<double>(low_r.failed() + high_r.failed() +
                                         high_untraced.failed()))
      .num("acked_commits", static_cast<double>(loop.acked_commits()))
      .num("server_retained_max", static_cast<double>(server_retained))
      .num("server_approx_bytes_max", static_cast<double>(server_bytes));

  if (trace) {
    const double frames = std::max<double>(1, static_cast<double>(replayer.traced_frames));
    std::vector<double> monitor_ns = replayer.monitor_ns();
    std::sort(monitor_ns.begin(), monitor_ns.end());
    const double monitor_us = percentile(monitor_ns, 0.5).value / 1e3;
    const double codec_us = replayer.server_codec_ns / frames / 1e3;
    const auto [first_rate, last_rate] = replayer.decile_rates();
    const AckStats ack_low = ack_stats(low_r);
    const AckStats ack_high = ack_stats(high_r);
    std::vector<double> late = high_r.late_ms;
    std::sort(late.begin(), late.end());
    const double cpu_traced = static_cast<double>(high_r.gen_cpu_ns) /
                              std::max<double>(1, static_cast<double>(high_r.frames_sent));
    const double cpu_plain = static_cast<double>(high_untraced.gen_cpu_ns) /
                             std::max<double>(1, static_cast<double>(high_untraced.frames_sent));
    JsonObject layers;
    layers.num("ack.p50_ms.low", ack_low.p50_ms)
        .num("ack.tail_ms.low", ack_low.tail_ms)
        .num("ack.p50_ms.high", ack_high.p50_ms)
        .num("ack.tail_ms.high", ack_high.tail_ms)
        .num("wire.encode_ns_per_frame", replayer.encode_ns / frames)
        .num("wire.decode_ns_per_frame", replayer.decode_ns / frames)
        .num("wire.bytes_per_commit", replayer.bytes / frames)
        .num("siad.rtt_floor_us", rtt_us)
        .num("siad.unattributed_us.low",
             ack_low.p50_ms * 1e3 - rtt_us - codec_us - monitor_us)
        .num("siad.unattributed_us.high",
             ack_high.p50_ms * 1e3 - rtt_us - codec_us - monitor_us)
        .num("monitor.ns_per_commit.p50", percentile(monitor_ns, 0.5).value)
        .num("monitor.ns_per_commit.p99", percentile(monitor_ns, 0.99).value)
        .num("monitor.gc_batch_us.p50", median(replayer.gc_batch_us))
        .num("monitor.gc_passes", static_cast<double>(replayer.gc_batch_us.size()))
        .num("monitor.commits_per_s.first_decile", first_rate)
        .num("monitor.commits_per_s.last_decile", last_rate)
        .num("monitor.retained_peak", static_cast<double>(replayer.retained_peak))
        .num("monitor.bytes_peak", static_cast<double>(replayer.bytes_peak))
        .num("monitor.quarantined",
             static_cast<double>(replayer.quarantined + high_r.quarantined +
                                 low_r.quarantined))
        .num("source.ns_per_commit", replayer.source_ns / frames)
        .num("gen.late_p99_ms", percentile(late, 0.99).value)
        .num("bench.trace_overhead_frac",
             cpu_plain > 0 ? cpu_traced / cpu_plain - 1 : 0);
    out.raw("layers", layers.render());
    if (!tracer.write(args.str("trace-out"))) {
      throw std::runtime_error("cannot write the trace file");
    }
  }
  std::printf("%s\n", out.render().c_str());
  return correct ? 0 : 1;
}

}  // namespace perfbench
