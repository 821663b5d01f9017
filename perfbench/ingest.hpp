#pragma once

/// \file ingest.hpp
/// The open-loop load generator of the ingest workload. One thread
/// multiplexes every connection; frames fall due on a fixed schedule
/// whatever the server does, and each frame's latency runs from its due
/// time, so a stall is charged to every frame that fell due during it.

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common.hpp"
#include "service/wire.hpp"
#include "workload/stream_source.hpp"

namespace perfbench {

/// Frames one stream may have in flight. With at most 32 streams per
/// shard this keeps the requests queued at siad below its default
/// admission bound (256), so an overloaded server backs up in the
/// generator, where it is measured, and never earns RETRY_LATER.
inline constexpr std::size_t kWindow = 4;

/// Latency charged to a refused or unanswered frame: it misses any limit.
inline constexpr double kMissedMs = 1e6;

/// Traffic shape of the open loop. Every COMMIT frame carries one commit.
struct IngestShape {
  std::size_t connections{1};
  std::size_t streams_per_connection{1};
  /// Stream i draws from a StreamSource with this spec and seed
  /// spec.seed + 7919 * i.
  sia::workload::StreamSpec spec;
};

/// Outcome of one fixed-rate phase.
struct PhaseResult {
  double offered_rate{0};  ///< commits/s
  std::size_t frames_due{0};
  std::size_t frames_sent{0};
  std::size_t frames_acked{0};
  std::uint64_t commits_sent{0};
  std::uint64_t commits_acked{0};
  std::uint64_t refused{0};      ///< commits answered RETRY_LATER or ERROR
  std::uint64_t quarantined{0};  ///< commits the server quarantined
  std::uint64_t unanswered{0};   ///< commits sent and never answered
  std::uint64_t bad_replies{0};  ///< replies with unexpected ids / verdict
  /// Frames due but not yet answered when the schedule ended.
  std::size_t backlog{0};
  std::vector<double> latency_ms;  ///< per frame, from its due time
  std::vector<double> late_ms;     ///< how late the generator saw each frame
  std::int64_t gen_cpu_ns{0};      ///< generator thread CPU over the phase

  [[nodiscard]] std::uint64_t failed() const {
    return refused + quarantined + unanswered;
  }
  /// Appends another phase at the same rate: counters add up, samples
  /// follow this phase's.
  void add(const PhaseResult& o);
};

class OpenLoop {
 public:
  OpenLoop(IngestShape shape, std::uint16_t port, Tracer& tracer);
  ~OpenLoop();
  OpenLoop(const OpenLoop&) = delete;
  OpenLoop& operator=(const OpenLoop&) = delete;

  /// Connects and opens every stream (blocking round-trips).
  void open();
  /// Median of \p samples idle STATUS(0) round-trips, microseconds.
  double rtt_floor_us(std::size_t samples);
  /// Offers \p rate commits/s for \p seconds; every due frame is sent and
  /// answered (or given up after a drain cap) before it returns. \p traced
  /// records spans and marks the frames, whose replay is then traced too.
  PhaseResult run(double rate, double seconds, bool traced);
  /// STATUS of every stream: largest retained count and approx_bytes.
  std::pair<std::uint64_t, std::uint64_t> server_gauges();
  /// CLOSEs every stream. False (with why) unless each closes consistent
  /// with a commit count equal to the commits it had acked.
  bool close_all(std::string& why);

  /// Frames each stream sent, in order; `traced` marks those of traced
  /// phases.
  struct FrameRecord {
    std::uint64_t request{0};
    bool traced{false};
  };
  [[nodiscard]] const std::vector<std::vector<FrameRecord>>& frame_log() const {
    return log_;
  }
  [[nodiscard]] std::uint64_t acked_commits() const;
  [[nodiscard]] const IngestShape& shape() const { return shape_; }
  [[nodiscard]] std::uint64_t stream_id(std::size_t i) const {
    return streams_[i].id;
  }

 private:
  struct Conn {
    int fd{-1};
    sia::service::FrameDecoder decoder;
    std::vector<std::uint8_t> out;
    std::size_t out_pos{0};
  };
  struct InFlight {
    std::int64_t due{0};
    std::uint64_t first_id{0};
    std::int64_t span{-1};
    std::uint64_t request{0};
  };
  struct Waiting {
    std::int64_t due{0};
    std::uint64_t request{0};
  };
  struct Stream {
    std::uint64_t id{0};
    std::size_t conn{0};
    sia::workload::StreamSource source;
    std::deque<Waiting> waiting;
    std::deque<InFlight> inflight;
    std::uint64_t sent_commits{0};
    std::uint64_t acked{0};
  };

  sia::service::Message roundtrip(Conn& c, const sia::service::Message& req);
  void send_frame(Stream& s, PhaseResult& r, bool traced);
  void flush();
  void receive(Conn& c, PhaseResult& r, bool traced);
  void on_reply(const sia::service::Message& m, PhaseResult& r,
                std::int64_t now, bool traced, std::int64_t decode_start);

  IngestShape shape_;
  std::uint16_t port_;
  Tracer& tracer_;
  std::vector<Conn> conns_;
  std::vector<Stream> streams_;
  std::vector<std::vector<FrameRecord>> log_;
  /// Stream of each frame slot, repeated: frame k goes to
  /// streams_[schedule_[k % size]].
  std::vector<std::size_t> schedule_;
  std::uint64_t next_request_{0};
  std::size_t inflight_total_{0};
  std::uint32_t span_frame_{0}, span_wait_{0}, span_source_{0},
      span_encode_{0}, span_decode_{0};
};

}  // namespace perfbench
