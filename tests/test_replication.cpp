#include "service/replication.hpp"

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "service/client.hpp"
#include "service/server.hpp"
#include "workload/stream_source.hpp"

/// Warm-standby replication and failover (DESIGN.md §4h): the follower's
/// state must be bit-identical to the primary's by replay determinism,
/// promotion must fence the deposed primary, and killing the primary
/// mid-load must lose no acknowledged commit — the FailoverClient's
/// sequenced resends make the audit exact across the switch.

namespace sia::service {
namespace {

using Clock = std::chrono::steady_clock;

/// A unique WAL directory per test; removed (files + dir) on destruction.
class TempWalDir {
 public:
  explicit TempWalDir(const std::string& tag)
      : path_(std::string(::testing::TempDir()) + "sia_repl_" + tag) {
    (void)::mkdir(path_.c_str(), 0755);
  }
  ~TempWalDir() {
    for (std::size_t s = 0; s < 16; ++s) {
      std::remove(wal_path(path_, s).c_str());
    }
    (void)::rmdir(path_.c_str());
  }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

struct PairOpts {
  std::size_t shards{2};
  std::uint64_t heartbeat_ms{25};
  std::uint64_t auto_promote_ms{0};
  std::string primary_wal{};
  std::string follower_wal{};
};

/// A follower plus a primary shipping to it, identically sharded.
struct Pair {
  explicit Pair(const PairOpts& opts = PairOpts{}) {
    ServerConfig fcfg;
    fcfg.shards = opts.shards;
    fcfg.follower = true;
    fcfg.repl.auto_promote_ms = opts.auto_promote_ms;
    fcfg.repl.wal_dir = opts.follower_wal;
    follower = std::make_unique<Server>(fcfg);
    follower->start();

    ServerConfig pcfg;
    pcfg.shards = opts.shards;
    pcfg.repl.peer_port = follower->port();
    pcfg.repl.heartbeat_interval_ms = opts.heartbeat_ms;
    pcfg.repl.wal_dir = opts.primary_wal;
    primary = std::make_unique<Server>(pcfg);
    primary->start();
  }

  // Declared follower-first so the primary (with its shipping link) is
  // destroyed before the follower it ships to.
  std::unique_ptr<Server> follower;
  std::unique_ptr<Server> primary;
};

bool wait_for(const std::function<bool()>& pred, std::uint64_t budget_ms) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(budget_ms);
  while (Clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

std::vector<MonitoredCommit> next_batch(workload::StreamSource& source,
                                        std::size_t n) {
  std::vector<MonitoredCommit> batch;
  batch.reserve(n);
  for (std::size_t i = 0; i < n; ++i) batch.push_back(source.next());
  return batch;
}

/// The per-stream gauges two servers must agree on bit-for-bit.
void expect_status_identical(const Message& a, const Message& b,
                             const std::string& what) {
  ASSERT_EQ(a.type, MsgType::kStatusReply) << what;
  ASSERT_EQ(b.type, MsgType::kStatusReply) << what;
  EXPECT_EQ(a.verdict, b.verdict) << what;
  EXPECT_EQ(a.commit_count, b.commit_count) << what;
  EXPECT_EQ(a.retained, b.retained) << what;
  EXPECT_EQ(a.pruned, b.pruned) << what;
  EXPECT_EQ(a.watermark, b.watermark) << what;
  EXPECT_EQ(a.approx_bytes, b.approx_bytes) << what;
}

// Every acked mutation is on the follower by the time the ack arrives
// (shipping is synchronous), and the follower's per-stream monitors are
// bit-identical to the primary's — verdict, counts and memory gauges.
TEST(Replication, FollowerMirrorsPrimaryState) {
  Pair pair;
  ServiceClient client;
  client.connect("127.0.0.1", pair.primary->port());
  ServiceClient observer;
  observer.connect("127.0.0.1", pair.follower->port());

  std::vector<std::uint64_t> streams;
  for (int s = 0; s < 3; ++s) {
    streams.push_back(client.open_stream(Model::kSI));
  }
  for (std::size_t s = 0; s < streams.size(); ++s) {
    workload::StreamSpec spec;
    spec.seed = 11 + s;
    workload::StreamSource source(spec);
    for (int b = 0; b < 8; ++b) {
      const Message reply =
          client.commit(streams[s], next_batch(source, 8));
      ASSERT_EQ(reply.type, MsgType::kCommitted);
      EXPECT_TRUE(reply.quarantined.empty());
    }
  }

  for (const std::uint64_t stream : streams) {
    expect_status_identical(client.status(stream), observer.status(stream),
                            "stream " + std::to_string(stream));
  }

  const ServerStats ps = pair.primary->stats();
  const ServerStats fs = pair.follower->stats();
  EXPECT_GT(ps.repl_shipped, 0u);
  EXPECT_EQ(ps.repl_shipped, ps.repl_acked);  // synchronous: all acked
  EXPECT_EQ(fs.repl_applied, ps.repl_acked);
  EXPECT_FALSE(pair.primary->repl_degraded());
  EXPECT_FALSE(pair.follower->repl_quarantined());

  // CLOSE replicates too: the follower erases the stream with us.
  ASSERT_EQ(client.close_stream(streams[0]).type, MsgType::kClosed);
  EXPECT_EQ(observer.status(streams[0]).type, MsgType::kError);
  expect_status_identical(client.status(streams[1]),
                          observer.status(streams[1]), "after close");
}

TEST(Replication, FollowerRefusesClientWritesButServesReads) {
  Pair pair;
  ServiceClient client;
  client.connect("127.0.0.1", pair.primary->port());
  const std::uint64_t stream = client.open_stream(Model::kSI);
  workload::StreamSource source({});
  ASSERT_EQ(client.commit(stream, next_batch(source, 4)).type,
            MsgType::kCommitted);

  ServiceClient standby;
  standby.connect("127.0.0.1", pair.follower->port());

  Message open;
  open.type = MsgType::kOpenStream;
  open.model = static_cast<std::uint8_t>(ServiceModel::kSI);
  const Message refused = standby.request(open);
  ASSERT_EQ(refused.type, MsgType::kError);
  EXPECT_EQ(refused.text.rfind("not primary", 0), 0u) << refused.text;

  Message commit;
  commit.type = MsgType::kCommit;
  commit.stream = stream;
  EXPECT_EQ(standby.request(commit).type, MsgType::kError);

  // Reads are fine: per-stream STATUS and the global role/epoch form.
  EXPECT_EQ(standby.status(stream).type, MsgType::kStatusReply);
  const Message global = standby.status(0);
  ASSERT_EQ(global.type, MsgType::kStatusReply);
  EXPECT_EQ(static_cast<Role>(global.role), Role::kFollower);
  EXPECT_EQ(global.epoch, 1u);  // the epoch of the primary it follows
}

// Operator failover: PROMOTE flips the follower to primary at epoch + 1,
// it starts accepting writes, and the deposed primary — told FENCED on
// its next shipped frame or heartbeat — stops accepting them.
TEST(Replication, ExplicitPromoteFencesDeposedPrimary) {
  Pair pair;
  ServiceClient client;
  client.connect("127.0.0.1", pair.primary->port());
  const std::uint64_t stream = client.open_stream(Model::kSI);
  workload::StreamSource source({});
  ASSERT_EQ(client.commit(stream, next_batch(source, 4)).type,
            MsgType::kCommitted);

  ServiceClient standby;
  standby.connect("127.0.0.1", pair.follower->port());
  const Message promoted = standby.promote();
  ASSERT_EQ(promoted.type, MsgType::kPromoted);
  EXPECT_EQ(promoted.epoch, 2u);
  EXPECT_EQ(static_cast<Role>(promoted.role), Role::kPrimary);
  EXPECT_EQ(pair.follower->role(), Role::kPrimary);
  EXPECT_EQ(pair.follower->stats().promotions, 1u);

  // The new primary accepts writes — including on the replicated stream.
  ASSERT_EQ(standby.commit(stream, next_batch(source, 4)).type,
            MsgType::kCommitted);
  EXPECT_GT(standby.open_stream(Model::kSI), stream);  // id never reissued

  // The zombie is fenced within a heartbeat + role tick; until then it
  // may still ack locally (the documented split-brain window).
  ASSERT_TRUE(wait_for(
      [&] { return pair.primary->role() == Role::kFencedRole; }, 3000));
  const Message refused = client.commit(stream, next_batch(source, 2));
  ASSERT_EQ(refused.type, MsgType::kError);
  EXPECT_EQ(refused.text.rfind("not primary", 0), 0u) << refused.text;
  EXPECT_GE(pair.follower->stats().fenced, 1u);
}

TEST(Replication, HeartbeatLossAutoPromotes) {
  Pair pair({.shards = 2, .heartbeat_ms = 25, .auto_promote_ms = 200});
  ServiceClient client;
  client.connect("127.0.0.1", pair.primary->port());
  const std::uint64_t stream = client.open_stream(Model::kSI);
  workload::StreamSource source({});
  ASSERT_EQ(client.commit(stream, next_batch(source, 4)).type,
            MsgType::kCommitted);
  EXPECT_EQ(pair.follower->role(), Role::kFollower);

  pair.primary->hard_stop();  // SIGKILL stand-in: no drain, no goodbyes
  ASSERT_TRUE(wait_for(
      [&] { return pair.follower->role() == Role::kPrimary; }, 5000));
  EXPECT_GE(pair.follower->epoch(), 2u);
  EXPECT_EQ(pair.follower->stats().promotions, 1u);

  // The promoted server carries the replicated state forward.
  ServiceClient standby;
  standby.connect("127.0.0.1", pair.follower->port());
  const Message st = standby.status(stream);
  ASSERT_EQ(st.type, MsgType::kStatusReply);
  EXPECT_EQ(st.commit_count, 4u);
}

// The tentpole acceptance test, in-process: kill the primary mid-load
// with hard_stop (nothing reaches the wire that a real SIGKILL would not
// have sent), let the follower auto-promote, and drive a FailoverClient
// through the switch. Zero lost or duplicated commits: the server's
// final count equals the client's acks, and the verdict and memory
// gauges equal a local mirror of exactly the acked batches.
TEST(Replication, KillThePrimaryMidLoadLosesNothing) {
  Pair pair({.shards = 2, .heartbeat_ms = 25, .auto_promote_ms = 200});
  FailoverClient fc({{"127.0.0.1", pair.primary->port()},
                     {"127.0.0.1", pair.follower->port()}});
  fc.connect();
  const std::uint64_t stream = fc.open_stream(ServiceModel::kSI);

  StreamingMonitor local(Model::kSI);  // default config, like the server
  workload::StreamSpec spec;
  spec.seed = 77;
  workload::StreamSource source(spec);

  std::uint64_t acked_commits = 0;
  std::uint64_t seq = 0;
  constexpr int kBatches = 40;
  constexpr int kKillAt = 12;
  for (int b = 0; b < kBatches; ++b) {
    if (b == kKillAt) pair.primary->hard_stop();
    const std::vector<MonitoredCommit> batch = next_batch(source, 8);
    ++seq;
    Message reply;
    for (;;) {
      reply = fc.commit(stream, seq, batch);
      if (reply.type != MsgType::kRetryLater) break;
    }
    ASSERT_EQ(reply.type, MsgType::kCommitted) << "batch " << b;
    ASSERT_TRUE(reply.quarantined.empty());
    acked_commits += reply.ids.size();
    (void)local.commit_all_guarded(batch);
  }

  EXPECT_GE(fc.failovers(), 1u);
  EXPECT_GE(fc.epoch(), 2u);
  const Message global = fc.server_status();
  ASSERT_EQ(global.type, MsgType::kStatusReply);
  EXPECT_EQ(static_cast<Role>(global.role), Role::kPrimary);

  const Message st = fc.status(stream);
  ASSERT_EQ(st.type, MsgType::kStatusReply);
  EXPECT_EQ(acked_commits, static_cast<std::uint64_t>(kBatches) * 8u);
  EXPECT_EQ(st.commit_count, acked_commits) << "lost or duplicated commits";
  EXPECT_EQ(st.verdict, static_cast<std::uint8_t>(local.verdict()));
  EXPECT_EQ(st.retained, local.retained());
  EXPECT_EQ(st.pruned, local.pruned());
  EXPECT_EQ(st.approx_bytes, local.approx_bytes());
}

// A resend whose original was applied must be answered from the seq
// cache, not re-ingested — the exactly-once half of the failover story,
// exercised directly.
TEST(Replication, DuplicateSeqServedFromCacheNotReingested) {
  Server server{ServerConfig{}};
  server.start();
  ServiceClient client;
  client.connect("127.0.0.1", server.port());
  const std::uint64_t stream = client.open_stream(Model::kSI);
  workload::StreamSource source({});
  const std::vector<MonitoredCommit> batch = next_batch(source, 4);

  const Message first = client.commit(stream, batch, /*seq=*/1);
  ASSERT_EQ(first.type, MsgType::kCommitted);
  const Message dup = client.commit(stream, batch, /*seq=*/1);
  ASSERT_EQ(dup.type, MsgType::kCommitted);
  EXPECT_EQ(dup.ids, first.ids);  // the recorded reply, verbatim
  const Message st = client.status(stream);
  EXPECT_EQ(st.commit_count, 4u) << "duplicate was re-ingested";
}

// The WAL is the state: replaying a primary's WAL directory offline must
// rebuild monitors bit-identical to the live server's streams.
TEST(Replication, WalOfflineReplayRebuildsLiveState) {
  TempWalDir dir("replay");
  ServerConfig cfg;
  cfg.shards = 2;
  cfg.repl.wal_dir = dir.path();
  cfg.repl.fsync = mvcc::FsyncPolicy::kInterval;
  cfg.repl.fsync_interval = 8;
  Server server(cfg);
  server.start();
  ServiceClient client;
  client.connect("127.0.0.1", server.port());

  std::vector<std::uint64_t> streams;
  std::vector<Message> live_status;
  for (int s = 0; s < 2; ++s) {
    streams.push_back(client.open_stream(Model::kSI));
    workload::StreamSpec spec;
    spec.seed = 31 + s;
    workload::StreamSource source(spec);
    for (int b = 0; b < 6; ++b) {
      ASSERT_EQ(client.commit(streams[s], next_batch(source, 8)).type,
                MsgType::kCommitted);
    }
    live_status.push_back(client.status(streams[s]));
  }
  server.drain();  // syncs every shard WAL

  const WalReplay replay = replay_wal(dir.path(), cfg.shards, {});
  EXPECT_FALSE(replay.torn_tail);
  EXPECT_FALSE(replay.gap);
  EXPECT_GT(replay.frames, 0u);
  ASSERT_EQ(replay.streams.size(), streams.size());
  for (std::size_t s = 0; s < streams.size(); ++s) {
    const auto it = replay.streams.find(streams[s]);
    ASSERT_NE(it, replay.streams.end());
    const StreamingMonitor& rebuilt = it->second;
    const Message& live = live_status[s];
    EXPECT_EQ(static_cast<std::uint8_t>(rebuilt.verdict()), live.verdict);
    EXPECT_EQ(rebuilt.commit_count(), live.commit_count);
    EXPECT_EQ(rebuilt.retained(), live.retained);
    EXPECT_EQ(rebuilt.pruned(), live.pruned);
    EXPECT_EQ(rebuilt.approx_bytes(), live.approx_bytes);
  }
}

// After a promotion, frames from the deposed epoch are answered FENCED —
// on the hello and on appends — so a zombie primary can never mutate the
// new primary's state.
TEST(Replication, ZombieEpochFramesAreFenced) {
  Pair pair;
  ServiceClient standby;
  standby.connect("127.0.0.1", pair.follower->port());
  ASSERT_EQ(standby.promote().type, MsgType::kPromoted);

  ServiceClient zombie;
  zombie.connect("127.0.0.1", pair.follower->port());
  Message hello;
  hello.type = MsgType::kReplHello;
  hello.epoch = 1;  // the deposed epoch
  hello.capacity = pair.follower->shard_count();
  const Message fenced = zombie.request(hello);
  ASSERT_EQ(fenced.type, MsgType::kFenced);
  EXPECT_GE(fenced.epoch, 2u);

  Message open;
  open.type = MsgType::kOpenStream;
  open.stream = 99;
  open.model = static_cast<std::uint8_t>(ServiceModel::kSI);
  Message append;
  append.type = MsgType::kReplAppend;
  append.stream = 0;  // shard index
  append.seq = 1;
  append.epoch = 1;
  append.raw = encode_payload(open);
  EXPECT_EQ(zombie.request(append).type, MsgType::kFenced);
  EXPECT_EQ(standby.status(99).type, MsgType::kError) << "zombie mutated";
  EXPECT_GE(pair.follower->stats().fenced, 2u);
}

// A replication gap (lost frame) quarantines the follower cleanly: it
// stops applying — its state stays a clean prefix — but keeps serving
// reads and never crashes.
TEST(Replication, SequenceGapQuarantinesFollowerCleanly) {
  ServerConfig cfg;
  cfg.shards = 2;
  cfg.follower = true;
  Server follower(cfg);
  follower.start();
  ServiceClient feed;
  feed.connect("127.0.0.1", follower.port());

  Message hello;
  hello.type = MsgType::kReplHello;
  hello.epoch = 5;
  hello.capacity = follower.shard_count();
  ASSERT_EQ(feed.request(hello).type, MsgType::kReplWelcome);

  Message open;
  open.type = MsgType::kOpenStream;
  open.stream = 2;  // shard 0 of 2
  open.model = static_cast<std::uint8_t>(ServiceModel::kSI);
  Message append;
  append.type = MsgType::kReplAppend;
  append.stream = 0;
  append.seq = 1;
  append.epoch = 5;
  append.raw = encode_payload(open);
  ASSERT_EQ(feed.request(append).type, MsgType::kReplAck);

  append.seq = 3;  // gap: seq 2 never arrived
  const Message err = feed.request(append);
  ASSERT_EQ(err.type, MsgType::kError);
  EXPECT_NE(err.text.find("replication gap"), std::string::npos);
  EXPECT_TRUE(follower.repl_quarantined());

  append.seq = 4;  // sticky: nothing applies after the gap
  EXPECT_EQ(feed.request(append).type, MsgType::kError);
  EXPECT_EQ(feed.status(2).type, MsgType::kStatusReply);  // clean prefix
  EXPECT_EQ(feed.status(0).type, MsgType::kStatusReply);  // still alive

  // A shard-count mismatch on hello is refused up front, same cleanness.
  Message bad_hello = hello;
  bad_hello.capacity = follower.shard_count() + 1;
  EXPECT_EQ(feed.request(bad_hello).type, MsgType::kError);
}

// Ten seeds of kill-the-primary chaos through the replication path:
// varying batch sizes, kill points and shard counts; every run must end
// with the audit exact (counts, verdict and gauges equal a local mirror
// of the acked batches) on the promoted follower.
TEST(Replication, ChaosTenSeedsFailoverAuditStaysExact) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Pair pair({.shards = 1 + static_cast<std::size_t>(seed % 3),
               .heartbeat_ms = 20,
               .auto_promote_ms = 150});
    FailoverClient fc({{"127.0.0.1", pair.primary->port()},
                       {"127.0.0.1", pair.follower->port()}});
    fc.connect();
    const std::uint64_t stream = fc.open_stream(ServiceModel::kSI);

    StreamingMonitor local(Model::kSI);
    workload::StreamSpec spec;
    spec.seed = 1000 + seed;
    workload::StreamSource source(spec);
    const std::size_t batch_size = 2 + seed % 7;
    const int kill_at = 3 + static_cast<int>(seed) % 11;

    std::uint64_t acked_commits = 0;
    std::uint64_t seq = 0;
    for (int b = 0; b < 20; ++b) {
      if (b == kill_at) pair.primary->hard_stop();
      const std::vector<MonitoredCommit> batch =
          next_batch(source, batch_size);
      ++seq;
      Message reply;
      for (;;) {
        reply = fc.commit(stream, seq, batch);
        if (reply.type != MsgType::kRetryLater) break;
      }
      ASSERT_EQ(reply.type, MsgType::kCommitted) << "batch " << b;
      acked_commits += reply.ids.size();
      (void)local.commit_all_guarded(batch);
    }

    EXPECT_GE(fc.failovers(), 1u);
    EXPECT_FALSE(pair.follower->repl_quarantined());
    const Message st = fc.status(stream);
    ASSERT_EQ(st.type, MsgType::kStatusReply);
    EXPECT_EQ(st.commit_count, acked_commits);
    EXPECT_EQ(st.verdict, static_cast<std::uint8_t>(local.verdict()));
    EXPECT_EQ(st.retained, local.retained());
    EXPECT_EQ(st.pruned, local.pruned());
    EXPECT_EQ(st.approx_bytes, local.approx_bytes());
  }
}

}  // namespace
}  // namespace sia::service
