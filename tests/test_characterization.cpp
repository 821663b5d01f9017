#include "graph/characterization.hpp"

#include <gtest/gtest.h>

#include <random>

#include "graph/enumeration.hpp"
#include "mvcc/psi_engine.hpp"
#include "support/reference_checkers.hpp"
#include "support/reference_deciders.hpp"
#include "workload/paper_examples.hpp"

namespace sia {
namespace {

constexpr ObjId kX = 0;

/// Builds the dependency graph of Figure 2(d) (write skew): both
/// transactions read both accounts from init and write one each.
DependencyGraph write_skew_graph() {
  const auto [h, objs] = paper::fig2d_write_skew();
  const ObjId a1 = objs.lookup("acct1");
  const ObjId a2 = objs.lookup("acct2");
  DependencyGraph g(h);
  g.set_read_from(a1, 0, 1);
  g.set_read_from(a2, 0, 1);
  g.set_read_from(a1, 0, 2);
  g.set_read_from(a2, 0, 2);
  g.set_write_order(a1, {0, 1});
  g.set_write_order(a2, {0, 2});
  return g;
}

/// Builds a lost-update graph of Figure 2(b) for a given WW order of the
/// two updaters.
DependencyGraph lost_update_graph(bool t1_first) {
  const auto [h, objs] = paper::fig2b_lost_update();
  const ObjId acct = objs.lookup("acct");
  DependencyGraph g(h);
  g.set_read_from(acct, 0, 1);
  g.set_read_from(acct, 0, 2);
  g.set_write_order(acct, t1_first ? std::vector<TxnId>{0, 1, 2}
                                   : std::vector<TxnId>{0, 2, 1});
  return g;
}

TEST(Characterization, WriteSkewInGraphSiNotGraphSer) {
  const DependencyGraph g = write_skew_graph();
  EXPECT_EQ(g.validate(), std::nullopt);
  EXPECT_TRUE(check_graph_si(g).member);
  EXPECT_TRUE(check_graph_psi(g).member);
  const GraphCheck ser = check_graph_ser(g);
  EXPECT_FALSE(ser.member);
  ASSERT_FALSE(ser.witness.empty());
  // The witness is the two-anti-dependency cycle T1 <-RW-> T2.
  for (const DepEdge& e : ser.witness) EXPECT_EQ(e.kind, DepKind::kRW);
}

TEST(Characterization, LostUpdateExcludedFromSiBothOrders) {
  for (const bool order : {true, false}) {
    const DependencyGraph g = lost_update_graph(order);
    EXPECT_EQ(g.validate(), std::nullopt);
    const GraphCheck si = check_graph_si(g);
    EXPECT_FALSE(si.member);
    EXPECT_FALSE(si.witness.empty());
    EXPECT_FALSE(check_graph_psi(g).member);
    EXPECT_FALSE(check_graph_ser(g).member);
  }
}

TEST(Characterization, LongForkInGraphPsiNotGraphSi) {
  const DependencyGraph g = paper::fig12_g7();
  EXPECT_TRUE(check_graph_psi(g).member);
  // fig12_g7 is an SI execution (the chopped pieces commit separately);
  // the spliced version is the true long fork — see test_splice.
  EXPECT_TRUE(check_graph_si(g).member);
}

TEST(Characterization, SplicedLongForkGraph) {
  // The canonical Figure 2(c) long-fork graph, built directly.
  const auto [h, objs] = paper::fig2c_long_fork();
  const ObjId x = objs.lookup("x");
  const ObjId y = objs.lookup("y");
  DependencyGraph g(h);
  // init=0, wx=1, wy=2, r_xy=3 (x new, y old), r_yx=4 (x old, y new).
  g.set_read_from(x, 1, 3);
  g.set_read_from(y, 0, 3);
  g.set_read_from(x, 0, 4);
  g.set_read_from(y, 2, 4);
  g.set_write_order(x, {0, 1});
  g.set_write_order(y, {0, 2});
  EXPECT_EQ(g.validate(), std::nullopt);
  EXPECT_TRUE(check_graph_psi(g).member);
  const GraphCheck si = check_graph_si(g);
  EXPECT_FALSE(si.member);
  EXPECT_FALSE(check_graph_ser(g).member);
  // Witness cycle must alternate: no two adjacent RW edges in it is
  // impossible — every cycle here has >= 2 RW but never adjacent.
  ASSERT_FALSE(si.witness.empty());
}

TEST(Characterization, WitnessCyclesAreRealCycles) {
  for (const DependencyGraph& g :
       {lost_update_graph(true), paper::fig11_h6()}) {
    const GraphCheck ser = check_graph_ser(g);
    if (ser.member) continue;
    ASSERT_FALSE(ser.witness.empty());
    // Edges chain up and close.
    for (std::size_t i = 0; i < ser.witness.size(); ++i) {
      EXPECT_EQ(ser.witness[i].to,
                ser.witness[(i + 1) % ser.witness.size()].from);
    }
    // Each edge exists in the graph.
    const std::vector<DepEdge> all = g.edges();
    for (const DepEdge& e : ser.witness) {
      const bool found =
          std::any_of(all.begin(), all.end(), [&e](const DepEdge& other) {
            return other.from == e.from && other.to == e.to &&
                   other.kind == e.kind;
          });
      EXPECT_TRUE(found) << to_string(e);
    }
  }
}

TEST(Characterization, IntViolationBlocksMembership) {
  History h;
  h.append_singleton(Transaction({write(kX, 1), read(kX, 9)}));
  DependencyGraph g(std::move(h));
  g.set_write_order(kX, {0});
  const GraphCheck si = check_graph_si(g);
  EXPECT_FALSE(si.member);
  ASSERT_TRUE(si.int_violation.has_value());
  EXPECT_FALSE(check_graph_ser(g).member);
  EXPECT_FALSE(check_graph_psi(g).member);
}

TEST(Characterization, EmptyGraphIsInEverything) {
  const DependencyGraph g{History{}};
  EXPECT_TRUE(check_graph_ser(g).member);
  EXPECT_TRUE(check_graph_si(g).member);
  EXPECT_TRUE(check_graph_psi(g).member);
}

TEST(Characterization, GraphSerSubsetOfGraphSiSubsetOfGraphPsi) {
  // On all Definition-6 extensions of the Figure 2 histories:
  // GraphSER ⊆ GraphSI ⊆ GraphPSI (Theorems 8, 9, 21 and HistSER ⊆
  // HistSI ⊆ HistPSI).
  for (const auto& nh :
       {paper::fig2a_session_guarantee(), paper::fig2b_lost_update(),
        paper::fig2c_long_fork(), paper::fig2d_write_skew()}) {
    enumerate_dependency_graphs(nh.history, [](const DependencyGraph& g) {
      const bool ser = check_graph_ser(g).member;
      const bool si = check_graph_si(g).member;
      const bool psi = check_graph_psi(g).member;
      EXPECT_LE(ser, si);
      EXPECT_LE(si, psi);
      return true;
    });
  }
}

TEST(Characterization, DecideHistoryMatchesPaperFigure2) {
  // The verdict matrix of Figure 2 (E1 of the experiment index).
  const auto a = paper::fig2a_session_guarantee();
  EXPECT_TRUE(decide_history(a.history, Model::kSER).allowed);
  EXPECT_TRUE(decide_history(a.history, Model::kSI).allowed);
  EXPECT_TRUE(decide_history(a.history, Model::kPSI).allowed);

  const auto b = paper::fig2b_lost_update();
  EXPECT_FALSE(decide_history(b.history, Model::kSER).allowed);
  EXPECT_FALSE(decide_history(b.history, Model::kSI).allowed);
  EXPECT_FALSE(decide_history(b.history, Model::kPSI).allowed);

  const auto c = paper::fig2c_long_fork();
  EXPECT_FALSE(decide_history(c.history, Model::kSER).allowed);
  EXPECT_FALSE(decide_history(c.history, Model::kSI).allowed);
  EXPECT_TRUE(decide_history(c.history, Model::kPSI).allowed);

  const auto d = paper::fig2d_write_skew();
  EXPECT_FALSE(decide_history(d.history, Model::kSER).allowed);
  EXPECT_TRUE(decide_history(d.history, Model::kSI).allowed);
  EXPECT_TRUE(decide_history(d.history, Model::kPSI).allowed);
}

TEST(Characterization, DecideHistoryProducesValidWitness) {
  const auto d = paper::fig2d_write_skew();
  const HistDecision dec = decide_history(d.history, Model::kSI);
  ASSERT_TRUE(dec.allowed);
  ASSERT_TRUE(dec.witness.has_value());
  EXPECT_EQ(dec.witness->validate(), std::nullopt);
  EXPECT_TRUE(check_graph_si(*dec.witness).member);
}

TEST(Characterization, SiAnomalyDynamicCriterion) {
  // Theorem 19: write skew is the SI-only anomaly.
  const RobustnessWitness skew = si_anomaly(write_skew_graph());
  EXPECT_TRUE(skew.anomaly);
  EXPECT_FALSE(skew.cycle.empty());
  // Lost update is not (it is not even in GraphSI).
  EXPECT_FALSE(si_anomaly(lost_update_graph(true)).anomaly);
  // A serializable graph is not an anomaly either.
  EXPECT_FALSE(si_anomaly(paper::fig4_g2()).anomaly);
}

TEST(Characterization, PsiAnomalyDynamicCriterion) {
  // Theorem 22: the long fork is the PSI-only anomaly.
  const auto [h, objs] = paper::fig2c_long_fork();
  const ObjId x = objs.lookup("x");
  const ObjId y = objs.lookup("y");
  DependencyGraph g(h);
  g.set_read_from(x, 1, 3);
  g.set_read_from(y, 0, 3);
  g.set_read_from(x, 0, 4);
  g.set_read_from(y, 2, 4);
  g.set_write_order(x, {0, 1});
  g.set_write_order(y, {0, 2});
  EXPECT_TRUE(psi_anomaly(g).anomaly);
  // Write skew is allowed by SI already: not a PSI-only anomaly.
  EXPECT_FALSE(psi_anomaly(write_skew_graph()).anomaly);
  // Lost update is excluded from PSI too.
  EXPECT_FALSE(psi_anomaly(lost_update_graph(false)).anomaly);
}

TEST(Characterization, FastPathsMatchReferenceOnNamedGraphs) {
  // The fast checkers must reproduce the reference GraphCheck exactly —
  // verdict AND witness — on every named graph of the paper, member or not.
  DependencyGraph spliced_long_fork = [] {
    const auto [h, objs] = paper::fig2c_long_fork();
    const ObjId x = objs.lookup("x");
    const ObjId y = objs.lookup("y");
    DependencyGraph g(h);
    g.set_read_from(x, 1, 3);
    g.set_read_from(y, 0, 3);
    g.set_read_from(x, 0, 4);
    g.set_read_from(y, 2, 4);
    g.set_write_order(x, {0, 1});
    g.set_write_order(y, {0, 2});
    return g;
  }();
  for (const DependencyGraph& g :
       {write_skew_graph(), lost_update_graph(true), lost_update_graph(false),
        std::move(spliced_long_fork), paper::fig4_g1(), paper::fig4_g2(),
        paper::fig11_h6(), paper::fig12_g7()}) {
    const DepRelations rel = g.relations();
    const GraphCheck si_fast = check_graph_si(g, rel);
    const GraphCheck si_ref = check_graph_si_reference(g, rel);
    EXPECT_EQ(si_fast.member, si_ref.member);
    EXPECT_EQ(si_fast.witness, si_ref.witness);
    const GraphCheck psi_fast = check_graph_psi(g, rel);
    const GraphCheck psi_ref = check_graph_psi_reference(g, rel);
    EXPECT_EQ(psi_fast.member, psi_ref.member);
    EXPECT_EQ(psi_fast.witness, psi_ref.witness);
  }
}

/// A PSI engine run of \p txns transactions over two replicas. It opens
/// with a long fork — each replica commits one write, then a reader on
/// each replica reads both keys before anything replicates — and then runs
/// random transactions, replicating partially, so the graph is large, in
/// GraphPSI and not in GraphSI.
mvcc::RecordedRun long_fork_psi_run(std::size_t txns, std::uint64_t seed) {
  const auto keys = static_cast<std::uint32_t>(txns / 2 + 2);
  mvcc::Recorder rec;
  mvcc::PSIDatabase db(keys, 2, &rec);
  std::vector<mvcc::PSISession> s;
  for (int i = 0; i < 8; ++i) {
    s.push_back(db.make_session(static_cast<mvcc::ReplicaId>(i % 2)));
  }
  {
    mvcc::PSITransaction w0 = db.begin(s[0]);
    w0.write(0, 1);
    EXPECT_TRUE(w0.commit());
    mvcc::PSITransaction w1 = db.begin(s[1]);
    w1.write(1, 2);
    EXPECT_TRUE(w1.commit());
    for (const int reader : {2, 3}) {
      mvcc::PSITransaction r = db.begin(s[reader]);
      (void)r.read(0);
      (void)r.read(1);
      EXPECT_TRUE(r.commit());
    }
  }
  db.pump_all();
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<ObjId> key(0, keys - 1);
  Value v = 2;
  for (std::size_t t = 0; rec.commit_count() < txns; ++t) {
    std::vector<std::pair<bool, ObjId>> ops;
    for (int o = 0; o < 4; ++o) ops.emplace_back(rng() % 2 == 0, key(rng));
    for (bool committed = false; !committed;) {
      mvcc::PSITransaction txn = db.begin(s[t % 8]);
      for (const auto& [is_write, k] : ops) {
        if (is_write) {
          txn.write(k, ++v);
        } else {
          (void)txn.read(k);
        }
      }
      committed = txn.commit();
      if (!committed) db.pump_all();
    }
    if (t % 3 == 0) db.pump(static_cast<mvcc::ReplicaId>(t % 2), 2);
  }
  db.pump_all();
  return rec.build();
}

TEST(Characterization, LargeLongForkSiWitnessMatchesReference) {
  // Past toy sizes: the GraphSI witness of a 2048-transaction engine graph
  // must be the dense oracle's, edge for edge, and a closed cycle of the
  // graph's typed edges.
  const mvcc::RecordedRun run = long_fork_psi_run(2048, 1);
  const DependencyGraph& g = run.graph;
  ASSERT_EQ(g.txn_count(), 2049u);  // 2048 commits and the initial writer
  const DepRelations rel = g.relations();
  const GraphCheck si = check_graph_si(g, rel);
  ASSERT_FALSE(si.member);
  ASSERT_FALSE(si.witness.empty());
  EXPECT_EQ(si.witness, check_graph_si_reference(g, rel).witness);
  const std::vector<DepEdge> all = g.edges();
  for (std::size_t i = 0; i < si.witness.size(); ++i) {
    const DepEdge& e = si.witness[i];
    EXPECT_EQ(e.to, si.witness[(i + 1) % si.witness.size()].from);
    EXPECT_NE(std::find(all.begin(), all.end(), e), all.end()) << to_string(e);
  }
  EXPECT_TRUE(check_graph_psi(g, rel).member);
  const GraphCheck ser = check_graph_ser(g, rel);
  ASSERT_FALSE(ser.member);
  EXPECT_EQ(ser.witness, check_graph_ser_reference(g, rel).witness);
}

TEST(Characterization, CheckGraphDispatch) {
  const DependencyGraph g = write_skew_graph();
  EXPECT_EQ(check_graph(g, Model::kSER).member, check_graph_ser(g).member);
  EXPECT_EQ(check_graph(g, Model::kSI).member, check_graph_si(g).member);
  EXPECT_EQ(check_graph(g, Model::kPSI).member, check_graph_psi(g).member);
  EXPECT_EQ(to_string(Model::kSER), "SER");
  EXPECT_EQ(to_string(Model::kSI), "SI");
  EXPECT_EQ(to_string(Model::kPSI), "PSI");
}

}  // namespace
}  // namespace sia
