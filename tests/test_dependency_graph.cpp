#include "graph/dependency_graph.hpp"

#include <gtest/gtest.h>

#include <random>

#include "graph/enumeration.hpp"
#include "support/random_history.hpp"
#include "workload/paper_examples.hpp"

namespace sia {
namespace {

constexpr ObjId kX = 0;
constexpr ObjId kY = 1;

/// init writes x,y = 0; T1 writes x=1; T2 reads x=1, writes y=2.
DependencyGraph small_graph() {
  History h;
  h.append_singleton(Transaction({write(kX, 0), write(kY, 0)}));  // 0
  h.append_singleton(Transaction({write(kX, 1)}));                // 1
  h.append_singleton(Transaction({read(kX, 1), write(kY, 2)}));   // 2
  DependencyGraph g(std::move(h));
  g.set_read_from(kX, 1, 2);
  g.set_write_order(kX, {0, 1});
  g.set_write_order(kY, {0, 2});
  return g;
}

TEST(DependencyGraph, ValidGraphPassesValidation) {
  const DependencyGraph g = small_graph();
  EXPECT_EQ(g.validate(), std::nullopt);
}

TEST(DependencyGraph, ValidateRejectsMissingWrSource) {
  DependencyGraph g = small_graph();
  DependencyGraph g2(g.history());
  g2.set_write_order(kX, {0, 1});
  g2.set_write_order(kY, {0, 2});
  // T2's external read of x has no WR source.
  const auto v = g2.validate();
  ASSERT_TRUE(v.has_value());
  EXPECT_NE(v->detail.find("no WR source"), std::string::npos);
}

TEST(DependencyGraph, ValidateRejectsWrongValue) {
  DependencyGraph g = small_graph();
  g.set_read_from(kX, 0, 2);  // init wrote 0, but T2 read 1
  const auto v = g.validate();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->axiom, "Def6");
}

TEST(DependencyGraph, ValidateRejectsSelfRead) {
  History h;
  h.append_singleton(Transaction({read(kX, 1), write(kX, 1)}));
  DependencyGraph g(std::move(h));
  g.set_read_from(kX, 0, 0);
  g.set_write_order(kX, {0});
  const auto v = g.validate();
  ASSERT_TRUE(v.has_value());
  EXPECT_NE(v->detail.find("itself"), std::string::npos);
}

TEST(DependencyGraph, ValidateRejectsNonPermutationWW) {
  DependencyGraph g = small_graph();
  g.set_write_order(kX, {0});  // missing writer 1
  EXPECT_TRUE(g.validate().has_value());
  g.set_write_order(kX, {0, 1, 2});  // 2 does not write x
  EXPECT_TRUE(g.validate().has_value());
  g.set_write_order(kX, {1, 1});  // repetition
  EXPECT_TRUE(g.validate().has_value());
}

TEST(DependencyGraph, ValidateRejectsWrToNonReader) {
  DependencyGraph g = small_graph();
  g.set_read_from(kY, 0, 1);  // T1 never reads y
  const auto v = g.validate();
  ASSERT_TRUE(v.has_value());
  EXPECT_NE(v->detail.find("external read"), std::string::npos);
}

TEST(DependencyGraph, RelationsContainDeclaredEdges) {
  const DependencyGraph g = small_graph();
  const DepRelations rel = g.relations();
  EXPECT_TRUE(rel.wr.contains(1, 2));
  EXPECT_TRUE(rel.ww.contains(0, 1));
  EXPECT_TRUE(rel.ww.contains(0, 2));
  EXPECT_TRUE(rel.so.empty());  // singleton sessions
}

TEST(DependencyGraph, RwDerivedPerDefinition5) {
  // T2 reads x from T1; nobody overwrites T1, so no RW from T2.
  // init -WR-> nothing, but if someone read x from init and T1 overwrote:
  History h;
  h.append_singleton(Transaction({write(kX, 0)}));   // 0 init
  h.append_singleton(Transaction({read(kX, 0)}));    // 1 reader of init
  h.append_singleton(Transaction({write(kX, 5)}));   // 2 overwriter
  DependencyGraph g(std::move(h));
  g.set_read_from(kX, 0, 1);
  g.set_write_order(kX, {0, 2});
  const DepRelations rel = g.relations();
  EXPECT_TRUE(rel.rw.contains(1, 2));
  EXPECT_FALSE(rel.rw.contains(2, 1));
  EXPECT_EQ(rel.rw.edge_count(), 1u);
}

TEST(DependencyGraph, RwExcludesSelf) {
  // A transaction that reads x and also overwrites it is not its own
  // anti-dependency (T ≠ S in Definition 5).
  History h;
  h.append_singleton(Transaction({write(kX, 0)}));               // 0
  h.append_singleton(Transaction({read(kX, 0), write(kX, 1)}));  // 1
  DependencyGraph g(std::move(h));
  g.set_read_from(kX, 0, 1);
  g.set_write_order(kX, {0, 1});
  EXPECT_EQ(g.relations().rw.edge_count(), 0u);
}

TEST(DependencyGraph, EdgesListsTypedEdges) {
  const DependencyGraph g = small_graph();
  const std::vector<DepEdge> edges = g.edges();
  const DepEdge wr{1, 2, DepKind::kWR, kX};
  EXPECT_NE(std::find(edges.begin(), edges.end(), wr), edges.end());
  const DepEdge ww{0, 1, DepKind::kWW, kX};
  EXPECT_NE(std::find(edges.begin(), edges.end(), ww), edges.end());
  const auto between = g.edges_between(0, 1);
  ASSERT_EQ(between.size(), 1u);
  EXPECT_EQ(between[0].kind, DepKind::kWW);
}

/// first_edge(a, b, accept) must be the first edge of edges_between(a, b)
/// that passes \p accept, for every ordered pair of \p g.
void expect_first_edge_matches_listing(const DependencyGraph& g) {
  using Accept = bool (*)(DepKind);
  const Accept accepts[] = {
      [](DepKind k) {
        return k == DepKind::kSO || k == DepKind::kWR || k == DepKind::kWW;
      },
      [](DepKind k) { return k == DepKind::kRW; },
      [](DepKind) { return true; },
  };
  for (TxnId a = 0; a < g.txn_count(); ++a) {
    for (TxnId b = 0; b < g.txn_count(); ++b) {
      const std::vector<DepEdge> listed = g.edges_between(a, b);
      for (const Accept accept : accepts) {
        const auto first = std::find_if(
            listed.begin(), listed.end(),
            [accept](const DepEdge& e) { return accept(e.kind); });
        const std::optional<DepEdge> expected =
            first == listed.end() ? std::nullopt
                                  : std::optional<DepEdge>(*first);
        EXPECT_EQ(g.first_edge(a, b, accept), expected)
            << "T" << a << " -> T" << b << "\n" << to_string(g.history());
      }
    }
  }
}

TEST(DependencyGraph, FirstEdgeMatchesEdgesBetweenOnFuzzGraphs) {
  // The histories and graph budget of FuzzSweep's reference differential.
  for (int seed = 0; seed < 12; ++seed) {
    std::mt19937_64 rng(static_cast<std::uint64_t>(seed) * 6151 + 3);
    for (int round = 0; round < 10; ++round) {
      const History h = random_history(rng);
      std::size_t budget = 40;
      enumerate_dependency_graphs(h, [&](const DependencyGraph& g) {
        expect_first_edge_matches_listing(g);
        return --budget > 0;
      });
    }
  }
}

TEST(DependencyGraph, FirstEdgeMatchesEdgesBetweenOnMalformedGraphs) {
  // Orders with repeats and self-reads are rejected by validate(), but the
  // edge listing still describes them; the lookup must agree with it.
  DependencyGraph g = small_graph();
  g.set_write_order(kX, {1, 0, 1, 2});
  g.set_read_from(kY, 2, 2);
  g.set_write_order(kY, {2, 0, 2});
  expect_first_edge_matches_listing(g);
}

TEST(DependencyGraph, EdgesListsSessionOrderRowMajor) {
  // SO comes first in edges(), in the row-major order of session_order(),
  // also when sessions interleave.
  History h;
  for (const SessionId s : {0u, 1u, 0u, 2u, 1u, 0u, 2u, 2u, 1u}) {
    h.append(s, Transaction({read(kX, 0)}));
  }
  const std::vector<DepEdge> edges = DependencyGraph(h).edges();
  std::vector<DepEdge> expected;
  for (const auto& [a, c] : h.session_order().edges()) {
    expected.push_back({a, c, DepKind::kSO, kInvalidObj});
  }
  ASSERT_GE(edges.size(), expected.size());
  EXPECT_EQ(std::vector<DepEdge>(edges.begin(), edges.begin() +
                                                    static_cast<std::ptrdiff_t>(
                                                        expected.size())),
            expected);
}

TEST(DependencyGraph, ExtractGraphFromExecution) {
  // Proposition 7 / Definition 5: graph(X) of a valid execution validates.
  History h;
  h.append_singleton(Transaction({write(kX, 0), write(kY, 0)}));  // 0
  h.append_singleton(Transaction({write(kX, 1)}));                // 1
  h.append_singleton(Transaction({read(kX, 1), write(kY, 2)}));   // 2
  Relation vis(3);
  Relation co(3);
  for (TxnId a = 0; a < 3; ++a) {
    for (TxnId b = a + 1; b < 3; ++b) {
      vis.add(a, b);
      co.add(a, b);
    }
  }
  const AbstractExecution x{h, vis, co};
  const DependencyGraph g = extract_graph(x);
  EXPECT_EQ(g.validate(), std::nullopt);
  EXPECT_EQ(g.read_source(kX, 2), 1u);
  EXPECT_EQ(g.write_order(kX), (std::vector<TxnId>{0, 1}));
  EXPECT_EQ(g.write_order(kY), (std::vector<TxnId>{0, 2}));
}

TEST(DependencyGraph, ExtractGraphPicksCoMaximalVisibleWriter) {
  // Two visible writers: the CO-later one is the WR source.
  History h;
  h.append_singleton(Transaction({write(kX, 1)}));
  h.append_singleton(Transaction({write(kX, 2)}));
  h.append_singleton(Transaction({read(kX, 2)}));
  Relation vis(3);
  vis.add(0, 1);
  vis.add(0, 2);
  vis.add(1, 2);
  const Relation co = vis;
  const DependencyGraph g = extract_graph({h, vis, co});
  EXPECT_EQ(g.read_source(kX, 2), 1u);
}

TEST(DependencyGraph, ExtractGraphThrowsWhenMaxUndefined) {
  History h;
  h.append_singleton(Transaction({write(kX, 1)}));
  h.append_singleton(Transaction({read(kX, 1)}));
  // Empty VIS: no visible writer for the read.
  EXPECT_THROW((void)extract_graph({h, Relation(2), Relation(2)}), ModelError);
}

TEST(DependencyGraph, InferReadSourcesFromDistinctValues) {
  DependencyGraph g(small_graph().history());
  g.set_write_order(kX, {0, 1});
  g.set_write_order(kY, {0, 2});
  infer_read_sources_from_values(g);
  EXPECT_EQ(g.read_source(kX, 2), 1u);
  EXPECT_EQ(g.validate(), std::nullopt);
}

TEST(DependencyGraph, InferThrowsOnAmbiguousValues) {
  History h;
  h.append_singleton(Transaction({write(kX, 7)}));
  h.append_singleton(Transaction({write(kX, 7)}));
  h.append_singleton(Transaction({read(kX, 7)}));
  DependencyGraph g(std::move(h));
  EXPECT_THROW(infer_read_sources_from_values(g), ModelError);
}

TEST(DependencyGraph, InferThrowsOnUnwrittenValue) {
  History h;
  h.append_singleton(Transaction({write(kX, 1)}));
  h.append_singleton(Transaction({read(kX, 42)}));
  DependencyGraph g(std::move(h));
  EXPECT_THROW(infer_read_sources_from_values(g), ModelError);
}

TEST(DependencyGraph, Figure2GraphsValidate) {
  // The bold-edge graphs of Figure 2 are valid dependency graphs.
  DependencyGraph g1 = paper::fig4_g1();
  EXPECT_EQ(g1.validate(), std::nullopt);
  DependencyGraph g2 = paper::fig4_g2();
  EXPECT_EQ(g2.validate(), std::nullopt);
  EXPECT_EQ(paper::fig11_h6().validate(), std::nullopt);
  EXPECT_EQ(paper::fig12_g7().validate(), std::nullopt);
}

TEST(DepEdge, ToStringRendersKindAndObject) {
  const DepEdge e{1, 2, DepKind::kRW, 3};
  EXPECT_EQ(to_string(e), "T1 -RW(obj3)-> T2");
  const DepEdge so{0, 1, DepKind::kSO, kInvalidObj};
  EXPECT_EQ(to_string(so), "T0 -SO-> T1");
}

}  // namespace
}  // namespace sia
