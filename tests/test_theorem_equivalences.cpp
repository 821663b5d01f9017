#include <gtest/gtest.h>

#include "graph/characterization.hpp"
#include "graph/cycles.hpp"
#include "graph/enumeration.hpp"
#include "support/reference_deciders.hpp"
#include "workload/paper_examples.hpp"

/// \file test_theorem_equivalences.cpp
/// Cross-validation of the paper's cycle-shaped robustness criteria
/// against the set-difference definitions they characterise:
///  - Theorem 19: G ∈ GraphSI \ GraphSER  ⟺  INT ∧ G has a cycle ∧ every
///    cycle has at least two adjacent anti-dependency edges;
///  - Theorem 22: G ∈ GraphPSI \ GraphSI  ⟺  INT ∧ some cycle has no
///    adjacent anti-dependency edges ∧ every cycle has at least two
///    anti-dependency edges.
/// The left-hand sides are computed with the relation-algebra membership
/// checks; the right-hand sides by exhaustive Johnson enumeration of
/// vertex-simple cycles with exact per-cycle predicates (Lemma 24 reduces
/// the general case to simple cycles). The two must agree on *every*
/// Definition-6 extension of each test history.

namespace sia {
namespace {

TypedGraph typed_graph_of(const DependencyGraph& g) {
  TypedGraph out(g.txn_count());
  for (const DepEdge& e : g.edges()) {
    out.add_edge(e.from, e.to, e.kind);
  }
  return out;
}

struct CycleSummary {
  bool any_cycle{false};
  bool all_have_two_adjacent_rw{true};   // vacuously true without cycles
  bool some_without_adjacent_rw{false};
  bool all_have_two_rw{true};
};

CycleSummary summarize_cycles(const DependencyGraph& g) {
  CycleSummary s;
  const TypedGraph tg = typed_graph_of(g);
  const EnumerationStats stats =
      enumerate_simple_cycles(tg, 1'000'000, [&](const TypedCycle& c) {
        s.any_cycle = true;
        if (can_avoid_adjacent_rw(c)) {
          // Some concrete edge choice yields a cycle with no two adjacent
          // anti-dependencies.
          s.all_have_two_adjacent_rw = false;
          s.some_without_adjacent_rw = true;
        }
        if (min_rw_count(c) < 2) s.all_have_two_rw = false;
        return true;
      });
  EXPECT_TRUE(stats.complete);
  return s;
}

bool thm19_cycle_formulation(const DependencyGraph& g) {
  if (!g.history().internally_consistent()) return false;
  const CycleSummary s = summarize_cycles(g);
  return s.any_cycle && s.all_have_two_adjacent_rw;
}

bool thm22_cycle_formulation(const DependencyGraph& g) {
  if (!g.history().internally_consistent()) return false;
  const CycleSummary s = summarize_cycles(g);
  return s.some_without_adjacent_rw && s.all_have_two_rw;
}

std::vector<History> test_histories() {
  std::vector<History> out;
  out.push_back(paper::fig2a_session_guarantee().history);
  out.push_back(paper::fig2b_lost_update().history);
  out.push_back(paper::fig2c_long_fork().history);
  out.push_back(paper::fig2d_write_skew().history);
  // Richer mixed history: two objects, writes with shared values to give
  // the enumerator multiple WR choices.
  {
    HistoryBuilder b;
    const ObjId x = b.obj("x");
    const ObjId y = b.obj("y");
    b.init_txn({x, y});
    b.session().txn({read(x, 0), write(y, 1)});
    b.session().txn({read(y, 0), write(x, 1)});
    b.session().txn({read(x, 1), read(y, 1)});
    out.push_back(b.build());
  }
  {
    HistoryBuilder b;
    const ObjId x = b.obj("x");
    b.init_txn({x});
    b.session().txn({write(x, 1)}).txn({read(x, 1), write(x, 2)});
    b.session().txn({read(x, 1)});
    out.push_back(b.build());
  }
  // Two writers of the same value: ambiguous WR sources.
  {
    HistoryBuilder b;
    const ObjId x = b.obj("x");
    const ObjId y = b.obj("y");
    b.init_txn({x, y});
    b.session().txn({write(x, 7)});
    b.session().txn({write(x, 7), write(y, 1)});
    b.session().txn({read(x, 7), read(y, 0)});
    out.push_back(b.build());
  }
  return out;
}

TEST(TheoremEquivalences, Theorem19CycleFormulationMatchesSetDifference) {
  std::size_t graphs = 0;
  std::size_t anomalies = 0;
  for (const History& h : test_histories()) {
    enumerate_dependency_graphs(h, [&](const DependencyGraph& g) {
      ++graphs;
      const bool by_sets = si_anomaly(g).anomaly;
      const bool by_cycles = thm19_cycle_formulation(g);
      EXPECT_EQ(by_sets, by_cycles)
          << "disagreement on a graph over history:\n" << to_string(h);
      if (by_sets) ++anomalies;
      return true;
    });
  }
  EXPECT_GE(graphs, 50u);
  EXPECT_GT(anomalies, 0u);   // and both outcomes occur
}

TEST(TheoremEquivalences, Theorem22CycleFormulationMatchesSetDifference) {
  std::size_t graphs = 0;
  std::size_t anomalies = 0;
  for (const History& h : test_histories()) {
    enumerate_dependency_graphs(h, [&](const DependencyGraph& g) {
      ++graphs;
      const bool by_sets = psi_anomaly(g).anomaly;
      const bool by_cycles = thm22_cycle_formulation(g);
      EXPECT_EQ(by_sets, by_cycles)
          << "disagreement on a graph over history:\n" << to_string(h);
      if (by_sets) ++anomalies;
      return true;
    });
  }
  EXPECT_GE(graphs, 50u);
  EXPECT_GT(anomalies, 0u);
}

TEST(TheoremEquivalences, Theorem9CycleReadingMatchesRelationCheck) {
  // GraphSI ⟺ every cycle has two adjacent anti-dependencies (allowing
  // the no-cycle case), via the same enumeration machinery.
  for (const History& h : test_histories()) {
    enumerate_dependency_graphs(h, [&](const DependencyGraph& g) {
      const bool by_relation = check_graph_si(g).member;
      const CycleSummary s = summarize_cycles(g);
      const bool by_cycles =
          h.internally_consistent() && s.all_have_two_adjacent_rw;
      EXPECT_EQ(by_relation, by_cycles);
      return true;
    });
  }
}

TEST(TheoremEquivalences, Theorem21CycleReadingMatchesRelationCheck) {
  // GraphPSI ⟺ every cycle has at least two anti-dependencies.
  for (const History& h : test_histories()) {
    enumerate_dependency_graphs(h, [&](const DependencyGraph& g) {
      const bool by_relation = check_graph_psi(g).member;
      const CycleSummary s = summarize_cycles(g);
      const bool by_cycles = h.internally_consistent() && s.all_have_two_rw;
      EXPECT_EQ(by_relation, by_cycles);
      return true;
    });
  }
}

TEST(TheoremEquivalences, Theorem8CycleReadingMatchesRelationCheck) {
  // GraphSER ⟺ acyclic.
  for (const History& h : test_histories()) {
    enumerate_dependency_graphs(h, [&](const DependencyGraph& g) {
      const bool by_relation = check_graph_ser(g).member;
      const CycleSummary s = summarize_cycles(g);
      const bool by_cycles = h.internally_consistent() && !s.any_cycle;
      EXPECT_EQ(by_relation, by_cycles);
      return true;
    });
  }
}

}  // namespace
}  // namespace sia
