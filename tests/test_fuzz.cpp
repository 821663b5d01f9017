#include <gtest/gtest.h>

#include <optional>
#include <random>

#include "chopping/dynamic_chopping_graph.hpp"
#include "chopping/splice.hpp"
#include "graph/characterization.hpp"
#include "graph/enumeration.hpp"
#include "graph/monitor.hpp"
#include "graph/soundness.hpp"
#include "support/random_history.hpp"
#include "support/reference_checkers.hpp"
#include "workload/paper_examples.hpp"

/// \file test_fuzz.cpp
/// Randomised differential testing over *arbitrary* small histories —
/// including histories no correct system could produce (inconsistent
/// values, INT violations). The analysers must never crash and must
/// respect the structural invariants:
///  - HistSER ⊆ HistSI ⊆ HistPSI on every input;
///  - every witness returned is a valid dependency graph in the claimed
///    set, round-trippable through Theorem 10(i) when in GraphSI;
///  - the online monitor agrees with the batch check on every witness.

namespace sia {
namespace {

class FuzzSweep : public ::testing::TestWithParam<int> {};

TEST_P(FuzzSweep, ModelHierarchyAndWitnessSanity) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 48271 + 1);
  for (int round = 0; round < 25; ++round) {
    const History h = random_history(rng);
    const HistDecision ser = decide_history(h, Model::kSER);
    const HistDecision si = decide_history(h, Model::kSI);
    const HistDecision psi = decide_history(h, Model::kPSI);

    // Hierarchy (Definition 4 / Definition 20, via Theorems 8/9/21).
    EXPECT_LE(ser.allowed, si.allowed) << to_string(h);
    EXPECT_LE(si.allowed, psi.allowed) << to_string(h);

    if (si.allowed) {
      ASSERT_TRUE(si.witness.has_value());
      EXPECT_EQ(si.witness->validate(), std::nullopt);
      // Theorem 10(i) round-trip on the witness.
      const AbstractExecution x = construct_execution(*si.witness);
      const auto v = axioms::check_exec_si(x);
      EXPECT_EQ(v, std::nullopt)
          << (v ? v->axiom + ": " + v->detail : "") << "\n" << to_string(h);
      // The online monitor agrees (witness WW orders may disagree with
      // commit order for hand-enumerated graphs, so only check when the
      // orders are id-ascending).
      bool replayable = true;
      for (const ObjId obj : h.objects()) {
        const auto& order = si.witness->write_order(obj);
        replayable = replayable &&
                     std::is_sorted(order.begin(), order.end());
        // ...and every reader must read from an earlier commit.
        for (TxnId t = 0; t < h.txn_count() && replayable; ++t) {
          const auto src = si.witness->read_source(obj, t);
          if (src && *src >= t) replayable = false;
        }
      }
      if (replayable) {
        EXPECT_TRUE(replay(*si.witness, Model::kSI).consistent());
      }
    }
    if (psi.allowed) {
      ASSERT_TRUE(psi.witness.has_value());
      EXPECT_TRUE(check_graph_psi(*psi.witness).member);
    }
    if (!h.internally_consistent()) {
      // INT violations exclude the history from every model.
      EXPECT_FALSE(psi.allowed);
    }
  }
}

TEST_P(FuzzSweep, ChoppingCriterionSoundOnWitnesses) {
  // On every SI witness graph: if the dynamic criterion passes, the
  // spliced history must be SI-admissible (Theorem 16, exact check).
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 7907 + 2);
  for (int round = 0; round < 12; ++round) {
    const History h = random_history(rng);
    const HistDecision si = decide_history(h, Model::kSI);
    if (!si.allowed) continue;
    const ChoppingVerdict verdict = check_chopping_dynamic(*si.witness);
    if (!verdict.correct) continue;
    EXPECT_TRUE(decide_history(splice_history(h), Model::kSI).allowed)
        << "Theorem 16 violated on:\n" << to_string(h);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSweep, ::testing::Range(0, 12));

TEST_P(FuzzSweep, FastCheckersMatchReferenceBitForBit) {
  // The implicit-edge fast paths of check_graph_si / check_graph_psi must
  // return the exact GraphCheck of the materialised reference — same
  // verdict, same witness edges in the same order, same INT outcome — on
  // every graph extension of arbitrary histories, consistent or not.
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 6151 + 3);
  for (int round = 0; round < 10; ++round) {
    const History h = random_history(rng);
    std::size_t budget = 40;  // graphs per history; extensions blow up fast
    enumerate_dependency_graphs(h, [&](const DependencyGraph& g) {
      const DepRelations rel = g.relations();
      const GraphCheck si_fast = check_graph_si(g, rel);
      const GraphCheck si_ref = check_graph_si_reference(g, rel);
      EXPECT_EQ(si_fast.member, si_ref.member) << to_string(h);
      EXPECT_EQ(si_fast.witness, si_ref.witness) << to_string(h);
      EXPECT_EQ(si_fast.int_violation.has_value(),
                si_ref.int_violation.has_value());

      const GraphCheck psi_fast = check_graph_psi(g, rel);
      const GraphCheck psi_ref = check_graph_psi_reference(g, rel);
      EXPECT_EQ(psi_fast.member, psi_ref.member) << to_string(h);
      EXPECT_EQ(psi_fast.witness, psi_ref.witness) << to_string(h);
      EXPECT_EQ(psi_fast.int_violation.has_value(),
                psi_ref.int_violation.has_value());
      return --budget > 0;
    });
  }
}

TEST_P(FuzzSweep, SerCheckerMatchesReferenceBitForBit) {
  // check_graph_ser builds the union's rows only for the nodes its DFS
  // visits; verdict and witness must be the materialised union's.
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 6151 + 3);
  for (int round = 0; round < 10; ++round) {
    const History h = random_history(rng);
    std::size_t budget = 40;
    enumerate_dependency_graphs(h, [&](const DependencyGraph& g) {
      const DepRelations rel = g.relations();
      const GraphCheck fast = check_graph_ser(g, rel);
      const GraphCheck ref = check_graph_ser_reference(g, rel);
      EXPECT_EQ(fast.member, ref.member) << to_string(h);
      EXPECT_EQ(fast.witness, ref.witness) << to_string(h);
      EXPECT_EQ(fast.int_violation.has_value(),
                ref.int_violation.has_value());
      return --budget > 0;
    });
  }
}

TEST_P(FuzzSweep, BatchedMonitorMatchesSequential) {
  // commit_all must be observationally identical to per-commit ingestion:
  // same verdict, same violating id, same detail string — at every batch
  // size, on every replayable witness graph.
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 1597 + 4);
  for (int round = 0; round < 10; ++round) {
    const History h = random_history(rng);
    for (const Model m : {Model::kSER, Model::kSI, Model::kPSI}) {
      // decide_history exhausts the whole extension space (candidate
      // sources × write-order permutations) when the history is
      // disallowed — astronomically large on some draws, and the result
      // would be skipped below anyway. This test only needs *some*
      // witness per history, so search a bounded prefix of the space
      // (same idiom as FastCheckersMatchReferenceBitForBit).
      std::optional<DependencyGraph> witness;
      std::size_t budget = 20000;
      enumerate_dependency_graphs(h, [&](const DependencyGraph& g) {
        if (check_graph(g, m).member) {
          witness = g;
          return false;
        }
        return --budget > 0;
      });
      if (!witness) continue;
      bool replayable = true;
      for (const ObjId obj : h.objects()) {
        const auto& order = witness->write_order(obj);
        replayable =
            replayable && std::is_sorted(order.begin(), order.end());
        for (TxnId t = 0; t < h.txn_count() && replayable; ++t) {
          const auto src = witness->read_source(obj, t);
          if (src && *src >= t) replayable = false;
        }
      }
      if (!replayable) continue;
      const ConsistencyMonitor seq = replay(*witness, m);
      for (const std::size_t batch : {std::size_t{1}, std::size_t{3},
                                      std::size_t{100}}) {
        const ConsistencyMonitor bat = replay_batched(*witness, m, batch);
        EXPECT_EQ(bat.consistent(), seq.consistent())
            << to_string(m) << " batch=" << batch << "\n" << to_string(h);
        EXPECT_EQ(bat.violating_commit(), seq.violating_commit());
        EXPECT_EQ(bat.violation_detail(), seq.violation_detail());
        EXPECT_EQ(bat.commit_count(), seq.commit_count());
      }
    }
  }
}

}  // namespace
}  // namespace sia
