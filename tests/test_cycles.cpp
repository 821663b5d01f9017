#include "graph/cycles.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <set>

#include "graph/characterization.hpp"
#include "support/reference_checkers.hpp"

namespace sia {
namespace {

/// Collects all cycles as canonical vertex sets for counting.
std::vector<TypedCycle> all_cycles(const TypedGraph& g,
                                   std::size_t budget = 100000) {
  std::vector<TypedCycle> out;
  const EnumerationStats stats =
      enumerate_simple_cycles(g, budget, [&](const TypedCycle& c) {
        out.push_back(c);
        return true;
      });
  EXPECT_TRUE(stats.complete);
  return out;
}

TEST(TypedGraph, EdgesAndMasks) {
  TypedGraph g(3);
  g.add_edge(0, 1, DepKind::kWR);
  g.add_edge(0, 1, DepKind::kRW);
  g.add_edge(1, 2, DepKind::kSO);
  EXPECT_EQ(g.types(0, 1), kMaskWR | kMaskRW);
  EXPECT_EQ(g.types(1, 2), kMaskSO);
  EXPECT_EQ(g.types(2, 0), 0u);
  EXPECT_EQ(g.edge_count(), 3u);
}

TEST(Cycles, TriangleFoundOnce) {
  TypedGraph g(3);
  g.add_edge(0, 1, DepKind::kWR);
  g.add_edge(1, 2, DepKind::kWR);
  g.add_edge(2, 0, DepKind::kWR);
  const auto cycles = all_cycles(g);
  ASSERT_EQ(cycles.size(), 1u);
  EXPECT_EQ(cycles[0].length(), 3u);
}

TEST(Cycles, CountsInCompleteDigraph) {
  // K4 as a digraph (all ordered pairs): simple cycles = 20
  // (C(4,2) 2-cycles=6, 4*2=8 triangles, 3!=6 4-cycles).
  TypedGraph g(4);
  for (std::uint32_t a = 0; a < 4; ++a) {
    for (std::uint32_t b = 0; b < 4; ++b) {
      if (a != b) g.add_edge(a, b, DepKind::kWW);
    }
  }
  EXPECT_EQ(all_cycles(g).size(), 20u);
}

TEST(Cycles, SelfLoopIsACycle) {
  TypedGraph g(2);
  g.add_edge(0, 0, DepKind::kRW);
  const auto cycles = all_cycles(g);
  ASSERT_EQ(cycles.size(), 1u);
  EXPECT_EQ(cycles[0].length(), 1u);
}

TEST(Cycles, DagHasNone) {
  TypedGraph g(4);
  g.add_edge(0, 1, DepKind::kWR);
  g.add_edge(1, 2, DepKind::kWW);
  g.add_edge(0, 3, DepKind::kRW);
  EXPECT_TRUE(all_cycles(g).empty());
}

TEST(Cycles, MasksFollowCycleSteps) {
  TypedGraph g(3);
  g.add_edge(0, 1, DepKind::kWR);
  g.add_edge(1, 2, DepKind::kRW);
  g.add_edge(2, 0, DepKind::kSOInv);
  const auto cycles = all_cycles(g);
  ASSERT_EQ(cycles.size(), 1u);
  const TypedCycle& c = cycles[0];
  for (std::size_t i = 0; i < c.length(); ++i) {
    EXPECT_EQ(c.masks[i],
              g.types(c.vertices[i], c.vertices[(i + 1) % c.length()]));
  }
}

TEST(Cycles, BudgetTruncates) {
  TypedGraph g(4);
  for (std::uint32_t a = 0; a < 4; ++a) {
    for (std::uint32_t b = 0; b < 4; ++b) {
      if (a != b) g.add_edge(a, b, DepKind::kWW);
    }
  }
  std::size_t seen = 0;
  const EnumerationStats stats =
      enumerate_simple_cycles(g, 5, [&](const TypedCycle&) {
        ++seen;
        return true;
      });
  EXPECT_FALSE(stats.complete);
  EXPECT_EQ(seen, 5u);
}

TEST(Cycles, EarlyStopKeepsComplete) {
  TypedGraph g(3);
  g.add_edge(0, 1, DepKind::kWW);
  g.add_edge(1, 0, DepKind::kWW);
  const EnumerationStats stats = enumerate_simple_cycles(
      g, 1000, [](const TypedCycle&) { return false; });
  EXPECT_TRUE(stats.complete);
  EXPECT_EQ(stats.cycles_seen, 1u);
}

// ----- predicate helpers ----------------------------------------------------

TypedCycle cycle_of(std::vector<TypeMask> masks) {
  TypedCycle c;
  for (std::uint32_t i = 0; i < masks.size(); ++i) c.vertices.push_back(i);
  c.masks = std::move(masks);
  return c;
}

TEST(CyclePredicates, ForcedRwPositions) {
  const TypedCycle c = cycle_of(
      {kMaskRW, kMaskRW | kMaskWR, kMaskSO, kMaskWW, kMaskRW});
  EXPECT_EQ(forced_rw_positions(c), (std::vector<std::size_t>{0, 4}));
  EXPECT_EQ(min_rw_count(c), 2u);
}

TEST(CyclePredicates, ConflictPredConflict) {
  EXPECT_TRUE(has_conflict_pred_conflict(
      cycle_of({kMaskWR, kMaskSOInv, kMaskRW, kMaskSO})));
  // Successor edge between conflicts does not count.
  EXPECT_FALSE(has_conflict_pred_conflict(
      cycle_of({kMaskWR, kMaskSO, kMaskRW, kMaskSO})));
  // Wrap-around fragment.
  EXPECT_TRUE(has_conflict_pred_conflict(
      cycle_of({kMaskSOInv, kMaskRW, kMaskSO, kMaskWW})));
}

TEST(CyclePredicates, SerCriticalIsJustCpc) {
  const TypedCycle with = cycle_of({kMaskRW, kMaskSOInv, kMaskRW});
  EXPECT_TRUE(ser_critical(with));
  const TypedCycle without = cycle_of({kMaskRW, kMaskWR, kMaskRW});
  EXPECT_FALSE(ser_critical(without));
}

TEST(CyclePredicates, SiCriticalSeparationVacuousWithOneRw) {
  // One anti-dependency: condition (iii) holds vacuously.
  const TypedCycle c = cycle_of({kMaskRW, kMaskSOInv, kMaskWR});
  EXPECT_TRUE(si_critical(c));
}

TEST(CyclePredicates, SiCriticalNeedsSeparators) {
  // Two forced RWs with only a predecessor edge between them (both arcs):
  // not SI-critical (this is the Figure 11 situation).
  const TypedCycle p3 = cycle_of({kMaskRW, kMaskSOInv, kMaskRW, kMaskSOInv});
  EXPECT_TRUE(ser_critical(p3));
  EXPECT_FALSE(si_critical(p3));
  // Add WR separators in both arcs: SI-critical again.
  const TypedCycle sep = cycle_of(
      {kMaskRW, kMaskSOInv, kMaskWR, kMaskRW, kMaskSOInv, kMaskWW});
  EXPECT_TRUE(si_critical(sep));
  // Separator in only one arc: still not SI-critical.
  const TypedCycle half = cycle_of(
      {kMaskRW, kMaskSOInv, kMaskWR, kMaskRW, kMaskSOInv});
  EXPECT_FALSE(si_critical(half));
}

TEST(CyclePredicates, SiCriticalUsesChoiceToAvoidRw) {
  // A position that could be RW but also WR is assigned WR, so only one
  // forced RW remains: critical.
  const TypedCycle c = cycle_of(
      {kMaskRW, kMaskSOInv, kMaskRW | kMaskWR, kMaskSO});
  EXPECT_TRUE(si_critical(c));
}

TEST(CyclePredicates, PsiCriticalAtMostOneRw) {
  EXPECT_TRUE(psi_critical(cycle_of({kMaskRW, kMaskSOInv, kMaskWR})));
  EXPECT_FALSE(
      psi_critical(cycle_of({kMaskRW, kMaskSOInv, kMaskRW, kMaskWW})));
  // Choice avoids the second RW: critical under PSI.
  EXPECT_TRUE(psi_critical(
      cycle_of({kMaskRW, kMaskSOInv, kMaskRW | kMaskWW, kMaskWW})));
}

TEST(CyclePredicates, AdjacentRwPair) {
  EXPECT_TRUE(can_have_adjacent_rw_pair(cycle_of({kMaskRW, kMaskRW})));
  EXPECT_TRUE(can_have_adjacent_rw_pair(
      cycle_of({kMaskWW, kMaskRW | kMaskWR, kMaskRW})));
  // Non-adjacent in a 4-cycle: no pair.
  EXPECT_FALSE(can_have_adjacent_rw_pair(
      cycle_of({kMaskRW, kMaskWW, kMaskRW, kMaskWW})));
  // In a 3-cycle, the first and last step are wrap-around adjacent.
  EXPECT_TRUE(
      can_have_adjacent_rw_pair(cycle_of({kMaskRW, kMaskWW, kMaskRW})));
}

TEST(CyclePredicates, AvoidAdjacentRw) {
  EXPECT_FALSE(can_avoid_adjacent_rw(cycle_of({kMaskRW, kMaskRW})));
  EXPECT_TRUE(can_avoid_adjacent_rw(cycle_of({kMaskRW, kMaskRW | kMaskWW})));
  EXPECT_TRUE(can_avoid_adjacent_rw(
      cycle_of({kMaskRW, kMaskWW, kMaskRW, kMaskWW})));
  // Wrap-around: first and last step of a 3-cycle are adjacent.
  EXPECT_FALSE(can_avoid_adjacent_rw(cycle_of({kMaskRW, kMaskWW, kMaskRW})));
}

TEST(CyclePredicates, TwoNonAdjacentRw) {
  // Forced pair, non-adjacent: yes.
  EXPECT_TRUE(can_have_two_nonadjacent_rw(
      cycle_of({kMaskRW, kMaskWW, kMaskRW, kMaskWR})));
  // Forced pair adjacent: no.
  EXPECT_FALSE(
      can_have_two_nonadjacent_rw(cycle_of({kMaskRW, kMaskRW, kMaskWW})));
  // One forced, one optional far enough: yes.
  EXPECT_TRUE(can_have_two_nonadjacent_rw(
      cycle_of({kMaskRW, kMaskWW, kMaskRW | kMaskWW, kMaskWR})));
  // One forced, optional only adjacent: no.
  EXPECT_FALSE(can_have_two_nonadjacent_rw(
      cycle_of({kMaskRW, kMaskRW | kMaskWW, kMaskWW})));
  // No forced, two optionals non-adjacent in a 4-cycle: yes.
  EXPECT_TRUE(can_have_two_nonadjacent_rw(
      cycle_of({kMaskRW | kMaskWW, kMaskWW, kMaskRW | kMaskWW, kMaskWW})));
  // Triangle: every pair of positions is adjacent — impossible.
  EXPECT_FALSE(can_have_two_nonadjacent_rw(
      cycle_of({kMaskRW | kMaskWW, kMaskRW | kMaskWW, kMaskRW | kMaskWW})));
}

// ----- implicit-edge fast paths vs materialised relation algebra ----------

/// Random sparse relation over n transactions, xorshift-seeded.
Relation sparse_relation(std::size_t n, std::uint64_t seed,
                         std::size_t edges) {
  Relation r(n);
  std::uint64_t s = seed * 0x9E3779B97F4A7C15ULL + 1;
  auto next = [&s] {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  };
  for (std::size_t e = 0; e < edges; ++e) {
    r.add(static_cast<TxnId>(next() % n), static_cast<TxnId>(next() % n));
  }
  return r;
}

class ImplicitEdgeDifferential : public ::testing::TestWithParam<int> {};

TEST_P(ImplicitEdgeDifferential, SiSearchMatchesMaterialisedComposition) {
  // composed_si_relation_acyclic must agree with materialising
  // D ∪ D;RW and running the bitset cycle finder, across densities that
  // straddle the acyclic/cyclic boundary and sizes off word alignment.
  const std::uint64_t base = static_cast<std::uint64_t>(GetParam());
  for (const std::size_t n : {3UL, 17UL, 64UL, 65UL, 130UL}) {
    for (const std::size_t edges : {n / 2, n, 2 * n}) {
      const Relation so = sparse_relation(n, base * 11 + n + edges, edges / 3);
      const Relation wr = sparse_relation(n, base * 13 + n + edges, edges / 3);
      const Relation ww = sparse_relation(n, base * 17 + n + edges, edges / 3);
      const Relation rw = sparse_relation(n, base * 19 + n + edges, edges);
      const Relation d = so | wr | ww;
      const Relation composed = d | d.compose(rw);
      EXPECT_EQ(composed_si_relation_acyclic(so, wr, ww, rw),
                !composed.find_cycle().has_value())
          << "n=" << n << " edges=" << edges;
    }
  }
}

/// Theorem 21 membership from the SCC-confined kernel.
bool psi_member(const Relation& so, const Relation& wr, const Relation& ww,
                const Relation& rw) {
  return !first_psi_violation(so, wr, ww, rw).has_value();
}

TEST_P(ImplicitEdgeDifferential, PsiSearchMatchesMaterialisedClosure) {
  // first_psi_violation must find the smallest t on the diagonal of
  // D+ ∪ D+;RW with D+ materialised by Warshall.
  const std::uint64_t base = static_cast<std::uint64_t>(GetParam());
  for (const std::size_t n : {3UL, 17UL, 64UL, 65UL, 130UL}) {
    for (const std::size_t edges : {n / 2, n, 2 * n}) {
      const Relation so = sparse_relation(n, base * 23 + n + edges, edges / 3);
      const Relation wr = sparse_relation(n, base * 29 + n + edges, edges / 3);
      const Relation ww = sparse_relation(n, base * 31 + n + edges, edges / 3);
      const Relation rw = sparse_relation(n, base * 37 + n + edges, edges);
      const Relation dplus = (so | wr | ww).transitive_closure();
      const Relation composed = dplus | dplus.compose(rw);
      std::optional<TxnId> reflexive;
      for (TxnId t = 0; t < n && !reflexive; ++t) {
        if (composed.contains(t, t)) reflexive = t;
      }
      const std::optional<PsiViolation> v = first_psi_violation(so, wr, ww, rw);
      ASSERT_EQ(v.has_value(), reflexive.has_value())
          << "n=" << n << " edges=" << edges;
      if (v) {
        EXPECT_EQ(v->t, *reflexive) << "n=" << n << " edges=" << edges;
      }
    }
  }
}

/// A DependencyGraph whose D is \p so ∪ \p wr ∪ \p ww and whose RW is
/// \p rw, each transaction shifted up by one behind an initial
/// transaction 0 that writes every object first. Transaction 0 has no
/// incoming edge, so it lies on no cycle. Each edge (a, b) gets an object
/// of its own: a WR edge is an object a writes and b reads; an SO or WW
/// edge an object written by a, then by b; an RW edge an object that a
/// reads from transaction 0 and b overwrites. Self-loops are dropped: no
/// history has them.
DependencyGraph encode_graph(const Relation& so, const Relation& wr,
                             const Relation& ww, const Relation& rw) {
  const std::size_t n = so.size();
  std::vector<std::vector<Event>> reads(n + 1);
  std::vector<std::vector<Event>> writes(n + 1);
  std::vector<std::vector<TxnId>> orders;
  struct ReadFrom {
    ObjId x;
    TxnId writer;
    TxnId reader;
  };
  std::vector<ReadFrom> read_from;
  const auto object = [&](std::vector<TxnId> order) {
    orders.push_back(std::move(order));
    const auto x = static_cast<ObjId>(orders.size() - 1);
    for (std::size_t i = 1; i < orders.back().size(); ++i) {
      const TxnId w = orders.back()[i];
      writes[w].push_back(write(x, static_cast<Value>(w)));
    }
    return x;
  };
  for (const auto& [a, b] : (so | ww).edges()) {
    if (a != b) object({0, a + 1, b + 1});
  }
  for (const auto& [a, b] : wr.edges()) {
    if (a == b) continue;
    const ObjId x = object({0, a + 1});
    reads[b + 1].push_back(read(x, static_cast<Value>(a + 1)));
    read_from.push_back({x, a + 1, b + 1});
  }
  for (const auto& [a, b] : rw.edges()) {
    if (a == b) continue;
    const ObjId x = object({0, b + 1});
    reads[a + 1].push_back(read(x, 0));
    read_from.push_back({x, 0, a + 1});
  }
  History h;
  std::vector<Event> init;
  for (std::size_t x = 0; x < orders.size(); ++x) {
    init.push_back(write(static_cast<ObjId>(x), 0));
  }
  h.append_singleton(Transaction(std::move(init)));
  for (std::size_t t = 1; t <= n; ++t) {
    std::vector<Event> events = std::move(reads[t]);
    events.insert(events.end(), writes[t].begin(), writes[t].end());
    h.append_singleton(Transaction(std::move(events)));
  }
  DependencyGraph g(std::move(h));
  for (std::size_t x = 0; x < orders.size(); ++x) {
    g.set_write_order(static_cast<ObjId>(x), orders[x]);
  }
  for (const ReadFrom& r : read_from) g.set_read_from(r.x, r.writer, r.reader);
  return g;
}

/// first_psi_violation must equal its whole-graph oracle on the relations
/// and on their encoded graph, psi_relation_irreflexive must give its
/// verdict, and check_graph_psi must return the dense reference's
/// GraphCheck: same verdict, same witness edges in the same order, same
/// INT outcome. Returns the kernel's result on the relations.
std::optional<PsiViolation> expect_psi_matches_oracles(const Relation& so,
                                                       const Relation& wr,
                                                       const Relation& ww,
                                                       const Relation& rw) {
  std::optional<PsiViolation> v = first_psi_violation(so, wr, ww, rw);
  EXPECT_EQ(v, first_psi_violation_reference(so, wr, ww, rw));
  EXPECT_EQ(psi_relation_irreflexive(so, wr, ww, rw), !v.has_value());
  const DependencyGraph g = encode_graph(so, wr, ww, rw);
  const DepRelations rel = g.relations();
  EXPECT_EQ(first_psi_violation(rel.so, rel.wr, rel.ww, rel.rw),
            first_psi_violation_reference(rel.so, rel.wr, rel.ww, rel.rw));
  const GraphCheck fast = check_graph_psi(g, rel);
  const GraphCheck ref = check_graph_psi_reference(g, rel);
  EXPECT_FALSE(fast.int_violation.has_value());
  EXPECT_EQ(fast.member, ref.member);
  EXPECT_EQ(fast.witness, ref.witness);
  EXPECT_EQ(fast.int_violation.has_value(), ref.int_violation.has_value());
  return v;
}

TEST_P(ImplicitEdgeDifferential, PsiViolationMatchesOracleBitForBit) {
  // The sparse seeds of PsiSearchMatchesMaterialisedClosure, compared on
  // t and path with the whole-graph D+ and on the full GraphCheck.
  const std::uint64_t base = static_cast<std::uint64_t>(GetParam());
  std::size_t violations = 0;
  for (const std::size_t n : {3UL, 17UL, 64UL, 65UL, 130UL}) {
    for (const std::size_t edges : {n / 2, n, 2 * n}) {
      const Relation so = sparse_relation(n, base * 23 + n + edges, edges / 3);
      const Relation wr = sparse_relation(n, base * 29 + n + edges, edges / 3);
      const Relation ww = sparse_relation(n, base * 31 + n + edges, edges / 3);
      const Relation rw = sparse_relation(n, base * 37 + n + edges, edges);
      SCOPED_TRACE("n=" + std::to_string(n) + " edges=" + std::to_string(edges));
      if (expect_psi_matches_oracles(so, wr, ww, rw)) ++violations;
    }
  }
  EXPECT_GT(violations, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ImplicitEdgeDifferential,
                         ::testing::Range(0, 8));

TEST(ImplicitEdgeDifferential, HandCraftedShapes) {
  const std::size_t n = 6;
  const Relation none(n);
  // Pure D-cycle: caught with no RW at all.
  {
    const Relation d_cycle = Relation::from_edges(n, {{0, 1}, {1, 0}});
    EXPECT_FALSE(composed_si_relation_acyclic(d_cycle, none, none, none));
    EXPECT_FALSE(psi_member(d_cycle, none, none, none));
  }
  // D;RW self-composition: 0 -D-> 1 -RW-> 0 is a 2-cycle of D∪D;RW only
  // through the composed edge (0,0).
  {
    const Relation d = Relation::from_edges(n, {{0, 1}});
    const Relation rw = Relation::from_edges(n, {{1, 0}});
    EXPECT_FALSE(composed_si_relation_acyclic(d, none, none, rw));
    EXPECT_FALSE(psi_member(d, none, none, rw));
  }
  // Two adjacent RW edges: 0 -D-> 1 -RW-> 2 -RW-> 0 needs RW;RW, which
  // neither SI nor PSI composition forms — both accept (write skew).
  {
    const Relation d = Relation::from_edges(n, {{0, 1}});
    const Relation rw = Relation::from_edges(n, {{1, 2}, {2, 0}});
    EXPECT_TRUE(composed_si_relation_acyclic(d, none, none, rw));
    EXPECT_TRUE(psi_member(d, none, none, rw));
  }
  // Long-fork shape: 0 -D-> 1 -RW-> 2 -D-> 3 -RW-> 0. Two RW edges but
  // never adjacent — excluded from GraphSI (Theorem 9 needs two adjacent
  // RW per cycle) yet inside GraphPSI (two RW suffice for Theorem 21).
  {
    const Relation d = Relation::from_edges(n, {{0, 1}, {2, 3}});
    const Relation rw = Relation::from_edges(n, {{1, 2}, {3, 0}});
    EXPECT_FALSE(composed_si_relation_acyclic(d, none, none, rw));
    EXPECT_TRUE(psi_member(d, none, none, rw));
  }
  // D-path feeding an RW back-edge: 0 -D-> 1 -D-> 2 -RW-> 0. The SI
  // composition already sees 1 -D;RW-> 0; the PSI closure sees
  // 0 -D+-> 2 -RW-> 0. Both reject.
  {
    const Relation d = Relation::from_edges(n, {{0, 1}, {1, 2}});
    const Relation rw = Relation::from_edges(n, {{2, 0}});
    EXPECT_FALSE(composed_si_relation_acyclic(d, none, none, rw));
    EXPECT_FALSE(psi_member(d, none, none, rw));
  }
  // A D self-loop makes a one-node SCC nontrivial: D+(2, 2). An RW
  // self-loop alone closes no cycle with D+, so it is allowed.
  {
    const Relation d = Relation::from_edges(n, {{0, 1}, {2, 2}});
    const std::optional<PsiViolation> v = first_psi_violation(d, none, none, none);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->t, 2u);
    EXPECT_EQ(v->path, (std::vector<TxnId>{2, 2}));
    EXPECT_TRUE(psi_member(Relation::from_edges(n, {{0, 1}}), none, none,
                           Relation::from_edges(n, {{0, 0}})));
    EXPECT_TRUE(psi_member(none, none, none, Relation::from_edges(n, {{3, 3}})));
  }
  // Empty relations: trivially acyclic/irreflexive.
  EXPECT_TRUE(composed_si_relation_acyclic(none, none, none, none));
  EXPECT_TRUE(psi_member(none, none, none, none));
}

TEST(PsiSccKernel, GlobalSmallestTAcrossViolatingSccs) {
  // Three violating SCCs of D ∪ RW. Tarjan from root 0 completes them in
  // the order Y = {2, 30} (t = 2), X = {5, 6} (t = 5), Z = {0, 20, 21}
  // (t = 0): the smallest t lies in the last SCC to complete.
  const std::size_t n = 32;
  const Relation none(n);
  const Relation d = Relation::from_edges(
      n, {{0, 5}, {0, 20}, {20, 21}, {5, 6}, {6, 5}, {5, 2}, {2, 30}});
  const Relation rw = Relation::from_edges(n, {{21, 0}, {30, 2}});
  const std::optional<PsiViolation> v =
      expect_psi_matches_oracles(none, none, d, rw);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->t, 0u);
  EXPECT_EQ(v->path, (std::vector<TxnId>{0, 20, 21}));
  // Without Z's RW edge the smallest t is Y's, closed by RW(30, 2).
  const std::optional<PsiViolation> without_z = expect_psi_matches_oracles(
      none, none, d, Relation::from_edges(n, {{30, 2}}));
  ASSERT_TRUE(without_z.has_value());
  EXPECT_EQ(without_z->t, 2u);
  EXPECT_EQ(without_z->path, (std::vector<TxnId>{2, 30}));
}

TEST(PsiSccKernel, ClusteredViolatingSccsMatchOracle) {
  // D ∪ RW made of clusters of 1-8 transactions with scattered ids, each
  // a cycle that is allowed (two RW edges), closed by one RW edge, or a
  // D-cycle, with edges between clusters only from later to earlier ones,
  // so the clusters are the SCCs. D edges are split over SO, WR and WW.
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const std::size_t n = 240;
    std::mt19937_64 rng(seed * 7919 + 1);
    std::vector<TxnId> perm(n);
    std::iota(perm.begin(), perm.end(), TxnId{0});
    std::shuffle(perm.begin(), perm.end(), rng);
    Relation so(n);
    Relation wr(n);
    Relation ww(n);
    Relation rw(n);
    const auto add_d = [&](TxnId a, TxnId b) {
      Relation* const kinds[] = {&so, &wr, &ww};
      kinds[rng() % 3]->add(a, b);
    };
    std::vector<std::vector<TxnId>> clusters;
    std::size_t violating = 0;
    for (std::size_t pos = 0; pos < n;) {
      const std::size_t m = std::min<std::size_t>(1 + rng() % 8, n - pos);
      const std::vector<TxnId> c(perm.begin() + static_cast<std::ptrdiff_t>(pos),
                                 perm.begin() + static_cast<std::ptrdiff_t>(pos + m));
      pos += m;
      const std::uint64_t shape = rng() % 3;  // allowed, RW-closed, D-cycle
      if (shape != 0) ++violating;
      if (m == 1) {
        if (shape != 0) add_d(c[0], c[0]);
      } else {
        (shape == 0 ? rw.add(c[0], c[1]) : add_d(c[0], c[1]));
        for (std::size_t i = 1; i + 1 < m; ++i) add_d(c[i], c[i + 1]);
        (shape == 2 ? add_d(c[m - 1], c[0]) : rw.add(c[m - 1], c[0]));
        // Forward chords that skip no RW edge keep each shape's verdict.
        for (std::size_t i = 1; i + 2 < m; ++i) {
          if (rng() % 2 == 0) add_d(c[i], c[i + 2]);
        }
      }
      if (!clusters.empty()) {
        for (int e = 0; e < 3; ++e) {
          const std::vector<TxnId>& to = clusters[rng() % clusters.size()];
          const TxnId a = c[rng() % c.size()];
          const TxnId b = to[rng() % to.size()];
          (rng() % 2 == 0 ? rw.add(a, b) : add_d(a, b));
        }
      }
      clusters.push_back(c);
    }
    ASSERT_GE(violating, 3u);
    EXPECT_TRUE(expect_psi_matches_oracles(so, wr, ww, rw).has_value());
  }
}

/// True iff every node is reachable from \p from in \p r.
bool reaches_all(const Relation& r, TxnId from) {
  std::vector<bool> seen(r.size(), false);
  std::vector<TxnId> stack{from};
  seen[from] = true;
  std::size_t count = 1;
  while (!stack.empty()) {
    const TxnId u = stack.back();
    stack.pop_back();
    r.for_successors(u, [&](TxnId v) {
      if (!seen[v]) {
        seen[v] = true;
        ++count;
        stack.push_back(v);
      }
    });
  }
  return count == r.size();
}

TEST(PsiSccKernel, OneSccOf2048Transactions) {
  // The worst case: D ∪ RW is one SCC, so the kernel closes D over the
  // whole graph. 128 blocks of 16 transactions, ids scattered; inside a
  // block a D chain with chords, and RW from each block's last to the
  // next block's first transaction. Every cycle runs through all 128 RW
  // edges, so the graph is in GraphPSI. Then backward RW edges inside
  // three blocks and a backward D edge in a fourth make it a non-member,
  // whose witness must be the dense reference's.
  const std::size_t n = 2048;
  const std::size_t block = 16;
  std::mt19937_64 rng(2048);
  std::vector<TxnId> id(n);
  std::iota(id.begin(), id.end(), TxnId{0});
  std::shuffle(id.begin(), id.end(), rng);
  const Relation none(n);
  Relation wr(n);
  Relation ww(n);
  Relation rw(n);
  for (std::size_t b = 0; b < n / block; ++b) {
    const std::size_t first = b * block;
    for (std::size_t i = first; i + 1 < first + block; ++i) {
      ww.add(id[i], id[i + 1]);
      if (i + 3 < first + block) wr.add(id[i], id[i + 3]);
    }
    rw.add(id[first + block - 1], id[(first + block) % n]);
  }
  ASSERT_TRUE(reaches_all(wr | ww | rw, id[0]));
  ASSERT_TRUE(reaches_all((wr | ww | rw).inverse(), id[0]));
  EXPECT_FALSE(expect_psi_matches_oracles(none, wr, ww, rw).has_value());

  for (const std::size_t b : {100UL, 37UL, 70UL}) {
    rw.add(id[b * block + 9], id[b * block + 4]);
  }
  ww.add(id[5 * block + 12], id[5 * block + 2]);
  const std::optional<PsiViolation> v =
      expect_psi_matches_oracles(none, wr, ww, rw);
  ASSERT_TRUE(v.has_value());
  EXPECT_GT(v->path.size(), 2u);
}

}  // namespace
}  // namespace sia
