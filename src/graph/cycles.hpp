#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "graph/dependency_graph.hpp"

/// \file cycles.hpp
/// Typed multigraphs and vertex-simple cycle enumeration (Johnson's
/// algorithm), plus the exact per-cycle predicates used by the chopping
/// criteria (§5, Appendix B) and the robustness criteria (§6).
///
/// Between two vertices several edges of different kinds may exist (e.g.
/// both a WW and an RW dependency). Cycles are enumerated over *vertices*;
/// each step carries the set of available edge kinds as a bitmask, and the
/// per-cycle predicates decide whether SOME choice of one kind per step
/// yields a cycle with the property of interest. All predicates below are
/// exact for their property (see the reasoning in DESIGN.md §4): choosing
/// a non-anti-dependency kind wherever one is available minimises the set
/// of anti-dependency edges, and an RW is *forced* only where RW is the
/// sole conflict kind available.

namespace sia {

/// Bitmask over DepKind.
using TypeMask = std::uint8_t;

[[nodiscard]] constexpr TypeMask mask_of(DepKind k) {
  return static_cast<TypeMask>(1u << static_cast<std::uint8_t>(k));
}

inline constexpr TypeMask kMaskSO = mask_of(DepKind::kSO);
inline constexpr TypeMask kMaskSOInv = mask_of(DepKind::kSOInv);
inline constexpr TypeMask kMaskWR = mask_of(DepKind::kWR);
inline constexpr TypeMask kMaskWW = mask_of(DepKind::kWW);
inline constexpr TypeMask kMaskRW = mask_of(DepKind::kRW);
/// Conflict edges of a chopping graph: dependencies between transactions
/// of different sessions.
inline constexpr TypeMask kMaskConflict = kMaskWR | kMaskWW | kMaskRW;

/// Directed multigraph with DepKind-typed edges, at most one edge per
/// (source, target, kind).
class TypedGraph {
 public:
  explicit TypedGraph(std::size_t n = 0) : adj_(n) {}

  [[nodiscard]] std::size_t size() const { return adj_.size(); }

  void add_edge(std::uint32_t from, std::uint32_t to, DepKind kind) {
    adj_[from][to] |= mask_of(kind);
  }

  /// Kinds available from \p from to \p to (0 if no edge).
  [[nodiscard]] TypeMask types(std::uint32_t from, std::uint32_t to) const {
    auto it = adj_[from].find(to);
    return it == adj_[from].end() ? TypeMask{0} : it->second;
  }

  /// Successor -> mask map of \p from, ordered by successor id.
  [[nodiscard]] const std::map<std::uint32_t, TypeMask>& successors(
      std::uint32_t from) const {
    return adj_[from];
  }

  [[nodiscard]] std::size_t edge_count() const;

 private:
  std::vector<std::map<std::uint32_t, TypeMask>> adj_;
};

/// A vertex-simple cycle: vertices in order; step i goes from vertices[i]
/// to vertices[(i+1) % size] and masks[i] holds the kinds available there.
struct TypedCycle {
  std::vector<std::uint32_t> vertices;
  std::vector<TypeMask> masks;

  [[nodiscard]] std::size_t length() const { return vertices.size(); }
};

/// Outcome of an enumeration: whether it ran to completion (vs hitting the
/// budget) and how many cycles were visited.
struct EnumerationStats {
  bool complete{true};
  std::size_t cycles_seen{0};
};

/// Enumerates every vertex-simple cycle of \p g (each exactly once, up to
/// rotation), invoking \p visit; if visit returns false the enumeration
/// stops early (complete stays true — the caller found what it wanted).
/// Stops with complete=false after \p budget cycles. Johnson's algorithm,
/// O((V+E)(C+1)) over C cycles.
EnumerationStats enumerate_simple_cycles(
    const TypedGraph& g, std::size_t budget,
    const std::function<bool(const TypedCycle&)>& visit);

// ----- per-cycle predicates ------------------------------------------------

/// Step masks that denote a conflict edge (some dependency kind present).
[[nodiscard]] constexpr bool is_conflict(TypeMask m) {
  return (m & kMaskConflict) != 0;
}

/// A step is a *forced* anti-dependency if RW is its only conflict kind.
[[nodiscard]] constexpr bool forced_rw(TypeMask m) {
  return (m & kMaskConflict) == kMaskRW;
}

/// Positions of forced anti-dependency steps.
[[nodiscard]] std::vector<std::size_t> forced_rw_positions(
    const TypedCycle& c);

/// True iff the cycle contains three consecutive steps
/// "conflict, predecessor, conflict" (condition (ii) of critical cycles).
[[nodiscard]] bool has_conflict_pred_conflict(const TypedCycle& c);

/// SER-critical (Definition 28): simple ∧ conflict-predecessor-conflict.
[[nodiscard]] bool ser_critical(const TypedCycle& c);

/// SI-critical (§5): SER-critical ∧ some kind assignment in which any two
/// anti-dependency edges are separated by a read/write dependency edge.
[[nodiscard]] bool si_critical(const TypedCycle& c);

/// PSI-critical (Definition 30): SER-critical ∧ some assignment with at
/// most one anti-dependency edge.
[[nodiscard]] bool psi_critical(const TypedCycle& c);

/// Some assignment has two *adjacent* (cyclically consecutive) RW steps.
/// Used by the Theorem 19 static robustness analysis: such a cycle is the
/// signature of an SI-only anomaly.
[[nodiscard]] bool can_have_adjacent_rw_pair(const TypedCycle& c);

/// Some assignment has no two cyclically-consecutive RW steps.
[[nodiscard]] bool can_avoid_adjacent_rw(const TypedCycle& c);

/// Some assignment has at least two RW steps, no two of them cyclically
/// consecutive. Used by the Theorem 22 static robustness analysis (PSI
/// towards SI).
[[nodiscard]] bool can_have_two_nonadjacent_rw(const TypedCycle& c);

/// Minimum number of RW steps over all assignments (= number of forced
/// positions).
[[nodiscard]] std::size_t min_rw_count(const TypedCycle& c);

// ----- implicit-edge cycle search (Theorem 9 / 21 checks) -----------------
//
// The batch checkers need acyclicity of C = D ∪ D;RW (SI, Theorem 9) and
// irreflexivity of D+ ; RW? (PSI, Theorem 21) where D = SO ∪ WR ∪ WW.
// Materialising the composition or the closure by Warshall costs
// O(n³/64) bit-matrix work; the predicates themselves are decidable by
// sparse graph search over the *virtual* relations.

/// True iff D ∪ D;RW is acyclic, decided without materialising D or the
/// composition: iterative DFS over the layered graph with one shadow node
/// û per transaction u, edges u → ŵ for D(u, w), ŵ → w, and ŵ → v for
/// RW(w, v). Cycles of the layered graph correspond exactly to cycles of
/// D ∪ D;RW (a ŵ-through step picks "use the D edge into w, then
/// optionally one RW out of w").
[[nodiscard]] bool composed_si_relation_acyclic(const Relation& so,
                                                const Relation& wr,
                                                const Relation& ww,
                                                const Relation& rw);

/// Where D+ ; RW? is reflexive (Theorem 21), at its smallest t.
struct PsiViolation {
  /// Smallest t with (D+ ; RW?)(t, t): D+(t, t), or RW(w, t) for some w
  /// with D+(t, w).
  TxnId t{kInvalidTxn};
  /// A shortest D path from t: back to t if D+(t, t), otherwise to the
  /// smallest w with D+(t, w) ∧ RW(w, t), and then RW(w, t) closes the
  /// cycle. Relation::find_path's BFS over D — successors ascending, so
  /// the same path.
  std::vector<TxnId> path;

  friend bool operator==(const PsiViolation&, const PsiViolation&) = default;
};

/// The Theorem 21 kernel: nullopt iff D+ ; RW? is irreflexive, for
/// D = SO ∪ WR ∪ WW; otherwise the violation at the smallest t.
///
/// Decided inside the SCCs of D ∪ RW, never over an n×n D+. A reflexive
/// pair is a cycle t ⇝ t of D, or t ⇝ w →RW t; either way t, w and every
/// node of the D path lie in one SCC C of D ∪ RW. So one iterative Tarjan
/// over D ∪ RW finds the SCCs; in each nontrivial one (more than one node,
/// or a D self-loop) D restricted to C is closed over |C|-bit rows — a
/// Tarjan condensation of D on C, rows propagated sinks-first — and C's
/// members are scanned in ascending id. The smallest t over all SCCs wins,
/// not the first SCC to have one. The Tarjan over D ∪ RW reads successors
/// from the four rows word by word and lists none; D and RW on C are
/// listed from the rows of C's members.
/// The path is a BFS that visits C only. That is the unrestricted BFS's
/// path: a node that t reaches outside C reaches no node of C (it would
/// be in C), so it is neither on a path between two nodes of C nor the
/// BFS parent of one.
///
/// Cost: O(n²/64 + |D ∪ RW|) for the SCCs, plus O(|C| · n/64) to list
/// C and O(|C| · |D ∩ C²| / 64) to close it, per nontrivial SCC C. When
/// D ∪ RW is one SCC — the worst case — that is what closing D over the
/// whole graph costs, plus one more pass over the rows.
[[nodiscard]] std::optional<PsiViolation> first_psi_violation(
    const Relation& so, const Relation& wr, const Relation& ww,
    const Relation& rw);

/// True iff D+ ; RW? is irreflexive (Theorem 21): first_psi_violation's
/// verdict, returned at the first violating SCC with no path searched.
[[nodiscard]] bool psi_relation_irreflexive(const Relation& so,
                                            const Relation& wr,
                                            const Relation& ww,
                                            const Relation& rw);

}  // namespace sia
