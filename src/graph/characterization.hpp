#pragma once

#include <optional>
#include <string>
#include <vector>

#include "graph/dependency_graph.hpp"

/// \file characterization.hpp
/// The dependency-graph characterisations of serializability (Theorem 8),
/// snapshot isolation (Theorem 9 — the paper's headline result) and
/// parallel SI (Theorem 21), with witness cycles, plus the dynamic
/// robustness criteria of Theorems 19 and 22.

namespace sia {

/// Result of a graph-membership check. On non-membership, \c witness holds
/// a culprit cycle as typed edges (empty if the failure is INT, in which
/// case \c int_violation explains it).
struct GraphCheck {
  bool member{false};
  std::vector<DepEdge> witness;          ///< cycle demonstrating exclusion
  std::optional<Violation> int_violation;

  explicit operator bool() const { return member; }
};

/// GraphSER (Theorem 8): INT ∧ acyclic(SO ∪ WR ∪ WW ∪ RW). The cycle
/// search builds the union's row of each node it visits only.
[[nodiscard]] GraphCheck check_graph_ser(const DependencyGraph& g);
[[nodiscard]] GraphCheck check_graph_ser(const DependencyGraph& g,
                                         const DepRelations& rel);

/// GraphSI (Theorem 9): INT ∧ acyclic((SO ∪ WR ∪ WW) ; RW?). Equivalently:
/// every cycle of the graph has at least two *adjacent* anti-dependency
/// edges.
///
/// The verdict comes from the implicit-edge cycle search of cycles.hpp in
/// O(V + E) adjacency scans. A failed check then takes the first cycle of
/// C = D ∪ D;RW (D = SO ∪ WR ∪ WW) in Relation::find_cycle order from a DFS
/// that builds C's row of each node it visits — D(u) plus the RW rows of
/// u's D-successors — and never materialises C. Each D;RW step goes
/// through the smallest D-successor w of u with RW(w, v), and each step
/// becomes the first matching edge of DependencyGraph::first_edge.
[[nodiscard]] GraphCheck check_graph_si(const DependencyGraph& g);
[[nodiscard]] GraphCheck check_graph_si(const DependencyGraph& g,
                                        const DepRelations& rel);

/// GraphPSI (Theorem 21): INT ∧ irreflexive((SO ∪ WR ∪ WW)+ ; RW?).
/// Equivalently: every cycle has at least two anti-dependency edges.
///
/// Decided from D+ built by SCC condensation and reachability propagation
/// (cycles.hpp, dependency_closure), never by the O(n³/64) Warshall
/// closure. A failed check witnesses the smallest t with
/// (D+ ; RW?)(t, t): a shortest D-cycle through t, or a shortest D path
/// to the smallest w with D+(t, w) ∧ RW(w, t) closed by that RW edge.
[[nodiscard]] GraphCheck check_graph_psi(const DependencyGraph& g);
[[nodiscard]] GraphCheck check_graph_psi(const DependencyGraph& g,
                                         const DepRelations& rel);

/// Dynamic robustness criterion against SI (Theorem 19):
/// G ∈ GraphSI \ GraphSER — the graph exhibits an SI-only anomaly.
/// Returns the witness cycle of the GraphSER failure when true.
struct RobustnessWitness {
  bool anomaly{false};              ///< true iff G is in the difference set
  std::vector<DepEdge> cycle;       ///< cycle excluded from the stronger model
  std::optional<Violation> int_violation;
};
[[nodiscard]] RobustnessWitness si_anomaly(const DependencyGraph& g);

/// Dynamic robustness criterion against parallel SI towards SI
/// (Theorem 22): G ∈ GraphPSI \ GraphSI.
[[nodiscard]] RobustnessWitness psi_anomaly(const DependencyGraph& g);

}  // namespace sia
