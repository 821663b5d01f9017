#pragma once

#include <optional>
#include <string>
#include <vector>

#include "graph/dependency_graph.hpp"

/// \file characterization.hpp
/// The dependency-graph characterisations of serializability (Theorem 8),
/// snapshot isolation (Theorem 9 — the paper's headline result) and
/// parallel SI (Theorem 21), with witness cycles.

namespace sia {

/// Consistency models treated by the paper.
enum class Model : std::uint8_t { kSER, kSI, kPSI };

[[nodiscard]] std::string to_string(Model m);

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
/// Decided inside the SCCs of D ∪ RW (cycles.hpp, first_psi_violation):
/// every cycle with at most one RW edge lies in one SCC, so D is closed
/// over each nontrivial SCC's own |C|-bit rows and never over the whole
/// graph. When D ∪ RW is one SCC — the worst case — that costs the
/// whole-graph closure of D, as before, plus one more pass over the rows.
/// A failed check witnesses the smallest t with
/// (D+ ; RW?)(t, t) over all SCCs: a shortest D-cycle through t, or a
/// shortest D path to the smallest w with D+(t, w) ∧ RW(w, t) closed by
/// that RW edge. Both paths stay in t's SCC, so a BFS confined to it
/// finds the same path as one over the whole graph.
[[nodiscard]] GraphCheck check_graph_psi(const DependencyGraph& g);
[[nodiscard]] GraphCheck check_graph_psi(const DependencyGraph& g,
                                         const DepRelations& rel);

/// Membership of the graph whose relations are \p rel in GraphSER /
/// GraphSI / GraphPSI, the INT axiom aside (it is a property of the
/// history alone, so a caller deciding many graphs over one history checks
/// it once). These are the decision kernels check_graph_ser / _si / _psi
/// run before extracting a witness; the exhaustive enumerators call this
/// on every candidate graph and build no witness.
[[nodiscard]] bool graph_member(const DepRelations& rel, Model m);

}  // namespace sia
