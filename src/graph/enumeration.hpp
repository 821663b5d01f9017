#pragma once

#include <functional>
#include <optional>
#include <string>

#include "graph/characterization.hpp"
#include "graph/dependency_graph.hpp"

/// \file enumeration.hpp
/// Exhaustive enumeration of the dependency-graph extensions of a history
/// (all WR/WW choices satisfying Definition 6) and the resulting *exact*
/// decision procedures for HistSER / HistSI / HistPSI membership via
/// Theorems 8, 9 and 21.
///
/// The enumeration is exponential in the number of same-value writers and
/// concurrent writers per object; it is intended for the small histories
/// of unit/property tests and for deciding spliceability of concrete
/// executions (§5), where it is exact — not for production-size histories
/// (use the characterisation checks on an extracted graph instead).

namespace sia {

/// Applies the model's characterisation check (Theorems 8 / 9 / 21).
[[nodiscard]] GraphCheck check_graph(const DependencyGraph& g, Model m);

/// Enumerates every dependency graph extending \p h per Definition 6:
/// all choices of WR sources consistent with the values read and all WW
/// total orders per object. \p visit returns false to stop early.
/// Returns the number of graphs visited.
std::size_t enumerate_dependency_graphs(
    const History& h, const std::function<bool(const DependencyGraph&)>& visit);

/// One WR choice of a dependency graph under enumeration: \p reader reads
/// from \p writer the object whose WW order is entry \p order of the
/// enumerator's order list.
struct ReadChoice {
  TxnId reader{kInvalidTxn};
  TxnId writer{kInvalidTxn};
  std::size_t order{0};
};

/// Refills \p rel's WR in place from \p reads.
void refill_wr(DepRelations& rel, const std::vector<ReadChoice>& reads);

/// Refills \p rel's WW and RW in place from the WW orders (earliest writer
/// first) and the WR choices — what DependencyGraph::relations() derives,
/// RW per Definition 5, without building a graph.
void refill_ww_rw(DepRelations& rel,
                  const std::vector<std::vector<TxnId>>& orders,
                  const std::vector<ReadChoice>& reads);

/// Result of a history-level membership decision.
struct HistDecision {
  bool allowed{false};
  std::optional<DependencyGraph> witness;  ///< a graph in the model's set
  std::size_t graphs_tried{0};
};

/// Exact decision of H ∈ HistSER / HistSI / HistPSI by Theorems 8/9/21:
/// searches for a dependency-graph extension in the model's graph set, in
/// enumerate_dependency_graphs order. INT is checked once for H, SO built
/// once, WR refilled once per read assignment and WW / RW once per graph;
/// each graph is decided by graph_member, and only the witness is built
/// as a DependencyGraph. graphs_tried counts every extension when H
/// violates INT.
[[nodiscard]] HistDecision decide_history(const History& h, Model m);

}  // namespace sia
