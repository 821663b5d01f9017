#pragma once

#include <vector>

#include "graph/characterization.hpp"

/// \file reference_checkers.hpp
/// Dense oracles for the Theorem 8, 9 and 21 checks: they materialise the
/// composed relations with the relation algebra (union, compose,
/// transitive closure, inverse) and read witness edges off the full
/// edges() listing. check_graph_ser / _si / _psi share no cycle search
/// with them and must match their verdicts and witnesses bit for bit.
/// Used by the differential tests and as the "old" side of
/// bench_theorem9_checker.

namespace sia {

/// Theorem 8: materialises SO ∪ WR ∪ WW ∪ RW and runs
/// Relation::find_cycle.
[[nodiscard]] GraphCheck check_graph_ser_reference(const DependencyGraph& g,
                                                   const DepRelations& rel);

/// Theorem 9: materialises D ∪ D;RW and runs Relation::find_cycle.
[[nodiscard]] GraphCheck check_graph_si_reference(const DependencyGraph& g,
                                                  const DepRelations& rel);

/// Theorem 21: materialises D+ by Warshall and scans the diagonal of
/// D+ ∪ D+;RW.
[[nodiscard]] GraphCheck check_graph_psi_reference(const DependencyGraph& g,
                                                   const DepRelations& rel);

/// Expands a cycle of the composed relation C = D ∪ D;RW (or D+ ; RW? for
/// PSI) back into concrete typed edges of \p g.
[[nodiscard]] std::vector<DepEdge> expand_composed_cycle(
    const DependencyGraph& g, const DepRelations& rel,
    const std::vector<TxnId>& cycle, bool through_dplus);

}  // namespace sia
