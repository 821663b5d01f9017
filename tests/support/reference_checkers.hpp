#pragma once

#include <optional>
#include <vector>

#include "graph/characterization.hpp"
#include "graph/cycles.hpp"

/// \file reference_checkers.hpp
/// Dense oracles for the Theorem 8, 9 and 21 checks: they materialise the
/// composed relations with the relation algebra (union, compose,
/// transitive closure, inverse) and read witness edges off the full
/// edges() listing. check_graph_ser / _si / _psi share no cycle search
/// with them and must match their verdicts and witnesses bit for bit.
/// Used by the differential tests and as the "old" side of
/// bench_theorem9_checker.
///
/// The Theorem 21 kernel first_psi_violation (cycles.hpp) has a second
/// oracle below: the whole-graph D+ it replaced, built by SCC condensation
/// with private copies of its adjacency and Tarjan helpers.

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

/// D+ for D = SO ∪ WR ∪ WW, without Warshall: Tarjan's SCC condensation
/// of D, then successor rows propagated through the SCCs in reverse
/// topological order — one row union per D edge, O(E · n/64). Every
/// member of a cyclic SCC (more than one node, or a self-loop) reaches
/// every member of its SCC, itself included.
[[nodiscard]] Relation dependency_closure(const Relation& so,
                                          const Relation& wr,
                                          const Relation& ww);

/// Smallest t with (D+ ; RW?)(t, t) — D+(t, t), or RW(w, t) for some w
/// with D+(t, w) — given \p dplus = D+; nullopt iff D+ ; RW? is
/// irreflexive. O(n + |RW|) probes.
[[nodiscard]] std::optional<TxnId> first_dplus_rw_reflexive(
    const Relation& dplus, const Relation& rw);

/// True iff D+ ; RW? is irreflexive (Theorem 21):
/// first_dplus_rw_reflexive over dependency_closure.
[[nodiscard]] bool dplus_rw_irreflexive(const Relation& so,
                                        const Relation& wr,
                                        const Relation& ww,
                                        const Relation& rw);

/// first_psi_violation over the whole-graph D+: t from
/// first_dplus_rw_reflexive over dependency_closure, the smallest w with
/// D+(t, w) ∧ RW(w, t) read off D+'s row of t, and the path from
/// Relation::find_path over the materialised D.
[[nodiscard]] std::optional<PsiViolation> first_psi_violation_reference(
    const Relation& so, const Relation& wr, const Relation& ww,
    const Relation& rw);

}  // namespace sia
