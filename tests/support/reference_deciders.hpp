#pragma once

#include <optional>
#include <vector>

#include "graph/characterization.hpp"
#include "graph/enumeration.hpp"
#include "robustness/concretize.hpp"

/// \file reference_deciders.hpp
/// Oracles for the exhaustive small-graph deciders. Each builds a full
/// DependencyGraph for every candidate and decides it with the full
/// checkers, INT included, witness and all: decide_history and
/// find_concrete_anomaly, which hoist INT, SO and WR out of the leaves and
/// decide leaves by membership alone, must match them bit for bit.

namespace sia {

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

/// decide_history by check_graph on every graph of
/// enumerate_dependency_graphs.
[[nodiscard]] HistDecision decide_history_reference(const History& h,
                                                    Model m);

/// find_concrete_anomaly by materialising the History and the
/// DependencyGraph of every candidate and deciding it with si_anomaly /
/// psi_anomaly.
[[nodiscard]] Concretization find_concrete_anomaly_reference(
    const std::vector<Program>& instances, AnomalyTarget target,
    std::size_t budget = 15'000);

}  // namespace sia
