#include "reference_checkers.hpp"

namespace sia {

namespace {

bool is_dep_kind(DepKind k) {
  return k == DepKind::kSO || k == DepKind::kWR || k == DepKind::kWW;
}

/// The first edge of edges_between(a, b) whose kind satisfies \p pred.
DepEdge pick_edge(const DependencyGraph& g, TxnId a, TxnId b,
                  bool (*pred)(DepKind)) {
  for (const DepEdge& e : g.edges_between(a, b)) {
    if (pred(e.kind)) return e;
  }
  throw ModelError("pick_edge: no concrete edge T" + std::to_string(a) +
                   " -> T" + std::to_string(b) +
                   " matches the relation edge (internal error)");
}

void expand_d_path(const DependencyGraph& g, const Relation& d, TxnId from,
                   TxnId to, std::vector<DepEdge>& out) {
  if (d.contains(from, to)) {
    out.push_back(pick_edge(g, from, to, is_dep_kind));
    return;
  }
  const auto path = d.find_path(from, to);
  if (!path) {
    throw ModelError("expand_d_path: unreachable (internal error)");
  }
  for (std::size_t i = 0; i + 1 < path->size(); ++i) {
    out.push_back(pick_edge(g, (*path)[i], (*path)[i + 1], is_dep_kind));
  }
}

}  // namespace

std::vector<DepEdge> expand_composed_cycle(const DependencyGraph& g,
                                           const DepRelations& rel,
                                           const std::vector<TxnId>& cycle,
                                           bool through_dplus) {
  const Relation d = rel.dependencies();
  const Relation dplus = through_dplus ? d.transitive_closure() : d;
  const Relation rw_pred = rel.rw.inverse();
  std::vector<DepEdge> out;
  for (std::size_t i = 0; i < cycle.size(); ++i) {
    const TxnId u = cycle[i];
    const TxnId v = cycle[(i + 1) % cycle.size()];
    if (dplus.contains(u, v)) {
      expand_d_path(g, d, u, v, out);
      continue;
    }
    // A D(+) ; RW step: the intermediate transaction w is the smallest
    // common element of D(+)'s successors of u and RW's predecessors of v.
    const std::optional<TxnId> w = dplus.first_common_successor(u, rw_pred, v);
    if (!w) {
      throw ModelError(
          "expand_composed_cycle: composed edge has no decomposition "
          "(internal error)");
    }
    expand_d_path(g, d, u, *w, out);
    out.push_back(
        pick_edge(g, *w, v, [](DepKind k) { return k == DepKind::kRW; }));
  }
  return out;
}

GraphCheck check_graph_ser_reference(const DependencyGraph& g,
                                     const DepRelations& rel) {
  GraphCheck result;
  if (auto v = axioms::check_int(g.history())) {
    result.int_violation = std::move(v);
    return result;
  }
  const Relation full = rel.so | rel.wr | rel.ww | rel.rw;
  if (const auto cycle = full.find_cycle()) {
    for (std::size_t i = 0; i < cycle->size(); ++i) {
      const TxnId u = (*cycle)[i];
      const TxnId v = (*cycle)[(i + 1) % cycle->size()];
      result.witness.push_back(
          pick_edge(g, u, v, [](DepKind) { return true; }));
    }
    return result;
  }
  result.member = true;
  return result;
}

GraphCheck check_graph_si_reference(const DependencyGraph& g,
                                    const DepRelations& rel) {
  GraphCheck result;
  if (auto v = axioms::check_int(g.history())) {
    result.int_violation = std::move(v);
    return result;
  }
  // (SO ∪ WR ∪ WW) ; RW?  =  D ∪ D ; RW.
  const Relation d = rel.dependencies();
  const Relation composed = d | d.compose(rel.rw);
  if (const auto cycle = composed.find_cycle()) {
    result.witness =
        expand_composed_cycle(g, rel, *cycle, /*through_dplus=*/false);
    return result;
  }
  result.member = true;
  return result;
}

GraphCheck check_graph_psi_reference(const DependencyGraph& g,
                                     const DepRelations& rel) {
  GraphCheck result;
  if (auto v = axioms::check_int(g.history())) {
    result.int_violation = std::move(v);
    return result;
  }
  // (SO ∪ WR ∪ WW)+ ; RW? must be irreflexive.
  const Relation dplus = rel.dependencies().transitive_closure();
  const Relation composed = dplus | dplus.compose(rel.rw);
  for (TxnId t = 0; t < g.txn_count(); ++t) {
    if (!composed.contains(t, t)) continue;
    result.witness =
        expand_composed_cycle(g, rel, {t}, /*through_dplus=*/true);
    return result;
  }
  result.member = true;
  return result;
}

}  // namespace sia
