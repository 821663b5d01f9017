#include "reference_checkers.hpp"

#include <algorithm>
#include <bit>

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

/// Successor lists of D = SO ∪ WR ∪ WW, extracted once from the three
/// rows OR-ed word by word: ascending, without duplicates.
std::vector<std::vector<TxnId>> merged_d_adjacency(const Relation& so,
                                                   const Relation& wr,
                                                   const Relation& ww) {
  std::vector<std::vector<TxnId>> adj(so.size());
  for (TxnId u = 0; u < so.size(); ++u) {
    const auto a = so.row_words(u);
    const auto b = wr.row_words(u);
    const auto c = ww.row_words(u);
    for (std::size_t i = 0; i < a.size(); ++i) {
      for (std::uint64_t word = a[i] | b[i] | c[i]; word != 0;
           word &= word - 1) {
        adj[u].push_back(static_cast<TxnId>(
            i * 64 + static_cast<std::size_t>(std::countr_zero(word))));
      }
    }
  }
  return adj;
}

/// Iterative Tarjan over \p adj. Fills \p order with every node, SCC by
/// SCC in completion order — each SCC after every SCC it reaches (reverse
/// topological), the processing order of reachability propagation — and
/// \p comp with each node's SCC id; ids ascend along \p order.
void tarjan_sccs(const std::vector<std::vector<TxnId>>& adj,
                 std::vector<TxnId>& order, std::vector<std::uint32_t>& comp) {
  const std::size_t n = adj.size();
  constexpr std::uint32_t kUnvisited = 0xffffffffu;
  std::vector<std::uint32_t> index(n, kUnvisited);
  std::vector<std::uint32_t> lowlink(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<TxnId> scc_stack;
  struct Frame {
    TxnId node;
    std::size_t next{0};
  };
  std::vector<Frame> frames;
  std::uint32_t counter = 0;
  std::uint32_t components = 0;
  order.clear();
  order.reserve(n);
  comp.assign(n, 0);

  for (TxnId root = 0; root < n; ++root) {
    if (index[root] != kUnvisited) continue;
    frames.push_back({root, 0});
    index[root] = lowlink[root] = counter++;
    scc_stack.push_back(root);
    on_stack[root] = true;
    while (!frames.empty()) {
      Frame& f = frames.back();
      const TxnId u = f.node;
      if (f.next < adj[u].size()) {
        const TxnId v = adj[u][f.next++];
        if (index[v] == kUnvisited) {
          frames.push_back({v, 0});
          index[v] = lowlink[v] = counter++;
          scc_stack.push_back(v);
          on_stack[v] = true;
        } else if (on_stack[v]) {
          lowlink[u] = std::min(lowlink[u], index[v]);
        }
        continue;
      }
      if (lowlink[u] == index[u]) {
        // Root of an SCC: pop its members.
        TxnId member = kInvalidTxn;
        while (member != u) {
          member = scc_stack.back();
          scc_stack.pop_back();
          on_stack[member] = false;
          comp[member] = components;
          order.push_back(member);
        }
        ++components;
      }
      frames.pop_back();
      if (!frames.empty()) {
        lowlink[frames.back().node] =
            std::min(lowlink[frames.back().node], lowlink[u]);
      }
    }
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

Relation dependency_closure(const Relation& so, const Relation& wr,
                            const Relation& ww) {
  const std::size_t n = so.size();
  const std::vector<std::vector<TxnId>> d_adj = merged_d_adjacency(so, wr, ww);
  std::vector<TxnId> order;
  std::vector<std::uint32_t> comp;
  tarjan_sccs(d_adj, order, comp);

  // SCCs sinks-first: reach(C) = ⋃ over D edges (u, v) leaving C of
  // ({v} ∪ reach(v)), plus C itself when an edge stays inside C. The row
  // is built on one member and copied to the others. On a D-DAG every SCC
  // is one node and this is one row union per D edge.
  Relation reach(n);
  for (std::size_t begin = 0; begin < n;) {
    const TxnId rep = order[begin];
    std::size_t end = begin + 1;
    while (end < n && comp[order[end]] == comp[rep]) ++end;
    bool cyclic = false;
    for (std::size_t i = begin; i < end; ++i) {
      for (const TxnId v : d_adj[order[i]]) {
        if (comp[v] == comp[rep]) {
          cyclic = true;
          continue;
        }
        reach.add(rep, v);
        reach.absorb_row(rep, v);
      }
    }
    if (cyclic) {
      for (std::size_t i = begin; i < end; ++i) reach.add(rep, order[i]);
    }
    for (std::size_t i = begin + 1; i < end; ++i) {
      reach.absorb_row(order[i], rep);
    }
    begin = end;
  }
  return reach;
}

std::optional<TxnId> first_dplus_rw_reflexive(const Relation& dplus,
                                              const Relation& rw) {
  const std::size_t n = dplus.size();
  TxnId first = static_cast<TxnId>(n);
  for (TxnId t = 0; t < n; ++t) {
    if (dplus.contains(t, t)) {
      first = t;
      break;
    }
  }
  // A diagonal entry of D+ ; RW is an RW edge (w, t) with D+(t, w).
  for (TxnId w = 0; w < n; ++w) {
    rw.for_successors(w, [&](TxnId t) {
      if (t < first && dplus.contains(t, w)) first = t;
    });
  }
  if (first == n) return std::nullopt;
  return first;
}

bool dplus_rw_irreflexive(const Relation& so, const Relation& wr,
                          const Relation& ww, const Relation& rw) {
  return !first_dplus_rw_reflexive(dependency_closure(so, wr, ww), rw);
}

std::optional<PsiViolation> first_psi_violation_reference(
    const Relation& so, const Relation& wr, const Relation& ww,
    const Relation& rw) {
  const Relation dplus = dependency_closure(so, wr, ww);
  const std::optional<TxnId> t = first_dplus_rw_reflexive(dplus, rw);
  if (!t) return std::nullopt;
  TxnId to = *t;
  if (!dplus.contains(*t, *t)) {
    to = static_cast<TxnId>(dplus.size());
    dplus.for_successors(*t, [&](TxnId w) {
      if (w < to && rw.contains(w, *t)) to = w;
    });
  }
  const std::optional<std::vector<TxnId>> path =
      (so | wr | ww).find_path(*t, to);
  if (!path) {
    throw ModelError("first_psi_violation_reference: no D path (internal error)");
  }
  return PsiViolation{*t, *path};
}

}  // namespace sia
