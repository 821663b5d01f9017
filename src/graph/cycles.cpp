#include "graph/cycles.hpp"

#include <algorithm>
#include <bit>
#include <set>

namespace sia {

std::size_t TypedGraph::edge_count() const {
  std::size_t count = 0;
  for (const auto& succ : adj_) {
    for (const auto& [to, mask] : succ) {
      (void)to;
      count += static_cast<std::size_t>(__builtin_popcount(mask));
    }
  }
  return count;
}

namespace {

/// Johnson's simple-cycle enumeration state for one start vertex.
class JohnsonSearch {
 public:
  JohnsonSearch(const TypedGraph& g, std::size_t budget,
                const std::function<bool(const TypedCycle&)>& visit)
      : g_(g),
        budget_(budget),
        visit_(visit),
        blocked_(g.size(), false),
        blocklist_(g.size()) {}

  /// Runs the full enumeration. Returns stats.
  EnumerationStats run() {
    for (std::uint32_t s = 0; s < g_.size() && !done_; ++s) {
      start_ = s;
      std::fill(blocked_.begin(), blocked_.end(), false);
      for (auto& b : blocklist_) b.clear();
      path_.clear();
      circuit(s);
    }
    return {complete_, seen_};
  }

 private:
  void unblock(std::uint32_t v) {
    blocked_[v] = false;
    for (std::uint32_t w : blocklist_[v]) {
      if (blocked_[w]) unblock(w);
    }
    blocklist_[v].clear();
  }

  void emit() {
    ++seen_;
    TypedCycle cycle;
    cycle.vertices = path_;
    cycle.masks.reserve(path_.size());
    for (std::size_t i = 0; i < path_.size(); ++i) {
      cycle.masks.push_back(
          g_.types(path_[i], path_[(i + 1) % path_.size()]));
    }
    if (!visit_(cycle)) done_ = true;
    if (seen_ >= budget_ && !done_) {
      complete_ = false;
      done_ = true;
    }
  }

  bool circuit(std::uint32_t v) {
    bool found = false;
    path_.push_back(v);
    blocked_[v] = true;
    for (const auto& [w, mask] : g_.successors(v)) {
      (void)mask;
      if (w < start_ || done_) continue;  // restrict to vertices >= start
      if (w == start_) {
        emit();
        found = true;
        if (done_) break;
      } else if (!blocked_[w]) {
        if (circuit(w)) found = true;
        if (done_) break;
      }
    }
    if (found) {
      unblock(v);
    } else {
      for (const auto& [w, mask] : g_.successors(v)) {
        (void)mask;
        if (w < start_) continue;
        blocklist_[w].insert(v);
      }
    }
    path_.pop_back();
    return found;
  }

  const TypedGraph& g_;
  const std::size_t budget_;
  const std::function<bool(const TypedCycle&)>& visit_;
  std::uint32_t start_{0};
  std::vector<bool> blocked_;
  std::vector<std::set<std::uint32_t>> blocklist_;
  std::vector<std::uint32_t> path_;
  std::size_t seen_{0};
  bool done_{false};
  bool complete_{true};
};

constexpr TypeMask kMaskSep = kMaskWR | kMaskWW;

}  // namespace

EnumerationStats enumerate_simple_cycles(
    const TypedGraph& g, std::size_t budget,
    const std::function<bool(const TypedCycle&)>& visit) {
  return JohnsonSearch(g, budget, visit).run();
}

std::vector<std::size_t> forced_rw_positions(const TypedCycle& c) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < c.masks.size(); ++i) {
    if (forced_rw(c.masks[i])) out.push_back(i);
  }
  return out;
}

bool has_conflict_pred_conflict(const TypedCycle& c) {
  const std::size_t k = c.length();
  if (k < 2) return false;
  for (std::size_t i = 0; i < k; ++i) {
    if (is_conflict(c.masks[i]) && (c.masks[(i + 1) % k] & kMaskSOInv) != 0 &&
        is_conflict(c.masks[(i + 2) % k])) {
      return true;
    }
  }
  return false;
}

bool ser_critical(const TypedCycle& c) { return has_conflict_pred_conflict(c); }

bool si_critical(const TypedCycle& c) {
  if (!ser_critical(c)) return false;
  const std::vector<std::size_t> forced = forced_rw_positions(c);
  if (forced.size() <= 1) return true;
  const std::size_t k = c.length();
  // Between every pair of cyclically consecutive forced anti-dependencies
  // there must be a step that can be a WR/WW dependency.
  for (std::size_t idx = 0; idx < forced.size(); ++idx) {
    const std::size_t f1 = forced[idx];
    const std::size_t f2 = forced[(idx + 1) % forced.size()];
    bool separated = false;
    for (std::size_t p = (f1 + 1) % k; p != f2; p = (p + 1) % k) {
      if ((c.masks[p] & kMaskSep) != 0) {
        separated = true;
        break;
      }
    }
    if (!separated) return false;
  }
  return true;
}

bool psi_critical(const TypedCycle& c) {
  return ser_critical(c) && min_rw_count(c) <= 1;
}

bool can_have_adjacent_rw_pair(const TypedCycle& c) {
  const std::size_t k = c.length();
  if (k < 2) return false;
  for (std::size_t i = 0; i < k; ++i) {
    if ((c.masks[i] & kMaskRW) != 0 && (c.masks[(i + 1) % k] & kMaskRW) != 0) {
      return true;
    }
  }
  return false;
}

bool can_avoid_adjacent_rw(const TypedCycle& c) {
  const std::size_t k = c.length();
  for (std::size_t i = 0; i < k; ++i) {
    if (forced_rw(c.masks[i]) && forced_rw(c.masks[(i + 1) % k])) return false;
  }
  return true;
}

bool can_have_two_nonadjacent_rw(const TypedCycle& c) {
  const std::size_t k = c.length();
  if (!can_avoid_adjacent_rw(c)) return false;  // forced adjacency spoils all
  const std::vector<std::size_t> forced = forced_rw_positions(c);
  if (forced.size() >= 2) return true;

  auto adjacent = [k](std::size_t a, std::size_t b) {
    return (a + 1) % k == b || (b + 1) % k == a;
  };
  std::vector<std::size_t> capable;
  for (std::size_t i = 0; i < k; ++i) {
    if ((c.masks[i] & kMaskRW) != 0) capable.push_back(i);
  }
  if (forced.size() == 1) {
    const std::size_t f = forced[0];
    return std::any_of(capable.begin(), capable.end(), [&](std::size_t p) {
      return p != f && !adjacent(p, f);
    });
  }
  for (std::size_t i = 0; i < capable.size(); ++i) {
    for (std::size_t j = i + 1; j < capable.size(); ++j) {
      if (!adjacent(capable[i], capable[j])) return true;
    }
  }
  return false;
}

std::size_t min_rw_count(const TypedCycle& c) {
  return forced_rw_positions(c).size();
}

namespace {

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

bool composed_si_relation_acyclic(const Relation& so, const Relation& wr,
                                  const Relation& ww, const Relation& rw) {
  const std::size_t n = so.size();
  const std::vector<std::vector<TxnId>> d_adj = merged_d_adjacency(so, wr, ww);
  std::vector<std::vector<TxnId>> rw_adj(n);
  for (TxnId u = 0; u < n; ++u) rw_adj[u] = rw.successors(u);

  // Layered graph: real node u < n, shadow node û = n + u. u → ŵ for each
  // D(u, w); ŵ → w (a plain D step of C) and ŵ → v for each RW(w, v) (a
  // composed D;RW step). Every cycle passes a real node, so real roots
  // suffice.
  const auto succ_count = [&](std::size_t node) {
    return node < n ? d_adj[node].size() : 1 + rw_adj[node - n].size();
  };
  const auto succ_at = [&](std::size_t node, std::size_t i) -> std::size_t {
    if (node < n) return n + d_adj[node][i];
    return i == 0 ? node - n : rw_adj[node - n][i - 1];
  };

  enum : std::uint8_t { kWhite = 0, kGray = 1, kBlack = 2 };
  std::vector<std::uint8_t> color(2 * n, kWhite);
  struct Frame {
    std::size_t node;
    std::size_t next;
  };
  std::vector<Frame> stack;
  for (std::size_t s = 0; s < n; ++s) {
    if (color[s] != kWhite) continue;
    color[s] = kGray;
    stack.push_back({s, 0});
    while (!stack.empty()) {
      Frame& f = stack.back();
      if (f.next >= succ_count(f.node)) {
        color[f.node] = kBlack;
        stack.pop_back();
        continue;
      }
      const std::size_t v = succ_at(f.node, f.next++);
      if (color[v] == kGray) return false;  // back edge closes a C-cycle
      if (color[v] == kWhite) {
        color[v] = kGray;
        stack.push_back({v, 0});
      }
    }
  }
  return true;
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

}  // namespace sia
