#include "graph/cycles.hpp"

#include <algorithm>
#include <bit>
#include <set>
#include <span>

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

/// Successor lists in one array: u's successors are to[from[u]] up to
/// to[from[u + 1]], ascending.
struct Adjacency {
  std::vector<std::uint32_t> from;
  std::vector<TxnId> to;

  [[nodiscard]] std::size_t size() const { return from.size() - 1; }
  [[nodiscard]] std::span<const TxnId> operator[](TxnId u) const {
    return {to.data() + from[u], to.data() + from[u + 1]};
  }
};

/// Successor lists of the union of \p first and \p rest, extracted from
/// their rows OR-ed word by word: one pass counts each list, so the array
/// is allocated once at its size, and one pass fills it.
template <typename... Rest>
Adjacency merged_adjacency(const Relation& first, const Rest&... rest) {
  const std::size_t n = first.size();
  const auto word = [&](TxnId u, std::size_t i) {
    return (first.row_words(u)[i] | ... | rest.row_words(u)[i]);
  };
  const std::size_t words = (n + 63) / 64;
  Adjacency adj;
  adj.from.assign(n + 1, 0);
  for (TxnId u = 0; u < n; ++u) {
    std::uint32_t count = 0;
    for (std::size_t i = 0; i < words; ++i) {
      count += static_cast<std::uint32_t>(std::popcount(word(u, i)));
    }
    adj.from[u + 1] = adj.from[u] + count;
  }
  adj.to.resize(adj.from[n]);
  for (TxnId u = 0; u < n; ++u) {
    TxnId* out = adj.to.data() + adj.from[u];
    for (std::size_t i = 0; i < words; ++i) {
      for (std::uint64_t w = word(u, i); w != 0; w &= w - 1) {
        *out++ = static_cast<TxnId>(
            i * 64 + static_cast<std::size_t>(std::countr_zero(w)));
      }
    }
  }
  return adj;
}

/// Where a walk over one successor row, read word by word, stands.
struct RowCursor {
  std::size_t word{0};       ///< next word to load
  std::uint64_t pending{0};  ///< successors in the loaded word not yet seen
};

/// Iterative Tarjan over a graph on \p n nodes: \p next(u, cursor) returns
/// u's next successor in ascending order and advances \p cursor, which
/// starts value-initialised, or kInvalidTxn when there is none left.
/// Fills \p order with every node, SCC by SCC in completion order — each
/// SCC after every SCC it reaches (reverse topological), the processing
/// order of reachability propagation — and \p comp with each node's SCC
/// id; ids ascend along \p order.
template <typename Cursor, typename Next>
void tarjan_sccs(std::size_t n, Next next, std::vector<TxnId>& order,
                 std::vector<std::uint32_t>& comp) {
  constexpr std::uint32_t kNone = 0xffffffffu;
  // Each node's visiting index and lowlink. A visited node stays on the
  // SCC stack until its SCC is popped and it gets a comp id.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> visit(n, {kNone, 0});
  std::vector<TxnId> scc_stack;
  struct Frame {
    TxnId node;
    Cursor cursor{};
  };
  std::vector<Frame> frames;
  std::uint32_t counter = 0;
  std::uint32_t components = 0;
  scc_stack.reserve(n);
  frames.reserve(n);
  order.clear();
  order.reserve(n);
  comp.assign(n, kNone);
  const auto enter = [&](TxnId v) {
    frames.push_back({v});
    visit[v] = {counter, counter};
    ++counter;
    scc_stack.push_back(v);
  };

  for (TxnId root = 0; root < n; ++root) {
    if (visit[root].first != kNone) continue;
    enter(root);
    while (!frames.empty()) {
      Frame& f = frames.back();
      const TxnId u = f.node;
      if (const TxnId v = next(u, f.cursor); v != kInvalidTxn) {
        if (visit[v].first == kNone) {
          enter(v);
        } else if (comp[v] == kNone) {  // on the SCC stack
          visit[u].second = std::min(visit[u].second, visit[v].first);
        }
        continue;
      }
      if (visit[u].second == visit[u].first) {
        // Root of an SCC: pop its members.
        TxnId member = kInvalidTxn;
        while (member != u) {
          member = scc_stack.back();
          scc_stack.pop_back();
          comp[member] = components;
          order.push_back(member);
        }
        ++components;
      }
      frames.pop_back();
      if (!frames.empty()) {
        std::uint32_t& low = visit[frames.back().node].second;
        low = std::min(low, visit[u].second);
      }
    }
  }
}

/// Reachability in \p adj by paths of one or more edges: Tarjan's
/// condensation, then rows propagated through the SCCs sinks-first.
/// reach(C) = ⋃ over edges (u, v) leaving C of ({v} ∪ reach(v)), plus C
/// itself when an edge stays inside C. The row is built on one member and
/// copied to the others. On a DAG every SCC is one node and this is one
/// row union per edge.
Relation reach_closure(const Adjacency& adj) {
  const std::size_t n = adj.size();
  std::vector<TxnId> order;
  std::vector<std::uint32_t> comp;
  tarjan_sccs<std::size_t>(
      n,
      [&adj](TxnId u, std::size_t& i) {
        const std::span<const TxnId> succ = adj[u];
        return i < succ.size() ? succ[i++] : kInvalidTxn;
      },
      order, comp);
  Relation reach(n);
  for (std::size_t begin = 0; begin < n;) {
    const TxnId rep = order[begin];
    std::size_t end = begin + 1;
    while (end < n && comp[order[end]] == comp[rep]) ++end;
    bool cyclic = false;
    for (std::size_t i = begin; i < end; ++i) {
      for (const TxnId v : adj[order[i]]) {
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

/// The Theorem 21 kernel behind first_psi_violation and
/// psi_relation_irreflexive. With \p witness false it stops at the first
/// violating SCC and leaves the path empty; the verdict is the same.
std::optional<PsiViolation> psi_scan(const Relation& so, const Relation& wr,
                                     const Relation& ww, const Relation& rw,
                                     bool witness) {
  const std::size_t n = so.size();
  const std::size_t words = (n + 63) / 64;
  std::vector<TxnId> order;
  std::vector<std::uint32_t> comp;
  tarjan_sccs<RowCursor>(
      n,
      [&](TxnId u, RowCursor& c) {
        const std::uint64_t* so_row = so.row_words(u).data();
        const std::uint64_t* wr_row = wr.row_words(u).data();
        const std::uint64_t* ww_row = ww.row_words(u).data();
        const std::uint64_t* rw_row = rw.row_words(u).data();
        while (c.pending == 0) {
          if (c.word == words) return kInvalidTxn;
          c.pending = so_row[c.word] | wr_row[c.word] | ww_row[c.word] |
                      rw_row[c.word];
          ++c.word;
        }
        const auto v = static_cast<TxnId>(
            (c.word - 1) * 64 +
            static_cast<std::size_t>(std::countr_zero(c.pending)));
        c.pending &= c.pending - 1;
        return v;
      },
      order, comp);

  std::optional<PsiViolation> best;
  std::vector<TxnId> members;
  std::vector<TxnId> local;  // each member's number in C, once one is needed
  Adjacency d_on_c;
  std::vector<std::pair<TxnId, TxnId>> rw_on_c;
  for (std::size_t begin = 0, end = 0; begin < n; begin = end) {
    const std::uint32_t c = comp[order[begin]];
    end = begin + 1;
    while (end < n && comp[order[end]] == c) ++end;
    const TxnId first = order[begin];
    if (end - begin == 1 && !so.contains(first, first) &&
        !wr.contains(first, first) && !ww.contains(first, first)) {
      continue;  // one node and no D self-loop: on no cycle
    }
    members.assign(order.begin() + static_cast<std::ptrdiff_t>(begin),
                   order.begin() + static_cast<std::ptrdiff_t>(end));
    std::sort(members.begin(), members.end());
    if (best && members.front() >= best->t) continue;

    // C's members numbered in ascending id order; D restricted to C as
    // successor lists, RW restricted to C as pairs (w, t) in ascending
    // order.
    const std::size_t k = members.size();
    local.resize(n);
    for (std::size_t i = 0; i < k; ++i) {
      local[members[i]] = static_cast<TxnId>(i);
    }
    d_on_c.from.reserve(k + 1);
    d_on_c.from.assign(1, 0);
    d_on_c.to.clear();
    rw_on_c.clear();
    for (TxnId i = 0; i < k; ++i) {
      const TxnId u = members[i];
      const std::uint64_t* so_row = so.row_words(u).data();
      const std::uint64_t* wr_row = wr.row_words(u).data();
      const std::uint64_t* ww_row = ww.row_words(u).data();
      const std::uint64_t* rw_row = rw.row_words(u).data();
      for (std::size_t j = 0; j < words; ++j) {
        const std::uint64_t d = so_row[j] | wr_row[j] | ww_row[j];
        for (std::uint64_t word = d | rw_row[j]; word != 0; word &= word - 1) {
          const int bit = std::countr_zero(word);
          const auto v =
              static_cast<TxnId>(j * 64 + static_cast<std::size_t>(bit));
          if (comp[v] != c) continue;
          if (((d >> bit) & 1) != 0) d_on_c.to.push_back(local[v]);
          if (((rw_row[j] >> bit) & 1) != 0) rw_on_c.emplace_back(i, local[v]);
        }
      }
      d_on_c.from.push_back(static_cast<std::uint32_t>(d_on_c.to.size()));
    }

    // The smallest t of C with D+(t, t), or with RW(w, t) and D+(t, w).
    const Relation dplus = reach_closure(d_on_c);
    auto t = static_cast<TxnId>(k);
    for (TxnId i = 0; i < k; ++i) {
      if (dplus.contains(i, i)) {
        t = i;
        break;
      }
    }
    for (const auto& [w, v] : rw_on_c) {
      if (v < t && dplus.contains(v, w)) t = v;
    }
    if (t == k || (best && members[t] >= best->t)) continue;
    best = PsiViolation{members[t], {}};
    if (!witness) return best;
    TxnId to = t;
    if (!dplus.contains(t, t)) {
      to = static_cast<TxnId>(k);
      for (const auto& [w, v] : rw_on_c) {
        if (v == t && w < to && dplus.contains(t, w)) to = w;
      }
    }
    // Relation::find_path's BFS on C alone finds the whole graph's path.
    Relation d(k);
    for (TxnId i = 0; i < k; ++i) {
      for (const TxnId j : d_on_c[i]) d.add(i, j);
    }
    const std::optional<std::vector<TxnId>> path = d.find_path(t, to);
    for (const TxnId x : *path) best->path.push_back(members[x]);
  }
  return best;
}

}  // namespace

bool composed_si_relation_acyclic(const Relation& so, const Relation& wr,
                                  const Relation& ww, const Relation& rw) {
  const std::size_t n = so.size();
  const Adjacency d_adj = merged_adjacency(so, wr, ww);
  const Adjacency rw_adj = merged_adjacency(rw);

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

std::optional<PsiViolation> first_psi_violation(const Relation& so,
                                                const Relation& wr,
                                                const Relation& ww,
                                                const Relation& rw) {
  return psi_scan(so, wr, ww, rw, /*witness=*/true);
}

bool psi_relation_irreflexive(const Relation& so, const Relation& wr,
                              const Relation& ww, const Relation& rw) {
  return !psi_scan(so, wr, ww, rw, /*witness=*/false);
}

}  // namespace sia
