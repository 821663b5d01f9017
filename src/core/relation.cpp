#include "core/relation.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <deque>

#include "core/parallel.hpp"

namespace sia {

namespace {

constexpr std::size_t kWordBits = 64;

/// Rows handed to one pool task by the row-partitioned kernels.
constexpr std::size_t kRowGrain = 16;

/// Words handed to one pool task by the bulk set operations; below
/// kBulkParallelWords total the scalar loop wins.
constexpr std::size_t kWordGrain = std::size_t{1} << 15;
constexpr std::size_t kBulkParallelWords = std::size_t{1} << 17;

template <typename WordOp>
void bulk_words(std::vector<std::uint64_t>& dst,
                const std::vector<std::uint64_t>& src, WordOp op) {
  if (dst.size() < kBulkParallelWords) {
    for (std::size_t i = 0; i < dst.size(); ++i) dst[i] = op(dst[i], src[i]);
    return;
  }
  parallel_for(0, dst.size(), kWordGrain,
               [&](std::size_t lo, std::size_t hi) {
                 for (std::size_t i = lo; i < hi; ++i) {
                   dst[i] = op(dst[i], src[i]);
                 }
               });
}

}  // namespace

Relation::Relation(std::size_t n)
    : n_(n), words_((n + kWordBits - 1) / kWordBits), bits_(n_ * words_, 0) {}

Relation Relation::identity(std::size_t n) {
  Relation r(n);
  for (TxnId a = 0; a < n; ++a) r.add(a, a);
  return r;
}

Relation Relation::from_edges(
    std::size_t n, const std::vector<std::pair<TxnId, TxnId>>& edges) {
  Relation r(n);
  for (const auto& [a, b] : edges) r.add(a, b);
  return r;
}

bool Relation::contains(TxnId a, TxnId b) const {
  assert(a < n_ && b < n_);
  return (row(a)[b / kWordBits] >> (b % kWordBits)) & 1u;
}

void Relation::add(TxnId a, TxnId b) {
  assert(a < n_ && b < n_);
  row(a)[b / kWordBits] |= std::uint64_t{1} << (b % kWordBits);
}

void Relation::remove(TxnId a, TxnId b) {
  assert(a < n_ && b < n_);
  row(a)[b / kWordBits] &= ~(std::uint64_t{1} << (b % kWordBits));
}

void Relation::clear() { std::fill(bits_.begin(), bits_.end(), 0); }

void Relation::absorb_row(TxnId dst, TxnId src) {
  assert(dst < n_ && src < n_);
  if (dst == src) return;
  const std::uint64_t* rs = row(src);
  std::uint64_t* rd = row(dst);
  for (std::size_t w = 0; w < words_; ++w) rd[w] |= rs[w];
}

std::size_t Relation::edge_count() const {
  std::size_t count = 0;
  for (std::uint64_t w : bits_) count += static_cast<std::size_t>(std::popcount(w));
  return count;
}

std::vector<std::pair<TxnId, TxnId>> Relation::edges() const {
  std::vector<std::pair<TxnId, TxnId>> out;
  for (TxnId a = 0; a < n_; ++a) {
    for_successors(a, [&](TxnId b) { out.emplace_back(a, b); });
  }
  return out;
}

void Relation::for_successors(TxnId a,
                              const std::function<void(TxnId)>& fn) const {
  const std::uint64_t* r = row(a);
  for (std::size_t w = 0; w < words_; ++w) {
    std::uint64_t word = r[w];
    while (word != 0) {
      const int bit = std::countr_zero(word);
      fn(static_cast<TxnId>(w * kWordBits + static_cast<std::size_t>(bit)));
      word &= word - 1;
    }
  }
}

std::vector<TxnId> Relation::successors(TxnId a) const {
  std::vector<TxnId> out;
  for_successors(a, [&](TxnId b) { out.push_back(b); });
  return out;
}

std::vector<TxnId> Relation::predecessors(TxnId a) const {
  std::vector<TxnId> out;
  for (TxnId b = 0; b < n_; ++b) {
    if (contains(b, a)) out.push_back(b);
  }
  return out;
}

Relation& Relation::operator|=(const Relation& other) {
  assert(n_ == other.n_);
  bulk_words(bits_, other.bits_,
             [](std::uint64_t a, std::uint64_t b) { return a | b; });
  return *this;
}

Relation& Relation::operator&=(const Relation& other) {
  assert(n_ == other.n_);
  bulk_words(bits_, other.bits_,
             [](std::uint64_t a, std::uint64_t b) { return a & b; });
  return *this;
}

Relation& Relation::operator-=(const Relation& other) {
  assert(n_ == other.n_);
  bulk_words(bits_, other.bits_,
             [](std::uint64_t a, std::uint64_t b) { return a & ~b; });
  return *this;
}

bool operator==(const Relation& lhs, const Relation& rhs) {
  return lhs.n_ == rhs.n_ && lhs.bits_ == rhs.bits_;
}

Relation Relation::compose(const Relation& other) const {
  return n_ >= kParallelThreshold ? compose_parallel(other)
                                  : compose_serial(other);
}

Relation Relation::compose_serial(const Relation& other) const {
  assert(n_ == other.n_);
  Relation out(n_);
  for (TxnId a = 0; a < n_; ++a) {
    std::uint64_t* dst = out.row(a);
    for_successors(a, [&](TxnId c) {
      const std::uint64_t* src = other.row(c);
      for (std::size_t w = 0; w < words_; ++w) dst[w] |= src[w];
    });
  }
  return out;
}

Relation Relation::compose_parallel(const Relation& other) const {
  assert(n_ == other.n_);
  Relation out(n_);
  // Destination rows are written by exactly one task; `other` is read-only.
  parallel_for(0, n_, kRowGrain, [&](std::size_t lo, std::size_t hi) {
    for (TxnId a = lo; a < hi; ++a) {
      const std::uint64_t* ra = row(a);
      std::uint64_t* dst = out.row(a);
      for (std::size_t w = 0; w < words_; ++w) {
        std::uint64_t word = ra[w];
        while (word != 0) {
          const std::size_t c =
              w * kWordBits + static_cast<std::size_t>(std::countr_zero(word));
          const std::uint64_t* src = other.row(static_cast<TxnId>(c));
          for (std::size_t v = 0; v < words_; ++v) dst[v] |= src[v];
          word &= word - 1;
        }
      }
    }
  });
  return out;
}

Relation Relation::transitive_closure() const {
  return n_ >= kParallelThreshold ? transitive_closure_blocked()
                                  : transitive_closure_serial();
}

Relation Relation::transitive_closure_serial() const {
  Relation out = *this;
  // Bitset Warshall: after iteration k, out contains all paths whose
  // intermediate vertices are < k+1.
  for (TxnId k = 0; k < n_; ++k) {
    const std::uint64_t* rk = out.row(k);
    // Copy row k since row(i) may alias it when i == k.
    std::vector<std::uint64_t> krow(rk, rk + words_);
    for (TxnId i = 0; i < n_; ++i) {
      if (!out.contains(i, k)) continue;
      std::uint64_t* ri = out.row(i);
      for (std::size_t w = 0; w < words_; ++w) ri[w] |= krow[w];
    }
  }
  return out;
}

Relation Relation::transitive_closure_blocked() const {
  Relation out = *this;
  // Blocked Warshall over word-aligned blocks of 64 intermediates. After
  // the step for block [k0, k1), `out` holds every path whose intermediate
  // vertices are < k1 — the phase-1 sub-Warshall gives the block's own rows
  // their closure over in-block intermediates, after which each remaining
  // row only needs to absorb the block rows it can enter (phase 2, where
  // distinct rows are independent and the loop is pool-partitioned).
  for (std::size_t k0 = 0; k0 < n_; k0 += kWordBits) {
    const std::size_t k1 = std::min(k0 + kWordBits, n_);
    for (TxnId k = k0; k < k1; ++k) {
      const std::uint64_t* rk = out.row(k);
      for (TxnId i = k0; i < k1; ++i) {
        if (i == k || !out.contains(i, k)) continue;
        std::uint64_t* ri = out.row(i);
        for (std::size_t w = 0; w < words_; ++w) ri[w] |= rk[w];
      }
    }
    parallel_for(0, n_, kRowGrain, [&](std::size_t lo, std::size_t hi) {
      for (TxnId i = lo; i < hi; ++i) {
        if (k0 <= i && i < k1) continue;  // closed in phase 1
        std::uint64_t* ri = out.row(i);
        for (TxnId k = k0; k < k1; ++k) {
          if (!out.contains(i, k)) continue;
          const std::uint64_t* rk = out.row(k);
          for (std::size_t w = 0; w < words_; ++w) ri[w] |= rk[w];
        }
      }
    });
  }
  return out;
}

Relation Relation::reflexive_closure() const {
  Relation out = *this;
  for (TxnId a = 0; a < n_; ++a) out.add(a, a);
  return out;
}

Relation Relation::reflexive_transitive_closure() const {
  return transitive_closure().reflexive_closure();
}

Relation Relation::inverse() const {
  Relation out(n_);
  for (TxnId a = 0; a < n_; ++a) {
    for_successors(a, [&](TxnId b) { out.add(b, a); });
  }
  return out;
}

bool Relation::is_irreflexive() const {
  for (TxnId a = 0; a < n_; ++a) {
    if (contains(a, a)) return false;
  }
  return true;
}

bool Relation::is_acyclic() const { return !find_cycle().has_value(); }

bool Relation::is_transitive() const {
  const Relation comp = compose(*this);
  return comp.subset_of(*this);
}

bool Relation::is_total() const {
  for (TxnId a = 0; a < n_; ++a) {
    for (TxnId b = a + 1; b < n_; ++b) {
      if (!contains(a, b) && !contains(b, a)) return false;
    }
  }
  return true;
}

bool Relation::is_strict_total_order() const {
  return is_irreflexive() && is_transitive() && is_total();
}

bool Relation::subset_of(const Relation& other) const {
  assert(n_ == other.n_);
  for (std::size_t i = 0; i < bits_.size(); ++i) {
    if ((bits_[i] & ~other.bits_[i]) != 0) return false;
  }
  return true;
}

std::optional<std::pair<TxnId, TxnId>> Relation::unrelated_pair() const {
  for (TxnId a = 0; a < n_; ++a) {
    for (TxnId b = a + 1; b < n_; ++b) {
      if (!contains(a, b) && !contains(b, a)) return std::make_pair(a, b);
    }
  }
  return std::nullopt;
}

std::optional<std::vector<TxnId>> Relation::topological_order() const {
  std::vector<std::size_t> indegree(n_, 0);
  for (TxnId a = 0; a < n_; ++a) {
    for_successors(a, [&](TxnId b) { ++indegree[b]; });
  }
  std::deque<TxnId> ready;
  for (TxnId a = 0; a < n_; ++a) {
    if (indegree[a] == 0) ready.push_back(a);
  }
  std::vector<TxnId> order;
  order.reserve(n_);
  while (!ready.empty()) {
    const TxnId a = ready.front();
    ready.pop_front();
    order.push_back(a);
    for_successors(a, [&](TxnId b) {
      if (--indegree[b] == 0) ready.push_back(b);
    });
  }
  if (order.size() != n_) return std::nullopt;
  return order;
}

std::optional<std::vector<TxnId>> Relation::find_cycle() const {
  enum class Color : std::uint8_t { kWhite, kGray, kBlack };
  std::vector<Color> color(n_, Color::kWhite);
  std::vector<TxnId> parent(n_, kInvalidTxn);

  // Iterative DFS; on back edge (u, v) reconstruct the cycle v ... u.
  struct Frame {
    TxnId node;
    std::vector<TxnId> succ;
    std::size_t next{0};
  };
  for (TxnId start = 0; start < n_; ++start) {
    if (color[start] != Color::kWhite) continue;
    std::vector<Frame> stack;
    stack.push_back({start, successors(start), 0});
    color[start] = Color::kGray;
    while (!stack.empty()) {
      Frame& f = stack.back();
      if (f.next >= f.succ.size()) {
        color[f.node] = Color::kBlack;
        stack.pop_back();
        continue;
      }
      const TxnId next = f.succ[f.next++];
      if (color[next] == Color::kGray) {
        // Back edge: cycle next -> ... -> f.node -> next.
        std::vector<TxnId> cycle;
        cycle.push_back(next);
        if (next != f.node) {
          for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
            cycle.push_back(it->node);
            if (it->node == next) break;
          }
          // cycle currently: next, u_k, ..., next — drop duplicate tail,
          // then reverse the path portion into forward order.
          cycle.pop_back();
          std::reverse(cycle.begin() + 1, cycle.end());
        }
        return cycle;
      }
      if (color[next] == Color::kWhite) {
        color[next] = Color::kGray;
        parent[next] = f.node;
        stack.push_back({next, successors(next), 0});
      }
    }
  }
  return std::nullopt;
}

std::optional<std::vector<TxnId>> Relation::find_path(TxnId from,
                                                      TxnId to) const {
  assert(from < n_ && to < n_);
  std::vector<TxnId> parent(n_, kInvalidTxn);
  std::vector<bool> visited(n_, false);
  std::deque<TxnId> queue;
  // BFS over one-or-more-edge paths, so do not mark `from` visited up
  // front: `to == from` requires an actual cycle through `from`.
  queue.push_back(from);
  bool found = false;
  while (!queue.empty() && !found) {
    const TxnId u = queue.front();
    queue.pop_front();
    for_successors(u, [&](TxnId v) {
      if (found) return;
      if (v == to) {
        parent[v] = u;
        found = true;
        return;
      }
      if (!visited[v]) {
        visited[v] = true;
        parent[v] = u;
        queue.push_back(v);
      }
    });
  }
  if (!found) return std::nullopt;
  std::vector<TxnId> path;
  path.push_back(to);
  TxnId cur = parent[to];
  while (cur != kInvalidTxn && cur != from) {
    path.push_back(cur);
    cur = parent[cur];
  }
  path.push_back(from);
  std::reverse(path.begin(), path.end());
  return path;
}

bool Relation::reaches(TxnId from, TxnId to) const {
  return find_path(from, to).has_value();
}

std::optional<TxnId> Relation::first_common_successor(
    TxnId a, const Relation& other, TxnId b) const {
  assert(a < n_ && b < other.n_ && words_ == other.words_);
  const std::uint64_t* ra = row(a);
  const std::uint64_t* rb = other.row(b);
  for (std::size_t w = 0; w < words_; ++w) {
    const std::uint64_t word = ra[w] & rb[w];
    if (word != 0) {
      return static_cast<TxnId>(
          w * kWordBits + static_cast<std::size_t>(std::countr_zero(word)));
    }
  }
  return std::nullopt;
}

bool Relation::closed_reaches_with(
    TxnId from, TxnId to,
    const std::vector<std::vector<TxnId>>& extra) const {
  assert(from < n_ && to < n_);
  // `reached` = nodes with a (≥1)-edge path from `from`; a worklist node is
  // expanded at most once (`absorbed`). Closure rows of nodes reached
  // through a closure row are subsets of rows already absorbed, so only
  // nodes with overlay edges (or reached through an overlay edge) are
  // queued for expansion.
  std::vector<std::uint64_t> reached(words_, 0);
  std::vector<std::uint64_t> absorbed(words_, 0);
  const auto test = [](const std::vector<std::uint64_t>& set, TxnId t) {
    return ((set[t / kWordBits] >> (t % kWordBits)) & 1u) != 0;
  };
  const auto mark = [](std::vector<std::uint64_t>& set, TxnId t) {
    set[t / kWordBits] |= std::uint64_t{1} << (t % kWordBits);
  };
  const auto has_overlay = [&extra](TxnId t) {
    return t < extra.size() && !extra[t].empty();
  };
  std::vector<TxnId> work{from};
  while (!work.empty()) {
    const TxnId u = work.back();
    work.pop_back();
    if (test(absorbed, u)) continue;
    mark(absorbed, u);
    const std::uint64_t* ru = row(u);
    for (std::size_t w = 0; w < words_; ++w) {
      std::uint64_t fresh = ru[w] & ~reached[w];
      reached[w] |= ru[w];
      while (fresh != 0) {
        const TxnId v = static_cast<TxnId>(
            w * kWordBits + static_cast<std::size_t>(std::countr_zero(fresh)));
        if (has_overlay(v)) work.push_back(v);
        fresh &= fresh - 1;
      }
    }
    if (u < extra.size()) {
      for (const TxnId v : extra[u]) {
        if (!test(reached, v)) {
          mark(reached, v);
          work.push_back(v);  // row(v) is not implied by any absorbed row
        }
      }
    }
    if (test(reached, to)) return true;
  }
  return test(reached, to);
}

void Relation::add_edge_transitively(TxnId a, TxnId b) {
  assert(a < n_ && b < n_);
  // row(b) ∪ {b}, snapshotted before mutation in case a reaches b.
  std::vector<std::uint64_t> brow(row(b), row(b) + words_);
  brow[b / kWordBits] |= std::uint64_t{1} << (b % kWordBits);
  for (TxnId p = 0; p < n_; ++p) {
    if (p != a && !contains(p, a)) continue;
    std::uint64_t* rp = row(p);
    for (std::size_t w = 0; w < words_; ++w) rp[w] |= brow[w];
  }
}

std::string Relation::to_string() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [a, b] : edges()) {
    if (!first) out += ", ";
    first = false;
    out += "(" + std::to_string(a) + "," + std::to_string(b) + ")";
  }
  out += "}";
  return out;
}

}  // namespace sia
