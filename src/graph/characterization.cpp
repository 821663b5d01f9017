#include "graph/characterization.hpp"

#include <algorithm>
#include <bit>
#include <span>

#include "graph/cycles.hpp"

namespace sia {

namespace {

constexpr std::size_t kWordBits = 64;

bool is_dep_kind(DepKind k) {
  return k == DepKind::kSO || k == DepKind::kWR || k == DepKind::kWW;
}
bool is_rw_kind(DepKind k) { return k == DepKind::kRW; }
bool is_any_kind(DepKind) { return true; }

/// Picks a concrete typed edge from \p a to \p b whose kind satisfies
/// \p pred, the first such in the graph's edge listing order. The caller
/// guarantees one exists (it came from a relation).
DepEdge pick_edge(const DependencyGraph& g, TxnId a, TxnId b,
                  bool (*pred)(DepKind)) {
  if (const std::optional<DepEdge> e = g.first_edge(a, b, pred)) return *e;
  throw ModelError("pick_edge: no concrete edge T" + std::to_string(a) +
                   " -> T" + std::to_string(b) +
                   " matches the relation edge (internal error)");
}

/// Smallest set bit of \p row at or after \p from; row.size() * 64 if none.
std::size_t next_bit(std::span<const std::uint64_t> row, std::size_t from) {
  std::size_t w = from / kWordBits;
  if (w >= row.size()) return row.size() * kWordBits;
  std::uint64_t word = row[w] & (~std::uint64_t{0} << (from % kWordBits));
  while (word == 0) {
    if (++w == row.size()) return row.size() * kWordBits;
    word = row[w];
  }
  return w * kWordBits + static_cast<std::size_t>(std::countr_zero(word));
}

/// Smallest element of \p row satisfying \p pred.
template <typename Pred>
std::optional<TxnId> first_where(std::span<const std::uint64_t> row,
                                 Pred pred) {
  const std::size_t end = row.size() * kWordBits;
  for (std::size_t b = next_bit(row, 0); b < end; b = next_bit(row, b + 1)) {
    if (pred(static_cast<TxnId>(b))) return static_cast<TxnId>(b);
  }
  return std::nullopt;
}

// D = SO ∪ WR ∪ WW is read row by row from the DepRelations and never
// materialised.

bool d_contains(const DepRelations& rel, TxnId a, TxnId b) {
  return rel.so.contains(a, b) || rel.wr.contains(a, b) ||
         rel.ww.contains(a, b);
}

void d_row(const DepRelations& rel, TxnId u, std::span<std::uint64_t> out) {
  const auto so = rel.so.row_words(u);
  const auto wr = rel.wr.row_words(u);
  const auto ww = rel.ww.row_words(u);
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = so[i] | wr[i] | ww[i];
}

/// Relation::find_cycle over a relation given row by row: \p fill(u, row)
/// writes u's successor row. The traversal is the same — roots in
/// ascending order, successors in ascending order, stop at the first back
/// edge — so the cycle is the same. A row is built when its node is first
/// visited and lives only while the node is on the DFS stack.
template <typename Fill>
std::optional<std::vector<TxnId>> find_cycle_by_rows(std::size_t n,
                                                     Fill fill) {
  const std::size_t words = (n + kWordBits - 1) / kWordBits;
  enum : std::uint8_t { kWhite, kGray, kBlack };
  std::vector<std::uint8_t> color(n, kWhite);
  std::vector<TxnId> stack;
  std::vector<std::size_t> cursor;  // next successor bit, per stack frame
  std::vector<std::uint64_t> rows;  // one row per stack frame
  const auto row_at = [&](std::size_t depth) {
    return std::span<std::uint64_t>(rows.data() + depth * words, words);
  };
  const auto push = [&](TxnId u) {
    color[u] = kGray;
    stack.push_back(u);
    cursor.push_back(0);
    if (rows.size() < stack.size() * words) rows.resize(stack.size() * words);
    fill(u, row_at(stack.size() - 1));
  };
  for (TxnId start = 0; start < n; ++start) {
    if (color[start] != kWhite) continue;
    push(start);
    while (!stack.empty()) {
      const std::size_t depth = stack.size() - 1;
      const std::size_t next = next_bit(row_at(depth), cursor[depth]);
      if (next >= n) {
        color[stack.back()] = kBlack;
        stack.pop_back();
        cursor.pop_back();
        continue;
      }
      cursor[depth] = next + 1;
      const TxnId v = static_cast<TxnId>(next);
      if (color[v] == kGray) {
        // Back edge: the cycle is v ... top of the stack.
        const auto from = std::find(stack.begin(), stack.end(), v);
        return std::vector<TxnId>(from, stack.end());
      }
      if (color[v] == kWhite) push(v);
    }
  }
  return std::nullopt;
}

/// The Theorem 9 witness: the first cycle of C = D ∪ D;RW in
/// Relation::find_cycle order, as typed edges. C's row of u is built on
/// visit from D(u) and the RW rows of u's D-successors.
std::vector<DepEdge> si_witness(const DependencyGraph& g,
                                const DepRelations& rel) {
  const auto cycle = find_cycle_by_rows(
      rel.so.size(), [&rel](TxnId u, std::span<std::uint64_t> row) {
        d_row(rel, u, row);
        const auto so = rel.so.row_words(u);
        const auto wr = rel.wr.row_words(u);
        const auto ww = rel.ww.row_words(u);
        for (std::size_t i = 0; i < row.size(); ++i) {
          for (std::uint64_t d = so[i] | wr[i] | ww[i]; d != 0; d &= d - 1) {
            const auto w = static_cast<TxnId>(
                i * kWordBits + static_cast<std::size_t>(std::countr_zero(d)));
            const auto rw = rel.rw.row_words(w);
            for (std::size_t j = 0; j < row.size(); ++j) row[j] |= rw[j];
          }
        }
      });
  if (!cycle) {
    throw ModelError("check_graph_si: no cycle to witness (internal error)");
  }
  std::vector<DepEdge> out;
  std::vector<std::uint64_t> row((rel.so.size() + kWordBits - 1) / kWordBits);
  for (std::size_t i = 0; i < cycle->size(); ++i) {
    const TxnId u = (*cycle)[i];
    const TxnId v = (*cycle)[(i + 1) % cycle->size()];
    if (d_contains(rel, u, v)) {
      out.push_back(pick_edge(g, u, v, is_dep_kind));
      continue;
    }
    // A D;RW step through the smallest D-successor w of u with RW(w, v).
    d_row(rel, u, row);
    const auto w =
        first_where(row, [&](TxnId c) { return rel.rw.contains(c, v); });
    if (!w) {
      throw ModelError(
          "composed edge has no D / RW decomposition (internal error)");
    }
    out.push_back(pick_edge(g, u, *w, is_dep_kind));
    out.push_back(pick_edge(g, *w, v, is_rw_kind));
  }
  return out;
}

/// The Theorem 21 witness: the violation's D path as typed edges, closed
/// by RW(w, t) when it ends at some w other than t.
std::vector<DepEdge> psi_witness(const DependencyGraph& g,
                                 const PsiViolation& v) {
  std::vector<DepEdge> out;
  for (std::size_t i = 0; i + 1 < v.path.size(); ++i) {
    out.push_back(pick_edge(g, v.path[i], v.path[i + 1], is_dep_kind));
  }
  if (v.path.back() != v.t) {
    out.push_back(pick_edge(g, v.path.back(), v.t, is_rw_kind));
  }
  return out;
}

/// The Theorem 8 search: the first cycle of SO ∪ WR ∪ WW ∪ RW in
/// Relation::find_cycle order, one row per visited node.
std::optional<std::vector<TxnId>> ser_cycle(const DepRelations& rel) {
  return find_cycle_by_rows(
      rel.so.size(), [&rel](TxnId u, std::span<std::uint64_t> row) {
        d_row(rel, u, row);
        const auto rw = rel.rw.row_words(u);
        for (std::size_t i = 0; i < row.size(); ++i) row[i] |= rw[i];
      });
}

}  // namespace

std::string to_string(Model m) {
  switch (m) {
    case Model::kSER:
      return "SER";
    case Model::kSI:
      return "SI";
    case Model::kPSI:
      return "PSI";
  }
  return "?";
}

bool graph_member(const DepRelations& rel, Model m) {
  switch (m) {
    case Model::kSER:
      return !ser_cycle(rel);
    case Model::kSI:
      return composed_si_relation_acyclic(rel.so, rel.wr, rel.ww, rel.rw);
    case Model::kPSI:
      return psi_relation_irreflexive(rel.so, rel.wr, rel.ww, rel.rw);
  }
  throw ModelError("graph_member: unknown model");
}

GraphCheck check_graph_ser(const DependencyGraph& g) {
  return check_graph_ser(g, g.relations());
}

GraphCheck check_graph_ser(const DependencyGraph& g, const DepRelations& rel) {
  GraphCheck result;
  if (auto v = axioms::check_int(g.history())) {
    result.int_violation = std::move(v);
    return result;
  }
  if (const auto cycle = ser_cycle(rel)) {
    for (std::size_t i = 0; i < cycle->size(); ++i) {
      const TxnId u = (*cycle)[i];
      const TxnId v = (*cycle)[(i + 1) % cycle->size()];
      result.witness.push_back(pick_edge(g, u, v, is_any_kind));
    }
    return result;
  }
  result.member = true;
  return result;
}

GraphCheck check_graph_si(const DependencyGraph& g) {
  return check_graph_si(g, g.relations());
}

GraphCheck check_graph_si(const DependencyGraph& g, const DepRelations& rel) {
  GraphCheck result;
  if (auto v = axioms::check_int(g.history())) {
    result.int_violation = std::move(v);
    return result;
  }
  if (graph_member(rel, Model::kSI)) {
    result.member = true;
  } else {
    result.witness = si_witness(g, rel);
  }
  return result;
}

GraphCheck check_graph_psi(const DependencyGraph& g) {
  return check_graph_psi(g, g.relations());
}

GraphCheck check_graph_psi(const DependencyGraph& g, const DepRelations& rel) {
  GraphCheck result;
  if (auto v = axioms::check_int(g.history())) {
    result.int_violation = std::move(v);
    return result;
  }
  if (const std::optional<PsiViolation> v =
          first_psi_violation(rel.so, rel.wr, rel.ww, rel.rw)) {
    result.witness = psi_witness(g, *v);
  } else {
    result.member = true;
  }
  return result;
}

}  // namespace sia
