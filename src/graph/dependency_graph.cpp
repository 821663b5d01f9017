#include "graph/dependency_graph.hpp"

#include <algorithm>
#include <set>

namespace sia {

const std::vector<TxnId> DependencyGraph::kEmptyOrder{};

std::string to_string(DepKind k) {
  switch (k) {
    case DepKind::kSO:
      return "SO";
    case DepKind::kSOInv:
      return "SO^-1";
    case DepKind::kWR:
      return "WR";
    case DepKind::kWW:
      return "WW";
    case DepKind::kRW:
      return "RW";
  }
  return "?";
}

std::string to_string(const DepEdge& e) {
  std::string out = "T" + std::to_string(e.from) + " -" + to_string(e.kind);
  if (e.obj != kInvalidObj) out += "(obj" + std::to_string(e.obj) + ")";
  out += "-> T" + std::to_string(e.to);
  return out;
}

std::string to_string(const std::vector<DepEdge>& path) {
  std::string out;
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (i > 0) out += ", ";
    out += to_string(path[i]);
  }
  return out;
}

void DependencyGraph::set_read_from(ObjId x, TxnId t, TxnId s) {
  wr_source_[x][s] = t;
}

void DependencyGraph::set_write_order(ObjId x, std::vector<TxnId> writers) {
  ww_order_[x] = std::move(writers);
}

std::optional<TxnId> DependencyGraph::read_source(ObjId x, TxnId s) const {
  auto it = wr_source_.find(x);
  if (it == wr_source_.end()) return std::nullopt;
  auto jt = it->second.find(s);
  if (jt == it->second.end()) return std::nullopt;
  return jt->second;
}

const std::vector<TxnId>& DependencyGraph::write_order(ObjId x) const {
  auto it = ww_order_.find(x);
  return it == ww_order_.end() ? kEmptyOrder : it->second;
}

std::vector<ObjId> DependencyGraph::annotated_objects() const {
  std::set<ObjId> objs;
  for (const auto& [x, _] : ww_order_) objs.insert(x);
  for (const auto& [x, _] : wr_source_) objs.insert(x);
  return {objs.begin(), objs.end()};
}

std::optional<Violation> DependencyGraph::validate() const {
  const History& h = history_;

  // WW(x) must be a total order on WriteTx_x: exactly the writers, no
  // repetitions (the vector order is the total order).
  for (ObjId x : h.objects()) {
    const std::vector<TxnId> writers = h.writers_of(x);
    const std::vector<TxnId>& order = write_order(x);
    if (writers.empty()) {
      if (!order.empty())
        return Violation{"Def6",
                         "WW declared for obj" + std::to_string(x) +
                             " which no transaction writes"};
      continue;
    }
    std::vector<TxnId> sorted = order;
    std::sort(sorted.begin(), sorted.end());
    if (sorted != writers) {
      return Violation{"Def6", "WW(obj" + std::to_string(x) +
                                   ") is not a permutation of WriteTx"};
    }
  }

  // WR(x): source wrote the value read, differs from the reader; every
  // external read has a (unique, by map construction) source.
  for (TxnId s = 0; s < h.txn_count(); ++s) {
    for (ObjId x : h.txn(s).external_read_set()) {
      const auto src = read_source(x, s);
      if (!src) {
        return Violation{"Def6", "T" + std::to_string(s) +
                                     " externally reads obj" +
                                     std::to_string(x) + " but has no WR source"};
      }
      if (*src == s) {
        return Violation{"Def6", "T" + std::to_string(s) +
                                     " reads obj" + std::to_string(x) +
                                     " from itself"};
      }
      const auto written = h.txn(*src).final_write(x);
      const Value expected = *h.txn(s).external_read(x);
      if (!written || *written != expected) {
        return Violation{
            "Def6", "WR source T" + std::to_string(*src) + " of T" +
                        std::to_string(s) + " on obj" + std::to_string(x) +
                        (written ? " wrote " + std::to_string(*written) +
                                       " but the reader read " +
                                       std::to_string(expected)
                                 : " does not write the object")};
      }
    }
  }

  // No WR edge may target a transaction that does not externally read.
  for (const auto& [x, sources] : wr_source_) {
    for (const auto& [reader, writer] : sources) {
      (void)writer;
      if (!history_.txn(reader).external_read(x).has_value()) {
        return Violation{"Def6", "WR(obj" + std::to_string(x) +
                                     ") targets T" + std::to_string(reader) +
                                     " which has no external read of it"};
      }
    }
  }

  return std::nullopt;
}

DepRelations DependencyGraph::relations() const {
  const std::size_t n = txn_count();
  DepRelations rel{Relation(n), Relation(n), Relation(n), Relation(n)};
  rel.so = history_.session_order();

  for (const auto& [x, sources] : wr_source_) {
    (void)x;
    for (const auto& [reader, writer] : sources) rel.wr.add(writer, reader);
  }

  for (const auto& [x, order] : ww_order_) {
    (void)x;
    for (std::size_t i = 0; i < order.size(); ++i) {
      for (std::size_t j = i + 1; j < order.size(); ++j) {
        rel.ww.add(order[i], order[j]);
      }
    }
  }

  // RW (Definition 5): reader --RW(x)--> every WW(x)-successor of its
  // source, except itself.
  for (const auto& [x, sources] : wr_source_) {
    const std::vector<TxnId>& order = write_order(x);
    for (const auto& [reader, writer] : sources) {
      auto it = std::find(order.begin(), order.end(), writer);
      if (it == order.end()) continue;  // validate() reports this
      for (++it; it != order.end(); ++it) {
        if (*it != reader) rel.rw.add(reader, *it);
      }
    }
  }

  return rel;
}

std::vector<DepEdge> DependencyGraph::edges() const {
  std::vector<DepEdge> out;
  // SO in row-major order: transaction ids grow along each session, so a
  // transaction's session successors are already ascending.
  for (TxnId a = 0; a < txn_count(); ++a) {
    const std::vector<TxnId>& session =
        history_.session(history_.session_of(a));
    const std::size_t next = history_.session_index_of(a) + 1;
    for (std::size_t j = next; j < session.size(); ++j)
      out.push_back({a, session[j], DepKind::kSO, kInvalidObj});
  }

  for (const auto& [x, sources] : wr_source_) {
    for (const auto& [reader, writer] : sources)
      out.push_back({writer, reader, DepKind::kWR, x});
  }
  for (const auto& [x, order] : ww_order_) {
    for (std::size_t i = 0; i < order.size(); ++i) {
      for (std::size_t j = i + 1; j < order.size(); ++j)
        out.push_back({order[i], order[j], DepKind::kWW, x});
    }
  }
  for (const auto& [x, sources] : wr_source_) {
    const std::vector<TxnId>& order = write_order(x);
    for (const auto& [reader, writer] : sources) {
      auto it = std::find(order.begin(), order.end(), writer);
      if (it == order.end()) continue;
      for (++it; it != order.end(); ++it) {
        if (*it != reader)
          out.push_back({reader, *it, DepKind::kRW, x});
      }
    }
  }
  return out;
}

std::vector<DepEdge> DependencyGraph::edges_between(TxnId a, TxnId b) const {
  std::vector<DepEdge> out;
  for (const DepEdge& e : edges()) {
    if (e.from == a && e.to == b) out.push_back(e);
  }
  return out;
}

std::optional<DepEdge> DependencyGraph::first_edge(
    TxnId a, TxnId b, bool (*accept)(DepKind)) const {
  if (accept(DepKind::kSO) && history_.same_session(a, b) &&
      history_.session_index_of(a) < history_.session_index_of(b)) {
    return DepEdge{a, b, DepKind::kSO, kInvalidObj};
  }
  // Within one object there is at most one edge a -> b of each kind (up
  // to repeats in a malformed WW order), so the first match in ascending
  // object order is the one edges() lists first.
  if (accept(DepKind::kWR)) {
    for (const auto& [x, sources] : wr_source_) {
      const auto it = sources.find(b);
      if (it != sources.end() && it->second == a) {
        return DepEdge{a, b, DepKind::kWR, x};
      }
    }
  }
  // Does b occur in \p order after the first occurrence of \p first?
  const auto ordered = [b](const std::vector<TxnId>& order, TxnId first) {
    const auto it = std::find(order.begin(), order.end(), first);
    return it != order.end() &&
           std::find(it + 1, order.end(), b) != order.end();
  };
  if (accept(DepKind::kWW)) {
    for (const auto& [x, order] : ww_order_) {
      if (ordered(order, a)) return DepEdge{a, b, DepKind::kWW, x};
    }
  }
  if (accept(DepKind::kRW) && a != b) {
    for (const auto& [x, sources] : wr_source_) {
      const auto it = sources.find(a);
      if (it != sources.end() && ordered(write_order(x), it->second)) {
        return DepEdge{a, b, DepKind::kRW, x};
      }
    }
  }
  return std::nullopt;
}

DependencyGraph extract_graph(const AbstractExecution& x) {
  const History& h = x.history;
  DependencyGraph g(h);

  for (ObjId obj : h.objects()) {
    // WW(x): CO restricted to WriteTx_x; CO must order the writers
    // totally (it does when X satisfies the Definition 3/11 conditions
    // relevant here — otherwise we report the problem).
    std::vector<TxnId> writers = h.writers_of(obj);
    std::sort(writers.begin(), writers.end(), [&](TxnId a, TxnId b) {
      if (x.co.contains(a, b)) return true;
      if (x.co.contains(b, a)) return false;
      throw ModelError("extract_graph: CO does not order writers T" +
                       std::to_string(a) + ", T" + std::to_string(b) +
                       " of obj" + std::to_string(obj));
    });
    g.set_write_order(obj, std::move(writers));
  }

  for (TxnId s = 0; s < h.txn_count(); ++s) {
    for (ObjId obj : h.txn(s).external_read_set()) {
      std::vector<TxnId> candidates;
      for (TxnId t : x.vis.predecessors(s)) {
        if (h.txn(t).writes(obj)) candidates.push_back(t);
      }
      const auto writer = axioms::max_in(x.co, candidates);
      if (!writer) {
        throw ModelError(
            "extract_graph: max_CO(VIS^-1(T" + std::to_string(s) +
            ") ∩ WriteTx_obj" + std::to_string(obj) + ") is undefined");
      }
      g.set_read_from(obj, *writer, s);
    }
  }
  return g;
}

void infer_read_sources_from_values(DependencyGraph& g) {
  const History& h = g.history();
  for (TxnId s = 0; s < h.txn_count(); ++s) {
    for (ObjId x : h.txn(s).external_read_set()) {
      const Value v = *h.txn(s).external_read(x);
      TxnId found = kInvalidTxn;
      for (TxnId t : h.writers_of(x)) {
        if (t == s) continue;
        if (h.txn(t).final_write(x) == v) {
          if (found != kInvalidTxn) {
            throw ModelError(
                "infer_read_sources_from_values: value " + std::to_string(v) +
                " of obj" + std::to_string(x) +
                " is written by multiple transactions");
          }
          found = t;
        }
      }
      if (found == kInvalidTxn) {
        throw ModelError("infer_read_sources_from_values: T" +
                         std::to_string(s) + " reads unwritten value " +
                         std::to_string(v) + " of obj" + std::to_string(x));
      }
      g.set_read_from(x, found, s);
    }
  }
}

}  // namespace sia
