#include "graph/enumeration.hpp"

#include <algorithm>

namespace sia {

GraphCheck check_graph(const DependencyGraph& g, Model m) {
  switch (m) {
    case Model::kSER:
      return check_graph_ser(g);
    case Model::kSI:
      return check_graph_si(g);
    case Model::kPSI:
      return check_graph_psi(g);
  }
  throw ModelError("check_graph: unknown model");
}

void refill_wr(DepRelations& rel, const std::vector<ReadChoice>& reads) {
  rel.wr.clear();
  for (const ReadChoice& r : reads) rel.wr.add(r.writer, r.reader);
}

void refill_ww_rw(DepRelations& rel,
                  const std::vector<std::vector<TxnId>>& orders,
                  const std::vector<ReadChoice>& reads) {
  rel.ww.clear();
  rel.rw.clear();
  for (const std::vector<TxnId>& order : orders) {
    for (std::size_t i = 0; i < order.size(); ++i) {
      for (std::size_t j = i + 1; j < order.size(); ++j) {
        rel.ww.add(order[i], order[j]);
      }
    }
  }
  // RW (Definition 5): reader --RW(x)--> every WW(x)-successor of its
  // source, except itself.
  for (const ReadChoice& r : reads) {
    const std::vector<TxnId>& order = orders[r.order];
    auto it = std::find(order.begin(), order.end(), r.writer);
    if (it == order.end()) continue;
    for (++it; it != order.end(); ++it) {
      if (*it != r.reader) rel.rw.add(r.reader, *it);
    }
  }
}

namespace {

/// The Definition 6 extensions of a history, chosen depth-first: a WR
/// source for each external read (readers ascending, candidates in
/// writers_of order), then a WW order for each written object (objects
/// ascending, orders lexicographically). The current choice is held in
/// reads() and orders(); the WW orders are permuted in place.
class ExtensionSpace {
 public:
  explicit ExtensionSpace(const History& h) : h_(h) {
    for (ObjId x : h.objects()) {
      std::vector<TxnId> writers = h.writers_of(x);
      if (writers.empty()) continue;
      objects_.push_back(x);
      orders_.push_back(std::move(writers));
    }
    for (TxnId s = 0; s < h.txn_count(); ++s) {
      for (ObjId x : h.txn(s).external_read_set()) {
        const Value v = *h.txn(s).external_read(x);
        std::vector<TxnId> candidates;
        for (TxnId t : h.writers_of(x)) {
          if (t != s && h.txn(t).final_write(x) == v) candidates.push_back(t);
        }
        // A read with no candidate has no extension, so its order index
        // is never used.
        const auto order = static_cast<std::size_t>(
            std::find(objects_.begin(), objects_.end(), x) - objects_.begin());
        reads_.push_back({s, kInvalidTxn, order});
        candidates_.push_back(std::move(candidates));
      }
    }
  }

  [[nodiscard]] const std::vector<ReadChoice>& reads() const { return reads_; }
  [[nodiscard]] const std::vector<std::vector<TxnId>>& orders() const {
    return orders_;
  }

  /// Visits every extension: \p on_reads() once every read has a source,
  /// then \p on_leaf() once every object has an order too; on_leaf returns
  /// false to stop. Returns the number of extensions visited.
  std::size_t run(const std::function<void()>& on_reads,
                  const std::function<bool()>& on_leaf) {
    on_reads_ = &on_reads;
    on_leaf_ = &on_leaf;
    count_ = 0;
    stop_ = false;
    assign_read(0);
    return count_;
  }

  /// The number of extensions, without visiting them: the product of the
  /// reads' candidate counts and the objects' writer-count factorials.
  [[nodiscard]] std::size_t size() const {
    std::size_t total = 1;
    for (const std::vector<TxnId>& c : candidates_) total *= c.size();
    for (const std::vector<TxnId>& order : orders_) {
      for (std::size_t k = 2; k <= order.size(); ++k) total *= k;
    }
    return total;
  }

  /// Writes the current WR choice into \p g.
  void apply_reads(DependencyGraph& g) const {
    for (const ReadChoice& r : reads_) {
      g.set_read_from(objects_[r.order], r.writer, r.reader);
    }
  }

  /// Writes the current WW orders into \p g.
  void apply_orders(DependencyGraph& g) const {
    for (std::size_t i = 0; i < objects_.size(); ++i) {
      g.set_write_order(objects_[i], orders_[i]);
    }
  }

  /// The current choice as a dependency graph.
  [[nodiscard]] DependencyGraph graph() const {
    DependencyGraph g(h_);
    apply_reads(g);
    apply_orders(g);
    return g;
  }

 private:
  void assign_read(std::size_t idx) {
    if (idx == reads_.size()) {
      (*on_reads_)();
      assign_order(0);
      return;
    }
    for (TxnId t : candidates_[idx]) {
      reads_[idx].writer = t;
      assign_read(idx + 1);
      if (stop_) return;
    }
  }

  void assign_order(std::size_t idx) {
    if (idx == orders_.size()) {
      ++count_;
      if (!(*on_leaf_)()) stop_ = true;
      return;
    }
    std::vector<TxnId>& order = orders_[idx];
    std::sort(order.begin(), order.end());
    do {
      assign_order(idx + 1);
      if (stop_) return;
    } while (std::next_permutation(order.begin(), order.end()));
  }

  const History& h_;
  std::vector<ObjId> objects_;               ///< written objects, ascending
  std::vector<std::vector<TxnId>> orders_;   ///< WW order per object
  std::vector<ReadChoice> reads_;            ///< one per external read
  std::vector<std::vector<TxnId>> candidates_;  ///< WR sources per read
  const std::function<void()>* on_reads_{nullptr};
  const std::function<bool()>* on_leaf_{nullptr};
  std::size_t count_{0};
  bool stop_{false};
};

}  // namespace

std::size_t enumerate_dependency_graphs(
    const History& h,
    const std::function<bool(const DependencyGraph&)>& visit) {
  ExtensionSpace space(h);
  DependencyGraph current(h);
  return space.run([&] { space.apply_reads(current); },
                   [&] {
                     space.apply_orders(current);
                     return visit(current);
                   });
}

HistDecision decide_history(const History& h, Model m) {
  HistDecision out;
  ExtensionSpace space(h);
  // INT is a property of H alone: if H violates it, no extension is in
  // any model's graph set.
  if (axioms::check_int(h)) {
    out.graphs_tried = space.size();
    return out;
  }
  const std::size_t n = h.txn_count();
  DepRelations rel{h.session_order(), Relation(n), Relation(n), Relation(n)};
  out.graphs_tried = space.run([&] { refill_wr(rel, space.reads()); },
                               [&] {
                                 refill_ww_rw(rel, space.orders(), space.reads());
                                 if (!graph_member(rel, m)) return true;
                                 out.allowed = true;
                                 out.witness = space.graph();
                                 return false;  // stop at the first witness
                               });
  return out;
}

}  // namespace sia
