#include "robustness/concretize.hpp"

#include <algorithm>
#include <set>

#include "graph/enumeration.hpp"

namespace sia {

namespace {

/// One pending read-source choice.
struct ReadSite {
  ObjId obj;
  std::size_t event_index;          ///< index of the read in reader's events
  std::vector<TxnId> candidates;    ///< init and other writers of obj
};

/// Enumerates WR sources, then WW orders with init pinned first. The
/// History, its INT check and WR are rebuilt once per read assignment;
/// each WW choice refills only WW and RW and is decided by membership
/// alone. Only a hit becomes a DependencyGraph.
class ConcretizeSearch {
 public:
  ConcretizeSearch(const std::vector<Program>& instances, AnomalyTarget target,
                   std::size_t budget)
      : target_(target), budget_(budget) {
    // Objects across all instances; the init transaction writes them all.
    std::set<ObjId> objs;
    for (const Program& p : instances) {
      for (ObjId x : p.read_set()) objs.insert(x);
      for (ObjId x : p.write_set()) objs.insert(x);
    }
    {
      Transaction init;
      for (ObjId x : objs) init.append(write(x, 0));
      history_.append_singleton(std::move(init));
    }
    // One transaction per instance: reads first, then writes, each write
    // with a value unique to (transaction, object).
    for (std::size_t i = 0; i < instances.size(); ++i) {
      const TxnId id = static_cast<TxnId>(i + 1);
      Transaction t;
      for (ObjId x : instances[i].read_set()) t.append(read(x, 0));
      for (ObjId x : instances[i].write_set()) {
        t.append(write(x, value_of(id, x)));
      }
      history_.append_singleton(std::move(t));
    }
    // One WW order per object, init first; the rest is permuted in place.
    objects_.assign(objs.begin(), objs.end());
    for (ObjId x : objects_) orders_.push_back(history_.writers_of(x));
    // Read sites and their candidate sources.
    for (TxnId id = 1; id < history_.txn_count(); ++id) {
      const Transaction& t = history_.txn(id);
      for (std::size_t e = 0; e < t.size(); ++e) {
        if (!t[e].is_read()) continue;
        ReadSite site{t[e].obj, e, {}};
        for (TxnId w : history_.writers_of(t[e].obj)) {
          if (w != id) site.candidates.push_back(w);
        }
        const auto order = static_cast<std::size_t>(
            std::lower_bound(objects_.begin(), objects_.end(), t[e].obj) -
            objects_.begin());
        reads_.push_back({id, kInvalidTxn, order});
        sites_.push_back(std::move(site));
      }
    }
    const std::size_t n = history_.txn_count();
    rel_ = DepRelations{history_.session_order(), Relation(n), Relation(n),
                        Relation(n)};
  }

  Concretization run() {
    assign_site(0);
    return std::move(result_);
  }

 private:
  static Value value_of(TxnId id, ObjId x) {
    return static_cast<Value>(id) * 1000 + static_cast<Value>(x) + 1;
  }

  void assign_site(std::size_t idx) {
    if (done()) return;
    if (idx == sites_.size()) {
      read_assignment();
      assign_perm(0);
      return;
    }
    for (TxnId source : sites_[idx].candidates) {
      reads_[idx].writer = source;
      assign_site(idx + 1);
      if (done()) return;
    }
  }

  void assign_perm(std::size_t idx) {
    if (done()) return;
    if (idx == orders_.size()) {
      evaluate();
      return;
    }
    // Init (TxnId 0, the smallest writer) stays first.
    std::vector<TxnId>& order = orders_[idx];
    std::sort(order.begin() + 1, order.end());
    do {
      assign_perm(idx + 1);
      if (done()) return;
    } while (std::next_permutation(order.begin() + 1, order.end()));
  }

  /// The history with the chosen read values, its INT verdict and WR.
  void read_assignment() {
    std::vector<std::vector<Event>> events;
    events.reserve(history_.txn_count());
    for (TxnId id = 0; id < history_.txn_count(); ++id) {
      events.push_back(history_.txn(id).events());
    }
    for (std::size_t i = 0; i < sites_.size(); ++i) {
      const ReadSite& s = sites_[i];
      const TxnId src = reads_[i].writer;
      const Value v = src == 0 ? 0 : value_of(src, s.obj);
      events[reads_[i].reader][s.event_index] = read(s.obj, v);
    }
    current_ = History{};
    for (auto& ev : events) {
      current_.append_singleton(Transaction(std::move(ev)));
    }
    int_ok_ = !axioms::check_int(current_);
    refill_wr(rel_, reads_);
  }

  void evaluate() {
    if (result_.graphs_tried >= budget_) {
      result_.exhaustive = false;
      return;
    }
    ++result_.graphs_tried;
    if (!int_ok_) return;
    refill_ww_rw(rel_, orders_, reads_);
    const bool hit = target_ == AnomalyTarget::kSiNotSer
                         ? graph_member(rel_, Model::kSI) &&
                               !graph_member(rel_, Model::kSER)
                         : graph_member(rel_, Model::kPSI) &&
                               !graph_member(rel_, Model::kSI);
    if (!hit) return;
    DependencyGraph g(current_);
    for (std::size_t i = 0; i < sites_.size(); ++i) {
      g.set_read_from(sites_[i].obj, reads_[i].writer, reads_[i].reader);
    }
    for (std::size_t i = 0; i < objects_.size(); ++i) {
      g.set_write_order(objects_[i], orders_[i]);
    }
#ifndef NDEBUG
    if (g.validate().has_value()) return;  // by construction; debug check
#endif
    result_.witness = std::move(g);
  }

  [[nodiscard]] bool done() const {
    return result_.witness.has_value() || !result_.exhaustive;
  }

  AnomalyTarget target_;
  std::size_t budget_;
  History history_;                         ///< reads of value 0
  History current_;                         ///< the chosen read values
  bool int_ok_{true};
  std::vector<ReadSite> sites_;
  std::vector<ReadChoice> reads_;           ///< parallel to sites_
  std::vector<ObjId> objects_;              ///< ascending
  std::vector<std::vector<TxnId>> orders_;  ///< WW order per object
  DepRelations rel_;
  Concretization result_;
};

}  // namespace

Concretization find_concrete_anomaly(const std::vector<Program>& instances,
                                     AnomalyTarget target,
                                     std::size_t budget) {
  return ConcretizeSearch(instances, target, budget).run();
}

}  // namespace sia
