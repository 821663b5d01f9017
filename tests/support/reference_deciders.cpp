#include "reference_deciders.hpp"

#include <algorithm>
#include <set>

namespace sia {

RobustnessWitness si_anomaly(const DependencyGraph& g) {
  RobustnessWitness out;
  const DepRelations rel = g.relations();
  const GraphCheck si = check_graph_si(g, rel);
  if (si.int_violation) {
    out.int_violation = si.int_violation;
    return out;
  }
  if (!si.member) return out;  // not even allowed by SI
  const GraphCheck ser = check_graph_ser(g, rel);
  if (ser.member) return out;  // serializable, no anomaly
  out.anomaly = true;
  out.cycle = ser.witness;
  return out;
}

RobustnessWitness psi_anomaly(const DependencyGraph& g) {
  RobustnessWitness out;
  const DepRelations rel = g.relations();
  const GraphCheck psi = check_graph_psi(g, rel);
  if (psi.int_violation) {
    out.int_violation = psi.int_violation;
    return out;
  }
  if (!psi.member) return out;
  const GraphCheck si = check_graph_si(g, rel);
  if (si.member) return out;
  out.anomaly = true;
  out.cycle = si.witness;
  return out;
}

HistDecision decide_history_reference(const History& h, Model m) {
  HistDecision out;
  out.graphs_tried = enumerate_dependency_graphs(h, [&](const DependencyGraph& g) {
    if (check_graph(g, m).member) {
      out.allowed = true;
      out.witness = g;
      return false;  // stop at the first witness
    }
    return true;
  });
  return out;
}

namespace {

/// One pending read-source choice.
struct ReadSite {
  TxnId reader;
  ObjId obj;
  std::size_t event_index;          ///< index of the read in reader's events
  std::vector<TxnId> candidates;    ///< init and other writers of obj
};

class ReferenceConcretizeSearch {
 public:
  ReferenceConcretizeSearch(const std::vector<Program>& instances,
                            AnomalyTarget target, std::size_t budget)
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
    // Read sites and their candidate sources.
    for (TxnId id = 1; id < history_.txn_count(); ++id) {
      const Transaction& t = history_.txn(id);
      for (std::size_t e = 0; e < t.size(); ++e) {
        if (!t[e].is_read()) continue;
        ReadSite site{id, t[e].obj, e, {}};
        for (TxnId w : history_.writers_of(t[e].obj)) {
          if (w != id) site.candidates.push_back(w);
        }
        sites_.push_back(std::move(site));
      }
    }
    for (ObjId x : objs) {
      std::vector<TxnId> writers = history_.writers_of(x);
      // Keep init (TxnId 0) first; permute the rest.
      writers.erase(std::find(writers.begin(), writers.end(), 0));
      if (!writers.empty()) perm_objects_.emplace_back(x, std::move(writers));
    }
  }

  Concretization run() {
    choice_.assign(sites_.size(), 0);
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
      assign_perm(0);
      return;
    }
    for (TxnId source : sites_[idx].candidates) {
      choice_[idx] = source;
      assign_site(idx + 1);
      if (done()) return;
    }
  }

  void assign_perm(std::size_t idx) {
    if (done()) return;
    if (idx == perm_objects_.size()) {
      evaluate();
      return;
    }
    std::vector<TxnId>& writers = perm_objects_[idx].second;
    std::sort(writers.begin(), writers.end());
    do {
      assign_perm(idx + 1);
      if (done()) return;
    } while (std::next_permutation(writers.begin(), writers.end()));
  }

  void evaluate() {
    if (result_.graphs_tried >= budget_) {
      result_.exhaustive = false;
      return;
    }
    ++result_.graphs_tried;
    // Materialise the history with the chosen read values, then the graph.
    std::vector<std::vector<Event>> events;
    events.reserve(history_.txn_count());
    for (TxnId id = 0; id < history_.txn_count(); ++id) {
      events.push_back(history_.txn(id).events());
    }
    for (std::size_t i = 0; i < sites_.size(); ++i) {
      const ReadSite& s = sites_[i];
      const TxnId src = choice_[i];
      const Value v = src == 0 ? 0 : value_of(src, s.obj);
      events[s.reader][s.event_index] = read(s.obj, v);
    }
    History h;
    for (auto& ev : events) h.append_singleton(Transaction(std::move(ev)));
    DependencyGraph g(h);
    for (std::size_t i = 0; i < sites_.size(); ++i) {
      g.set_read_from(sites_[i].obj, choice_[i], sites_[i].reader);
    }
    for (const auto& [x, writers] : perm_objects_) {
      std::vector<TxnId> order{0};
      order.insert(order.end(), writers.begin(), writers.end());
      g.set_write_order(x, std::move(order));
    }
    for (ObjId x : history_.objects()) {
      if (g.write_order(x).empty()) g.set_write_order(x, {0});
    }
    if (g.validate().has_value()) return;  // by construction
    const bool hit = target_ == AnomalyTarget::kSiNotSer
                         ? si_anomaly(g).anomaly
                         : psi_anomaly(g).anomaly;
    if (hit) result_.witness = std::move(g);
  }

  [[nodiscard]] bool done() const {
    return result_.witness.has_value() || !result_.exhaustive;
  }

  AnomalyTarget target_;
  std::size_t budget_;
  History history_;
  std::vector<ReadSite> sites_;
  std::vector<TxnId> choice_;
  std::vector<std::pair<ObjId, std::vector<TxnId>>> perm_objects_;
  Concretization result_;
};

}  // namespace

Concretization find_concrete_anomaly_reference(
    const std::vector<Program>& instances, AnomalyTarget target,
    std::size_t budget) {
  return ReferenceConcretizeSearch(instances, target, budget).run();
}

}  // namespace sia
