#pragma once

#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/abstract_execution.hpp"
#include "core/history.hpp"
#include "core/relation.hpp"

/// \file dependency_graph.hpp
/// Dependency graphs (Definition 6): a history extended with Adya-style
/// read dependencies WR, write dependencies WW and (derived)
/// anti-dependencies RW, plus their extraction from abstract executions
/// (Definition 5, Proposition 7).

namespace sia {

/// Kinds of edges appearing in dependency graphs and derived analyses.
enum class DepKind : std::uint8_t {
  kSO,     ///< session order (successor edges in chopping graphs)
  kSOInv,  ///< reverse session order (predecessor edges, chopping only)
  kWR,     ///< read dependency: target reads source's write
  kWW,     ///< write dependency: target overwrites source's write
  kRW,     ///< anti-dependency: target overwrites the write source read
};

[[nodiscard]] std::string to_string(DepKind k);

/// One typed, object-annotated dependency edge (for witnesses/diagnostics).
struct DepEdge {
  TxnId from{kInvalidTxn};
  TxnId to{kInvalidTxn};
  DepKind kind{DepKind::kWR};
  ObjId obj{kInvalidObj};  ///< kInvalidObj for SO/SO^{-1} edges

  friend bool operator==(const DepEdge&, const DepEdge&) = default;
};

[[nodiscard]] std::string to_string(const DepEdge& e);
[[nodiscard]] std::string to_string(const std::vector<DepEdge>& path);

/// The three dependency relations of a graph, materialised as Relations
/// (unions over all objects), plus SO. Snapshot type returned by
/// DependencyGraph::relations().
struct DepRelations {
  Relation so;
  Relation wr;
  Relation ww;
  Relation rw;

  /// D = SO ∪ WR ∪ WW, the non-anti-dependency union used by
  /// Theorems 8, 9 and 21.
  [[nodiscard]] Relation dependencies() const { return so | wr | ww; }
};

/// G = (T, SO, WR, WW, RW). WW(x) is stored as the ordered vector of
/// writers of x — the total order itself; WR(x) as a reader→writer map
/// (Definition 6 makes the writer unique per reader). RW is always derived
/// from WR and WW per Definition 5 and never stored.
class DependencyGraph {
 public:
  DependencyGraph() = default;
  explicit DependencyGraph(History h) : history_(std::move(h)) {}

  [[nodiscard]] const History& history() const { return history_; }
  [[nodiscard]] std::size_t txn_count() const { return history_.txn_count(); }

  /// Declares T --WR(x)--> S (reader \p s reads \p x from writer \p t).
  /// Overwrites any previous source for (s, x).
  void set_read_from(ObjId x, TxnId t, TxnId s);

  /// Declares the WW(x) total order: \p writers, earliest first. Must be a
  /// permutation of the transactions writing x (checked by validate()).
  void set_write_order(ObjId x, std::vector<TxnId> writers);

  /// Writer that \p s reads \p x from, if declared.
  [[nodiscard]] std::optional<TxnId> read_source(ObjId x, TxnId s) const;

  /// The WW(x) order (empty if not declared).
  [[nodiscard]] const std::vector<TxnId>& write_order(ObjId x) const;

  /// Objects with a declared WW order or WR edge.
  [[nodiscard]] std::vector<ObjId> annotated_objects() const;

  /// Checks every condition of Definition 6:
  ///  - WR(x) sources differ from readers, wrote the value read, and every
  ///    external read has exactly one source;
  ///  - WW(x) is a total order on WriteTx_x.
  /// Returns nullopt if valid.
  [[nodiscard]] std::optional<Violation> validate() const;

  /// Materialises SO / WR / WW / RW as Relations. RW is derived per
  /// Definition 5: T --RW(x)--> S iff T ≠ S and ∃T'. T' --WR(x)--> T and
  /// T' --WW(x)--> S.
  [[nodiscard]] DepRelations relations() const;

  /// All typed edges (SO, WR, WW, derived RW) with object annotations.
  [[nodiscard]] std::vector<DepEdge> edges() const;

  /// Typed edges between \p a and \p b in that direction.
  [[nodiscard]] std::vector<DepEdge> edges_between(TxnId a, TxnId b) const;

  /// The first edge of edges_between(a, b) whose kind passes \p accept,
  /// found without listing edges(): SO from the session indices in O(1),
  /// then WR, WW and RW in one pass each over the annotated objects
  /// (edges() lists each kind in ascending object order).
  [[nodiscard]] std::optional<DepEdge> first_edge(
      TxnId a, TxnId b, bool (*accept)(DepKind)) const;

  friend bool operator==(const DependencyGraph&,
                         const DependencyGraph&) = default;

 private:
  History history_;
  std::map<ObjId, std::vector<TxnId>> ww_order_;
  std::map<ObjId, std::unordered_map<TxnId, TxnId>> wr_source_;
  static const std::vector<TxnId> kEmptyOrder;
};

/// graph(X) of Definition 5: extracts WR/WW/RW from an abstract execution.
/// Requires CO to determine max_CO over visible writers (works for
/// pre-executions whenever the maxima exist; throws ModelError otherwise,
/// mirroring "the use of max_R(A) implicitly assumes it is defined").
[[nodiscard]] DependencyGraph extract_graph(const AbstractExecution& x);

/// Infers the unique WR edges of a history in which every (object, value)
/// pair is written by at most one transaction (the standard
/// distinct-values testing discipline). WW orders must still be supplied.
/// Throws ModelError if some read has zero or multiple candidate writers.
void infer_read_sources_from_values(DependencyGraph& g);

}  // namespace sia
