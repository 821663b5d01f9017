#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/types.hpp"

/// \file relation.hpp
/// Dense binary relations over transaction ids {0, ..., n-1} with the
/// algebra the paper's proofs are written in: union, sequential composition
/// (R1 ; R2), transitive closure (R+), reflexive closure (R?), inversion,
/// acyclicity, totality, and incremental closure insertion (the step of the
/// Theorem 10(i) construction).
///
/// Representation: a row-major bit matrix (std::uint64_t words). All bulk
/// operations are word-parallel; transitive closure is bitset Warshall,
/// O(n^3 / 64). Intended scale is up to a few thousand transactions per
/// analysed history, where this representation is both the fastest and the
/// simplest option.
///
/// Above kParallelThreshold rows the O(n^3/64) kernels switch to
/// multi-threaded variants (compose partitions destination rows across the
/// parallel.hpp pool; transitive closure runs 64-row-blocked Warshall with
/// the off-block panel update parallelised), and the bulk set operations
/// partition their word range. Small relations keep the scalar kernels so
/// tiny histories pay no thread overhead. Both variants of each kernel are
/// public: the *_serial forms are the reference implementations the
/// differential tests and the old-vs-new benchmarks run against.

namespace sia {

class Relation {
 public:
  /// Universe size at which compose / transitive_closure dispatch to their
  /// parallel kernels and the bulk set ops start splitting their word
  /// range. Below it the scalar kernels win on overhead.
  static constexpr std::size_t kParallelThreshold = 256;

  /// Empty relation over a universe of size \p n.
  explicit Relation(std::size_t n = 0);

  /// The identity relation {(a, a) | a < n}.
  [[nodiscard]] static Relation identity(std::size_t n);

  /// Relation from an explicit edge list.
  [[nodiscard]] static Relation from_edges(
      std::size_t n, const std::vector<std::pair<TxnId, TxnId>>& edges);

  [[nodiscard]] std::size_t size() const { return n_; }

  [[nodiscard]] bool contains(TxnId a, TxnId b) const;
  void add(TxnId a, TxnId b);
  void remove(TxnId a, TxnId b);

  /// Removes every pair; the universe and its storage are kept, so a
  /// relation refilled in a loop allocates once.
  void clear();

  /// row(dst) |= row(src): dst's successor set absorbs src's in one
  /// word-parallel pass — the propagation primitive of DAG reachability.
  void absorb_row(TxnId dst, TxnId src);

  /// Number of pairs in the relation.
  [[nodiscard]] std::size_t edge_count() const;
  [[nodiscard]] bool empty() const { return edge_count() == 0; }

  /// All pairs, lexicographically ordered.
  [[nodiscard]] std::vector<std::pair<TxnId, TxnId>> edges() const;

  /// Calls \p fn for every successor b with (a, b) in the relation,
  /// in increasing order of b.
  void for_successors(TxnId a, const std::function<void(TxnId)>& fn) const;

  /// Successor row of \p a as packed words: bit b % 64 of word b / 64 is
  /// set iff (a, b) is in the relation. Lets callers combine rows of
  /// several relations word by word without materialising their union.
  [[nodiscard]] std::span<const std::uint64_t> row_words(TxnId a) const {
    return {row(a), words_};
  }

  /// Successors of \p a as a vector (increasing order).
  [[nodiscard]] std::vector<TxnId> successors(TxnId a) const;

  /// Predecessors of \p a as a vector (increasing order): R^{-1}(a) in the
  /// paper's notation.
  [[nodiscard]] std::vector<TxnId> predecessors(TxnId a) const;

  // ----- algebra -------------------------------------------------------

  /// In-place union.
  Relation& operator|=(const Relation& other);
  [[nodiscard]] friend Relation operator|(Relation lhs, const Relation& rhs) {
    lhs |= rhs;
    return lhs;
  }

  /// In-place intersection.
  Relation& operator&=(const Relation& other);
  [[nodiscard]] friend Relation operator&(Relation lhs, const Relation& rhs) {
    lhs &= rhs;
    return lhs;
  }

  /// In-place difference (pairs in this but not in other).
  Relation& operator-=(const Relation& other);
  [[nodiscard]] friend Relation operator-(Relation lhs, const Relation& rhs) {
    lhs -= rhs;
    return lhs;
  }

  friend bool operator==(const Relation&, const Relation&);

  /// Sequential composition R1 ; R2 = {(a,b) | ∃c. (a,c) ∈ R1 ∧ (c,b) ∈ R2}.
  /// Dispatches to compose_parallel above kParallelThreshold.
  [[nodiscard]] Relation compose(const Relation& other) const;

  /// Reference single-threaded composition kernel.
  [[nodiscard]] Relation compose_serial(const Relation& other) const;

  /// Row-partitioned composition: destination rows are independent, so the
  /// outer loop is split across the parallel.hpp pool. Identical result to
  /// compose_serial at every size (the differential tests enforce this).
  [[nodiscard]] Relation compose_parallel(const Relation& other) const;

  /// Transitive closure R+. Dispatches to transitive_closure_blocked above
  /// kParallelThreshold.
  [[nodiscard]] Relation transitive_closure() const;

  /// Reference single-threaded bitset-Warshall closure kernel.
  [[nodiscard]] Relation transitive_closure_serial() const;

  /// Blocked bitset Warshall: intermediates are processed 64 at a time —
  /// a serial in-block closure phase followed by a panel update of all
  /// remaining rows, which is row-partitioned across the pool. One
  /// fork/join per 64 intermediates instead of per intermediate.
  [[nodiscard]] Relation transitive_closure_blocked() const;

  /// Reflexive closure R? = R ∪ id.
  [[nodiscard]] Relation reflexive_closure() const;

  /// Reflexive-transitive closure R*.
  [[nodiscard]] Relation reflexive_transitive_closure() const;

  /// Inverse relation R^{-1}.
  [[nodiscard]] Relation inverse() const;

  // ----- predicates -----------------------------------------------------

  [[nodiscard]] bool is_irreflexive() const;

  /// True iff the relation, viewed as a directed graph, has no cycle
  /// (self-loops count as cycles). Linear-time DFS.
  [[nodiscard]] bool is_acyclic() const;

  /// True iff transitive.
  [[nodiscard]] bool is_transitive() const;

  /// True iff every pair of distinct elements of the universe is related
  /// one way or the other (totality of a strict order, Definition 3).
  [[nodiscard]] bool is_total() const;

  /// True iff the relation is a strict total order: irreflexive,
  /// transitive and total.
  [[nodiscard]] bool is_strict_total_order() const;

  /// True iff every pair of this relation is in \p other.
  [[nodiscard]] bool subset_of(const Relation& other) const;

  /// Some pair of distinct elements unrelated in either direction, if any.
  /// Scanning order is deterministic (lexicographic), making the
  /// Theorem 10(i) construction reproducible.
  [[nodiscard]] std::optional<std::pair<TxnId, TxnId>> unrelated_pair() const;

  // ----- graph queries ---------------------------------------------------

  /// A topological order of the universe consistent with the relation, or
  /// nullopt if cyclic.
  [[nodiscard]] std::optional<std::vector<TxnId>> topological_order() const;

  /// A simple cycle v0 -> v1 -> ... -> vk -> v0 (returned as [v0..vk]), or
  /// nullopt if acyclic.
  [[nodiscard]] std::optional<std::vector<TxnId>> find_cycle() const;

  /// A shortest path from \p from to \p to along relation edges
  /// (inclusive of both endpoints), or nullopt if unreachable. BFS.
  [[nodiscard]] std::optional<std::vector<TxnId>> find_path(TxnId from,
                                                            TxnId to) const;

  /// True iff \p to is reachable from \p from by one or more edges.
  [[nodiscard]] bool reaches(TxnId from, TxnId to) const;

  /// Smallest c with (a, c) in this and (b, c) in \p other — one
  /// word-parallel AND of the two successor rows. With other = R^{-1} this
  /// answers "smallest c with (a, c) here and (c, b) in R", the
  /// intermediate-vertex query of composed-cycle expansion.
  [[nodiscard]] std::optional<TxnId> first_common_successor(
      TxnId a, const Relation& other, TxnId b) const;

  /// Precondition: this relation is transitively closed. True iff \p to is
  /// reachable from \p from by one or more edges of (this ∪ extra), where
  /// \p extra is a sparse adjacency overlay (indices past its size have no
  /// overlay edges). Because this relation is closed, a row absorbed into
  /// the reached set never needs re-expansion through closure edges, so the
  /// scan is O(reached · n/64) plus the overlay degree — the exact deferred
  /// cycle check of ConsistencyMonitor::commit_all.
  [[nodiscard]] bool closed_reaches_with(
      TxnId from, TxnId to,
      const std::vector<std::vector<TxnId>>& extra) const;

  // ----- closure maintenance (Theorem 10(i) construction) ----------------

  /// Precondition: this relation is transitively closed. Inserts (a, b)
  /// and restores transitive closedness in O(n^2/64):
  ///   for every p with p = a or (p, a): row(p) |= row(b) ∪ {b}.
  /// This is exactly the paper's step CO_{i+1} = (CO_i ∪ {(T_i, S_i)})+.
  void add_edge_transitively(TxnId a, TxnId b);

  /// Renders the edge list, e.g. "{(0,1), (2,0)}".
  [[nodiscard]] std::string to_string() const;

 private:
  [[nodiscard]] const std::uint64_t* row(TxnId a) const {
    return bits_.data() + static_cast<std::size_t>(a) * words_;
  }
  [[nodiscard]] std::uint64_t* row(TxnId a) {
    return bits_.data() + static_cast<std::size_t>(a) * words_;
  }

  std::size_t n_{0};
  std::size_t words_{0};
  std::vector<std::uint64_t> bits_;
};

}  // namespace sia
