#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/types.hpp"

/// \file program.hpp
/// Static program abstraction used by the chopping analysis (§5) and the
/// robustness analyses (§6): each program is the code of one (possibly
/// chopped) transaction, given as pieces with read and write sets R_i^j /
/// W_i^j over-approximating the objects the piece may access.
///
/// Read/write sets come in two forms that coexist in one Piece:
///  - concrete objects (`reads` / `writes`, plain ObjIds) — the original
///    model, one interned name per object;
///  - parametric key accesses (`key_reads` / `key_writes`) — a table plus
///    one subscript expression per key dimension (`stock[w, 1..100]`),
///    over integer parameters declared on the program. The abstract-keys
///    engine (lint/abstract_keys.hpp) resolves every subscript to a
///    closed interval per dimension (KeyAccess::dims), and all static
///    analyses take their may-conflict edges from interval intersection.
/// A concrete object is exactly the degenerate zero-dimension case, so
/// suites without parameters behave bit-identically to the original
/// exact-set analyses.

namespace sia {

/// Position of a construct in its source text (1-based line and column;
/// 0 means unknown — programs built in C++ have no source). end_col is
/// one past the last column of the token, 0 when only a point is known.
/// Carried on Program/Piece so analyses over parsed suites can render
/// source-located diagnostics (tools/diagnostic.hpp).
struct SourceSpan {
  std::size_t line{0};
  std::size_t col{0};
  std::size_t end_col{0};

  [[nodiscard]] bool known() const { return line != 0; }
  [[nodiscard]] bool operator==(const SourceSpan&) const = default;
};

/// Sentinels for unbounded interval ends (−∞ / +∞ in the key domain).
inline constexpr std::int64_t kKeyMin = std::numeric_limits<std::int64_t>::min();
inline constexpr std::int64_t kKeyMax = std::numeric_limits<std::int64_t>::max();

/// One end of a subscript or parameter range, syntactically: an integer
/// literal, a parameter reference plus an integer offset (`w`, `w+1`,
/// `w-2`), or an unbounded end (`*`, rendered as ±∞ depending on side).
struct KeyTerm {
  std::int64_t literal{0};  ///< value when param < 0 and inf == 0
  std::int32_t param{-1};   ///< index into the owning Program's params
  std::int64_t offset{0};   ///< added to the parameter's bound
  std::int8_t inf{0};       ///< -1 / +1: this end is unbounded

  [[nodiscard]] bool is_param() const { return param >= 0 && inf == 0; }
  [[nodiscard]] bool operator==(const KeyTerm&) const = default;
};

/// One subscript dimension, syntactically: `lo..hi` (point expressions
/// like `w` or `7` have lo == hi; `*` has lo = −∞, hi = +∞).
struct KeyExpr {
  KeyTerm lo;
  KeyTerm hi;

  [[nodiscard]] bool operator==(const KeyExpr&) const = default;
};

/// A resolved closed integer interval of keys (the interval abstract
/// domain's non-⊥ elements; kKeyMin/kKeyMax stand for unbounded ends).
struct KeyRange {
  std::int64_t lo{kKeyMin};
  std::int64_t hi{kKeyMax};

  [[nodiscard]] bool empty() const { return lo > hi; }
  [[nodiscard]] bool intersects(const KeyRange& o) const {
    return !empty() && !o.empty() && lo <= o.hi && o.lo <= hi;
  }
  [[nodiscard]] bool operator==(const KeyRange&) const = default;
};

/// One parametric access: a table and one expression per key dimension.
/// `dims` is filled by the abstract-keys engine (one resolved interval per
/// subscript) before any analysis consumes the piece.
struct KeyAccess {
  ObjId table{kInvalidObj};   ///< interned table name (e.g. "stock")
  std::vector<KeyExpr> subs;  ///< syntactic subscripts, one per dimension
  std::vector<KeyRange> dims; ///< resolved intervals, same arity as subs
  SourceSpan span{};          ///< the access token, when parsed from text

  [[nodiscard]] bool operator==(const KeyAccess& o) const {
    return table == o.table && subs == o.subs;
  }
};

/// An integer parameter of a program (`param w in 1..100 != w2`): each
/// run-time instance of the program picks one value per parameter within
/// its range; `distinct` lists parameters this one can never equal in the
/// same instance. `resolved` is the abstract fixpoint's interval.
struct ParamDecl {
  std::string name;
  KeyTerm lo{0, -1, 0, -1};  ///< defaults to an unbounded range
  KeyTerm hi{0, -1, 0, +1};
  std::vector<std::uint32_t> distinct;
  SourceSpan span{};
  KeyRange resolved{};
};

/// One piece of a chopped transaction: the objects it may read and write.
struct Piece {
  std::string label;          ///< e.g. "acct1 = acct1 - 100"
  std::vector<ObjId> reads;   ///< R_i^j (concrete objects)
  std::vector<ObjId> writes;  ///< W_i^j (concrete objects)
  std::vector<KeyAccess> key_reads{};   ///< parametric reads
  std::vector<KeyAccess> key_writes{};  ///< parametric writes
  SourceSpan span{};          ///< the `piece` line, when parsed from text

  [[nodiscard]] bool may_read(ObjId x) const;
  [[nodiscard]] bool may_write(ObjId x) const;

  /// True when the piece touches no object, concrete or parametric.
  [[nodiscard]] bool accesses_nothing() const {
    return reads.empty() && writes.empty() && key_reads.empty() &&
           key_writes.empty();
  }
};

/// A program P_i: the code of the sessions resulting from chopping one
/// transaction into k_i pieces. A program with a single piece is an
/// unchopped transaction (the robustness analyses of §6 use those).
struct Program {
  std::string name;
  std::vector<Piece> pieces;
  std::vector<ParamDecl> params{};  ///< integer parameters, possibly empty
  SourceSpan span{};  ///< the program's name token, when parsed from text

  /// Union of the pieces' read sets (the whole transaction's read set).
  [[nodiscard]] std::vector<ObjId> read_set() const;

  /// Union of the pieces' write sets.
  [[nodiscard]] std::vector<ObjId> write_set() const;

  /// True when any piece carries a parametric key access.
  [[nodiscard]] bool parametric() const;
};

/// True when any program in the suite carries a parametric key access.
[[nodiscard]] bool any_parametric(const std::vector<Program>& programs);

/// Collapses each program to a single piece — the transaction the chopping
/// originated from. Used to compare chopped vs unchopped behaviour.
[[nodiscard]] std::vector<Program> unchop(const std::vector<Program>& programs);

}  // namespace sia
