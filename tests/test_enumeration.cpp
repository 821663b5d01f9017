#include "graph/enumeration.hpp"

#include <gtest/gtest.h>

#include <random>

#include "chopping/splice.hpp"
#include "support/random_history.hpp"
#include "support/reference_deciders.hpp"
#include "workload/paper_examples.hpp"

namespace sia {
namespace {

constexpr ObjId kX = 0;

TEST(Enumeration, CountsWwPermutations) {
  // Three writers of one object, no reads: 3! = 6 extensions.
  History h;
  for (int i = 0; i < 3; ++i) {
    h.append_singleton(Transaction({write(kX, i)}));
  }
  std::size_t count = 0;
  const std::size_t total =
      enumerate_dependency_graphs(h, [&](const DependencyGraph& g) {
        EXPECT_EQ(g.validate(), std::nullopt);
        ++count;
        return true;
      });
  EXPECT_EQ(count, 6u);
  EXPECT_EQ(total, 6u);
}

TEST(Enumeration, CountsReadSourceChoices) {
  // Two writers of the same value, one reader: 2 WR choices x 2 WW orders.
  History h;
  h.append_singleton(Transaction({write(kX, 7)}));
  h.append_singleton(Transaction({write(kX, 7)}));
  h.append_singleton(Transaction({read(kX, 7)}));
  const std::size_t total = enumerate_dependency_graphs(
      h, [](const DependencyGraph&) { return true; });
  EXPECT_EQ(total, 4u);
}

TEST(Enumeration, NoExtensionWhenValueUnwritten) {
  History h;
  h.append_singleton(Transaction({write(kX, 1)}));
  h.append_singleton(Transaction({read(kX, 42)}));
  const std::size_t total = enumerate_dependency_graphs(
      h, [](const DependencyGraph&) { return true; });
  EXPECT_EQ(total, 0u);
  EXPECT_FALSE(decide_history(h, Model::kSI).allowed);
}

TEST(Enumeration, StopsEarlyWhenVisitorReturnsFalse) {
  History h;
  for (int i = 0; i < 4; ++i) {
    h.append_singleton(Transaction({write(kX, i)}));
  }
  std::size_t seen = 0;
  const std::size_t total =
      enumerate_dependency_graphs(h, [&](const DependencyGraph&) {
        ++seen;
        return seen < 3;
      });
  EXPECT_EQ(seen, 3u);
  EXPECT_EQ(total, 3u);
}

TEST(Enumeration, EmptyHistoryHasOneExtension) {
  const std::size_t total = enumerate_dependency_graphs(
      History{}, [](const DependencyGraph&) { return true; });
  EXPECT_EQ(total, 1u);
  EXPECT_TRUE(decide_history(History{}, Model::kSER).allowed);
}

TEST(Enumeration, DecideHistoryCountsTriedGraphs) {
  const auto b = paper::fig2b_lost_update();
  const HistDecision dec = decide_history(b.history, Model::kSI);
  EXPECT_FALSE(dec.allowed);
  // All extensions were examined: 3! WW orders of {init, T1, T2}; the WR
  // sources are forced to the init transaction.
  EXPECT_EQ(dec.graphs_tried, 6u);
}

TEST(Enumeration, SelfReadsNeverEnumerated) {
  // A transaction reading the value it later writes cannot read from
  // itself (Definition 6 requires T ≠ S); with no other writer of that
  // value there is no extension.
  History h;
  h.append_singleton(Transaction({read(kX, 5), write(kX, 5)}));
  const std::size_t total = enumerate_dependency_graphs(
      h, [](const DependencyGraph&) { return true; });
  EXPECT_EQ(total, 0u);
}

/// decide_history must agree with the per-graph-rebuild oracle on the
/// verdict, the number of graphs tried and the witness graph itself.
void expect_same_decision(const History& h, Model m) {
  const HistDecision fast = decide_history(h, m);
  const HistDecision ref = decide_history_reference(h, m);
  EXPECT_EQ(fast.allowed, ref.allowed) << to_string(m) << "\n" << to_string(h);
  EXPECT_EQ(fast.graphs_tried, ref.graphs_tried)
      << to_string(m) << "\n" << to_string(h);
  EXPECT_EQ(fast.witness, ref.witness) << to_string(m) << "\n" << to_string(h);
}

constexpr Model kModels[] = {Model::kSER, Model::kSI, Model::kPSI};

TEST(Enumeration, IntViolationCountsEveryExtension) {
  // T1 writes x = 1 and then reads x = 2: INT fails for every extension,
  // yet all 2 WR choices x 3! WW orders are still counted as tried.
  History h;
  h.append_singleton(Transaction({write(kX, 2)}));
  h.append_singleton(Transaction({write(kX, 1), read(kX, 2)}));
  h.append_singleton(Transaction({write(kX, 2)}));
  h.append_singleton(Transaction({read(kX, 2)}));
  ASSERT_TRUE(axioms::check_int(h).has_value());
  for (const Model m : kModels) {
    const HistDecision dec = decide_history(h, m);
    EXPECT_FALSE(dec.allowed);
    EXPECT_FALSE(dec.witness.has_value());
    EXPECT_EQ(dec.graphs_tried, 12u);
    expect_same_decision(h, m);
  }
}

TEST(Enumeration, PaperHistoriesMatchReference) {
  const paper::NamedHistory histories[] = {
      paper::fig2a_session_guarantee(), paper::fig2b_lost_update(),
      paper::fig2c_long_fork(), paper::fig2d_write_skew()};
  for (const paper::NamedHistory& nh : histories) {
    for (const Model m : kModels) {
      expect_same_decision(nh.history, m);
      expect_same_decision(splice_history(nh.history), m);
    }
  }
}

/// Extensions of \p h by Definition 6, counted without enumerating them:
/// for each external read the writers of the value read (other than the
/// reader), times the orderings of each object's writers.
std::size_t extension_count(const History& h) {
  std::size_t total = 1;
  for (TxnId s = 0; s < h.txn_count(); ++s) {
    for (ObjId x : h.txn(s).external_read_set()) {
      const std::optional<Value> v = h.txn(s).external_read(x);
      std::size_t sources = 0;
      for (TxnId t : h.writers_of(x)) {
        if (t != s && h.txn(t).final_write(x) == v) ++sources;
      }
      total *= sources;
    }
  }
  for (ObjId x : h.objects()) {
    for (std::size_t k = 2; k <= h.writers_of(x).size(); ++k) total *= k;
  }
  return total;
}

/// The oracle rebuilds every graph, about a microsecond each even when
/// INT fails, and a few random histories have tens of millions of
/// extensions; the differential compares the histories below this bound.
constexpr std::size_t kOracleExtensions = 50'000;

std::vector<History> sweep_histories(int seed) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(seed) * 7919 + 3);
  std::vector<History> out;
  for (int round = 0; round < 30; ++round) out.push_back(random_history(rng));
  return out;
}

class FuzzSweep : public ::testing::TestWithParam<int> {};

TEST_P(FuzzSweep, DecideHistoryMatchesReferenceBitForBit) {
  for (const History& h : sweep_histories(GetParam())) {
    if (extension_count(h) > kOracleExtensions) continue;
    for (const Model m : kModels) expect_same_decision(h, m);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSweep, ::testing::Range(0, 12));

TEST(Enumeration, FuzzSweepCoversEveryOutcome) {
  // The sweep reaches every branch of decide_history: INT violations,
  // histories with no extension, members and non-members. On an INT
  // violation every extension counts as tried, however many there are.
  std::size_t int_violations = 0, no_extension = 0, allowed = 0, refused = 0;
  std::size_t compared = 0;
  for (int seed = 0; seed < 12; ++seed) {
    for (const History& h : sweep_histories(seed)) {
      if (extension_count(h) <= kOracleExtensions) ++compared;
      const HistDecision dec = decide_history(h, Model::kSI);
      if (axioms::check_int(h)) {
        ++int_violations;
        EXPECT_FALSE(dec.allowed) << to_string(h);
        EXPECT_EQ(dec.graphs_tried, extension_count(h)) << to_string(h);
      } else if (dec.graphs_tried == 0) {
        ++no_extension;
        EXPECT_EQ(extension_count(h), 0u) << to_string(h);
      } else {
        ++(dec.allowed ? allowed : refused);
      }
    }
  }
  EXPECT_GE(compared, 12u * 30u * 9u / 10u);  // the bound drops few
  EXPECT_GT(int_violations, 0u);
  EXPECT_GT(no_extension, 0u);
  EXPECT_GT(allowed, 0u);
  EXPECT_GT(refused, 0u);
}

}  // namespace
}  // namespace sia
