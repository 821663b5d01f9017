#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "chopping/dynamic_chopping_graph.hpp"
#include "chopping/splice.hpp"
#include "graph/characterization.hpp"
#include "graph/soundness.hpp"
#include "workload/generator.hpp"

/// \file test_integration.cpp
/// End-to-end property sweeps: run random workloads through each engine
/// and assert the recorded engine-truth dependency graphs land in the
/// engine's model class (the completeness directions of Theorems 8, 9 and
/// 21), that the soundness construction round-trips SI runs, and that the
/// model hierarchy GraphSER ⊆ GraphSI ⊆ GraphPSI holds on real data.

namespace sia {
namespace {

/// One sweep point. CTest registers each case under the printed bytes of
/// its parameter (gtest_discover_tests prints a struct without
/// operator<< as a byte dump), so the struct leaves no padding to chance:
/// `name_tag` and `reserved` fill what used to be uninitialised bytes,
/// which made the registered names differ from build to build.
struct SweepParam {
  std::uint64_t seed;
  std::uint32_t keys;
  std::uint32_t name_tag;
  std::size_t sessions;
  double write_ratio;
  bool concurrent;
  std::array<std::uint8_t, 7> reserved;
};
static_assert(sizeof(SweepParam) == 40, "SweepParam must have no padding");

/// The sweep. `name_tag` holds the padding byte the cases' CTest names
/// were first registered under, so those names stay as they were. gtest
/// builds the list afresh for each TEST_P, in declaration order; the first
/// build is for SiEngineStaysInGraphSi, whose names carried other bytes.
std::vector<SweepParam> sweep_params() {
  struct Point {
    std::uint64_t seed;
    std::uint32_t keys;
    std::size_t sessions;
    double write_ratio;
    bool concurrent;
    std::uint32_t si_tag;
    std::uint32_t tag;
  };
  static constexpr Point kPoints[] = {
      {1, 4, 2, 0.5, false, 0x00, 0x40},  {2, 8, 3, 0.3, false, 0x00, 0xA0},
      {3, 2, 4, 0.7, false, 0x62, 0xF0},  {4, 16, 4, 0.5, false, 0x42, 0x00},
      {5, 6, 3, 0.9, false, 0x00, 0x00},  {6, 8, 4, 0.5, true, 0x00, 0xF0},
      {7, 4, 6, 0.4, true, 0x00, 0xF0},   {8, 12, 2, 0.2, false, 0x00, 0xA0},
      {9, 3, 3, 0.6, true, 0x00, 0x60},   {10, 5, 5, 0.5, false, 0x00, 0x00}};
  static int builds = 0;
  const bool for_si = builds++ == 0;
  std::vector<SweepParam> out;
  for (const Point& p : kPoints) {
    out.push_back({p.seed, p.keys, for_si ? p.si_tag : p.tag, p.sessions,
                   p.write_ratio, p.concurrent, {}});
  }
  return out;
}

class EngineSweep : public ::testing::TestWithParam<SweepParam> {
 protected:
  [[nodiscard]] workload::WorkloadSpec spec() const {
    const SweepParam& p = GetParam();
    workload::WorkloadSpec s;
    s.seed = p.seed;
    s.num_keys = p.keys;
    s.sessions = p.sessions;
    s.txns_per_session = 12;
    s.ops_per_txn = 4;
    s.write_ratio = p.write_ratio;
    s.concurrent = p.concurrent;
    return s;
  }
};

TEST_P(EngineSweep, SiEngineStaysInGraphSi) {
  const mvcc::RecordedRun run = workload::run_si(spec());
  ASSERT_EQ(run.graph.validate(), std::nullopt);
  EXPECT_TRUE(check_graph_si(run.graph, run.graph.relations()).member);
  EXPECT_TRUE(check_graph_psi(run.graph).member);  // hierarchy
}

TEST_P(EngineSweep, SerEngineStaysInGraphSer) {
  const mvcc::RecordedRun run = workload::run_ser(spec());
  ASSERT_EQ(run.graph.validate(), std::nullopt);
  EXPECT_TRUE(check_graph_ser(run.graph).member);
  EXPECT_TRUE(check_graph_si(run.graph).member);  // hierarchy
}

TEST_P(EngineSweep, PsiEngineStaysInGraphPsi) {
  const mvcc::RecordedRun run = workload::run_psi(spec(), 3);
  ASSERT_EQ(run.graph.validate(), std::nullopt);
  EXPECT_TRUE(check_graph_psi(run.graph).member);
}

TEST_P(EngineSweep, SoundnessRoundTripsSiRuns) {
  const mvcc::RecordedRun run = workload::run_si(spec());
  const AbstractExecution x = construct_execution(run.graph);
  const auto v = axioms::check_exec_si(x);
  EXPECT_EQ(v, std::nullopt) << (v ? v->axiom + ": " + v->detail : "");
  // The reconstructed execution carries exactly the engine's history.
  EXPECT_EQ(x.history, run.history);
}

TEST_P(EngineSweep, DynamicChoppingCriterionImpliesSpliceableHistory) {
  // Theorem 16 on real SI runs: when DCG(G) has no critical cycle, the
  // lifted graph splice(G) is a GraphSI witness for splice(H).
  workload::WorkloadSpec s = spec();
  s.sessions = 3;
  s.txns_per_session = 3;  // keep splice_graph preconditions interesting
  const mvcc::RecordedRun run = workload::run_si(s);
  const ChoppingVerdict v = check_chopping_dynamic(run.graph);
  if (!v.correct) return;  // criterion not met: no claim to check
  const DependencyGraph spliced = splice_graph(run.graph);
  EXPECT_EQ(spliced.validate(), std::nullopt);
  EXPECT_TRUE(check_graph_si(spliced).member);
  EXPECT_EQ(spliced.history(), splice_history(run.graph.history()));
}

INSTANTIATE_TEST_SUITE_P(Workloads, EngineSweep,
                         ::testing::ValuesIn(sweep_params()));

TEST(Integration, HighContentionSiRunStillSi) {
  workload::WorkloadSpec s;
  s.num_keys = 2;
  s.sessions = 6;
  s.txns_per_session = 20;
  s.ops_per_txn = 3;
  s.write_ratio = 0.8;
  s.concurrent = true;
  s.seed = 99;
  workload::RunStats stats;
  const mvcc::RecordedRun run = workload::run_si(s, &stats);
  EXPECT_EQ(stats.commits, 6u * 20u);
  // Aborted attempts (if any) must be invisible in the recorded history.
  EXPECT_EQ(run.history.txn_count(), 6u * 20u + 1u);  // + init
  EXPECT_TRUE(check_graph_si(run.graph).member);
}

TEST(Integration, ZipfWorkloadsAreSkewed) {
  workload::WorkloadSpec s;
  s.num_keys = 64;
  s.zipf_theta = 0.99;
  s.sessions = 2;
  s.txns_per_session = 200;
  s.ops_per_txn = 4;
  const workload::Script script = workload::make_script(s);
  std::size_t hot = 0;
  std::size_t total = 0;
  for (const auto& session : script) {
    for (const auto& txn : session) {
      for (const workload::ScriptedOp& op : txn) {
        ++total;
        if (op.key < 4) ++hot;
      }
    }
  }
  // With theta=0.99 over 64 keys, the 4 hottest keys draw far more than
  // the uniform 6.25% of accesses.
  EXPECT_GT(static_cast<double>(hot) / static_cast<double>(total), 0.3);
}

TEST(Integration, ScriptIsDeterministic) {
  workload::WorkloadSpec s;
  s.seed = 1234;
  EXPECT_EQ(workload::make_script(s), workload::make_script(s));
  workload::WorkloadSpec other = s;
  other.seed = 4321;
  EXPECT_NE(workload::make_script(s), workload::make_script(other));
}

TEST(Integration, SerRunsAreAlsoSiRuns) {
  // HistSER ⊆ HistSI on engine data: the SER engine's histories are
  // accepted by the SI characterisation.
  workload::WorkloadSpec s;
  s.sessions = 3;
  s.txns_per_session = 10;
  s.num_keys = 4;
  s.concurrent = false;
  const mvcc::RecordedRun run = workload::run_ser(s);
  EXPECT_TRUE(check_graph_si(run.graph).member);
  EXPECT_TRUE(check_graph_psi(run.graph).member);
}

TEST(Integration, StatsAreFilled) {
  workload::WorkloadSpec s;
  s.sessions = 2;
  s.txns_per_session = 5;
  s.concurrent = false;
  workload::RunStats stats;
  (void)workload::run_si(s, &stats);
  EXPECT_EQ(stats.commits, 10u);
  EXPECT_GE(stats.seconds, 0.0);
}

}  // namespace
}  // namespace sia
