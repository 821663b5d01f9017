/// \file bench_theorem9_checker.cpp
/// Experiment E8 — Theorem 9 at scale: the GraphSI membership check
/// (acyclicity of (SO ∪ WR ∪ WW) ; RW?) on engine-generated histories of
/// growing size, against the GraphSER and GraphPSI checks on the same
/// inputs. Demonstrates that the dependency-graph characterisation turns
/// SI checking into cheap relation algebra: near-quadratic growth, with
/// PSI's transitive closure the most expensive of the three.

#include "bench_util.hpp"
#include "core/parallel.hpp"
#include "graph/characterization.hpp"
#include "support/reference_checkers.hpp"
#include "workload/generator.hpp"

namespace sia {
namespace {

mvcc::RecordedRun make_run(std::size_t txns) {
  workload::WorkloadSpec spec;
  spec.sessions = 8;
  spec.txns_per_session = txns / 8;
  spec.ops_per_txn = 4;
  spec.num_keys = static_cast<std::uint32_t>(txns / 2 + 1);
  spec.write_ratio = 0.5;
  spec.concurrent = false;
  spec.seed = txns;
  return workload::run_si(spec);
}

bool reproduction_table() {
  bench::header("E8", "Theorem 9 checker scaling (engine histories)");
  std::vector<bench::VerdictRow> rows;
  for (const std::size_t n : {64u, 256u, 1024u}) {
    const mvcc::RecordedRun run = make_run(n);
    rows.push_back({"SI run of " + std::to_string(run.history.txn_count()) +
                        " txns in GraphSI",
                    "yes", check_graph_si(run.graph).member ? "yes" : "no"});
  }
  return bench::print_verdicts(rows);
}

/// Old-vs-new sweep over the relation kernels and the Theorem 9/21
/// checkers; persists BENCH_relation_kernels.json next to the cwd. "Old"
/// is the serial kernel / materialising reference checker the repo shipped
/// with; "new" is the dispatched kernel / implicit-edge fast path.
void kernel_sweep() {
  bench::header("E8b", "relation kernels & checkers, old vs new");
  std::vector<bench::KernelRow> rows;
  for (const std::size_t n : {256UL, 1024UL, 4096UL, 8192UL}) {
    const mvcc::RecordedRun run = make_run(n);
    const DepRelations rel = run.graph.relations();
    const Relation d = rel.dependencies();

    rows.push_back(
        {"compose(D, RW)", n,
         bench::time_best_ns(
             [&] { benchmark::DoNotOptimize(d.compose_serial(rel.rw)); }),
         bench::time_best_ns(
             [&] { benchmark::DoNotOptimize(d.compose(rel.rw)); })});

    // The serial Warshall is O(n^3/64); keep its largest run affordable.
    if (n <= 4096) {
      rows.push_back(
          {"transitive_closure(D)", n,
           bench::time_best_ns(
               [&] {
                 benchmark::DoNotOptimize(d.transitive_closure_serial());
               },
               /*budget_ns=*/5e8, /*max_reps=*/3),
           bench::time_best_ns(
               [&] { benchmark::DoNotOptimize(d.transitive_closure()); },
               /*budget_ns=*/5e8, /*max_reps=*/3)});
    }

    rows.push_back(
        {"check_graph_si", n,
         bench::time_best_ns([&] {
           benchmark::DoNotOptimize(
               check_graph_si_reference(run.graph, rel).member);
         }),
         bench::time_best_ns([&] {
           benchmark::DoNotOptimize(check_graph_si(run.graph, rel).member);
         })});

    // The reference PSI check materialises the closure — cap it too.
    if (n <= 4096) {
      rows.push_back(
          {"check_graph_psi", n,
           bench::time_best_ns(
               [&] {
                 benchmark::DoNotOptimize(
                     check_graph_psi_reference(run.graph, rel).member);
               },
               /*budget_ns=*/5e8, /*max_reps=*/3),
           bench::time_best_ns([&] {
             benchmark::DoNotOptimize(check_graph_psi(run.graph, rel).member);
           })});
    }
  }
  bench::print_kernel_rows(rows);
  bench::write_kernel_json("BENCH_relation_kernels.json", "relation_kernels",
                           parallel_thread_count(), rows);
}

bool table_and_sweep() {
  const bool reproduced = reproduction_table();
  kernel_sweep();
  return reproduced;
}

void BM_CheckGraphSi(benchmark::State& state) {
  const mvcc::RecordedRun run = make_run(static_cast<std::size_t>(state.range(0)));
  const DepRelations rel = run.graph.relations();
  for (auto _ : state) {
    benchmark::DoNotOptimize(check_graph_si(run.graph, rel).member);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_CheckGraphSi)->RangeMultiplier(4)->Range(64, 8192)->Complexity();

void BM_CheckGraphSiReference(benchmark::State& state) {
  const mvcc::RecordedRun run =
      make_run(static_cast<std::size_t>(state.range(0)));
  const DepRelations rel = run.graph.relations();
  for (auto _ : state) {
    benchmark::DoNotOptimize(check_graph_si_reference(run.graph, rel).member);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_CheckGraphSiReference)
    ->RangeMultiplier(4)
    ->Range(64, 8192)
    ->Complexity();

void BM_CheckGraphSer(benchmark::State& state) {
  const mvcc::RecordedRun run = make_run(static_cast<std::size_t>(state.range(0)));
  const DepRelations rel = run.graph.relations();
  for (auto _ : state) {
    benchmark::DoNotOptimize(check_graph_ser(run.graph, rel).member);
  }
}
BENCHMARK(BM_CheckGraphSer)->RangeMultiplier(4)->Range(64, 4096);

void BM_CheckGraphPsi(benchmark::State& state) {
  const mvcc::RecordedRun run = make_run(static_cast<std::size_t>(state.range(0)));
  const DepRelations rel = run.graph.relations();
  for (auto _ : state) {
    benchmark::DoNotOptimize(check_graph_psi(run.graph, rel).member);
  }
}
BENCHMARK(BM_CheckGraphPsi)->RangeMultiplier(4)->Range(64, 8192);

void BM_RelationsExtraction(benchmark::State& state) {
  const mvcc::RecordedRun run = make_run(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(run.graph.relations().rw.edge_count());
  }
}
BENCHMARK(BM_RelationsExtraction)->RangeMultiplier(4)->Range(64, 1024);

}  // namespace
}  // namespace sia

SIA_BENCH_MAIN(sia::table_and_sweep)
