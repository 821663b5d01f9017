/// \file offline.cpp
/// The analyze_offline workload, with no server: seeded engine-run
/// dependency graphs checked by the Theorem 8/9/21 checkers under their own
/// model (member: the fast path) and under the next-stronger one
/// (non-member: witness extraction), and sia_lint with witness search over
/// the example suites plus a generated parametric TPC-C suite.
///
/// run.py starts this mode with SIA_THREADS=1, so every call runs on the
/// calling thread and its thread CPU time is its whole cost. Untraced
/// figures are CPU times: on a shared host they do not count the time the
/// thread waited for a core, which wall time would.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "common.hpp"
#include "graph/characterization.hpp"
#include "graph/enumeration.hpp"
#include "lint/lint.hpp"
#include "witness/attach.hpp"
#include "workload/generator.hpp"

namespace perfbench {

namespace {

/// Graph sizes (transactions). Small: each bitset relation is 8 KB and
/// sits in L1. Large: 512 KB per relation, several of them live at once,
/// well past a 2 MB L2.
constexpr std::size_t kSmall = 256;
constexpr std::size_t kLarge = 2048;
/// Small-graph passes per large-graph pass in the check mix, so the
/// median check is a small one and the tail lands among the large ones.
constexpr std::size_t kSmallPerLarge = 8;
/// Lint + witness passes per untraced run.
constexpr std::size_t kLintPasses = 100;
/// An untraced run is this many rounds, each a share of the check mix, a
/// share of the lint passes and one set-up trial. The p50s and the check
/// rate are the second-slowest round's values (see second_slowest), and
/// the tails pool every round's samples at a quantile high enough to land
/// in the slower state while keeping at least ten samples beyond it.
constexpr std::size_t kRounds = 10;
constexpr double kCheckTailQ = 0.998;
constexpr double kLintTailQ = 0.9;

using EdgeKey = std::tuple<sia::TxnId, sia::TxnId, int, sia::ObjId>;

struct GraphCase {
  std::string engine;  ///< "ser" | "si" | "psi"
  std::string size;    ///< "small" | "large"
  sia::mvcc::RecordedRun run;
  std::set<EdgeKey> edges;  ///< filled lazily, for witness validation
};

struct CheckItem {
  std::size_t graph;
  sia::Model model;
  bool member;
};

/// A serial S2PL run: serializable, so a member of GraphSER.
sia::mvcc::RecordedRun ser_run(std::size_t txns, std::uint64_t seed) {
  sia::workload::WorkloadSpec spec;
  spec.sessions = 8;
  spec.txns_per_session = txns / 8;
  spec.ops_per_txn = 4;
  spec.num_keys = static_cast<std::uint32_t>(txns / 2 + 1);
  spec.write_ratio = 0.5;
  spec.seed = seed;
  spec.concurrent = false;
  return sia::workload::run_ser(spec);
}

/// An SI engine run in which every round opens two transactions on one
/// snapshot before either commits: both read x and y, one writes x, the
/// other y — a write skew, so the graph is in GraphSI but not GraphSER
/// (workload::run_si with concurrent=false runs transactions serially and
/// could never produce one). Two serial read-modify-writes follow.
sia::mvcc::RecordedRun si_run(std::size_t txns, std::uint64_t seed) {
  const auto keys = static_cast<std::uint32_t>(txns / 2 + 2);
  sia::mvcc::Recorder rec;
  sia::mvcc::SIDatabase db(keys, &rec);
  std::vector<sia::mvcc::SISession> s;
  for (int i = 0; i < 8; ++i) s.push_back(db.make_session());
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<sia::ObjId> key(0, keys - 1);
  sia::Value v = 0;
  while (rec.commit_count() < txns) {
    const std::size_t a = 2 * (rng() % 4);
    const sia::ObjId x = key(rng);
    sia::ObjId y = key(rng);
    while (y == x) y = key(rng);
    sia::mvcc::SITransaction ta = db.begin(s[a]);
    sia::mvcc::SITransaction tb = db.begin(s[a + 1]);
    (void)ta.read(x);
    (void)ta.read(y);
    (void)tb.read(x);
    (void)tb.read(y);
    ta.write(x, ++v);
    tb.write(y, ++v);
    if (!ta.commit() || !tb.commit()) {
      throw std::runtime_error("si_run: disjoint writes aborted");
    }
    for (int j = 0; j < 2; ++j) {
      sia::mvcc::SITransaction t = db.begin(s[rng() % 8]);
      for (int o = 0; o < 4; ++o) {
        const sia::ObjId k = key(rng);
        if (rng() % 2 == 0) {
          t.write(k, ++v);
        } else {
          (void)t.read(k);
        }
      }
      if (!t.commit()) throw std::runtime_error("si_run: serial txn aborted");
    }
  }
  return rec.build();
}

/// A PSI engine run over two replicas. It opens with a long fork — each
/// replica commits one write, then a reader on each replica reads both
/// keys before anything replicates — so the graph is in GraphPSI but not
/// GraphSI; random transactions follow, replicated partially as
/// workload::run_psi does. run_psi alone rarely leaves a long fork
/// in the graph: with this spec 39 of seeds 1..40 gave a member of GraphSI
/// at 256 transactions and 29 at 2048.
sia::mvcc::RecordedRun psi_run(std::size_t txns, std::uint64_t seed) {
  const auto keys = static_cast<std::uint32_t>(txns / 2 + 2);
  sia::mvcc::Recorder rec;
  sia::mvcc::PSIDatabase db(keys, 2, &rec);
  std::vector<sia::mvcc::PSISession> s;
  for (int i = 0; i < 8; ++i) {
    s.push_back(db.make_session(static_cast<sia::mvcc::ReplicaId>(i % 2)));
  }
  const auto commit = [&](sia::mvcc::PSITransaction& t) {
    if (!t.commit()) throw std::runtime_error("psi_run: long fork aborted");
  };
  {
    sia::mvcc::PSITransaction w0 = db.begin(s[0]);
    w0.write(0, 1);
    commit(w0);
    sia::mvcc::PSITransaction w1 = db.begin(s[1]);
    w1.write(1, 2);
    commit(w1);
    sia::mvcc::PSITransaction r0 = db.begin(s[2]);
    (void)r0.read(0);
    (void)r0.read(1);
    commit(r0);
    sia::mvcc::PSITransaction r1 = db.begin(s[3]);
    (void)r1.read(0);
    (void)r1.read(1);
    commit(r1);
  }
  db.pump_all();
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<sia::ObjId> key(0, keys - 1);
  sia::Value v = 2;
  for (std::size_t t = 0; rec.commit_count() < txns; ++t) {
    std::vector<std::pair<bool, sia::ObjId>> ops;
    for (int o = 0; o < 4; ++o) ops.emplace_back(rng() % 2 == 0, key(rng));
    for (int attempt = 0;; ++attempt) {
      sia::mvcc::PSITransaction txn = db.begin(s[t % 8]);
      for (const auto& [is_write, k] : ops) {
        if (is_write) {
          txn.write(k, ++v);
        } else {
          (void)txn.read(k);
        }
      }
      if (txn.commit()) break;
      if (attempt > 8) throw std::runtime_error("psi_run: cannot commit");
      db.pump_all();
    }
    if (t % 3 == 0) db.pump(static_cast<sia::mvcc::ReplicaId>(t % 2), 2);
  }
  db.pump_all();
  return rec.build();
}

/// TPC-C-shaped parametric suite. The seed picks the keyspace size (10^3
/// to 10^8 items); findings do not depend on it.
std::string tpcc_suite(std::uint64_t seed) {
  std::string items = "1";
  for (std::uint64_t i = 0; i < 3 + seed % 6; ++i) items += "0";
  return "program NewOrder {\n"
         "  param w in 1..10\n"
         "  param d in 1..10\n"
         "  param i in 1.." + items + "\n"
         "  piece \"order\" reads warehouse[w] district[w, d] writes "
         "district[w, d] orders[w, d]\n"
         "  piece \"stock\" reads stock[w, i] orders[w, d] writes "
         "stock[w, i] order_lines[w, d]\n"
         "}\n"
         "program Payment {\n"
         "  param w in 1..10\n"
         "  param d in 1..10\n"
         "  piece \"pay\" reads warehouse[w] district[w, d] writes "
         "warehouse[w] district[w, d]\n"
         "}\n"
         "program StockLevel {\n"
         "  param w in 1..10\n"
         "  param d in 1..10\n"
         "  piece \"level\" reads district[w, d] stock[w, 1.." + items +
         "] order_lines[w, d]\n"
         "}\n";
}

/// Pinned lint + witness outcome of each suite file.
struct LintExpect {
  const char* file;
  std::size_t findings;
  std::size_t witnessed;
  std::size_t refuted;
};
constexpr LintExpect kLintExpect[] = {
    {"banking.sia", 4, 3, 0},      {"banking_safe.sia", 1, 0, 0},
    {"tpcc.sia", 7, 3, 0},         {"tpcc_unsafe.sia", 5, 0, 3},
    {"tpcc_parametric.sia", 5, 3, 0},
};
constexpr const char* kExampleFiles[] = {"banking.sia", "banking_safe.sia",
                                         "tpcc.sia", "tpcc_unsafe.sia"};

struct Inputs {
  std::vector<GraphCase> graphs;
  std::vector<sia::lint::SourceFile> suites;
};

Inputs make_inputs(std::uint64_t seed, const std::string& examples) {
  Inputs in;
  for (const auto& [size, n] : {std::pair<std::string, std::size_t>{"small", kSmall},
                                {"large", kLarge}}) {
    in.graphs.push_back({"ser", size, ser_run(n, seed), {}});
    in.graphs.push_back({"si", size, si_run(n, seed), {}});
    in.graphs.push_back({"psi", size, psi_run(n, seed), {}});
  }
  for (const char* name : kExampleFiles) {
    std::ifstream f(examples + "/" + name);
    if (!f) throw std::runtime_error("cannot read " + examples + "/" + name);
    std::stringstream text;
    text << f.rdbuf();
    in.suites.push_back({name, text.str()});
  }
  in.suites.push_back({"tpcc_parametric.sia", tpcc_suite(seed)});
  return in;
}

/// CPU seconds to make the inputs once: the set-up the benchmark times.
double time_setup(std::uint64_t seed, const std::string& examples) {
  const std::int64_t t0 = thread_cpu_ns();
  const Inputs in = make_inputs(seed, examples);
  return static_cast<double>(thread_cpu_ns() - t0) / 1e9;
}

std::vector<CheckItem> check_mix(const Inputs& in) {
  std::vector<CheckItem> items;
  std::vector<CheckItem> large;
  for (std::size_t g = 0; g < in.graphs.size(); ++g) {
    const GraphCase& c = in.graphs[g];
    std::vector<CheckItem>& dst = c.size == "small" ? items : large;
    if (c.engine == "ser") dst.push_back({g, sia::Model::kSER, true});
    if (c.engine == "si") {
      dst.push_back({g, sia::Model::kSI, true});
      dst.push_back({g, sia::Model::kSER, false});
    }
    if (c.engine == "psi") {
      dst.push_back({g, sia::Model::kPSI, true});
      dst.push_back({g, sia::Model::kSI, false});
    }
  }
  std::vector<CheckItem> mix;
  for (std::size_t r = 0; r < kSmallPerLarge; ++r) {
    mix.insert(mix.end(), items.begin(), items.end());
  }
  mix.insert(mix.end(), large.begin(), large.end());
  return mix;
}

std::string model_name(sia::Model m) {
  switch (m) {
    case sia::Model::kSER: return "ser";
    case sia::Model::kSI: return "si";
    case sia::Model::kPSI: return "psi";
  }
  return "?";
}

/// The verdict must be the asserted one, and a witness must be a closed
/// cycle of edges that exist in the graph.
bool verify(GraphCase& g, const CheckItem& item, const sia::GraphCheck& res,
            std::string& why) {
  const std::string label = g.engine + "." + g.size + " under " +
                            model_name(item.model);
  if (res.member != item.member) {
    why += label + ": wrong verdict; ";
    return false;
  }
  if (res.member) return true;
  if (res.witness.empty()) {
    why += label + ": no witness cycle; ";
    return false;
  }
  if (g.edges.empty()) {
    for (const sia::DepEdge& e : g.run.graph.edges()) {
      g.edges.emplace(e.from, e.to, static_cast<int>(e.kind), e.obj);
    }
  }
  for (std::size_t i = 0; i < res.witness.size(); ++i) {
    const sia::DepEdge& e = res.witness[i];
    const sia::DepEdge& next = res.witness[(i + 1) % res.witness.size()];
    if (e.to != next.from ||
        g.edges.count({e.from, e.to, static_cast<int>(e.kind), e.obj}) == 0) {
      why += label + ": witness is not a cycle of graph edges; ";
      return false;
    }
  }
  return true;
}

sia::GraphCheck check(const sia::DependencyGraph& g,
                      const sia::DepRelations& rel, sia::Model m) {
  switch (m) {
    case sia::Model::kSER: return sia::check_graph_ser(g, rel);
    case sia::Model::kSI: return sia::check_graph_si(g, rel);
    case sia::Model::kPSI: return sia::check_graph_psi(g, rel);
  }
  throw std::runtime_error("unknown model");
}

struct MixResult {
  std::vector<double> op_ms;  ///< relations() + check, CPU time per check
  double busy_s{0};           ///< CPU time of all checks
  double total_s{0};          ///< CPU time of the whole loop, tracing included
  std::size_t cycles{0};
};

/// Runs whole passes of the check mix until \p seconds have passed (or
/// exactly \p cycles passes when given). Spans name the layer, model,
/// verdict path and size: "check.member.si.small", "relations.large".
MixResult run_mix(Inputs& in, const std::vector<CheckItem>& mix,
                  double seconds, std::size_t cycles, Tracer& tracer,
                  bool& correct, std::string& why) {
  MixResult out;
  const std::int64_t stop = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  const std::int64_t start_cpu = thread_cpu_ns();
  std::uint64_t request = 0;
  while (cycles > 0 ? out.cycles < cycles : now_ns() < stop) {
    for (const CheckItem& item : mix) {
      GraphCase& g = in.graphs[item.graph];
      const std::int64_t c0 = thread_cpu_ns();
      const std::int64_t t0 = now_ns();
      const sia::DepRelations rel = g.run.graph.relations();
      const std::int64_t t1 = now_ns();
      const sia::GraphCheck res = check(g.run.graph, rel, item.model);
      const std::int64_t t2 = now_ns();
      const std::int64_t cpu = thread_cpu_ns() - c0;
      if (tracer.enabled()) {
        const std::string path = item.member ? "member" : "witness";
        const std::int64_t root =
            tracer.add(tracer.name("check_graph"), t0, t2, -1, request);
        tracer.add(tracer.name("relations." + g.size), t0, t1, root, request);
        tracer.add(tracer.name("check." + path + "." + model_name(item.model) +
                               "." + g.size),
                   t1, t2, root, request);
      }
      ++request;
      out.op_ms.push_back(static_cast<double>(cpu) / 1e6);
      out.busy_s += static_cast<double>(cpu) / 1e9;
      if (!verify(g, item, res, why)) correct = false;
    }
    ++out.cycles;
  }
  out.total_s = static_cast<double>(thread_cpu_ns() - start_cpu) / 1e9;
  return out;
}

/// Checks a lint run against the pinned expectations.
void verify_lint(const sia::lint::LintRun& run, bool& correct,
                 std::string& why) {
  if (!correct) return;  // report the first mismatching pass only
  for (const LintExpect& e : kLintExpect) {
    const auto it = std::find_if(run.files.begin(), run.files.end(),
                                 [&](const sia::lint::FileResult& f) {
                                   return f.file == e.file;
                                 });
    if (it == run.files.end()) {
      correct = false;
      why += std::string(e.file) + ": not linted; ";
      continue;
    }
    const sia::DiagnosticCounts counts = sia::count_diagnostics(it->diagnostics);
    std::size_t witnessed = 0;
    std::size_t refuted = 0;
    for (const sia::Diagnostic& d : it->diagnostics) {
      if (!d.witness) continue;
      (d.witness->status == "witnessed" ? witnessed : refuted) += 1;
    }
    const std::size_t findings = counts.errors + counts.warnings;
    if (findings != e.findings || witnessed != e.witnessed ||
        refuted != e.refuted || it->parse_failed) {
      correct = false;
      why += std::string(e.file) + ": " + std::to_string(findings) +
             " findings, " + std::to_string(witnessed) + " witnessed, " +
             std::to_string(refuted) + " refuted; ";
    }
  }
}

/// One lint + witness pass the way sia_lint --witness runs it; returns
/// its CPU time in ms.
double lint_pass(const Inputs& in, bool& correct, std::string& why) {
  const std::int64_t t0 = thread_cpu_ns();
  sia::lint::LintRun run = sia::lint::run_lint(in.suites, {});
  (void)sia::witness::attach_witnesses(run, {});
  const std::int64_t t1 = thread_cpu_ns();
  verify_lint(run, correct, why);
  return static_cast<double>(t1 - t0) / 1e6;
}

/// The same pass decomposed into the layers' public calls, each a span:
/// parse_programs, run_checks per registry check, attach_witnesses.
sia::witness::AttachStats traced_lint_pass(const Inputs& in, Tracer& tracer,
                                           std::uint64_t request, bool& correct,
                                           std::string& why) {
  const std::int64_t t0 = now_ns();
  const std::int64_t root = tracer.add(tracer.name("lint.pass"), t0, 0, -1, request);
  sia::lint::LintRun run;
  for (const sia::lint::SourceFile& f : in.suites) {
    sia::lint::FileResult fr;
    fr.file = f.path;
    fr.source = f.text;
    sia::lint::SuiteContext ctx;
    ctx.file = f.path;
    ctx.source = f.text;
    const std::int64_t p0 = now_ns();
    ctx.suite = sia::parse_programs(f.text);
    tracer.add(tracer.name("lint.parse"), p0, now_ns(), root, request);
    for (const sia::lint::CheckInfo& c : sia::lint::all_checks()) {
      const std::int64_t c0 = now_ns();
      std::vector<sia::Diagnostic> found =
          sia::lint::run_checks(ctx, sia::lint::CheckOptions{}, {c.id}, nullptr);
      tracer.add(tracer.name(std::string("lint.check.") + c.id), c0, now_ns(),
                 root, request);
      fr.diagnostics.insert(fr.diagnostics.end(), found.begin(), found.end());
    }
    run.files.push_back(std::move(fr));
  }
  const std::int64_t w0 = now_ns();
  const sia::witness::AttachStats stats = sia::witness::attach_witnesses(run, {});
  const std::int64_t w1 = now_ns();
  tracer.add(tracer.name("witness.attach"), w0, w1, root, request);
  tracer.set_end(root, w1);
  verify_lint(run, correct, why);
  return stats;
}

/// p50 is the second-slowest round's median; the tail pools every sample.
std::string summary_json(std::vector<double> v,
                         const std::vector<double>& round_p50, double tail) {
  std::sort(v.begin(), v.end());
  const Percentile t = percentile(v, tail);
  JsonObject o;
  o.num("n", static_cast<double>(v.size()))
      .num("rounds", static_cast<double>(round_p50.size()))
      .num("p50_ms", second_slowest(round_p50, true))
      .nums("round_p50_ms", round_p50)
      .num("tail_q", tail)
      .num("tail_ms", t.value)
      .num("tail_beyond", static_cast<double>(t.beyond));
  return o.render();
}

double median_ms(const Tracer& tracer, const std::string& name) {
  return median(tracer.durations(name)) / 1e6;
}

}  // namespace

int run_offline(const Args& args) {
  const auto seed = static_cast<std::uint64_t>(args.num("seed"));
  const double seconds = args.num("seconds");
  const bool trace = args.num("trace") != 0;
  const std::string examples = args.str("examples");

  // Set-up: generating the graphs and reading the suites (CPU time, like
  // every offline figure).
  const std::int64_t setup0 = thread_cpu_ns();
  Inputs in = make_inputs(seed, examples);
  std::vector<double> setup_s{static_cast<double>(thread_cpu_ns() - setup0) / 1e9};
  const std::vector<CheckItem> mix = check_mix(in);

  bool correct = true;
  std::string why;
  Tracer tracer(trace);
  Tracer off(false);
  JsonObject out;
  if (!trace) {
    // A fixed count of lint passes, so the tail percentile is always the
    // same one: 100 samples support p90 (ten beyond it), not p99.
    std::vector<double> check_ms, lint_ms, check_p50, lint_p50, rate;
    for (std::size_t r = 0; r < kRounds; ++r) {
      const MixResult part = run_mix(in, mix, 0.5 * seconds / kRounds, 0, off,
                                     correct, why);
      check_ms.insert(check_ms.end(), part.op_ms.begin(), part.op_ms.end());
      check_p50.push_back(median(part.op_ms));
      rate.push_back(static_cast<double>(part.op_ms.size()) / part.busy_s);
      std::vector<double> lint_round;
      for (std::size_t i = 0; i < kLintPasses / kRounds; ++i) {
        lint_round.push_back(lint_pass(in, correct, why));
      }
      lint_ms.insert(lint_ms.end(), lint_round.begin(), lint_round.end());
      lint_p50.push_back(median(lint_round));
      setup_s.push_back(time_setup(seed, examples));
    }
    out.raw("checks", summary_json(check_ms, check_p50, kCheckTailQ))
        .num("check_graphs_per_s", second_slowest(rate, false))
        .nums("round_check_graphs_per_s", rate)
        .nums("lint_pass_ms", lint_ms)
        .raw("lint", summary_json(lint_ms, lint_p50, kLintTailQ))
        .num("attempted", static_cast<double>(check_ms.size() + lint_ms.size()));
  } else {
    const MixResult plain = run_mix(in, mix, 0.2 * seconds, 0, off, correct, why);
    const MixResult traced =
        run_mix(in, mix, 0, plain.cycles, tracer, correct, why);
    sia::witness::AttachStats totals;
    std::size_t passes = 0;
    const std::int64_t stop = now_ns() + static_cast<std::int64_t>(0.4 * seconds * 1e9);
    while (now_ns() < stop) {
      const sia::witness::AttachStats s =
          traced_lint_pass(in, tracer, passes, correct, why);
      totals.eligible += s.eligible;
      totals.witnessed += s.witnessed;
      totals.schedules_explored += s.schedules_explored;
      ++passes;
    }
    // Per-pass sums of the per-file lint spans.
    const auto per_pass_ms = [&](const std::string& name) {
      std::vector<double> d = tracer.durations(name);
      double total = 0;
      for (const double x : d) total += x;
      return passes > 0 ? total / static_cast<double>(passes) / 1e6 : 0.0;
    };
    JsonObject layers;
    for (const char* size : {"small", "large"}) {
      layers.num(std::string("check.relations_ms.") + size,
                 median_ms(tracer, std::string("relations.") + size));
      for (const char* m : {"ser", "si", "psi"}) {
        layers.num(std::string("check.member_ms.") + m + "." + size,
                   median_ms(tracer, std::string("check.member.") + m + "." + size));
      }
      for (const char* m : {"ser", "si"}) {
        layers.num(std::string("check.witness_ms.") + m + "." + size,
                   median_ms(tracer, std::string("check.witness.") + m + "." + size));
      }
    }
    layers.num("lint.parse_ms", per_pass_ms("lint.parse"));
    for (const sia::lint::CheckInfo& c : sia::lint::all_checks()) {
      layers.num(std::string("lint.check_ms.") + c.id,
                 per_pass_ms(std::string("lint.check.") + c.id));
    }
    layers.num("witness.attach_ms", median_ms(tracer, "witness.attach"))
        .num("witness.schedules",
             passes > 0 ? static_cast<double>(totals.schedules_explored) /
                              static_cast<double>(passes)
                        : 0)
        .num("witness.witnessed_frac",
             totals.eligible > 0 ? static_cast<double>(totals.witnessed) /
                                       static_cast<double>(totals.eligible)
                                 : 0)
        .num("bench.trace_overhead_frac",
             plain.total_s > 0 ? traced.total_s / plain.total_s - 1 : 0);
    out.raw("layers", layers.render())
        .num("attempted", static_cast<double>(plain.op_ms.size() + traced.op_ms.size() + passes));
    if (!tracer.write(args.str("trace-out"))) {
      throw std::runtime_error("cannot write the trace file");
    }
  }
  JsonObject constants;
  constants.num("small_txns", kSmall)
      .num("large_txns", kLarge)
      .num("small_passes_per_large", kSmallPerLarge)
      .num("lint_passes", kLintPasses)
      .num("setup_trials", static_cast<double>(setup_s.size()));
  out.raw("constants", constants.render())
      .num("setup_s", median(setup_s))
      .num("peak_rss_mb", peak_rss_mb())
      .num("failed", 0)
      .boolean("correct", correct)
      .str("why", why);
  std::printf("%s\n", out.render().c_str());
  return correct ? 0 : 1;
}

}  // namespace perfbench
