#pragma once

/// \file common.hpp
/// Pieces shared by the harness's modes: the clock, the percentile rule,
/// a flat JSON object writer, command-line options and the in-memory span
/// recorder of traced runs.

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench {

[[nodiscard]] std::int64_t now_ns();
/// CPU time of the calling thread.
[[nodiscard]] std::int64_t thread_cpu_ns();

/// A nearest-rank percentile and how many samples lie beyond it. The
/// reporting rule: a percentile is supported only when at least ten
/// samples lie beyond it.
struct Percentile {
  double value{0};
  std::size_t n{0};
  std::size_t beyond{0};
  [[nodiscard]] bool supported() const { return beyond >= 10; }
};

/// Nearest-rank \p q-quantile (0 < q < 1) of an ascending sample.
[[nodiscard]] Percentile percentile(const std::vector<double>& sorted,
                                    double q);

/// Median of a sample (sorts a copy); 0 for an empty one.
[[nodiscard]] double median(std::vector<double> v);
/// Mean without the highest and the lowest value (all values when there
/// are fewer than three); 0 for an empty sample.
[[nodiscard]] double trimmed_mean(std::vector<double> v);
/// The second-slowest of per-round values (at least two): the second
/// highest when \p higher_is_slower, else the second lowest. A shared host
/// runs this code at one speed for seconds to minutes, then at another up
/// to 1.6x slower; every run of ten spread-out rounds spends some rounds
/// in the slower state and not every run reaches the faster one, so the
/// figures describe the slower state.
[[nodiscard]] double second_slowest(std::vector<double> v,
                                    bool higher_is_slower);

/// Insertion-ordered JSON object; values are rendered as they are added.
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v);
  JsonObject& nums(const std::string& key, const std::vector<double>& v);
  JsonObject& boolean(const std::string& key, bool v);
  JsonObject& str(const std::string& key, const std::string& v);
  JsonObject& raw(const std::string& key, const std::string& json);
  [[nodiscard]] std::string render() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// `--key value` options after the mode word. Every option a mode reads
/// is required: run.py passes each one, so there is no default to drift
/// from the value in use.
class Args {
 public:
  Args(int argc, char** argv, int first);
  /// The option's value; throws when it was not given.
  [[nodiscard]] std::string str(const std::string& key) const;
  [[nodiscard]] double num(const std::string& key) const;

 private:
  std::map<std::string, std::string> kv_;
};

/// One traced interval. `parent` indexes the span that caused it (-1 for a
/// root); spans of one request share `request`.
struct Span {
  std::uint32_t name{0};
  std::int64_t start{0};
  std::int64_t end{0};
  std::int64_t parent{-1};
  std::uint64_t request{0};
};

/// Keeps spans in memory and writes them out as TSV when the run ends. A
/// disabled tracer records nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  [[nodiscard]] bool enabled() const { return enabled_; }
  /// Interns a span name.
  [[nodiscard]] std::uint32_t name(const std::string& n);
  /// Records a span and returns its index (-1 when disabled).
  std::int64_t add(std::uint32_t name, std::int64_t start, std::int64_t end,
                   std::int64_t parent, std::uint64_t request);
  void set_end(std::int64_t span, std::int64_t end);
  /// Durations in nanoseconds of every span called \p n, in record order.
  [[nodiscard]] std::vector<double> durations(const std::string& n) const;
  bool write(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, std::uint32_t> ids_;
  std::vector<Span> spans_;
};

/// Peak resident set of this process (VmHWM), in MB.
[[nodiscard]] double peak_rss_mb();

// The harness modes. Each prints one JSON object as its last stdout line
// and exits 0 only when every correctness check passed.
int run_ingest(const Args& args);
int run_offline(const Args& args);
int run_selftest();

}  // namespace perfbench
