/// \file harness.cpp
/// The benchmark's in-process driver. run.py builds it and calls one mode
/// per run:
///
///   perfbench_harness ingest   --port P --seed N --seconds S --trace 0|1
///                              --low R --high R --gc-window N --siad-pid P
///                              --trace-out FILE
///   perfbench_harness offline  --seed N --seconds S --trace 0|1
///                              --examples DIR --trace-out FILE
///   perfbench_harness selftest
///
/// Each mode prints one JSON object on the last line of stdout.

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <string>

#include "common.hpp"

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

Percentile percentile(const std::vector<double>& sorted, double q) {
  Percentile p;
  p.n = sorted.size();
  if (sorted.empty()) return p;
  // The epsilon keeps q * n from rounding up past an exact rank.
  auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(p.n) - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, p.n);
  p.value = sorted[rank - 1];
  p.beyond = p.n - rank;
  return p;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return percentile(v, 0.5).value;
}

double trimmed_mean(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t drop = v.size() >= 3 ? 1 : 0;
  double sum = 0;
  for (std::size_t i = drop; i + drop < v.size(); ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * drop);
}

double second_slowest(std::vector<double> v, bool higher_is_slower) {
  std::sort(v.begin(), v.end());
  return higher_is_slower ? v[v.size() - 2] : v[1];
}

namespace {

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double v) {
  char buf[32];
  if (std::isfinite(v)) {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  } else {
    std::snprintf(buf, sizeof(buf), "null");
  }
  return buf;
}

}  // namespace

JsonObject& JsonObject::num(const std::string& key, double v) {
  fields_.emplace_back(key, number(v));
  return *this;
}

JsonObject& JsonObject::nums(const std::string& key,
                             const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    out += (i > 0 ? ", " : "") + number(v[i]);
  }
  fields_.emplace_back(key, out + "]");
  return *this;
}

JsonObject& JsonObject::boolean(const std::string& key, bool v) {
  fields_.emplace_back(key, v ? "true" : "false");
  return *this;
}

JsonObject& JsonObject::str(const std::string& key, const std::string& v) {
  fields_.emplace_back(key, quote(v));
  return *this;
}

JsonObject& JsonObject::raw(const std::string& key, const std::string& json) {
  fields_.emplace_back(key, json);
  return *this;
}

std::string JsonObject::render() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += quote(fields_[i].first) + ": " + fields_[i].second;
  }
  return out + "}";
}

Args::Args(int argc, char** argv, int first) {
  for (int i = first; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) == 0) key = key.substr(2);
    kv_[key] = argv[i + 1];
  }
}

std::string Args::str(const std::string& key) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) throw std::runtime_error("missing --" + key);
  return it->second;
}

double Args::num(const std::string& key) const {
  return std::strtod(str(key).c_str(), nullptr);
}

std::uint32_t Tracer::name(const std::string& n) {
  const auto it = ids_.find(n);
  if (it != ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.push_back(n);
  ids_.emplace(n, id);
  return id;
}

std::int64_t Tracer::add(std::uint32_t name, std::int64_t start,
                         std::int64_t end, std::int64_t parent,
                         std::uint64_t request) {
  if (!enabled_) return -1;
  spans_.push_back(Span{name, start, end, parent, request});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void Tracer::set_end(std::int64_t span, std::int64_t end) {
  if (span >= 0) spans_[static_cast<std::size_t>(span)].end = end;
}

std::vector<double> Tracer::durations(const std::string& n) const {
  std::vector<double> out;
  const auto it = ids_.find(n);
  if (it == ids_.end()) return out;
  for (const Span& s : spans_) {
    if (s.name == it->second) out.push_back(static_cast<double>(s.end - s.start));
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  if (!enabled_ || path.empty()) return true;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "span\tname\tstart_ns\tend_ns\tparent\trequest\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu\t%s\t%lld\t%lld\t%lld\t%llu\n", i,
                 names_[s.name].c_str(), static_cast<long long>(s.start),
                 static_cast<long long>(s.end),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  return std::fclose(f) == 0;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "";
  const perfbench::Args args(argc, argv, 2);
  try {
    if (mode == "ingest") return perfbench::run_ingest(args);
    if (mode == "offline") return perfbench::run_offline(args);
    if (mode == "selftest") return perfbench::run_selftest();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
    return 3;
  }
  std::fprintf(stderr,
               "usage: perfbench_harness ingest|offline|selftest [--key value "
               "...]\n");
  return 2;
}
