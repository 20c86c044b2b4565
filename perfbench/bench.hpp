// Shared plumbing of the perfbench driver: options, wall clock, exact
// sample quantiles, the result record and its JSON rendering, and the
// benchmark-side plug-in decorator that times the green ranking layer
// from outside the program.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "diet/plugin.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Busy-waits for `d`: the layer-sensitivity probes add known work this way.
inline void spin(Clock::duration d) {
  const auto until = Clock::now() + d;
  while (Clock::now() < until) {
  }
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Layer-sensitivity perturbation ("" = none); see README.md.
  std::string perturb;
};

/// Thrown when a program output fails a check; the run then reports
/// correct=false and exits non-zero.
struct CheckFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

inline void check(bool ok, const std::string& what) {
  if (!ok) throw CheckFailure(what);
}

/// Exact quantile of recorded samples (linear interpolation between the
/// two closest order statistics, numpy's default).  Sorts `v`.
[[nodiscard]] inline double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

[[nodiscard]] inline double median(std::vector<double> v) { return quantile(v, 0.5); }

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Extra facts printed before the result line (never part of it).
  std::vector<std::pair<std::string, std::string>> notes;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string key, std::string value) {
    notes.emplace_back(std::move(key), std::move(value));
  }
};

[[nodiscard]] std::string to_json(const Result& result);
[[nodiscard]] std::string hex64(std::uint64_t v);
[[nodiscard]] double peak_rss_mb();

/// Benchmark-side decorator around the installed ranking policy.  It
/// forwards every call unchanged (so the elected sequence cannot move)
/// and adds the wall time of each aggregate() call to `rank_seconds`.
/// Two layer-sensitivity probes live here: `slow_estimate` adds 100 ns to
/// every per-SED estimate() call, and `slow_rank` busy-waits after each
/// aggregate() for as long as the ranking took, doubling the green
/// layer's time.
class TimedRanking : public greensched::diet::PluginScheduler {
 public:
  TimedRanking(const greensched::diet::PluginScheduler& inner, bool slow_estimate,
               bool slow_rank)
      : inner_(inner), slow_estimate_(slow_estimate), slow_rank_(slow_rank) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  void estimate(greensched::diet::EstimationVector& est,
                const greensched::diet::Request& request) const override {
    if (slow_estimate_) spin(std::chrono::nanoseconds(100));
    inner_.estimate(est, request);
  }
  void aggregate(std::vector<greensched::diet::Candidate>& candidates,
                 const greensched::diet::Request& request) const override {
    const auto t0 = Clock::now();
    inner_.aggregate(candidates, request);
    if (slow_rank_) spin(Clock::now() - t0);
    rank_seconds += seconds_between(t0, Clock::now());
    rank_candidates += candidates.size();
    ++rank_calls;
  }
  [[nodiscard]] std::unique_ptr<greensched::diet::PluginScheduler> clone_for_shard()
      const override {
    // Worker shards only estimate on a flat tree; ranking happens once,
    // after the merge, on the election thread through this instance.
    return inner_.clone_for_shard();
  }

  mutable double rank_seconds = 0.0;
  mutable std::uint64_t rank_candidates = 0;
  mutable std::uint64_t rank_calls = 0;

 private:
  const greensched::diet::PluginScheduler& inner_;
  bool slow_estimate_;
  bool slow_rank_;
};

Result run_elect(const Options& options, std::size_t shards, std::size_t batch);
Result run_place(const Options& options);

}  // namespace perfbench
