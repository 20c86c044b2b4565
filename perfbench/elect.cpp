// Election workloads: a flat tree of 10,000 SEDs (scaled Table I mix),
// GREENPERF at preference 0.5, driven closed-loop by one blocking caller
// with MasterAgent::submit_fast (serial) or submit_batch (batched over
// serving shards) — the same stack and request stream as
// metrics::run_throughput, with telemetry left off.
//
// One round = a fresh stack + `round_requests` elections whose tasks are
// executed at simulated time 0 (nothing completes, so every election sees
// the occupancy of the ones before it).  The first election (or batch) of
// a round is the cold one that fills every SED's estimation cache; it is
// timed as set-up, not as a request.  After the round the simulator runs
// the placed tasks to completion, which gives the simulated energy and
// makespan of the elected placement.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "cluster/platform.hpp"
#include "common/rng.hpp"
#include "des/simulator.hpp"
#include "diet/hierarchy.hpp"
#include "green/policies.hpp"
#include "metrics/energy_accounting.hpp"
#include "metrics/experiment.hpp"
#include "metrics/throughput.hpp"
#include "workload/task.hpp"

namespace perfbench {

namespace gs = greensched;
using gs::diet::Candidate;
using gs::diet::Request;
using gs::diet::SchedulingDecision;

namespace {

constexpr std::size_t kSeds = 10000;
constexpr double kJoulesPerKwh = 3.6e6;

/// Worker-shard clone that busy-waits before its first estimate of each
/// collect (1 ms): the serving-engine sensitivity probe (a slower handoff).  The
/// serial path never clones, so elect-10k and the placement run bypass it.
class StallingShard : public gs::diet::PluginScheduler {
 public:
  StallingShard(std::unique_ptr<gs::diet::PluginScheduler> inner, Clock::duration stall)
      : inner_(std::move(inner)), stall_(stall) {}
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  void estimate(gs::diet::EstimationVector& est, const Request& request) const override {
    if (request.id.value() != last_request_) {
      last_request_ = request.id.value();
      spin(stall_);
    }
    inner_->estimate(est, request);
  }
  void aggregate(std::vector<Candidate>& candidates, const Request& request) const override {
    inner_->aggregate(candidates, request);
  }

 private:
  std::unique_ptr<gs::diet::PluginScheduler> inner_;
  Clock::duration stall_;
  mutable std::uint64_t last_request_ = 0;
};

/// The installed plug-in: the ranking decorator, optionally handing out
/// stalling clones to the worker shards.
class ElectPlugin : public TimedRanking {
 public:
  ElectPlugin(const gs::diet::PluginScheduler& inner, const std::string& perturb)
      : TimedRanking(inner, perturb == "estimate-spin", perturb == "rank-slow"),
        inner_(inner),
        shard_stall_(perturb == "shard-stall") {}
  [[nodiscard]] std::unique_ptr<gs::diet::PluginScheduler> clone_for_shard() const override {
    auto clone = inner_.clone_for_shard();
    if (!shard_stall_ || !clone) return clone;
    return std::make_unique<StallingShard>(std::move(clone), std::chrono::milliseconds(1));
  }

 private:
  const gs::diet::PluginScheduler& inner_;
  bool shard_stall_;
};

/// One election stack, built exactly like metrics::run_throughput builds
/// its own (same RNG draw order, so the same seed elects the same names).
struct Stack {
  gs::des::Simulator sim;
  gs::common::Rng rng;
  gs::cluster::Platform platform;
  gs::diet::Hierarchy hierarchy;
  gs::workload::TaskSpec spec = gs::workload::paper_cpu_bound_task();
  std::unique_ptr<gs::diet::PluginScheduler> policy;
  std::unique_ptr<ElectPlugin> plugin;
  gs::diet::MasterAgent* ma = nullptr;

  Stack(std::uint64_t seed, std::size_t shards, const std::string& perturb)
      : rng(seed), hierarchy(sim, rng) {
    for (const auto& setup : gs::metrics::scaled_clusters(kSeds)) {
      platform.add_cluster(setup.name, setup.spec, setup.options, rng);
    }
    ma = &hierarchy.build_flat(platform, {spec.service}, {});
    policy = gs::green::make_policy("GREENPERF");
    plugin = std::make_unique<ElectPlugin>(*policy, perturb);
    ma->set_plugin(plugin.get());
    ma->configure_serving({shards});
  }

  Request make_request() {
    Request request;
    request.id = hierarchy.next_request_id();
    request.task.spec = spec;
    request.task.user_preference = 0.5;
    request.user_preference = 0.5;
    return request;
  }
};

/// What one round produced.  `elected` holds every request's server name
/// ("-" = unplaced), cold election included.
struct Round {
  std::vector<std::string> elected;
  std::size_t placed = 0;
  double setup_seconds = 0.0;
  double loop_seconds = 0.0;       ///< timed requests only (cold one excluded)
  std::size_t timed_requests = 0;
  std::vector<double> latency_ms;  ///< per timed request
  double energy_kwh = 0.0;
  double makespan_s = 0.0;
  std::vector<std::pair<std::string, double>> cluster_kwh;
  // outside-in layer times, summed over the timed part of the round
  double estimate_s = 0.0;
  double rank_s = 0.0;
  double scan_s = 0.0;
  double handler_s = 0.0;
  std::uint64_t rank_candidates = 0;
  std::uint64_t rank_calls = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
};

enum class Mode {
  kUntraced,   ///< submit_fast / submit_batch, nothing timed inside
  kOutsideIn,  ///< the same elections rebuilt from public calls, phase-timed
  kTimedBatch  ///< submit_batch with the handler and the ranking timed
};

void record(Round& round, const SchedulingDecision& decision, const Request& request) {
  if (decision.elected != nullptr) {
    ++round.placed;
    round.elected.push_back(decision.elected->name());
    (void)decision.elected->execute(request.task, request.id, {});
  } else {
    round.elected.emplace_back("-");
  }
}

/// Settles the round in simulated time and reads the placement's energy.
void settle(Round& round, Stack& stack) {
  stack.sim.run();
  round.makespan_s = stack.sim.now().value();
  const gs::metrics::EnergySnapshot snapshot(stack.platform, stack.sim.now());
  round.energy_kwh = snapshot.total().value() / kJoulesPerKwh;
  for (const auto& c : snapshot.per_cluster())
    round.cluster_kwh.emplace_back(c.cluster, c.energy.value() / kJoulesPerKwh);
  for (const auto& sed : stack.hierarchy.seds()) {
    round.cache_hits += sed->estimation_cache_hits();
    round.cache_misses += sed->estimation_cache_misses();
  }
}

/// The collect + rank half of MasterAgent::submit_fast (and of
/// submit_batch's one amortized pass) on a flat tree, rebuilt from public
/// calls: per-SED estimate, then aggregate.  The caller runs the
/// can_accept scan.
void elect_outside_in(Stack& stack, const Request& head, std::vector<Candidate>& candidates,
                      Round& round) {
  const auto t0 = Clock::now();
  std::size_t count = 0;
  for (gs::diet::Sed* sed : stack.ma->child_seds()) {
    if (!sed->offers(head.task.spec.service)) continue;
    if (count == candidates.size()) candidates.emplace_back();
    Candidate& c = candidates[count++];
    c.sed = sed;
    sed->fill_estimation_into(c.estimation, head);
    stack.policy->estimate(c.estimation, head);
  }
  candidates.resize(count);
  const auto t1 = Clock::now();
  stack.policy->aggregate(candidates, head);
  const auto t2 = Clock::now();
  round.estimate_s += seconds_between(t0, t1);
  round.rank_s += seconds_between(t1, t2);
  round.rank_candidates += candidates.size();
  ++round.rank_calls;
}

gs::diet::Sed* scan(const std::vector<Candidate>& candidates, unsigned cores) {
  for (const Candidate& c : candidates) {
    if (c.sed->can_accept(cores)) return c.sed;
  }
  return nullptr;
}

Round run_round(const Options& options, std::size_t shards, std::size_t batch,
                std::size_t requests, Mode mode) {
  Round round;
  round.elected.reserve(requests);

  const auto setup_begin = Clock::now();
  auto stack = std::make_unique<Stack>(options.seed, shards, options.perturb);
  std::vector<Request> pending;
  const auto next_batch = [&](std::size_t n) {
    pending.clear();
    for (std::size_t i = 0; i < n; ++i) pending.push_back(stack->make_request());
  };
  // Cold election (or batch): fills every estimation cache, starts the
  // shard workers.  Part of set-up and of the elected sequence.
  next_batch(batch);
  if (batch == 1) {
    record(round, stack->ma->submit_fast(pending[0]), pending[0]);
  } else {
    stack->ma->submit_batch(pending, [&](std::size_t i, const SchedulingDecision& d) {
      record(round, d, pending[i]);
    });
  }
  round.setup_seconds = seconds_between(setup_begin, Clock::now());
  stack->plugin->rank_seconds = 0.0;
  stack->plugin->rank_candidates = 0;
  stack->plugin->rank_calls = 0;

  std::vector<Candidate> candidates;  // outside-in collect buffer, recycled
  round.latency_ms.reserve(requests);
  const auto loop_begin = Clock::now();
  for (std::size_t done = batch; done < requests; done += batch) {
    next_batch(batch);
    if (mode == Mode::kOutsideIn) {
      elect_outside_in(*stack, pending[0], candidates, round);
      for (const Request& request : pending) {
        const auto t0 = Clock::now();
        gs::diet::Sed* elected = scan(candidates, request.task.spec.cores);
        if (elected != nullptr) {
          ++round.placed;
          round.elected.push_back(elected->name());
          (void)elected->execute(request.task, request.id, {});
        } else {
          round.elected.emplace_back("-");
        }
        round.scan_s += seconds_between(t0, Clock::now());
      }
    } else if (batch == 1) {
      const auto t0 = Clock::now();
      const SchedulingDecision& decision = stack->ma->submit_fast(pending[0]);
      round.latency_ms.push_back(1e3 * seconds_between(t0, Clock::now()));
      record(round, decision, pending[0]);
    } else {
      const bool timed = mode == Mode::kTimedBatch;
      const auto t0 = Clock::now();
      stack->ma->submit_batch(pending, [&](std::size_t i, const SchedulingDecision& d) {
        const auto h0 = Clock::now();
        round.latency_ms.push_back(1e3 * seconds_between(t0, h0));
        record(round, d, pending[i]);
        if (timed) round.handler_s += seconds_between(h0, Clock::now());
      });
    }
    round.timed_requests += batch;
  }
  round.loop_seconds = seconds_between(loop_begin, Clock::now());
  if (mode != Mode::kOutsideIn) {
    round.rank_s = stack->plugin->rank_seconds;
    round.rank_candidates = stack->plugin->rank_candidates;
    round.rank_calls = stack->plugin->rank_calls;
  }
  settle(round, *stack);
  return round;
}

std::size_t round_requests(std::size_t batch) {
  // Serial rounds are short in requests (each election ranks all 10k
  // SEDs); batched rounds amortize that over 32 and need many more
  // requests for a comparable round time.  Both stay well inside the
  // platform's core capacity (checked below).
  return batch == 1 ? 250 : 10240;
}

}  // namespace

Result run_elect(const Options& options, std::size_t shards, std::size_t batch) {
  Result result;
  const std::size_t requests = round_requests(batch);
  check(requests % batch == 0, "round size must be a whole number of batches");
  {
    std::uint64_t cores = 0;
    for (const auto& setup : gs::metrics::scaled_clusters(kSeds))
      cores += setup.options.node_count * setup.spec.cores;
    // The simulated clock never moves during a round, so every election
    // holds a core until the round ends; more requests than cores would
    // turn the tail into cheap "nobody can accept" rounds.
    check(requests <= cores, "elect round exceeds platform core capacity");
    result.note("platform_cores", std::to_string(cores));
  }

  const auto deadline = Clock::now() + std::chrono::duration<double>(options.seconds);
  std::vector<Round> rounds;
  if (!options.trace) {
    do {
      rounds.push_back(run_round(options, shards, batch, requests, Mode::kUntraced));
    } while (Clock::now() < deadline || rounds.size() < 2);
  } else {
    // Pairs of (untraced, traced) rounds over identical inputs.
    do {
      rounds.push_back(run_round(options, shards, batch, requests, Mode::kUntraced));
      rounds.push_back(run_round(options, shards, batch, requests, Mode::kOutsideIn));
      if (batch > 1) {
        rounds.push_back(run_round(options, shards, batch, requests, Mode::kTimedBatch));
        rounds.push_back(run_round(options, 1, batch, requests, Mode::kTimedBatch));
      }
    } while (Clock::now() < deadline);
  }

  // --- output checks ---
  const std::uint64_t fingerprint = gs::metrics::fingerprint_names(rounds.front().elected);
  for (const Round& r : rounds) {
    check(r.elected.size() == requests, "round elected-sequence length");
    check(gs::metrics::fingerprint_names(r.elected) == fingerprint,
          "elected sequence differs between rounds (traced, 1-shard or repeat)");
    check(r.energy_kwh == rounds.front().energy_kwh && r.makespan_s == rounds.front().makespan_s,
          "simulated energy/makespan differs between rounds");
  }
  if (!options.trace) {
    // The reference: the library behind `greensched throughput`, serial
    // shard count (so this also pins 1-shard == N-shard for batched runs).
    gs::metrics::ThroughputConfig reference;
    reference.seds = kSeds;
    reference.requests = requests;
    reference.batch = batch;
    reference.shards = 1;
    reference.seed = options.seed;
    const gs::metrics::ThroughputResult ref = gs::metrics::run_throughput(reference);
    check(ref.elected_fingerprint == fingerprint,
          "elected fingerprint differs from greensched throughput (" +
              hex64(ref.elected_fingerprint) + " vs " + hex64(fingerprint) + ")");
    check(ref.placed == rounds.front().placed, "placed count differs from greensched throughput");
  }
  result.note("elected_fingerprint", hex64(fingerprint));
  result.note("round_requests", std::to_string(requests));
  result.note("rounds", std::to_string(rounds.size()));

  const Round& first = rounds.front();
  result.attempted = 0;
  for (const Round& r : rounds) result.attempted += r.elected.size();
  result.failed = 0;
  for (const Round& r : rounds) result.failed += r.elected.size() - r.placed;

  std::vector<double> setup;
  for (const Round& r : rounds) setup.push_back(r.setup_seconds);

  if (!options.trace) {
    // Co-tenant interference on a shared host only ever adds time, and it
    // drifts over seconds; each timing is therefore its best value over
    // the run's rounds (the least-disturbed round), computed from that
    // round's own samples.
    double throughput = 0.0;
    double p50 = 0.0;
    double p90 = 0.0;
    std::vector<double> pooled;
    for (std::size_t i = 0; i < rounds.size(); ++i) {
      Round& r = rounds[i];
      pooled.insert(pooled.end(), r.latency_ms.begin(), r.latency_ms.end());
      const double round_p50 = quantile(r.latency_ms, 0.5);
      const double round_p90 = quantile(r.latency_ms, 0.9);
      throughput = std::max(throughput, static_cast<double>(r.timed_requests) / r.loop_seconds);
      p50 = i == 0 ? round_p50 : std::min(p50, round_p50);
      p90 = i == 0 ? round_p90 : std::min(p90, round_p90);
    }
    result.note("latency_samples_per_round", std::to_string(first.latency_ms.size()));
    result.add("throughput_per_s", throughput, "1/s");
    result.add("latency_p50_ms", p50, "ms");
    result.add("latency_p90_ms", p90, "ms");
    result.add("success_ratio",
               static_cast<double>(first.placed) / static_cast<double>(first.elected.size()),
               "ratio");
    result.add("energy_kwh", first.energy_kwh, "kWh");
    result.add("setup_s", median(setup), "s");
    result.add("peak_rss_mb", peak_rss_mb(), "MB");
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.4f", quantile(pooled, 0.99));
    result.note("latency_p99_ms (diagnostic, all rounds)", buf);
    return result;
  }

  // --- traced: per-layer metrics from the outside-in rounds ---
  std::vector<double> estimate, rank, cands, scan_ms, collect2, collect1, unattributed, overhead,
      untraced_wall;
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    const Round& r = rounds[i];
    const double units = static_cast<double>(r.timed_requests / batch);  // elections or batches
    const std::size_t kind = batch > 1 ? i % 4 : i % 2;
    if (kind == 0) untraced_wall.push_back(r.loop_seconds);
    if (kind == 1) {
      estimate.push_back(1e3 * r.estimate_s / units);
      rank.push_back(1e3 * r.rank_s / units);
      cands.push_back(static_cast<double>(r.rank_candidates) / static_cast<double>(r.rank_calls));
      scan_ms.push_back(1e3 * r.scan_s / units);
      unattributed.push_back(1e3 * (r.loop_seconds - r.estimate_s - r.rank_s - r.scan_s) / units);
      if (batch == 1) overhead.push_back(r.loop_seconds / rounds[i - 1].loop_seconds);
    }
    if (kind == 2) {
      collect2.push_back(1e3 * (r.loop_seconds - r.handler_s) / units);
      overhead.push_back(r.loop_seconds / rounds[i - 2].loop_seconds);
    }
    if (kind == 3) collect1.push_back(1e3 * (r.loop_seconds - r.handler_s) / units);
  }
  const double hits = static_cast<double>(first.cache_hits);
  const double misses = static_cast<double>(first.cache_misses);
  result.add("diet.estimate_ms", median(estimate), "ms");
  result.add("diet.estimate_cache_hit_ratio", hits / (hits + misses), "ratio");
  result.add("green.rank_ms", median(rank), "ms");
  result.add("green.rank_candidates", median(cands), "count");
  result.add("diet.elect_scan_ms", median(scan_ms), "ms");
  result.add("diet.batch_collect_ms", collect2.empty() ? 0.0 : median(collect2), "ms");
  result.add("diet.batch_collect_1shard_ms", collect1.empty() ? 0.0 : median(collect1), "ms");
  result.add("diet.elections_per_task", 1.0, "ratio");
  for (const auto& [cluster, kwh] : first.cluster_kwh) {
    result.add("cluster.energy_kwh." + cluster, kwh, "kWh");
  }
  result.add("makespan_s", first.makespan_s, "s");
  result.add("bench.unattributed_ms", median(unattributed), "ms");
  result.add("bench.trace_overhead_ratio", median(overhead), "ratio");
  result.note("layer_unit", batch == 1 ? "per election" : "per batch of 32");
  return result;
}

}  // namespace perfbench
