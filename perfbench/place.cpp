// Placement workload: one long metrics::run_placement, the entry point
// experimenters use — a 48-node scaled Table I platform under a
// per-cluster tree, GREENPERF, an initial burst followed by continuous
// arrivals below capacity, 6e12-flop tasks decorated with SLA tiers and
// deadlines (no admission policy), the consolidate provisioner with
// drain migration and an fsynced write-ahead journal, and the default
// client retry policy.
//
// The traced run wires the same experiment from public calls (the
// benchmark-wired placement below) so it can time the layers from
// outside: a plug-in decorator around the ranking policy, the
// provisioner's drain hook into MigrationController::drain, and
// des::Simulator::step() driven one event at a time.  It must reproduce
// run_placement's outputs exactly.
#include <algorithm>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <unistd.h>
#include <vector>

#include "bench.hpp"
#include "common/rng.hpp"
#include "des/simulator.hpp"
#include "diet/client.hpp"
#include "diet/hierarchy.hpp"
#include "green/events.hpp"
#include "green/planning.hpp"
#include "green/policies.hpp"
#include "green/provisioner.hpp"
#include "green/rules.hpp"
#include "metrics/energy_accounting.hpp"
#include "metrics/experiment.hpp"
#include "migrate/migration.hpp"
#include "sla/tier.hpp"
#include "workload/arrival.hpp"

namespace perfbench {

namespace gs = greensched;
using gs::diet::Candidate;
using gs::diet::Request;

namespace {

constexpr double kJoulesPerKwh = 3.6e6;
constexpr std::size_t kNodes = 48;
constexpr std::size_t kTasks = 25000;

/// `unprovisioned` is the energy-layer probe: the same run with no
/// provisioner (every node stays on) and so no migration.
gs::metrics::PlacementConfig make_config(const Options& options,
                                         const std::filesystem::path& journal,
                                         bool unprovisioned) {
  gs::metrics::PlacementConfig config;
  config.clusters = gs::metrics::scaled_clusters(kNodes);
  config.policy = "GREENPERF";
  config.seed = options.seed;
  config.per_cluster_tree = true;
  config.workload.task.work = gs::common::Flops(6e12);
  config.workload.burst_size = 200;
  config.workload.continuous_rate = 0.3;  // tasks/s; the pool sustains ~0.6
  config.task_count_override = kTasks;
  config.sla_workload = "sla:gold=0.2,silver=0.3,bronze=0.3";
  config.provisioner = "consolidate";
  config.migration = "drain";
  config.migration_journal = journal.string();
  if (unprovisioned) {
    config.provisioner.clear();
    config.migration.clear();
    config.migration_journal.clear();
  }
  return config;
}

/// The outputs a traced run must reproduce bit-for-bit.
struct Outcome {
  std::size_t tasks = 0;
  std::size_t completed = 0;
  std::size_t rejected = 0;
  std::size_t lost = 0;
  std::size_t unfinished = 0;
  double energy_j = 0.0;
  double makespan_s = 0.0;
  std::vector<std::pair<std::string, double>> per_cluster_j;
  std::uint64_t checks = 0;
  std::uint64_t boots = 0;
  std::uint64_t shutdowns = 0;
  std::uint64_t started = 0;
  std::uint64_t committed = 0;
  std::uint64_t aborted = 0;
  std::uint64_t events = 0;
  std::string migration_sequence;

  bool operator==(const Outcome&) const = default;
};

Outcome outcome_of(const gs::metrics::PlacementResult& r) {
  Outcome o;
  o.tasks = r.tasks;
  o.completed = r.tasks_completed;
  o.rejected = r.tasks_rejected;
  o.lost = r.tasks_lost;
  o.unfinished = r.tasks_unfinished;
  o.energy_j = r.energy.value();
  o.makespan_s = r.makespan.value();
  for (const auto& c : r.per_cluster) o.per_cluster_j.emplace_back(c.cluster, c.energy.value());
  o.checks = r.provisioner_checks;
  o.boots = r.boots_ordered;
  o.shutdowns = r.shutdowns_ordered;
  o.started = r.migrations_started;
  o.committed = r.migrations_committed;
  o.aborted = r.migrations_aborted;
  o.events = r.sim_events;
  o.migration_sequence = r.migration_sequence;
  return o;
}

void check_conservation(const Outcome& o) {
  check(o.completed + o.rejected + o.lost + o.unfinished == o.tasks,
        "task conservation: completed + rejected + lost + unfinished != tasks");
  check(o.started == o.committed + o.aborted,
        "migration conservation: started != committed + aborted");
}

/// Plug-in decorator for the placement tree (MA -> one LA per cluster ->
/// SEDs).  Every election calls estimate() once per SED and aggregate()
/// once per agent, so call timestamps split it into collect (estimation
/// + hoisting, from the first estimate() to each aggregate()) and rank
/// (inside aggregate()).
class PlacementProbe : public gs::diet::PluginScheduler {
 public:
  PlacementProbe(const gs::diet::PluginScheduler& inner, std::size_t agents)
      : inner_(inner), agents_(agents) {}
  [[nodiscard]] std::string name() const override { return inner_.name(); }
  void estimate(gs::diet::EstimationVector& est, const Request& request) const override {
    if (!in_election_) {
      in_election_ = true;
      segment_ = Clock::now();
    }
    inner_.estimate(est, request);
  }
  void aggregate(std::vector<Candidate>& candidates, const Request& request) const override {
    const auto a0 = Clock::now();
    if (in_election_) collect_s += seconds_between(segment_, a0);
    inner_.aggregate(candidates, request);
    const auto a1 = Clock::now();
    rank_s += seconds_between(a0, a1);
    rank_candidates += candidates.size();
    ++rank_calls;
    segment_ = a1;
    if (++aggregated_ == agents_) {
      aggregated_ = 0;
      in_election_ = false;
    }
  }

  mutable double collect_s = 0.0;
  mutable double rank_s = 0.0;
  mutable std::uint64_t rank_candidates = 0;
  mutable std::uint64_t rank_calls = 0;

 private:
  const gs::diet::PluginScheduler& inner_;
  std::size_t agents_;
  mutable bool in_election_ = false;
  mutable std::size_t aggregated_ = 0;
  mutable Clock::time_point segment_{};
};

struct TracedRun {
  Outcome outcome;
  double setup_s = 0.0;  ///< construction, up to the first event
  double wall_s = 0.0;   ///< construction + event loop + result read-out
  double step_s = 0.0;
  double collect_s = 0.0;
  double rank_s = 0.0;
  double drain_s = 0.0;
  std::uint64_t rank_candidates = 0;
  std::uint64_t rank_calls = 0;
  std::uint64_t submissions = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t journal_bytes = 0;
};

/// run_placement's wiring for this config (no chaos, no admission,
/// serial serving), rebuilt from public calls.  With `construct_only` it
/// stops before the first event (the set-up measurement).
TracedRun wired_placement(const gs::metrics::PlacementConfig& config, bool construct_only,
                          const std::string& perturb) {
  TracedRun run;
  const auto begin = Clock::now();
  gs::des::Simulator sim;
  gs::common::Rng rng(config.seed);
  gs::cluster::Platform platform;
  for (const auto& setup : config.clusters) {
    platform.add_cluster(setup.name, setup.spec, setup.options, rng);
  }
  gs::diet::Hierarchy hierarchy(sim, rng);
  gs::diet::MasterAgent& ma =
      hierarchy.build_per_cluster(platform, {config.workload.task.service}, config.sed);
  const auto policy = gs::green::make_policy(config.policy);
  PlacementProbe probe(*policy, 1 + ma.child_agent_count());
  ma.set_plugin(&probe);

  gs::workload::WorkloadGenerator generator(config.workload);
  gs::workload::BurstThenContinuousArrival arrival(config.workload.burst_size,
                                                   config.workload.continuous_rate);
  std::vector<gs::workload::TaskInstance> tasks = generator.generate_with(
      arrival, config.task_count_override, gs::common::Seconds(0.0), rng);
  const std::size_t task_count = tasks.size();
  const auto sla = gs::sla::parse_sla_workload(config.sla_workload);
  if (sla.enabled()) {
    gs::common::Rng sla_rng = rng.split();
    gs::sla::apply_sla_profile(tasks, sla, sla_rng);
  }
  gs::diet::Client client(hierarchy, "client-0", config.retry);
  client.set_admission_log(false);
  client.submit_workload(std::move(tasks));
  ma.configure_serving({config.shards});

  gs::green::EventSchedule events;
  gs::green::ProvisioningPlanning planning;
  events.set_initial_cost(1.0);
  gs::green::ProvisionerConfig pconfig;
  pconfig.check_period = gs::des::SimDuration(config.provisioner_check_seconds);
  pconfig.lookahead = gs::des::SimDuration(2.0 * config.provisioner_check_seconds);
  pconfig.strategy = config.provisioner;
  gs::green::Provisioner provisioner(sim, platform, ma, gs::green::RuleEngine::paper_default(),
                                     events, planning, pconfig);
  const bool check_spin = perturb == "check-spin";
  provisioner.set_check_hook(
      [&hierarchy, check_spin](gs::des::SimTime, const gs::green::PlatformStatus&, std::size_t) {
        if (check_spin) spin(std::chrono::microseconds(100));
        hierarchy.notify_capacity_change();
      });
  provisioner.set_stop_predicate(
      [&client, task_count, last = std::uint64_t{0}, stale = 0u]() mutable {
        if (client.submitted() >= task_count && client.settled()) return true;
        const std::uint64_t progress = client.submitted() + client.completed() + client.lost() +
                                       client.retries() + client.rejected() +
                                       client.deferrals();
        if (progress == last && ++stale >= 32) return true;
        if (progress != last) {
          stale = 0;
          last = progress;
        }
        return false;
      });
  provisioner.start();

  std::optional<gs::migrate::MigrationController> migration;
  if (!config.migration.empty()) {
    migration.emplace(hierarchy, gs::migrate::parse_migration_options(config.migration));
    migration->open_journal(config.migration_journal);
    const bool drain_spin = perturb == "drain-spin";
    provisioner.set_drain_hook([&](gs::des::SimTime at,
                                   const std::vector<gs::common::NodeId>& src,
                                   const std::vector<gs::common::NodeId>& dst) {
      const auto t0 = Clock::now();
      migration->drain(at, src, dst);
      if (drain_spin) spin(std::chrono::milliseconds(100));
      run.drain_s += seconds_between(t0, Clock::now());
    });
  }
  run.setup_s = seconds_between(begin, Clock::now());
  if (construct_only) return run;

  const bool des_spin = perturb == "des-spin";
  for (;;) {
    const auto t0 = Clock::now();
    if (!sim.step()) break;
    if (des_spin) spin(std::chrono::microseconds(3));
    run.step_s += seconds_between(t0, Clock::now());
  }
  check(client.all_done(), "wired placement: unplaced or incomplete tasks");

  Outcome& o = run.outcome;
  o.tasks = task_count;
  o.completed = client.completed();
  o.rejected = client.rejected();
  o.lost = client.lost();
  o.unfinished = task_count - o.completed - o.lost - o.rejected;
  o.makespan_s = client.completed() > 0 ? client.makespan().value() : 0.0;
  const gs::metrics::EnergySnapshot snapshot(platform, sim.now());
  o.energy_j = snapshot.total().value();
  for (const auto& c : snapshot.per_cluster()) {
    o.per_cluster_j.emplace_back(c.cluster, c.energy.value());
  }
  o.checks = provisioner.checks();
  o.boots = provisioner.boots_ordered();
  o.shutdowns = provisioner.shutdowns_ordered();
  if (migration) {
    o.started = migration->started();
    o.committed = migration->committed();
    o.aborted = migration->aborted();
    o.migration_sequence = migration->sequence();
    run.journal_bytes = std::filesystem::file_size(config.migration_journal);
  }
  o.events = sim.executed();

  run.collect_s = probe.collect_s;
  run.rank_s = probe.rank_s;
  run.rank_candidates = probe.rank_candidates;
  run.rank_calls = probe.rank_calls;
  run.submissions = ma.submissions();
  for (const auto& sed : hierarchy.seds()) {
    run.cache_hits += sed->estimation_cache_hits();
    run.cache_misses += sed->estimation_cache_misses();
  }
  run.wall_s = seconds_between(begin, Clock::now());
  return run;
}

}  // namespace

Result run_place(const Options& options) {
  Result result;
  // The journal lives under the working directory (run.py points it into
  // the build tree) on local disk, so every intent/commit/abort frame
  // pays its fsync.
  const std::filesystem::path dir =
      std::filesystem::current_path() / ("journal-" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const gs::metrics::PlacementConfig config =
      make_config(options, dir / "migration.journal", options.perturb == "no-provisioner");
  // Probes that hook the event loop, the provisioner check or the drain
  // call can only reach the benchmark-wired placement; "wired" is their
  // unperturbed baseline.  Either way run_placement's outputs are the
  // reference the wired runs are checked against.
  const bool wired_probe = options.perturb == "wired" || options.perturb == "des-spin" ||
                           options.perturb == "check-spin" || options.perturb == "drain-spin";

  std::vector<double> setup;
  for (int i = 0; i < 5; ++i) setup.push_back(wired_placement(config, true, "").setup_s);

  const auto deadline = Clock::now() + std::chrono::duration<double>(options.seconds);
  std::vector<Outcome> outcomes;
  std::vector<double> walls;
  std::vector<TracedRun> traced;
  do {
    const auto t0 = Clock::now();
    if (wired_probe) {
      outcomes.push_back(wired_placement(config, false, options.perturb).outcome);
    } else {
      outcomes.push_back(outcome_of(gs::metrics::run_placement(config)));
    }
    walls.push_back(seconds_between(t0, Clock::now()));
    if (options.trace) traced.push_back(wired_placement(config, false, ""));
  } while (Clock::now() < deadline || outcomes.size() < 3);
  if (wired_probe) outcomes.push_back(outcome_of(gs::metrics::run_placement(config)));
  std::filesystem::remove_all(dir);

  // --- output checks ---
  const Outcome& first = outcomes.front();
  for (const Outcome& o : outcomes) {
    check_conservation(o);
    check(o == first, "placement outputs (energy, makespan, counts, migrations) differ between "
                      "repeats");
  }
  for (const TracedRun& t : traced) {
    check(t.outcome == first, "traced placement does not reproduce run_placement's outputs");
  }
  check(first.unfinished == 0 && first.lost == 0, "placement left tasks unplaced");

  result.attempted = first.tasks * outcomes.size();
  result.failed = (first.tasks - first.completed) * outcomes.size();
  result.note("tasks", std::to_string(first.tasks));
  result.note("repeats", std::to_string(outcomes.size()));
  result.note("migrations", std::to_string(first.started));
  result.note("provisioner_checks", std::to_string(first.checks));
  result.note("sim_events", std::to_string(first.events));

  if (!options.trace) {
    // Co-tenant interference on a shared host only ever adds time and
    // drifts over seconds, so throughput comes from the fastest call.
    const double fastest = *std::min_element(walls.begin(), walls.end());
    result.add("throughput_per_s", static_cast<double>(first.completed) / fastest, "1/s");
    // The experimenter's latency: one whole run_placement call, as exact
    // p50/p90 over the least-disturbed window of consecutive calls.
    constexpr std::size_t kWindow = 8;
    const std::size_t width = std::min(kWindow, walls.size());
    double p50 = 0.0;
    double p90 = 0.0;
    for (std::size_t i = 0; i + width <= walls.size(); ++i) {
      std::vector<double> window(walls.begin() + i, walls.begin() + i + width);
      const double w50 = 1e3 * quantile(window, 0.5);
      const double w90 = 1e3 * quantile(window, 0.9);
      p50 = i == 0 ? w50 : std::min(p50, w50);
      p90 = i == 0 ? w90 : std::min(p90, w90);
    }
    result.add("latency_p50_ms", p50, "ms");
    result.add("latency_p90_ms", p90, "ms");
    result.add("success_ratio",
               static_cast<double>(first.completed) / static_cast<double>(first.tasks), "ratio");
    result.add("energy_kwh", first.energy_j / kJoulesPerKwh, "kWh");
    result.add("setup_s", median(setup), "s");
    result.add("peak_rss_mb", peak_rss_mb(), "MB");
    return result;
  }

  // --- traced: per-layer metrics ---
  std::vector<double> estimate, rank, step_self, drain, unattributed, overhead;
  for (std::size_t i = 0; i < traced.size(); ++i) {
    const TracedRun& t = traced[i];
    const double elections = static_cast<double>(t.submissions);
    estimate.push_back(1e3 * t.collect_s / elections);
    rank.push_back(1e3 * t.rank_s / elections);
    drain.push_back(1e3 * t.drain_s);
    step_self.push_back(1e6 * (t.step_s - t.collect_s - t.rank_s - t.drain_s) /
                        static_cast<double>(t.outcome.events));
    unattributed.push_back(1e3 * (t.wall_s - t.step_s));
    overhead.push_back(t.wall_s / walls[i]);
  }
  const TracedRun& t = traced.front();
  const double hits = static_cast<double>(t.cache_hits);
  const double misses = static_cast<double>(t.cache_misses);
  result.add("diet.estimate_ms", median(estimate), "ms");
  result.add("diet.estimate_cache_hit_ratio", hits / (hits + misses), "ratio");
  result.add("green.rank_ms", median(rank), "ms");
  result.add("green.rank_candidates",
             static_cast<double>(t.rank_candidates) / static_cast<double>(t.rank_calls), "count");
  result.add("diet.elections_per_task",
             static_cast<double>(t.submissions) / static_cast<double>(first.tasks), "ratio");
  result.add("des.events", static_cast<double>(first.events), "count");
  result.add("des.step_self_us", median(step_self), "us");
  result.add("green.provisioner_checks", static_cast<double>(first.checks), "count");
  result.add("green.boots", static_cast<double>(first.boots), "count");
  result.add("green.shutdowns", static_cast<double>(first.shutdowns), "count");
  result.add("migrate.started", static_cast<double>(first.started), "count");
  result.add("migrate.committed", static_cast<double>(first.committed), "count");
  result.add("migrate.aborted", static_cast<double>(first.aborted), "count");
  result.add("migrate.drain_ms", median(drain), "ms");
  result.add("durable.journal_bytes", static_cast<double>(t.journal_bytes), "bytes");
  for (const auto& [cluster, joules] : first.per_cluster_j) {
    result.add("cluster.energy_kwh." + cluster, joules / kJoulesPerKwh, "kWh");
  }
  result.add("makespan_s", first.makespan_s, "s");
  result.add("bench.unattributed_ms", median(unattributed), "ms");
  result.add("bench.trace_overhead_ratio", median(overhead), "ratio");
  result.note("layer_unit", "diet/green ms per election; drain and unattributed ms per run");
  return result;
}

}  // namespace perfbench
