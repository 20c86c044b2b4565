// perfbench: the repository's benchmark driver.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--perturb <probe>]
//
// Runs one workload in this process and prints, as its last stdout line,
// one JSON object {correct, attempted, failed, metrics}.  --trace 0 times
// the program as users call it (telemetry off) and reports the end-to-end
// metrics; --trace 1 runs the outside-in traced reconstruction next to
// the untraced run and reports the per-layer metrics.  Exit code 1 when
// an output check fails, 2 on a usage error.
#include <sys/resource.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "bench.hpp"

namespace perfbench {

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::string to_json(const Result& result) {
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    if (i != 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

namespace {

/// Every per-layer metric, in report order.  A workload that bypasses a
/// layer reports 0 for it (README.md, "Per-layer metrics").
const char* const kLayerMetrics[][2] = {
    {"diet.estimate_ms", "ms"},
    {"diet.estimate_cache_hit_ratio", "ratio"},
    {"green.rank_ms", "ms"},
    {"green.rank_candidates", "count"},
    {"diet.elect_scan_ms", "ms"},
    {"diet.batch_collect_ms", "ms"},
    {"diet.batch_collect_1shard_ms", "ms"},
    {"diet.elections_per_task", "ratio"},
    {"des.events", "count"},
    {"des.step_self_us", "us"},
    {"green.provisioner_checks", "count"},
    {"green.boots", "count"},
    {"green.shutdowns", "count"},
    {"migrate.started", "count"},
    {"migrate.committed", "count"},
    {"migrate.aborted", "count"},
    {"migrate.drain_ms", "ms"},
    {"durable.journal_bytes", "bytes"},
    {"cluster.energy_kwh.orion", "kWh"},
    {"cluster.energy_kwh.sagittaire", "kWh"},
    {"cluster.energy_kwh.taurus", "kWh"},
    {"makespan_s", "s"},
    {"bench.unattributed_ms", "ms"},
    {"bench.trace_overhead_ratio", "ratio"},
};

void complete_layers(Result& result) {
  std::vector<Metric> ordered;
  for (const auto& [name, unit] : kLayerMetrics) {
    Metric m{name, 0.0, unit};
    for (const Metric& reported : result.metrics) {
      if (reported.name == name) m = reported;
    }
    ordered.push_back(m);
  }
  for (const Metric& reported : result.metrics) {
    bool known = false;
    for (const Metric& m : ordered) known = known || m.name == reported.name;
    if (!known) throw CheckFailure("unlisted per-layer metric " + reported.name);
  }
  result.metrics = std::move(ordered);
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "elect-10k|elect-batch32-2shard-10k|place-consolidate-48 --seed N "
               "--seconds S --trace 0|1 [--perturb PROBE]\n",
               why);
  std::exit(2);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--perturb") {
      options.perturb = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!(options.seconds > 0.0)) usage("--seconds must be positive");

  std::printf("host: {\"hw_threads\": %u, \"compiler\": \"%s\", \"build_type\": \"%s\"}\n",
              std::thread::hardware_concurrency(), PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE);
  Result result;
  try {
    if (options.workload == "elect-10k") {
      result = run_elect(options, 1, 1);
    } else if (options.workload == "elect-batch32-2shard-10k") {
      result = run_elect(options, 2, 32);
    } else if (options.workload == "place-consolidate-48") {
      result = run_place(options);
    } else {
      usage(("unknown workload '" + options.workload + "'").c_str());
    }
    if (options.trace) complete_layers(result);
  } catch (const CheckFailure& failure) {
    std::printf("check failed: %s\n", failure.what());
    result = Result{};
    result.correct = false;
    result.attempted = 1;
    result.failed = 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
  for (const auto& [key, value] : result.notes) std::printf("%s: %s\n", key.c_str(), value.c_str());
  std::printf("%s\n", to_json(result).c_str());
  return result.correct ? 0 : 1;
}
