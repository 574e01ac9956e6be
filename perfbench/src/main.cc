// The repository benchmark: stands one workload's system up in-process
// over loopback, drives its load for --seconds from this process, checks
// every result, and prints the metrics. --trace 0 reports the end-to-end
// metrics; --trace 1 runs the same load, then the layer ladder, and
// reports the per-layer metrics. The last stdout line is the JSON result.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --dir DIR
//             [--spans FILE] [--calibrate]
//
// --calibrate runs an open-loop workload as a closed loop over the same
// connections, which measures the capacity its offered rate is set from.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>

#include "harness.h"
#include "ladder.h"
#include "workload.h"

namespace {

using namespace perfbench;

/// Stand-ups timed per end-to-end run; setup_s is their median.
constexpr int kSetups = 5;
/// All-core spin right before the load (see BurnCpu).
constexpr double kWarmUpSeconds = 3.0;

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --dir DIR [--spans FILE] [--calibrate]\n");
  return 2;
}

bool ParseArgs(int argc, char** argv,
               std::map<std::string, std::string>* flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) return false;
    if (arg == "--calibrate") {
      (*flags)["calibrate"] = "1";
    } else if (i + 1 < argc) {
      (*flags)[arg.substr(2)] = argv[++i];
    } else {
      return false;
    }
  }
  for (const char* key : {"workload", "seed", "seconds", "trace", "dir"}) {
    if (flags->count(key) == 0) return false;
  }
  return true;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const MetricSet& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              metrics.Json().c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  if (!ParseArgs(argc, argv, &flags)) return Usage();
  const std::string name = flags["workload"];
  const uint64_t seed = std::strtoull(flags["seed"].c_str(), nullptr, 10);
  const double seconds = std::strtod(flags["seconds"].c_str(), nullptr);
  const bool trace = flags["trace"] == "1";
  const std::string dir = flags["dir"];
  if (seconds <= 0.0) return Usage();

  WorkloadSpec spec;
  if (!MakeWorkload(name, seed, &spec)) {
    std::fprintf(stderr, "unknown workload '%s'\n", name.c_str());
    return 2;
  }
  if (flags.count("calibrate") != 0) spec.open_loop_qps = 0.0;

  // Set-up: build the environments, start the servers, complete the
  // first successful query. Repeated and reported as a median, since one
  // stand-up is too short to time steadily; the last one carries the load.
  std::vector<double> setup_s;
  std::unique_ptr<System> system;
  const int setups = trace ? 1 : kSetups;
  for (int attempt = 0; attempt < setups; ++attempt) {
    system.reset();
    const std::string attempt_dir = dir + "/setup-" + std::to_string(attempt);
    const Clock::time_point start = Clock::now();
    rcj::Result<std::unique_ptr<System>> up = System::StandUp(spec,
                                                              attempt_dir);
    if (!up.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   up.status().ToString().c_str());
      return 1;
    }
    setup_s.push_back(MsBetween(start, Clock::now()) / 1000.0);
    system = std::move(up).value();
  }

  Oracle oracle;
  const rcj::Status prepared = oracle.Prepare(system.get());
  if (!prepared.ok()) {
    std::fprintf(stderr, "oracle: %s\n", prepared.ToString().c_str());
    return 1;
  }

  BurnCpu(kWarmUpSeconds);
  LoadResult load = RunLoad(system.get(), oracle, seed, seconds);
  if (spec.live) {
    ++load.attempted;
    if (!FinalChurnCheck(system.get())) ++load.failed;
  }

  MetricSet metrics;
  uint64_t attempted = load.attempted;
  uint64_t failed = load.failed;
  if (trace) {
    SpanLog spans(Clock::now());
    const rcj::Status laddered = RunLadder(system.get(), oracle, load, seed,
                                           &spans, &metrics, &attempted,
                                           &failed);
    if (!laddered.ok()) {
      std::fprintf(stderr, "ladder: %s\n", laddered.ToString().c_str());
      return 1;
    }
    if (flags.count("spans") != 0 && !spans.Write(flags["spans"])) {
      std::fprintf(stderr, "cannot write %s\n", flags["spans"].c_str());
      return 1;
    }
  } else {
    const Tail query_tail = TailPercentile(load.query_ms);
    const Tail mutation_tail = TailPercentile(load.mutation_ms);
    // Outside live_churn the writer is side load on an environment nobody
    // queries, so only the workload's own queries count as operations.
    const double ops = static_cast<double>(
        load.queries + (spec.live ? load.mutations : 0));
    metrics.Add("setup_s", Median(setup_s), "s");
    metrics.Add("query_p50_ms", Median(load.query_ms), "ms");
    metrics.Add("query_tail_ms", query_tail.value, "ms");
    metrics.Add("first_pair_p50_ms", Median(load.first_pair_ms), "ms");
    metrics.Add("queries_per_s", load.queries / load.wall_s, "1/s");
    metrics.Add("pairs_per_s", load.pairs / load.wall_s, "1/s");
    metrics.Add("mutation_p50_ms", Median(load.mutation_ms), "ms");
    metrics.Add("mutation_tail_ms", mutation_tail.value, "ms");
    metrics.Add("mutations_per_s", load.mutations / load.wall_s, "1/s");
    metrics.Add("cpu_ms_per_op", ops > 0.0 ? 1000.0 * load.cpu_s / ops : 0.0,
                "ms");
    metrics.Add("peak_rss_mb", PeakRssMb(), "MiB");
    std::printf("workload %s seed %llu: %.1f s of load%s\n", name.c_str(),
                static_cast<unsigned long long>(seed), load.wall_s,
                spec.open_loop_qps > 0.0 ? " (open loop)" : " (closed loop)");
    if (spec.open_loop_qps > 0.0) {
      std::printf("  offered rate %.1f queries/s\n", spec.open_loop_qps);
    }
    std::printf("  query tail = p%.1f of %zu samples; mutation tail = p%.1f "
                "of %zu samples\n",
                query_tail.percentile, query_tail.samples,
                mutation_tail.percentile, mutation_tail.samples);
    std::printf("  failed_ratio %.6f (%llu of %llu operations)\n",
                load.attempted > 0
                    ? static_cast<double>(load.failed) / load.attempted
                    : 0.0,
                static_cast<unsigned long long>(load.failed),
                static_cast<unsigned long long>(load.attempted));
  }
  metrics.Print();

  system.reset();
  std::error_code ignored;
  std::filesystem::remove_all(dir, ignored);

  const bool correct = failed == 0;
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}
