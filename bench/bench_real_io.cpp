// bench_real_io — honest wall-clock I/O over the real storage backends.
//
// Not a paper figure. Every other bench charges the paper's modeled
// 10 ms/fault against heap-resident page stores; this one puts the trees
// in real page files and measures what the device actually costs:
//
//   * storage backends mem / file (pread, O_DIRECT), same query, same data;
//   * JoinStats::io_wall_seconds (measured seconds inside PageStore::Read)
//     printed next to the modeled io_s column;
//   * thread sweep on the file backend — pread waits overlap across
//     workers even on one core, and the 1->8 thread wall-clock speedup is
//     the headline metric (recorded as t1_over_t8_wall);
//   * the largest tier caps delivery with a top-k limit so the run
//     measures streaming I/O, not pair materialization.
//
// Self-check: within one tier, every backend and thread count must deliver
// exactly the same pair count (the file build is byte-identical to the
// in-memory build, and parallel delivery preserves the serial prefix), so
// a mismatch fails the bench. OS page-cache state is dropped before every
// run (PageStore::DropOsCache) so file rows start cold.
//
// Page files live under $RINGJOIN_BENCH_STORAGE_DIR (default: the current
// directory) and are unlinked with each environment.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "core/pair_sink.h"
#include "engine/engine.h"
#include "workload/generator.h"

namespace rcj {
namespace bench {
namespace {

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// One (backend, algorithm, thread-count) cell of a tier's sweep. OBJ is
// the paper's best algorithm and mostly CPU-bound (about one node access
// per point); INJ touches an order of magnitude more pages per point, so
// its file-backed rows are the device-bound cells where thread overlap
// shows up even on a single core.
struct RunConfig {
  StorageBackend backend;
  size_t threads;
  RcjAlgorithm algo = RcjAlgorithm::kObj;
};

// One dataset size: the paper-style base cardinality (scaled by
// RINGJOIN_SCALE/--full like every bench), the delivery cap (0 = full
// join), and the cells to run. Cells of one backend must be contiguous —
// the tier builds one environment per backend group. `buffer_fraction`
// overrides the default pool size (0 = keep the default): the paper
// itself sweeps buffer size, and a tight pool is the honestly I/O-bound
// regime where nearly every node access reaches the device. `tag` keeps
// two tiers of the same cardinality distinguishable in labels.
struct Tier {
  size_t paper_n;
  uint64_t limit;
  std::vector<RunConfig> runs;
  double buffer_fraction = 0.0;
  const char* tag = "";
};

std::unique_ptr<RcjEnvironment> BuildBackendEnv(
    const std::vector<PointRecord>& qset,
    const std::vector<PointRecord>& pset, StorageBackend backend,
    const std::string& storage_dir, double buffer_fraction,
    double* build_seconds) {
  RcjRunOptions options;
  options.storage = backend;
  options.storage_dir = storage_dir;
  if (buffer_fraction > 0.0) options.buffer_fraction = buffer_fraction;
  const auto start = std::chrono::steady_clock::now();
  Result<std::unique_ptr<RcjEnvironment>> env =
      RcjEnvironment::Build(qset, pset, options);
  if (!env.ok()) {
    std::fprintf(stderr, "bench env build (%s) failed: %s\n",
                 StorageBackendName(backend),
                 env.status().ToString().c_str());
    std::exit(1);
  }
  *build_seconds = Seconds(start);
  return std::move(env).value();
}

void PrintRowHeader() {
  std::printf("%-22s %10s %10s %8s %8s %9s %10s %9s %9s\n", "configuration",
              "pairs", "faults", "cold", "warm", "I/O(s)", "IOwall(s)",
              "CPU(s)", "wall(s)");
}

void PrintRow(const std::string& label, uint64_t pairs,
              const JoinStats& stats, double wall) {
  std::printf("%-22s %10llu %10llu %8llu %8llu %9.2f %10.3f %9.3f %9.3f\n",
              label.c_str(), static_cast<unsigned long long>(pairs),
              static_cast<unsigned long long>(stats.page_faults),
              static_cast<unsigned long long>(stats.cold_faults),
              static_cast<unsigned long long>(stats.warm_faults),
              stats.io_seconds, stats.io_wall_seconds, stats.cpu_seconds,
              wall);
}

int RealMain(int argc, char** argv) {
  const Scale scale = ParseScale(argc, argv);
  PrintBanner(
      "real file-backed I/O: dataset size x storage backend x threads",
      "none (beyond the paper) - io_wall_s is measured device wait, "
      "io_s stays the paper's modeled 10ms/fault",
      scale);
  JsonReporter reporter("real_io");
  const char* dir_env = std::getenv("RINGJOIN_BENCH_STORAGE_DIR");
  const std::string storage_dir = dir_env != nullptr ? dir_env : ".";

  const std::vector<Tier> tiers = {
      {100000,
       0,
       {{StorageBackend::kMem, 1},
        {StorageBackend::kMem, 8},
        {StorageBackend::kFile, 1},
        {StorageBackend::kFile, 8},
        {StorageBackend::kFile, 1, RcjAlgorithm::kInj},
        {StorageBackend::kFile, 8, RcjAlgorithm::kInj}}},
      {1000000,
       0,
       {{StorageBackend::kMem, 1},
        {StorageBackend::kMem, 8},
        {StorageBackend::kFile, 1},
        {StorageBackend::kFile, 2},
        {StorageBackend::kFile, 4},
        {StorageBackend::kFile, 8},
        {StorageBackend::kFile, 1, RcjAlgorithm::kInj},
        {StorageBackend::kFile, 8, RcjAlgorithm::kInj}}},
      // The memory-constrained sweep: same 10^6-point data, pool clamped
      // to its 32-page floor (past the paper's smallest 0.2% buffer).
      // Most leaf accesses now reach the device, which is where the
      // thread sweep's overlapped O_DIRECT waits pay off hardest on the
      // wall clock — the headline speedup rows.
      {1000000,
       0,
       {{StorageBackend::kFile, 1},
        {StorageBackend::kFile, 8},
        {StorageBackend::kFile, 1, RcjAlgorithm::kInj},
        {StorageBackend::kFile, 8, RcjAlgorithm::kInj}},
       1e-9,
       "_tight"},
      // The at-scale tier: 10^7 points per side, top-2M pairs so the run
      // streams a long serial prefix without materializing ~2x10^7 result
      // pairs.
      {10000000,
       2000000,
       {{StorageBackend::kFile, 1}, {StorageBackend::kFile, 8}}},
  };

  for (const Tier& tier : tiers) {
    const size_t n = scale.N(tier.paper_n);
    std::printf("\n--- |Q| = |P| = %zu uniform points%s%s ---\n", n,
                tier.limit == 0 ? "" : " (top-k limited)",
                tier.buffer_fraction > 0.0 ? " (tight buffer)" : "");
    const std::vector<PointRecord> qset = GenerateUniform(n, 20080401);
    const std::vector<PointRecord> pset = GenerateUniform(n, 20080402);
    PrintRowHeader();

    uint64_t expected_pairs = 0;
    bool have_expected = false;
    // keyed by (algorithm, thread count); file backend only
    std::map<std::pair<int, size_t>, double> file_wall;

    size_t i = 0;
    while (i < tier.runs.size()) {
      const StorageBackend backend = tier.runs[i].backend;
      double build_seconds = 0.0;
      const std::unique_ptr<RcjEnvironment> env =
          BuildBackendEnv(qset, pset, backend, storage_dir,
                          tier.buffer_fraction, &build_seconds);
      const std::string build_label = "n" + std::to_string(n) + tier.tag +
                                      "_" + StorageBackendName(backend) +
                                      "_build";
      reporter.AddMetric(build_label, "build_seconds", build_seconds);
      reporter.AddMetric(build_label, "points_per_side",
                         static_cast<double>(n));

      for (; i < tier.runs.size() && tier.runs[i].backend == backend; ++i) {
        const size_t threads = tier.runs[i].threads;
        const RcjAlgorithm algo = tier.runs[i].algo;
        const std::string algo_tag =
            algo == RcjAlgorithm::kObj ? "" : "_inj";
        const std::string label = "n" + std::to_string(n) + tier.tag + "_" +
                                  StorageBackendName(backend) + algo_tag +
                                  "_t" + std::to_string(threads);
        // Cold start: flush dirty pages and ask the kernel to forget the
        // page files, so the file rows measure device reads, not reuse of
        // the build's page cache. A no-op for the mem backend.
        if (!env->q_page_store()->DropOsCache().ok() ||
            (env->p_page_store() != nullptr &&
             !env->p_page_store()->DropOsCache().ok())) {
          std::fprintf(stderr, "%s: DropOsCache failed\n", label.c_str());
          return 1;
        }

        EngineOptions engine_options;
        engine_options.num_threads = threads;
        // The engine's workers fault through private pools sized by
        // worker_buffer_fraction, not the environment's shared buffer —
        // a tight tier must clamp both or the workers would quietly keep
        // the default 1% cache.
        if (tier.buffer_fraction > 0.0) {
          engine_options.worker_buffer_fraction = tier.buffer_fraction;
        }
        Engine engine(engine_options);
        QuerySpec spec = QuerySpec::For(env.get());
        spec.algorithm = algo;
        spec.limit = tier.limit;
        CountingSink sink;
        JoinStats stats;
        const auto start = std::chrono::steady_clock::now();
        const Status status = engine.Run(spec, &sink, &stats);
        const double wall = Seconds(start);
        if (!status.ok()) {
          std::fprintf(stderr, "%s: %s\n", label.c_str(),
                       status.ToString().c_str());
          return 1;
        }

        // Self-check: every backend and thread count of this tier must
        // deliver the identical pair count — byte-identical trees plus
        // serial-prefix delivery leave no legitimate source of variance.
        if (!have_expected) {
          expected_pairs = sink.count();
          have_expected = true;
        } else if (sink.count() != expected_pairs) {
          std::fprintf(stderr,
                       "%s: self-check failed: delivered %llu pairs, "
                       "expected %llu\n",
                       label.c_str(),
                       static_cast<unsigned long long>(sink.count()),
                       static_cast<unsigned long long>(expected_pairs));
          return 1;
        }

        PrintRow(label, sink.count(), stats, wall);
        reporter.AddStats(label, stats);
        reporter.AddMetric(label, "threads", static_cast<double>(threads));
        reporter.AddMetric(label, "pairs_delivered",
                           static_cast<double>(sink.count()));
        reporter.AddMetric(label, "wall_seconds", wall);
        if (backend == StorageBackend::kFile) {
          file_wall[{static_cast<int>(algo), threads}] = wall;
        }
      }
    }

    for (const RcjAlgorithm algo :
         {RcjAlgorithm::kObj, RcjAlgorithm::kInj}) {
      const auto t1 = file_wall.find({static_cast<int>(algo), 1});
      const auto t8 = file_wall.find({static_cast<int>(algo), 8});
      if (t1 == file_wall.end() || t8 == file_wall.end() ||
          t8->second <= 0.0) {
        continue;
      }
      const double speedup = t1->second / t8->second;
      std::printf("file backend (%s) 1->8 threads: %.3fs -> %.3fs (%.2fx)\n",
                  AlgorithmName(algo), t1->second, t8->second, speedup);
      const std::string metric_label =
          "n" + std::to_string(n) + tier.tag + "_file" +
          (algo == RcjAlgorithm::kObj ? "" : "_inj") + "_speedup";
      reporter.AddMetric(metric_label, "t1_over_t8_wall", speedup);
    }
  }

  reporter.Write();
  std::printf("\nall tiers passed their pair-count self-checks\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace rcj

int main(int argc, char** argv) { return rcj::bench::RealMain(argc, argv); }
