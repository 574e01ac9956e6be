// Persistent worker-view cache: repeated-environment batches through the
// engine's per-worker warm views, swept over worker threads and over
// uniform vs skewed (clustered) leaf-work distributions, plus the ROADMAP's
// shared-vs-private buffer-mode comparison (one mutexed pool shared by all
// workers vs the engine's private warm pools).
//
// This is a systems benchmark, not a paper reproduction. Expected shape:
// the second and later batches reuse warm views, so the last batch's
// compulsory (cold) faults collapse and the paper's 10 ms/fault I/O charge
// drops with them. Skewed workloads profit additionally from the
// chunk-cursor work stealing (bench_engine_scaling). The shared mutexed
// pool serializes every fault behind one latch, which is exactly why the
// engine gives each worker a private pool — the row pair makes that design
// decision measurable.
//
// Default workload: 2 x 20k points per environment, batches of 16 OBJ
// queries, 3 consecutive batches per configuration; --full for 2 x 160k.
// The third workload section repeats the uniform sweep on a file-backed
// (pread) environment, where a warm view additionally skips real device
// reads — page files live under $RINGJOIN_BENCH_STORAGE_DIR (default ".").
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "engine/engine.h"

namespace {

using namespace rcj;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct BatchOutcome {
  double wall_seconds = 0.0;
  JoinStats last_batch;  ///< summed stats of the final (warmest) batch.
  uint64_t results = 0;  ///< per-query results, for cross-config checks.
};

// Runs `num_batches` consecutive identical batches of `batch_size` OBJ
// queries through one engine — the service shape: the first batch is cold,
// later ones hit whatever the configuration keeps warm.
BatchOutcome RunRepeatedBatches(RcjEnvironment* env,
                                const EngineOptions& engine_options,
                                size_t batch_size, size_t num_batches) {
  Engine engine(engine_options);
  std::vector<EngineQuery> batch(batch_size);
  for (EngineQuery& query : batch) {
    query.spec = QuerySpec::For(env);
    query.spec.algorithm = RcjAlgorithm::kObj;
  }

  BatchOutcome outcome;
  const Clock::time_point start = Clock::now();
  for (size_t b = 0; b < num_batches; ++b) {
    const std::vector<EngineQueryResult> results = engine.RunBatch(batch);
    // Every query of every batch must agree — the identical-stream
    // contract this bench doubles as a smoke test for.
    for (const EngineQueryResult& result : results) {
      if (!result.status.ok()) {
        std::fprintf(stderr, "bench query failed: %s\n",
                     result.status.ToString().c_str());
        std::exit(1);
      }
      if (result.run.stats.results != results[0].run.stats.results) {
        std::fprintf(stderr, "result mismatch within one batch\n");
        std::exit(1);
      }
    }
    if (b + 1 < num_batches) continue;
    for (const EngineQueryResult& result : results) {
      outcome.results = result.run.stats.results;
      outcome.last_batch.candidates += result.run.stats.candidates;
      outcome.last_batch.node_accesses += result.run.stats.node_accesses;
      outcome.last_batch.page_faults += result.run.stats.page_faults;
      outcome.last_batch.cold_faults += result.run.stats.cold_faults;
      outcome.last_batch.warm_faults += result.run.stats.warm_faults;
      outcome.last_batch.io_seconds += result.run.stats.io_seconds;
      outcome.last_batch.cpu_seconds += result.run.stats.cpu_seconds;
    }
  }
  outcome.wall_seconds = SecondsSince(start);
  return outcome;
}

// The ROADMAP's shared concurrent buffer mode: every worker thread gets
// its own R-tree view objects (search state is private) but all views
// fault through ONE mutexed LRU pool — the BufferManager's documented
// safe-but-not-scalable sharing. Each thread runs one full OBJ query.
double RunSharedPoolThreads(RcjEnvironment* env, size_t num_threads,
                            size_t pool_pages, uint64_t* results) {
  BufferManager shared(pool_pages);
  struct ThreadViews {
    std::unique_ptr<RTree> tq;
    std::unique_ptr<RTree> tp;
  };
  std::vector<ThreadViews> views(num_threads);
  for (ThreadViews& v : views) {
    Result<std::unique_ptr<RTree>> tq =
        RTree::Open(env->q_page_store(), &shared);
    Result<std::unique_ptr<RTree>> tp =
        RTree::Open(env->p_page_store(), &shared);
    if (!tq.ok() || !tp.ok()) {
      std::fprintf(stderr, "shared-pool view open failed\n");
      std::exit(1);
    }
    v.tq = std::move(tq).value();
    v.tp = std::move(tp).value();
  }

  std::vector<uint64_t> counts(num_threads, 0);
  std::vector<std::thread> threads;
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < num_threads; ++i) {
    threads.emplace_back([env, &views, &counts, i] {
      QuerySpec spec = QuerySpec::For(env);
      spec.algorithm = RcjAlgorithm::kObj;
      CountingSink sink;
      JoinStats stats;
      const Status status =
          ExecuteRcj(*views[i].tq, *views[i].tp, env->qset(), env->pset(),
                     env->self_join(), spec, nullptr, true, &sink, &stats);
      if (!status.ok()) {
        std::fprintf(stderr, "shared-pool query failed: %s\n",
                     status.ToString().c_str());
        std::exit(1);
      }
      counts[i] = sink.count();
    });
  }
  for (std::thread& thread : threads) thread.join();
  const double wall = SecondsSince(start);
  *results = counts.empty() ? 0 : counts[0];
  for (const uint64_t count : counts) {
    if (count != counts[0]) {
      std::fprintf(stderr, "shared-pool result mismatch\n");
      std::exit(1);
    }
  }
  return wall;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Scale scale = bench::ParseScale(argc, argv);
  bench::PrintBanner(
      "Worker-view cache: warm per-worker views over repeated batches, "
      "uniform and skewed leaf work",
      "no paper counterpart; warm views should cut the last batch's cold "
      "faults and modeled I/O",
      scale);

  const size_t n = scale.N(20000);  // per side, per environment
  const size_t batch_size = 16;
  const size_t num_batches = 3;
  std::printf("workload: %zu batches of %zu OBJ queries over 2 x %zu "
              "points, per configuration\n\n",
              num_batches, batch_size, n);

  bench::JsonReporter reporter("view_cache");
  reporter.AddMetric("workload", "points_per_side", static_cast<double>(n));
  reporter.AddMetric("workload", "batch_size",
                     static_cast<double>(batch_size));
  reporter.AddMetric("workload", "batches", static_cast<double>(num_batches));

  struct Workload {
    const char* name;
    std::vector<PointRecord> qset;
    std::vector<PointRecord> pset;
    StorageBackend storage = StorageBackend::kMem;
  };
  std::vector<Workload> workloads;
  // Uniform: leaf work is balanced. Skewed: P piles into two tight
  // clusters, so the T_Q leaves covering them carry most of the join.
  // The file-backed repeat of the uniform workload shows the cache also
  // absorbing real pread latency, not just the modeled fault charge.
  workloads.push_back(
      {"uniform", GenerateUniform(n, 201), GenerateUniform(n, 202)});
  workloads.push_back({"skewed", GenerateUniform(n, 203),
                       GenerateGaussianClusters(n, 2, 400.0, 204)});
  workloads.push_back({"uniform-file", GenerateUniform(n, 201),
                       GenerateUniform(n, 202), StorageBackend::kFile});

  const char* storage_dir_env = std::getenv("RINGJOIN_BENCH_STORAGE_DIR");
  for (Workload& workload : workloads) {
    RcjRunOptions options;
    options.storage = workload.storage;
    options.storage_dir = storage_dir_env != nullptr ? storage_dir_env : ".";
    std::unique_ptr<RcjEnvironment> env =
        bench::MustBuild(workload.qset, workload.pset, options);

    std::printf("-- %s P distribution --\n", workload.name);
    std::printf("%-26s %10s %10s %10s %10s %10s %9s %8s\n",
                "configuration", "results", "faults", "cold", "warm",
                "IOmod(s)", "wall(s)", "q/s");

    bool have_reference = false;
    uint64_t reference_results = 0;
    for (const size_t threads : {1u, 2u, 4u, 8u}) {
      EngineOptions engine_options;
      engine_options.num_threads = threads;
      const BatchOutcome outcome = RunRepeatedBatches(
          env.get(), engine_options, batch_size, num_batches);
      if (!have_reference) {
        have_reference = true;
        reference_results = outcome.results;
      }
      if (outcome.results != reference_results) {
        std::fprintf(stderr, "result mismatch: threads=%zu\n", threads);
        return 1;
      }

      const double qps = static_cast<double>(batch_size * num_batches) /
                         outcome.wall_seconds;
      const std::string label = workload.name + std::string("/threads=") +
                                std::to_string(threads) + "/cache=on";
      std::printf("%-26s %10llu %10llu %10llu %10llu %10.2f %9.3f %8.1f\n",
                  label.c_str(),
                  static_cast<unsigned long long>(outcome.results),
                  static_cast<unsigned long long>(
                      outcome.last_batch.page_faults),
                  static_cast<unsigned long long>(
                      outcome.last_batch.cold_faults),
                  static_cast<unsigned long long>(
                      outcome.last_batch.warm_faults),
                  outcome.last_batch.io_seconds, outcome.wall_seconds, qps);
      reporter.AddMetric(label, "wall_seconds", outcome.wall_seconds);
      reporter.AddMetric(label, "queries_per_second", qps);
      reporter.AddMetric(label, "last_batch_io_seconds",
                         outcome.last_batch.io_seconds);
      reporter.AddMetric(label, "last_batch_page_faults",
                         static_cast<double>(outcome.last_batch.page_faults));
      reporter.AddMetric(label, "last_batch_cold_faults",
                         static_cast<double>(outcome.last_batch.cold_faults));
      reporter.AddMetric(label, "last_batch_warm_faults",
                         static_cast<double>(outcome.last_batch.warm_faults));
    }

    // Shared concurrent buffer mode (ROADMAP): one mutexed pool behind
    // every worker, sized like ONE engine worker's pool so the per-thread
    // budget matches; the engine row to compare against is
    // threads=4/cache=on above.
    const size_t shared_threads = 4;
    EngineOptions sizing;
    const auto pool_pages = static_cast<size_t>(
        sizing.worker_buffer_fraction *
        static_cast<double>(env->total_tree_pages()));
    uint64_t shared_results = 0;
    const double shared_wall = RunSharedPoolThreads(
        env.get(), shared_threads,
        std::max(sizing.worker_min_buffer_pages, pool_pages),
        &shared_results);
    if (shared_results != reference_results) {
      std::fprintf(stderr, "shared-pool results diverge from engine's\n");
      return 1;
    }
    const std::string shared_label =
        workload.name + std::string("/shared_pool/threads=4");
    const double shared_qps =
        static_cast<double>(shared_threads) / shared_wall;
    std::printf("%-26s %10llu %10s %10s %10s %10s %9.3f %8.1f\n",
                shared_label.c_str(),
                static_cast<unsigned long long>(shared_results), "-", "-",
                "-", "-", shared_wall, shared_qps);
    reporter.AddMetric(shared_label, "wall_seconds", shared_wall);
    reporter.AddMetric(shared_label, "queries_per_second", shared_qps);
    reporter.AddMetric(shared_label, "queries",
                       static_cast<double>(shared_threads));
    std::printf("\n");
  }

  reporter.Write();
  return 0;
}
