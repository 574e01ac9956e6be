// Engine scaling: speedup of the parallel batched engine over the serial
// runner on a uniform workload, swept over worker-thread counts, plus batch
// throughput for a many-query service mix.
//
// This is a systems benchmark, not a paper reproduction: the paper's
// experimental runner executes one cold query at a time, while a middleman-
// location service answers many queries over warm shared indexes. Expected
// shape on a multi-core machine: >1.5x wall-clock speedup at 4 threads for
// the single-query (intra-parallel) sweep, and near-linear batch
// throughput; on a single hardware thread both collapse to ~1x, which the
// JSON artifact records honestly.
//
// Default workload: 100k uniform points (50k per side) scaled by the usual
// bench factor; --full for the unscaled sizes. The file-backed section
// repeats the thread sweep with the trees in real page files, where worker
// threads overlap pread waits even on one core (page files under
// $RINGJOIN_BENCH_STORAGE_DIR, default ".").
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "engine/engine.h"
#include "obs/metrics.h"

namespace {

using namespace rcj;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Scale scale = bench::ParseScale(argc, argv);
  bench::PrintBanner(
      "Engine scaling: parallel batched execution vs the serial runner",
      "no paper counterpart; speedup should grow with worker threads",
      scale);

  const size_t n = scale.N(50000);  // per side; 100k points total at --full
  std::printf("workload: OBJ over %zu x %zu uniform points, warm indexes\n\n",
              n, n);
  const std::vector<PointRecord> qset = GenerateUniform(n, 101);
  const std::vector<PointRecord> pset = GenerateUniform(n, 102);

  std::unique_ptr<RcjEnvironment> env = bench::MustBuild(qset, pset);
  const QuerySpec spec = QuerySpec::For(env.get());  // OBJ, depth-first

  bench::JsonReporter reporter("engine_scaling");
  reporter.AddMetric("workload", "points_per_side",
                     static_cast<double>(n));

  // ---- Serial baseline (the paper's runner, warm trees, cold buffer). ---
  const Clock::time_point serial_start = Clock::now();
  const RcjRunResult serial = bench::MustRun(env.get(), spec);
  const double serial_seconds = SecondsSince(serial_start);
  std::printf("%-14s %10s %10s %10s %9s %9s\n", "configuration", "results",
              "faults", "wall(s)", "speedup", "eff.");
  std::printf("%-14s %10llu %10llu %10.3f %9s %9s\n", "serial",
              static_cast<unsigned long long>(serial.stats.results),
              static_cast<unsigned long long>(serial.stats.page_faults),
              serial_seconds, "1.00x", "-");
  reporter.AddStats("serial", serial.stats);
  reporter.AddMetric("serial", "wall_seconds", serial_seconds);
  reporter.AddMetric("serial", "speedup", 1.0);

  // ---- Intra-query parallelism sweep. -----------------------------------
  for (const size_t threads : {1u, 2u, 4u, 8u}) {
    EngineOptions engine_options;
    engine_options.num_threads = threads;
    Engine engine(engine_options);

    const Clock::time_point start = Clock::now();
    const Result<RcjRunResult> run = engine.Run(spec);
    const double wall = SecondsSince(start);
    if (!run.ok()) {
      std::fprintf(stderr, "engine run failed: %s\n",
                   run.status().ToString().c_str());
      return 1;
    }
    if (run.value().stats.results != serial.stats.results) {
      std::fprintf(stderr, "result mismatch at %zu threads\n", threads);
      return 1;
    }
    const double speedup = serial_seconds / wall;
    const std::string label = "threads=" + std::to_string(threads);
    std::printf("%-14s %10llu %10llu %10.3f %8.2fx %8.0f%%\n", label.c_str(),
                static_cast<unsigned long long>(run.value().stats.results),
                static_cast<unsigned long long>(
                    run.value().stats.page_faults),
                wall, speedup,
                100.0 * speedup / static_cast<double>(threads));
    reporter.AddStats(label, run.value().stats);
    reporter.AddMetric(label, "wall_seconds", wall);
    reporter.AddMetric(label, "speedup", speedup);
    reporter.AddMetric(label, "threads", static_cast<double>(threads));
  }

  // ---- Work stealing on skewed leaf work. -------------------------------
  // P collapses into two tight clusters, so a handful of T_Q leaves carry
  // most of the join; the fine-grained chunk cursor lets idle workers
  // steal the dense region chunk by chunk. Expected shape: speedup over
  // serial grows with the thread count on multi-core machines; on one
  // hardware thread it collapses to ~1x, recorded honestly.
  {
    const std::vector<PointRecord> skew_q = GenerateUniform(n, 111);
    const std::vector<PointRecord> skew_p =
        GenerateGaussianClusters(n, 2, 400.0, 112);
    std::unique_ptr<RcjEnvironment> skew_env =
        bench::MustBuild(skew_q, skew_p);
    const QuerySpec skew_spec = QuerySpec::For(skew_env.get());

    const Clock::time_point skew_serial_start = Clock::now();
    const RcjRunResult skew_serial = bench::MustRun(skew_env.get(), skew_spec);
    const double skew_serial_seconds = SecondsSince(skew_serial_start);

    std::printf("\nskewed leaf work (P in 2 tight clusters):\n");
    std::printf("%-22s %10s %10s %9s\n", "configuration", "results",
                "wall(s)", "speedup");
    std::printf("%-22s %10llu %10.3f %9s\n", "serial",
                static_cast<unsigned long long>(skew_serial.stats.results),
                skew_serial_seconds, "1.00x");
    reporter.AddMetric("skew/serial", "wall_seconds", skew_serial_seconds);

    for (const size_t threads : {2u, 4u, 8u}) {
      EngineOptions engine_options;
      engine_options.num_threads = threads;
      Engine engine(engine_options);
      const Clock::time_point start = Clock::now();
      const Result<RcjRunResult> run = engine.Run(skew_spec);
      const double wall = SecondsSince(start);
      if (!run.ok() ||
          run.value().stats.results != skew_serial.stats.results) {
        std::fprintf(stderr, "skewed run failed or mismatched\n");
        return 1;
      }
      const double speedup = skew_serial_seconds / wall;
      const std::string label =
          std::string("skew/threads=") + std::to_string(threads) +
          "/steal=auto";
      std::printf("%-22s %10llu %10.3f %8.2fx\n", label.c_str(),
                  static_cast<unsigned long long>(run.value().stats.results),
                  wall, speedup);
      reporter.AddMetric(label, "wall_seconds", wall);
      reporter.AddMetric(label, "speedup", speedup);
    }
  }

  // ---- File-backed repeat: real pread I/O instead of modeled faults. ----
  // Same uniform workload, trees in real page files (--storage file). The
  // interesting part: even on a single hardware thread the engine rows can
  // beat serial, because concurrent workers overlap their pread device
  // waits — something the CPU-bound mem rows above cannot do. The OS page
  // cache over the files is dropped before every row, so each run pays
  // cold device reads; results are checked against the mem-backed serial
  // run, which doubles as a backend-identity self-check.
  {
    RcjRunOptions file_options;
    file_options.storage = StorageBackend::kFile;
    const char* storage_dir = std::getenv("RINGJOIN_BENCH_STORAGE_DIR");
    file_options.storage_dir = storage_dir != nullptr ? storage_dir : ".";
    std::unique_ptr<RcjEnvironment> file_env =
        bench::MustBuild(qset, pset, file_options);
    const QuerySpec file_spec = QuerySpec::For(file_env.get());
    const auto drop_cache = [&file_env] {
      (void)file_env->q_page_store()->DropOsCache();
      if (file_env->p_page_store() != nullptr) {
        (void)file_env->p_page_store()->DropOsCache();
      }
    };

    drop_cache();
    const Clock::time_point file_serial_start = Clock::now();
    const RcjRunResult file_serial =
        bench::MustRun(file_env.get(), file_spec);
    const double file_serial_seconds = SecondsSince(file_serial_start);
    if (file_serial.stats.results != serial.stats.results) {
      std::fprintf(stderr, "file-backed serial results diverge from mem\n");
      return 1;
    }
    std::printf("\nfile-backed (pread) repeat, cold OS cache per row:\n");
    std::printf("%-14s %10s %10s %10s %9s\n", "configuration", "results",
                "IOwall(s)", "wall(s)", "speedup");
    std::printf("%-14s %10llu %10.3f %10.3f %9s\n", "file/serial",
                static_cast<unsigned long long>(file_serial.stats.results),
                file_serial.stats.io_wall_seconds, file_serial_seconds,
                "1.00x");
    reporter.AddMetric("file/serial", "wall_seconds", file_serial_seconds);
    reporter.AddMetric("file/serial", "io_wall_seconds",
                       file_serial.stats.io_wall_seconds);

    for (const size_t threads : {1u, 2u, 4u, 8u}) {
      EngineOptions engine_options;
      engine_options.num_threads = threads;
      Engine engine(engine_options);
      drop_cache();
      const Clock::time_point start = Clock::now();
      const Result<RcjRunResult> run = engine.Run(file_spec);
      const double wall = SecondsSince(start);
      if (!run.ok()) {
        std::fprintf(stderr, "file-backed engine run failed: %s\n",
                     run.status().ToString().c_str());
        return 1;
      }
      if (run.value().stats.results != serial.stats.results) {
        std::fprintf(stderr, "file-backed result mismatch at %zu threads\n",
                     threads);
        return 1;
      }
      const double speedup = file_serial_seconds / wall;
      const std::string label = "file/threads=" + std::to_string(threads);
      std::printf("%-14s %10llu %10.3f %10.3f %8.2fx\n", label.c_str(),
                  static_cast<unsigned long long>(run.value().stats.results),
                  run.value().stats.io_wall_seconds, wall, speedup);
      reporter.AddStats(label, run.value().stats);
      reporter.AddMetric(label, "wall_seconds", wall);
      reporter.AddMetric(label, "speedup", speedup);
      reporter.AddMetric(label, "threads", static_cast<double>(threads));
    }
  }

  // ---- Batch throughput: a service mix of concurrent queries. -----------
  const size_t batch_size = 16;
  std::vector<EngineQuery> batch(batch_size);
  const RcjAlgorithm algos[] = {RcjAlgorithm::kObj, RcjAlgorithm::kBij,
                                RcjAlgorithm::kInj};
  for (size_t i = 0; i < batch_size; ++i) {
    batch[i].spec = QuerySpec::For(env.get());
    batch[i].spec.algorithm = algos[i % 3];
  }

  const Clock::time_point loop_start = Clock::now();
  for (const EngineQuery& query : batch) {
    (void)bench::MustRun(env.get(), query.spec);
  }
  const double loop_seconds = SecondsSince(loop_start);

  EngineOptions batch_options;  // hardware concurrency
  Engine batch_engine(batch_options);
  const Clock::time_point batch_start = Clock::now();
  const std::vector<EngineQueryResult> batch_results =
      batch_engine.RunBatch(batch);
  const double batch_seconds = SecondsSince(batch_start);
  for (const EngineQueryResult& result : batch_results) {
    if (!result.status.ok()) {
      std::fprintf(stderr, "batch query failed: %s\n",
                   result.status.ToString().c_str());
      return 1;
    }
  }

  std::printf("\nbatch of %zu mixed queries (OBJ/BIJ/INJ):\n", batch_size);
  std::printf("  serial loop   %8.3f s\n", loop_seconds);
  std::printf("  engine batch  %8.3f s  (%.2fx, %zu worker threads)\n",
              batch_seconds, loop_seconds / batch_seconds,
              batch_engine.num_threads());
  reporter.AddMetric("batch", "queries", static_cast<double>(batch_size));
  reporter.AddMetric("batch", "serial_loop_seconds", loop_seconds);
  reporter.AddMetric("batch", "engine_batch_seconds", batch_seconds);
  reporter.AddMetric("batch", "speedup", loop_seconds / batch_seconds);
  reporter.AddMetric("batch", "worker_threads",
                     static_cast<double>(batch_engine.num_threads()));

  // ---- Observability: exec-latency quantiles + instrumentation price. ---
  // Every engine run above observed its per-query wall time into the
  // process-wide rcj_engine_exec_seconds histogram; the p50/p99 rows give
  // the JSON artifact a latency trajectory to track alongside throughput.
  {
    const obs::HistogramSnapshot exec = obs::MetricsRegistry::Default()
                                            .histogram(
                                                "rcj_engine_exec_seconds")
                                            ->Snap();
    const double p50_ms = exec.Quantile(0.50) * 1e3;
    const double p99_ms = exec.Quantile(0.99) * 1e3;
    std::printf("\nengine exec latency across this bench's %llu queries: "
                "p50 %.3f ms | p99 %.3f ms\n",
                static_cast<unsigned long long>(exec.count), p50_ms, p99_ms);
    reporter.AddMetric("latency", "queries",
                       static_cast<double>(exec.count));
    reporter.AddMetric("latency", "p50_ms", p50_ms);
    reporter.AddMetric("latency", "p99_ms", p99_ms);

    // Price of the instrumentation itself: the identical query loop with
    // the runtime metrics switch on vs off (the off path still pays one
    // relaxed load per site). Target: under 3% — a relaxed striped
    // fetch_add per counter bump should be invisible next to real join
    // work.
    EngineOptions overhead_options;
    overhead_options.num_threads = 4;
    Engine overhead_engine(overhead_options);
    if (!overhead_engine.Run(spec).ok()) {  // warm views and buffers
      std::fprintf(stderr, "overhead warmup failed\n");
      return 1;
    }
    const size_t reps = scale.full ? 12 : 6;
    double wall_on = 0.0;
    double wall_off = 0.0;
    for (const bool enabled : {true, false}) {
      obs::SetMetricsEnabled(enabled);
      const Clock::time_point start = Clock::now();
      for (size_t r = 0; r < reps; ++r) {
        const Result<RcjRunResult> run = overhead_engine.Run(spec);
        if (!run.ok() ||
            run.value().stats.results != serial.stats.results) {
          obs::SetMetricsEnabled(true);
          std::fprintf(stderr, "overhead run failed or mismatched\n");
          return 1;
        }
      }
      (enabled ? wall_on : wall_off) = SecondsSince(start);
    }
    obs::SetMetricsEnabled(true);
    const double overhead_pct = 100.0 * (wall_on - wall_off) / wall_off;
    std::printf("instrumentation overhead: metrics on %.3fs vs off %.3fs "
                "over %zu runs = %+.2f%% (target < 3%%)%s\n",
                wall_on, wall_off, reps, overhead_pct,
                overhead_pct < 3.0 ? "" : "  ** over target **");
    reporter.AddMetric("overhead", "metrics_on_seconds", wall_on);
    reporter.AddMetric("overhead", "metrics_off_seconds", wall_off);
    reporter.AddMetric("overhead", "overhead_pct", overhead_pct);
  }

  reporter.Write();
  return 0;
}
