// rcj_tool — command-line front end for the ringjoin library.
//
//   rcj_tool generate --kind uniform --n 10000 --seed 1 --out q.csv
//   rcj_tool generate --kind gaussian --n 10000 --clusters 5 --out p.csv
//   rcj_tool generate --kind pp --n 20000 --out pp.csv
//   rcj_tool join --q q.csv --p p.csv --algo obj --out pairs.csv
//   rcj_tool join --q buildings.csv --self --out postboxes.csv
//   rcj_tool stats --q q.csv --p p.csv
//   rcj_tool batch --q q.csv --p p.csv --algos obj,inj --repeat 4 --threads 8
//   rcj_tool batch --q q.csv --p p.csv --algos obj --limit 10 --out top.csv
//   rcj_tool serve --q q.csv --p p.csv --port 7341
//   rcj_tool client --port 7341 --algo obj --limit 10 --out pairs.csv
//
// Pair output CSV columns: p_id, q_id, center_x, center_y, radius.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/rcj.h"
#include "engine/engine.h"
#include "fleet/fleet_proxy.h"
#include "fleet/fleet_supervisor.h"
#include "live/live_environment.h"
#include "live/mutation_log.h"
#include "net/line_reader.h"
#include "net/net_server.h"
#include "net/protocol.h"
#include "net/protocol_client.h"
#include "obs/metrics.h"
#include "shard/shard_router.h"
#include "workload/dataset.h"
#include "workload/generator.h"

namespace {

using namespace rcj;

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  rcj_tool generate --kind uniform|gaussian|pp|sc|lo --n N\n"
      "           [--seed S] [--clusters W] [--sigma SG] --out FILE.csv\n"
      "  rcj_tool join --q Q.csv [--p P.csv | --self]\n"
      "           [--algo brute|inj|bij|obj] [--buffer-frac F]\n"
      "           [--page-size B] [--out PAIRS.csv] [storage knobs]\n"
      "           [--threads T]  (run the join through the parallel engine\n"
      "                         instead of the serial runner; 0 = one\n"
      "                         worker per hardware thread)\n"
      "           [--mutations FILE]  (wrap the datasets in a live\n"
      "                         environment, apply the file's wire-grammar\n"
      "                         INSERT/DELETE/COMPACT lines in order, then\n"
      "                         join the mutated view; pairs stream in\n"
      "                         engine order, unsorted — byte-comparable\n"
      "                         to a wire client's stream)\n"
      "  rcj_tool stats --q Q.csv --p P.csv\n"
      "  rcj_tool batch --q Q.csv [--p P.csv | --self]\n"
      "           [--algos obj,inj,bij] [--repeat N] [--threads T]\n"
      "           [--limit K]  (every query stops after its first K pairs)\n"
      "           [--out PAIRS.csv]  (the first query's pairs, in serial\n"
      "                         order, as they stream)\n"
      "           [--compare-serial]\n"
      "  rcj_tool serve --q Q.csv [--p P.csv | --self]\n"
      "           [--port P]   (TCP line-protocol server until\n"
      "                         SIGINT/SIGTERM; 0 = ephemeral, the default)\n"
      "           [--threads T]  (server-wide worker budget, split across\n"
      "                         shards)\n"
      "           [--shards N] [--max-queue N] [--max-inflight N]\n"
      "           [--envs NAME:Q.csv:P.csv,NAME2:Q2.csv:self,...]\n"
      "                        (extra named environments besides 'default')\n"
      "           [--live]     (serve 'default' as a live environment that\n"
      "                         accepts INSERT/DELETE/COMPACT)\n"
      "           [--compact-threshold N]  (with --live: background-compact\n"
      "                         once N mutations are pending; 0 = manual\n"
      "                         COMPACT only)\n"
      "           [--slow-query-ms MS]  (record queries slower than MS in\n"
      "                         the slow-query log, dumped via METRICS;\n"
      "                         0 = record every query)\n"
      "           [--wal-dir DIR]  (with --live: durable mutation journal —\n"
      "                         replayed on startup, appended before every\n"
      "                         mutation is applied, checkpointed by\n"
      "                         COMPACT)\n"
      "           [--wal-sync-ms MS]  (group-commit window: fdatasync at\n"
      "                         most once per MS; 0 = sync every append)\n"
      "           [--idle-timeout-ms MS]  (reap connections idle longer\n"
      "                         than MS between requests; 0 = never)\n"
      "  rcj_tool client [--host H] --port P [--env NAME]\n"
      "           [--algo brute|inj|bij|obj] [--order dfs|random]\n"
      "           [--verify 0|1] [--seed S] [--limit K] [--io-ms F]\n"
      "           [--deadline-ms MS]  (end-to-end budget; the server sheds\n"
      "                         the query with ERR DeadlineExceeded once\n"
      "                         it expires; 0 = none)\n"
      "           [--expect-shed]  (exit 0 when the server sheds the query\n"
      "                         with Overloaded/DeadlineExceeded — for\n"
      "                         overload drills; other ERRs still fail)\n"
      "           [--out PAIRS.csv] [--quiet]\n"
      "           [--trace]    (request the query's span tree: the server\n"
      "                         appends TRACE lines after END, printed as\n"
      "                         an indented tree on stderr)\n"
      "           [--trace-id ID]  (with --trace: propagate a caller-chosen\n"
      "                         trace id instead of a server-minted one)\n"
      "  rcj_tool client [--host H] --port P --stats\n"
      "                        (print the server's per-shard and per-\n"
      "                         environment STATS tables)\n"
      "  rcj_tool client [--host H] --port P --metrics\n"
      "                        (scrape the server's METRICS registry and\n"
      "                         print the Prometheus text exposition)\n"
      "  rcj_tool client [--host H] --port P [--env NAME] --mutations FILE\n"
      "                        (send the file's INSERT/DELETE/COMPACT lines\n"
      "                         to the server as one batched connection;\n"
      "                         --env names the target of env-less lines)\n"
      "  rcj_tool client [--host H] --port P [--env NAME] --epoch\n"
      "                        (probe the environment's mutation epoch;\n"
      "                         prints 'name epoch')\n"
      "  rcj_tool proxy --backends H:P,H:P,... [--port P] [--replicas R]\n"
      "           [--retry-attempts N] [--retry-base-ms MS]\n"
      "           [--retry-max-ms MS] [--slow-query-ms MS]\n"
      "                        (fleet router tier: speaks the same line\n"
      "                         protocol in front of running serve\n"
      "                         backends — consistent-hash env placement,\n"
      "                         replica fan-out, retry/failover with\n"
      "                         jittered backoff, fleet-wide STATS)\n"
      "  rcj_tool fleet --q Q.csv [--p P.csv | --self] [--backends N]\n"
      "           [--port P] [--replicas R] [--log-dir DIR] [--no-respawn]\n"
      "           [--retry-attempts N] [--retry-base-ms MS]\n"
      "           [--retry-max-ms MS] [serve flags]\n"
      "                        (spawn and supervise N local serve backends\n"
      "                         on ephemeral ports behind one proxy; dead\n"
      "                         backends are respawned; remaining flags\n"
      "                         pass through to every backend's serve)\n"
      "           [--wal-dir DIR]  (with --live: per-backend journals in\n"
      "                         DIR/backend-<i>; a respawned backend\n"
      "                         replays its journal, is fed the mutations\n"
      "                         it missed, and rejoins the read window\n"
      "                         only once its epochs match the primary)\n"
      "  storage knobs (join/batch/serve — where the R-tree pages live):\n"
      "           [--storage mem|file|mmap]  (default mem; file = pread,\n"
      "                         mmap = memory-mapped reads)\n"
      "           [--storage-dir DIR]  (file/mmap page files; default .)\n");
  return 2;
}

std::map<std::string, std::string> ParseFlags(int argc, char** argv,
                                              int first) {
  std::map<std::string, std::string> flags;
  for (int i = first; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0) continue;
    const std::string key = argv[i] + 2;
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      flags[key] = argv[i + 1];
      ++i;
    } else {
      flags[key] = "1";  // boolean flag
    }
  }
  return flags;
}

std::string FlagOr(const std::map<std::string, std::string>& flags,
                   const std::string& key, const std::string& def) {
  const auto it = flags.find(key);
  return it == flags.end() ? def : it->second;
}

int CmdGenerate(const std::map<std::string, std::string>& flags) {
  const std::string kind = FlagOr(flags, "kind", "uniform");
  const size_t n = std::strtoull(FlagOr(flags, "n", "10000").c_str(),
                                 nullptr, 10);
  const uint64_t seed = std::strtoull(FlagOr(flags, "seed", "1").c_str(),
                                      nullptr, 10);
  const std::string out = FlagOr(flags, "out", "");
  if (out.empty()) {
    std::fprintf(stderr, "generate: --out is required\n");
    return 2;
  }

  Dataset dataset;
  dataset.name = kind;
  if (kind == "uniform") {
    dataset.points = GenerateUniform(n, seed);
  } else if (kind == "gaussian") {
    const size_t clusters = std::strtoull(
        FlagOr(flags, "clusters", "5").c_str(), nullptr, 10);
    const double sigma = std::atof(FlagOr(flags, "sigma", "1000").c_str());
    dataset.points = GenerateGaussianClusters(n, clusters, sigma, seed);
  } else if (kind == "pp") {
    dataset.points = MakeRealSurrogate(RealDataset::kPopulatedPlaces, seed, n);
  } else if (kind == "sc") {
    dataset.points = MakeRealSurrogate(RealDataset::kSchools, seed, n);
  } else if (kind == "lo") {
    dataset.points = MakeRealSurrogate(RealDataset::kLocales, seed, n);
  } else {
    std::fprintf(stderr, "generate: unknown kind '%s'\n", kind.c_str());
    return 2;
  }

  const Status status = SaveCsv(dataset, out);
  if (!status.ok()) {
    std::fprintf(stderr, "generate: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu points to %s\n", dataset.points.size(),
              out.c_str());
  return 0;
}

// Parses a small non-negative count flag; rejects signs, garbage, and
// values that would wrap or absurdly over-allocate (strtoull would happily
// turn "-1" into 2^64-1 and take down the thread pool).
bool ParseCount(const std::string& text, size_t max_value, size_t* out) {
  if (text.empty() ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  const unsigned long long value = std::strtoull(text.c_str(), nullptr, 10);
  if (value > max_value) return false;
  *out = static_cast<size_t>(value);
  return true;
}

// The CLI accepts exactly the wire protocol's algorithm spellings — one
// name table for both textual front ends.
bool ParseAlgo(const std::string& name, RcjAlgorithm* algo) {
  return net::ParseAlgorithmName(name, algo);
}

// Uint64 flags that mirror wire fields go through the wire's own parser,
// so CLI and protocol validation can never drift apart.
bool ParseU64Flag(const std::string& key, const std::string& text,
                  uint64_t* out) {
  return net::ParseUint64Field(key, text, out).ok();
}

// Parses batch's comma-separated --algos list, printing a `cmd`-prefixed
// message on bad or missing names.
bool ParseAlgoList(const char* cmd,
                   const std::map<std::string, std::string>& flags,
                   std::vector<RcjAlgorithm>* algorithms) {
  const std::string algos = FlagOr(flags, "algos", "obj");
  size_t pos = 0;
  while (pos <= algos.size()) {
    size_t comma = algos.find(',', pos);
    if (comma == std::string::npos) comma = algos.size();
    const std::string name = algos.substr(pos, comma - pos);
    pos = comma + 1;
    if (name.empty()) continue;
    RcjAlgorithm algorithm;
    if (!ParseAlgo(name, &algorithm)) {
      std::fprintf(stderr, "%s: unknown algorithm '%s'\n", cmd,
                   name.c_str());
      return false;
    }
    algorithms->push_back(algorithm);
  }
  if (algorithms->empty()) {
    std::fprintf(stderr, "%s: --algos lists no algorithms\n", cmd);
    return false;
  }
  return true;
}

// Loads Q (and P unless `self`) and builds the environment, printing a
// `cmd`-prefixed — and, for named --envs entries, `label`-prefixed —
// message on failure. The one construction path for the default and every
// --envs environment, so they can never diverge.
Result<std::unique_ptr<RcjEnvironment>> BuildEnvFromPaths(
    const char* cmd, const std::string& label, const std::string& q_path,
    const std::string& p_path, bool self, const RcjRunOptions& options) {
  const std::string prefix =
      label.empty() ? std::string() : "env '" + label + "': ";
  const auto fail = [&](const Status& status) {
    std::fprintf(stderr, "%s: %s%s\n", cmd, prefix.c_str(),
                 status.ToString().c_str());
    return status;
  };
  Result<Dataset> qset = LoadCsv(q_path);
  if (!qset.ok()) return fail(qset.status());
  Result<std::unique_ptr<RcjEnvironment>> env(
      Status::InvalidArgument("not yet built"));
  if (self) {
    env = RcjEnvironment::BuildSelf(qset.value().points, options);
  } else {
    Result<Dataset> pset = LoadCsv(p_path);
    if (!pset.ok()) return fail(pset.status());
    env = RcjEnvironment::Build(qset.value().points, pset.value().points,
                                options);
  }
  if (!env.ok()) return fail(env.status());
  return env;
}

// Reads the storage/sizing flags shared by join/batch/serve
// (--buffer-frac, --page-size, --storage, --storage-dir) into `options`.
// On failure prints a `cmd`-prefixed message, sets `*exit_code`, and
// returns false.
bool ParseRunOptions(const char* cmd,
                     const std::map<std::string, std::string>& flags,
                     RcjRunOptions* options, int* exit_code) {
  *exit_code = 0;
  options->buffer_fraction =
      std::atof(FlagOr(flags, "buffer-frac", "0.01").c_str());
  if (!(options->buffer_fraction >= 0.0) ||
      options->buffer_fraction > 1.0) {
    std::fprintf(stderr, "%s: invalid --buffer-frac '%s' (want [0, 1])\n",
                 cmd, FlagOr(flags, "buffer-frac", "0.01").c_str());
    *exit_code = 2;
    return false;
  }
  // Pages must hold the node header plus at least a few entries; a bare
  // strtoul would let "abc" (0) or a tiny value underflow the node layout
  // in Release builds.
  size_t page_size = 0;
  if (!ParseCount(FlagOr(flags, "page-size", "1024"), 1u << 20,
                  &page_size) ||
      page_size < 256) {
    std::fprintf(stderr,
                 "%s: invalid --page-size '%s' (want 256..1048576)\n", cmd,
                 FlagOr(flags, "page-size", "1024").c_str());
    *exit_code = 2;
    return false;
  }
  options->page_size = static_cast<uint32_t>(page_size);
  // Storage backend for the environment's page stores: mem (historical
  // default), file (pread), or mmap. --storage-dir picks where the page
  // files of the non-mem backends live.
  if (!ParseStorageBackend(FlagOr(flags, "storage", "mem"),
                           &options->storage)) {
    std::fprintf(stderr, "%s: invalid --storage '%s' (want mem|file|mmap)\n",
                 cmd, FlagOr(flags, "storage", "mem").c_str());
    *exit_code = 2;
    return false;
  }
  options->storage_dir = FlagOr(flags, "storage-dir", "");
  return true;
}

// Reads the --q/--p/--self dataset selection, printing a `cmd`-prefixed
// message and setting `*exit_code` on a missing flag.
bool ParseDatasetPaths(const char* cmd,
                       const std::map<std::string, std::string>& flags,
                       std::string* q_path, std::string* p_path, bool* self,
                       int* exit_code) {
  *exit_code = 0;
  *q_path = FlagOr(flags, "q", "");
  if (q_path->empty()) {
    std::fprintf(stderr, "%s: --q is required\n", cmd);
    *exit_code = 2;
    return false;
  }
  *self = flags.count("self") != 0;
  *p_path = FlagOr(flags, "p", "");
  if (!*self && p_path->empty()) {
    std::fprintf(stderr, "%s: --p or --self is required\n", cmd);
    *exit_code = 2;
    return false;
  }
  return true;
}

// Shared by join/batch: reads --buffer-frac/--page-size into `options`,
// loads --q (and --p unless --self), and builds the environment. On
// failure prints a `cmd`-prefixed message and returns the process exit
// code via `*exit_code`.
Result<std::unique_ptr<RcjEnvironment>> BuildEnvFromFlags(
    const char* cmd, const std::map<std::string, std::string>& flags,
    RcjRunOptions* options, int* exit_code) {
  if (!ParseRunOptions(cmd, flags, options, exit_code)) {
    return Status::InvalidArgument("bad run options");
  }
  std::string q_path;
  std::string p_path;
  bool self = false;
  if (!ParseDatasetPaths(cmd, flags, &q_path, &p_path, &self, exit_code)) {
    return Status::InvalidArgument("bad dataset flags");
  }
  Result<std::unique_ptr<RcjEnvironment>> env =
      BuildEnvFromPaths(cmd, "", q_path, p_path, self, *options);
  if (!env.ok()) *exit_code = 1;
  return env;
}

// Builds a LiveEnvironment from the --q/--p/--self datasets (the live
// front end of join --mutations and serve --live). `options` must already
// be parsed. With a non-empty `wal_dir` the environment is durable: the
// journal there is replayed first (the datasets only seed a journal that
// has no checkpoint yet), and every later mutation is logged before it is
// applied.
Result<std::unique_ptr<LiveEnvironment>> BuildLiveFromFlags(
    const char* cmd, const std::map<std::string, std::string>& flags,
    const RcjRunOptions& options, size_t compact_threshold,
    const std::string& wal_dir, int wal_sync_ms, int* exit_code) {
  std::string q_path;
  std::string p_path;
  bool self = false;
  if (!ParseDatasetPaths(cmd, flags, &q_path, &p_path, &self, exit_code)) {
    return Status::InvalidArgument("bad dataset flags");
  }
  const auto fail = [&](const Status& status) {
    std::fprintf(stderr, "%s: %s\n", cmd, status.ToString().c_str());
    *exit_code = 1;
    return status;
  };

  std::unique_ptr<MutationLog> log;
  WalRecovery recovery;
  if (!wal_dir.empty()) {
    MutationLogOptions log_options;
    log_options.dir = wal_dir;
    log_options.sync_interval_ms = wal_sync_ms;
    Result<std::unique_ptr<MutationLog>> opened =
        MutationLog::Open(log_options, &recovery);
    if (!opened.ok()) return fail(opened.status());
    log = std::move(opened).value();
    if (recovery.has_snapshot && recovery.self_join != self) {
      return fail(Status::InvalidArgument(
          std::string(wal_dir) + " holds a checkpoint of a " +
          (recovery.self_join ? "self" : "two-dataset") +
          "-join environment but the flags describe the other flavour"));
    }
  }

  LiveOptions live_options;
  live_options.build = options;
  live_options.compact_threshold = compact_threshold;
  live_options.initial_epoch = recovery.snapshot_epoch;
  Result<std::unique_ptr<LiveEnvironment>> live(
      Status::InvalidArgument("not yet built"));
  if (recovery.has_snapshot) {
    // The checkpoint supersedes the CSVs: it is the folded image of what
    // the environment actually contained when it last compacted.
    live = self ? LiveEnvironment::CreateSelf(recovery.base_q, live_options)
                : LiveEnvironment::Create(recovery.base_q, recovery.base_p,
                                          live_options);
  } else if (self) {
    Result<Dataset> qset = LoadCsv(q_path);
    if (!qset.ok()) return fail(qset.status());
    live = LiveEnvironment::CreateSelf(qset.value().points, live_options);
  } else {
    Result<Dataset> qset = LoadCsv(q_path);
    if (!qset.ok()) return fail(qset.status());
    Result<Dataset> pset = LoadCsv(p_path);
    if (!pset.ok()) return fail(pset.status());
    live = LiveEnvironment::Create(qset.value().points, pset.value().points,
                                   live_options);
  }
  if (!live.ok()) return fail(live.status());

  if (log != nullptr) {
    // Replay before attaching: recovered records must not re-journal.
    const Status replayed = ReplayRecovery(recovery, live.value().get());
    if (!replayed.ok()) return fail(replayed);
    live.value()->AttachLog(std::move(log));
    std::printf("%s: recovered %s from %s (snapshot epoch %llu, %zu journal "
                "records replayed, %llu torn bytes truncated)\n",
                cmd, recovery.has_snapshot ? "checkpoint" : "journal",
                wal_dir.c_str(),
                static_cast<unsigned long long>(recovery.snapshot_epoch),
                recovery.records.size(),
                static_cast<unsigned long long>(recovery.truncated_bytes));
  }
  return live;
}

// Applies a mutation file (wire-grammar INSERT/DELETE/COMPACT lines;
// blank lines and #-comments skipped) to `live` in order. The env= field
// is ignored — the file addresses whatever environment the caller bound.
// Prints `cmd`-prefixed errors with the file line number.
bool ApplyMutationFile(const char* cmd, const std::string& path,
                       LiveEnvironment* live) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "%s: cannot open %s\n", cmd, path.c_str());
    return false;
  }
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    net::WireMutation mutation;
    Status status = net::ParseMutationLine(line, &mutation);
    if (status.ok()) {
      switch (mutation.op) {
        case net::WireMutationOp::kInsert:
          status = live->Insert(mutation.side, mutation.rec);
          break;
        case net::WireMutationOp::kDelete:
          status = live->Delete(mutation.side, mutation.rec.id);
          break;
        case net::WireMutationOp::kCompact:
          status = live->Compact();
          break;
      }
    }
    if (!status.ok()) {
      std::fprintf(stderr, "%s: %s:%d: %s\n", cmd, path.c_str(), lineno,
                   status.ToString().c_str());
      return false;
    }
  }
  return true;
}

int CmdJoin(const std::map<std::string, std::string>& flags) {
  QuerySpec spec;
  const std::string algo_name = FlagOr(flags, "algo", "obj");
  if (!ParseAlgo(algo_name, &spec.algorithm)) {
    std::fprintf(stderr, "join: unknown algorithm '%s'\n", algo_name.c_str());
    return 2;
  }

  // --threads switches the join from the serial runner to the parallel
  // engine, so the default join output keeps its historical cold-start
  // accounting; parsed before the expensive environment build.
  const bool engine_mode = flags.count("threads") != 0;
  EngineOptions engine_options;
  if (engine_mode && !ParseCount(FlagOr(flags, "threads", "0"), 4096,
                                 &engine_options.num_threads)) {
    std::fprintf(stderr, "join: invalid --threads '%s'\n",
                 FlagOr(flags, "threads", "0").c_str());
    return 2;
  }

  const bool self = flags.count("self") != 0;
  const std::string mutations = FlagOr(flags, "mutations", "");
  int exit_code = 0;
  RcjRunOptions options;
  std::unique_ptr<RcjEnvironment> env;
  std::unique_ptr<LiveEnvironment> live;
  LiveSnapshot snapshot;
  if (!mutations.empty()) {
    // Live path: wrap the datasets, replay the mutation file, then join
    // the mutated view through a snapshot — the in-process oracle a wire
    // client's stream is byte-compared against.
    if (!ParseRunOptions("join", flags, &options, &exit_code)) {
      return exit_code;
    }
    Result<std::unique_ptr<LiveEnvironment>> built = BuildLiveFromFlags(
        "join", flags, options, /*compact_threshold=*/0, /*wal_dir=*/"",
        /*wal_sync_ms=*/0, &exit_code);
    if (!built.ok()) return exit_code;
    live = std::move(built).value();
    if (!ApplyMutationFile("join", mutations, live.get())) return 1;
    snapshot = live->TakeSnapshot();
    spec.env = snapshot.env();
    spec.overlay = snapshot.overlay();
  } else {
    Result<std::unique_ptr<RcjEnvironment>> built =
        BuildEnvFromFlags("join", flags, &options, &exit_code);
    if (!built.ok()) return exit_code;
    env = std::move(built).value();
    spec.env = env.get();
  }

  Result<RcjRunResult> result(Status::InvalidArgument("not yet run"));
  if (engine_mode) {
    engine_options.worker_buffer_fraction = options.buffer_fraction;
    Engine engine(engine_options);
    result = engine.Run(spec);
  } else {
    result = live != nullptr ? snapshot.Run(spec) : env->Run(spec);
  }
  if (!result.ok()) {
    std::fprintf(stderr, "join: %s\n", result.status().ToString().c_str());
    return 1;
  }

  RcjRunResult& run = result.value();
  // The live stream stays in engine/serial order so it can be byte-compared
  // against a wire client's stream; the static output keeps its historical
  // sorted order.
  if (mutations.empty()) NormalizePairs(&run.pairs);

  const std::string out = FlagOr(flags, "out", "");
  if (!out.empty()) {
    std::FILE* f = std::fopen(out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "join: cannot open %s\n", out.c_str());
      return 1;
    }
    std::fprintf(f, "p_id,q_id,center_x,center_y,radius\n");
    for (const RcjPair& pair : run.pairs) {
      std::fprintf(f, "%lld,%lld,%.17g,%.17g,%.17g\n",
                   static_cast<long long>(pair.p.id),
                   static_cast<long long>(pair.q.id), pair.circle.center.x,
                   pair.circle.center.y, pair.circle.Radius());
    }
    std::fclose(f);
  }

  std::printf("%s%s: %llu pairs | candidates %llu | node accesses %llu | "
              "faults %llu (%llu cold, %llu warm) | I/O %.2fs "
              "(wall %.3fs) | CPU %.3fs\n",
              AlgorithmName(spec.algorithm), self ? " (self)" : "",
              static_cast<unsigned long long>(run.stats.results),
              static_cast<unsigned long long>(run.stats.candidates),
              static_cast<unsigned long long>(run.stats.node_accesses),
              static_cast<unsigned long long>(run.stats.page_faults),
              static_cast<unsigned long long>(run.stats.cold_faults),
              static_cast<unsigned long long>(run.stats.warm_faults),
              run.stats.io_seconds, run.stats.io_wall_seconds,
              run.stats.cpu_seconds);
  if (!out.empty()) std::printf("pairs written to %s\n", out.c_str());
  return 0;
}

// Executes a batch of queries (the --algos list, repeated --repeat times)
// through the parallel engine over one warm environment — the service
// shape: build once, answer many. Every query streams to its own sink in
// serial order; --limit K turns each into a top-k query that stops its
// remaining work once the prefix is delivered, and --out writes the first
// query's pairs to CSV as they arrive.
int CmdBatch(const std::map<std::string, std::string>& flags) {
  // Validate the cheap flags first — a typo must fail in milliseconds, not
  // after minutes of tree construction.
  std::vector<RcjAlgorithm> algorithms;
  if (!ParseAlgoList("batch", flags, &algorithms)) return 2;
  size_t repeat = 1;
  if (!ParseCount(FlagOr(flags, "repeat", "1"), 1u << 20, &repeat)) {
    std::fprintf(stderr, "batch: invalid --repeat '%s'\n",
                 FlagOr(flags, "repeat", "1").c_str());
    return 2;
  }
  size_t limit = 0;
  if (!ParseCount(FlagOr(flags, "limit", "0"), 1u << 30, &limit)) {
    std::fprintf(stderr, "batch: invalid --limit '%s'\n",
                 FlagOr(flags, "limit", "0").c_str());
    return 2;
  }
  EngineOptions engine_options;
  if (!ParseCount(FlagOr(flags, "threads", "0"), 4096,
                  &engine_options.num_threads)) {
    std::fprintf(stderr, "batch: invalid --threads '%s'\n",
                 FlagOr(flags, "threads", "0").c_str());
    return 2;
  }

  RcjRunOptions options;
  int exit_code = 0;
  Result<std::unique_ptr<RcjEnvironment>> env =
      BuildEnvFromFlags("batch", flags, &options, &exit_code);
  if (!env.ok()) return exit_code;

  const std::string out = FlagOr(flags, "out", "");
  std::FILE* out_file = nullptr;
  if (!out.empty()) {
    out_file = std::fopen(out.c_str(), "w");
    if (out_file == nullptr) {
      std::fprintf(stderr, "batch: cannot open %s\n", out.c_str());
      return 1;
    }
    std::fprintf(out_file, "p_id,q_id,center_x,center_y,radius\n");
  }
  // Pairs are counted by the engine (stats.results), never collected: the
  // first query may write them out, the rest discard them.
  CallbackSink write_csv([out_file](const RcjPair& pair) {
    std::fprintf(out_file, "%lld,%lld,%.17g,%.17g,%.17g\n",
                 static_cast<long long>(pair.p.id),
                 static_cast<long long>(pair.q.id), pair.circle.center.x,
                 pair.circle.center.y, pair.circle.Radius());
    return true;
  });
  CallbackSink discard([](const RcjPair&) { return true; });

  // Expand --algos x --repeat into the query list.
  std::vector<EngineQuery> queries;
  for (size_t r = 0; r < (repeat == 0 ? 1 : repeat); ++r) {
    for (const RcjAlgorithm algorithm : algorithms) {
      EngineQuery query;
      query.spec = QuerySpec::For(env.value().get());
      query.spec.algorithm = algorithm;
      query.spec.limit = limit;
      query.sink =
          queries.empty() && out_file != nullptr ? &write_csv : &discard;
      queries.push_back(query);
    }
  }
  // Workers honor --buffer-frac too, so the engine side and any
  // --compare-serial replay run under the same buffer sizing.
  engine_options.worker_buffer_fraction = options.buffer_fraction;
  Engine engine(engine_options);

  const auto start = std::chrono::steady_clock::now();
  const std::vector<EngineQueryResult> results = engine.RunBatch(queries);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (out_file != nullptr) std::fclose(out_file);

  std::printf("%-6s %10s %12s %12s %10s %8s %8s %9s %10s %9s\n", "algo",
              "results", "candidates", "node-access", "faults", "cold",
              "warm", "I/O(s)", "IOwall(s)", "CPU(s)");
  int failures = 0;
  for (size_t i = 0; i < results.size(); ++i) {
    if (!results[i].status.ok()) {
      std::fprintf(stderr, "query %zu: %s\n", i,
                   results[i].status.ToString().c_str());
      ++failures;
      continue;
    }
    const JoinStats& stats = results[i].run.stats;
    std::printf("%-6s %10llu %12llu %12llu %10llu %8llu %8llu %9.2f %10.3f "
                "%9.3f\n",
                AlgorithmName(queries[i].spec.algorithm),
                static_cast<unsigned long long>(stats.results),
                static_cast<unsigned long long>(stats.candidates),
                static_cast<unsigned long long>(stats.node_accesses),
                static_cast<unsigned long long>(stats.page_faults),
                static_cast<unsigned long long>(stats.cold_faults),
                static_cast<unsigned long long>(stats.warm_faults),
                stats.io_seconds, stats.io_wall_seconds, stats.cpu_seconds);
  }
  std::printf("batch: %zu queries in %.3f s on %zu threads\n",
              queries.size(), wall, engine.num_threads());
  if (out_file != nullptr) {
    std::printf("first query's pairs written to %s\n", out.c_str());
  }

  if (flags.count("compare-serial") != 0) {
    const auto serial_start = std::chrono::steady_clock::now();
    for (const EngineQuery& query : queries) {
      Result<RcjRunResult> run = env.value()->Run(query.spec);
      if (!run.ok()) {
        std::fprintf(stderr, "serial replay failed: %s\n",
                     run.status().ToString().c_str());
        return 1;
      }
    }
    const double serial_wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      serial_start)
            .count();
    std::printf("serial loop: %.3f s (batch speedup %.2fx)\n", serial_wall,
                serial_wall / wall);
  }
  return failures == 0 ? 0 : 1;
}

// Set by SIGINT/SIGTERM: serve and fleet leave their loops and shut down.
volatile std::sig_atomic_t g_serve_stop = 0;

void HandleStopSignal(int) { g_serve_stop = 1; }

// Builds the extra environments named by --envs ("name:q.csv:p.csv" or
// "name:q.csv:self", comma-separated). Appends (name, environment) pairs;
// the unique_ptrs own them for the server's lifetime.
bool BuildExtraEnvs(
    const std::string& spec_list, const RcjRunOptions& options,
    std::vector<std::pair<std::string, std::unique_ptr<RcjEnvironment>>>*
        envs) {
  size_t pos = 0;
  while (pos <= spec_list.size()) {
    size_t comma = spec_list.find(',', pos);
    if (comma == std::string::npos) comma = spec_list.size();
    const std::string item = spec_list.substr(pos, comma - pos);
    pos = comma + 1;
    if (item.empty()) continue;
    const size_t c1 = item.find(':');
    const size_t c2 = c1 == std::string::npos ? std::string::npos
                                              : item.find(':', c1 + 1);
    if (c1 == std::string::npos || c2 == std::string::npos) {
      std::fprintf(stderr,
                   "serve: --envs entry '%s' wants NAME:Q.csv:P.csv or "
                   "NAME:Q.csv:self\n",
                   item.c_str());
      return false;
    }
    const std::string name = item.substr(0, c1);
    const std::string q_path = item.substr(c1 + 1, c2 - c1 - 1);
    const std::string p_path = item.substr(c2 + 1);
    if (name.empty() || q_path.empty() || p_path.empty()) {
      std::fprintf(stderr, "serve: --envs entry '%s' has an empty field\n",
                   item.c_str());
      return false;
    }
    Result<std::unique_ptr<RcjEnvironment>> env = BuildEnvFromPaths(
        "serve", name, q_path, p_path, p_path == "self", options);
    if (!env.ok()) return false;
    envs->emplace_back(name, std::move(env).value());
  }
  return true;
}

// `serve`: the network server. Builds the environments, wires them into a
// ShardRouter + NetServer, and blocks until SIGINT/SIGTERM, then shuts
// down cleanly (so `kill $pid; wait $pid` in scripts observes exit 0).
int CmdServe(const std::map<std::string, std::string>& flags) {
  // Per-query flags have no meaning for the server (clients bring their
  // own algorithm/limit per request); reject them loudly instead of
  // dropping them on the floor.
  for (const char* per_query :
       {"algos", "repeat", "limit", "out", "compare-serial"}) {
    if (flags.count(per_query) != 0) {
      std::fprintf(stderr,
                   "serve: --%s is not a server flag (run queries "
                   "in-process with `rcj_tool batch`, or over the wire "
                   "with `rcj_tool client`)\n",
                   per_query);
      return 2;
    }
  }
  // Installed before any slow work (environment build, bind) so a
  // supervisor's immediate `kill $pid; wait $pid` always observes the
  // clean-shutdown exit path, never the default signal disposition.
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);

  size_t port = 0;
  if (!ParseCount(FlagOr(flags, "port", "0"), 65535, &port)) {
    std::fprintf(stderr, "serve: invalid --port '%s'\n",
                 FlagOr(flags, "port", "0").c_str());
    return 2;
  }
  ShardRouterOptions router_options;
  if (!ParseCount(FlagOr(flags, "shards", "1"), 4096,
                  &router_options.num_shards) ||
      router_options.num_shards == 0) {
    std::fprintf(stderr, "serve: invalid --shards '%s' (want 1..4096)\n",
                 FlagOr(flags, "shards", "1").c_str());
    return 2;
  }
  if (!ParseCount(FlagOr(flags, "max-queue", "0"), 1u << 20,
                  &router_options.admission.max_queue_per_shard)) {
    std::fprintf(stderr, "serve: invalid --max-queue '%s'\n",
                 FlagOr(flags, "max-queue", "0").c_str());
    return 2;
  }
  if (!ParseCount(FlagOr(flags, "max-inflight", "0"), 1u << 20,
                  &router_options.admission.max_inflight_total)) {
    std::fprintf(stderr, "serve: invalid --max-inflight '%s'\n",
                 FlagOr(flags, "max-inflight", "0").c_str());
    return 2;
  }
  size_t total_threads = 0;
  if (!ParseCount(FlagOr(flags, "threads", "0"), 4096, &total_threads)) {
    std::fprintf(stderr, "serve: invalid --threads '%s'\n",
                 FlagOr(flags, "threads", "0").c_str());
    return 2;
  }
  // --threads is the server-wide worker budget; every shard owns its own
  // engine, so divide instead of letting N shards each size themselves to
  // the full machine (8 shards on a 16-core box must not spawn 128
  // workers). 0 = hardware concurrency, split the same way.
  if (total_threads == 0) {
    total_threads = std::thread::hardware_concurrency();
    if (total_threads == 0) total_threads = 1;
  }
  router_options.service.engine.num_threads =
      total_threads / router_options.num_shards > 0
          ? total_threads / router_options.num_shards
          : 1;

  const bool live_mode = flags.count("live") != 0;
  size_t compact_threshold = 0;
  if (!ParseCount(FlagOr(flags, "compact-threshold", "0"), 1u << 30,
                  &compact_threshold)) {
    std::fprintf(stderr, "serve: invalid --compact-threshold '%s'\n",
                 FlagOr(flags, "compact-threshold", "0").c_str());
    return 2;
  }
  if (compact_threshold != 0 && !live_mode) {
    std::fprintf(stderr,
                 "serve: --compact-threshold needs --live (static "
                 "environments never compact)\n");
    return 2;
  }
  const std::string wal_dir = FlagOr(flags, "wal-dir", "");
  if (!wal_dir.empty() && !live_mode) {
    std::fprintf(stderr,
                 "serve: --wal-dir needs --live (static environments have "
                 "no mutations to journal)\n");
    return 2;
  }
  size_t wal_sync_ms = 0;
  if (!ParseCount(FlagOr(flags, "wal-sync-ms", "0"), 60000, &wal_sync_ms)) {
    std::fprintf(stderr, "serve: invalid --wal-sync-ms '%s' (want 0..60000)\n",
                 FlagOr(flags, "wal-sync-ms", "0").c_str());
    return 2;
  }
  if (wal_sync_ms != 0 && wal_dir.empty()) {
    std::fprintf(stderr, "serve: --wal-sync-ms needs --wal-dir\n");
    return 2;
  }
  size_t idle_timeout_ms = 0;
  if (!ParseCount(FlagOr(flags, "idle-timeout-ms", "0"), 86400000,
                  &idle_timeout_ms)) {
    std::fprintf(stderr, "serve: invalid --idle-timeout-ms '%s'\n",
                 FlagOr(flags, "idle-timeout-ms", "0").c_str());
    return 2;
  }

  RcjRunOptions options;
  int exit_code = 0;
  std::unique_ptr<RcjEnvironment> env;
  std::unique_ptr<LiveEnvironment> live;
  if (live_mode) {
    if (!ParseRunOptions("serve", flags, &options, &exit_code)) {
      return exit_code;
    }
    Result<std::unique_ptr<LiveEnvironment>> built = BuildLiveFromFlags(
        "serve", flags, options, compact_threshold, wal_dir,
        static_cast<int>(wal_sync_ms), &exit_code);
    if (!built.ok()) return exit_code;
    live = std::move(built).value();
  } else {
    Result<std::unique_ptr<RcjEnvironment>> built =
        BuildEnvFromFlags("serve", flags, &options, &exit_code);
    if (!built.ok()) return exit_code;
    env = std::move(built).value();
  }
  router_options.service.engine.worker_buffer_fraction =
      options.buffer_fraction;

  // --q/--p define "default"; --envs adds more named environments whose
  // ownership this vector holds for the server's lifetime.
  std::vector<std::pair<std::string, std::unique_ptr<RcjEnvironment>>>
      extra_envs;
  if (!BuildExtraEnvs(FlagOr(flags, "envs", ""), options, &extra_envs)) {
    return 2;
  }

  ShardRouter router(router_options);
  Status status =
      live != nullptr
          ? router.RegisterLiveEnvironment("default", live.get())
          : router.RegisterEnvironment("default", env.get());
  for (const auto& named : extra_envs) {
    if (!status.ok()) break;
    status = router.RegisterEnvironment(named.first, named.second.get());
  }
  if (!status.ok()) {
    std::fprintf(stderr, "serve: %s\n", status.ToString().c_str());
    return 2;
  }

  NetServerOptions server_options;
  server_options.port = static_cast<uint16_t>(port);
  server_options.idle_timeout_ms = static_cast<int>(idle_timeout_ms);
  const auto slow_it = flags.find("slow-query-ms");
  if (slow_it != flags.end()) {
    if (!net::ParseDoubleField("slow_query_ms", slow_it->second,
                               &server_options.slow_query_ms)
             .ok() ||
        server_options.slow_query_ms < 0.0) {
      std::fprintf(stderr, "serve: invalid --slow-query-ms '%s' (want >= 0)\n",
                   slow_it->second.c_str());
      return 2;
    }
  }
  NetServer server(&router, server_options);
  status = server.Start();
  if (!status.ok()) {
    std::fprintf(stderr, "serve: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("listening on %s:%u (%zu shards, %zu environments%s, "
              "%zu worker threads)\n",
              server_options.bind_address.c_str(),
              static_cast<unsigned>(server.port()), router.num_shards(),
              extra_envs.size() + 1, live != nullptr ? ", live default" : "",
              router.num_threads());
  std::fflush(stdout);

  while (g_serve_stop == 0) {
    poll(nullptr, 0, 100);  // nothing to do: connections run on threads
  }
  server.Stop();
  // Unwire the live environment's invalidation hook before the router's
  // services die under it — its background compactor may outlive them.
  if (live != nullptr) router.ReleaseEnvironment("default");
  const NetServer::Counters counters = server.counters();
  std::printf("shut down: %llu connections | %llu ok | %llu rejected | "
              "%llu shed | %llu expired | %llu cancelled | %llu failed | "
              "%llu idle-closed | %llu stats | %llu mutations\n",
              static_cast<unsigned long long>(counters.connections),
              static_cast<unsigned long long>(counters.ok),
              static_cast<unsigned long long>(counters.rejected),
              static_cast<unsigned long long>(counters.shed),
              static_cast<unsigned long long>(counters.expired),
              static_cast<unsigned long long>(counters.cancelled),
              static_cast<unsigned long long>(counters.failed),
              static_cast<unsigned long long>(counters.idle_closed),
              static_cast<unsigned long long>(counters.stats),
              static_cast<unsigned long long>(counters.mutations));
  return 0;
}

// Connects to host:port, returning the fd, or a negated process exit code
// (message already printed): -1 = runtime failure (retryable), -2 = usage
// error (a malformed --host must keep exiting 2, not 1, so wrapper
// scripts don't retry a permanently broken invocation).
int ConnectClient(const std::string& host, size_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    std::fprintf(stderr, "client: socket: %s\n", std::strerror(errno));
    return -1;
  }
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    std::fprintf(stderr, "client: bad host '%s'\n", host.c_str());
    close(fd);
    return -2;
  }
  if (connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
              sizeof(addr)) != 0) {
    std::fprintf(stderr, "client: connect %s:%zu: %s\n", host.c_str(), port,
                 std::strerror(errno));
    close(fd);
    return -1;
  }
  return fd;
}

// `client --stats`: one STATS probe, printed as two tables (per-shard,
// then per-environment). Exit 0 iff the response ends in a well-formed
// ENDSTATS whose shard and environment counts match the rows received.
int CmdClientStats(const std::string& host, size_t port) {
  const int fd = ConnectClient(host, port);
  if (fd < 0) return -fd;
  if (!net::SendAll(fd, "STATS\n")) {
    std::fprintf(stderr, "client: send: %s\n", std::strerror(errno));
    close(fd);
    return 1;
  }
  net::LineReader reader(fd);
  std::string line;
  int exit_code = 1;
  if (!reader.ReadLine(&line)) {
    std::fprintf(stderr, "client: connection closed before a response\n");
  } else if (line != "OK") {
    Status err = Status::IoError("malformed response '" + line + "'");
    net::ParseErrLine(line, &err);
    std::fprintf(stderr, "client: %s\n", err.ToString().c_str());
  } else {
    std::printf("%-6s %5s %7s %9s %10s %9s %6s %10s %10s %7s\n", "shard",
                "envs", "queued", "inflight", "submitted", "admitted",
                "shed", "completed", "cancelled", "failed");
    uint64_t shard_rows = 0;
    uint64_t env_rows = 0;
    while (reader.ReadLine(&line)) {
      net::WireShardStats shard;
      net::WireEnvStats env;
      uint64_t shards = 0;
      uint64_t envs = 0;
      Status err = Status::OK();
      if (net::ParseShardStatsLine(line, &shard).ok()) {
        ++shard_rows;
        std::printf("%-6llu %5llu %7llu %9llu %10llu %9llu %6llu %10llu "
                    "%10llu %7llu\n",
                    static_cast<unsigned long long>(shard.shard),
                    static_cast<unsigned long long>(shard.environments),
                    static_cast<unsigned long long>(shard.queued),
                    static_cast<unsigned long long>(shard.inflight),
                    static_cast<unsigned long long>(shard.submitted),
                    static_cast<unsigned long long>(shard.admitted),
                    static_cast<unsigned long long>(shard.shed),
                    static_cast<unsigned long long>(shard.completed),
                    static_cast<unsigned long long>(shard.cancelled),
                    static_cast<unsigned long long>(shard.failed));
      } else if (net::ParseEnvStatsLine(line, &env).ok()) {
        if (env_rows == 0) {
          std::printf("%-16s %5s %4s %10s %8s %7s %10s %11s %8s %8s\n",
                      "env", "shard", "live", "generation", "epoch",
                      "delta", "tombstones", "compactions", "base_q",
                      "base_p");
        }
        ++env_rows;
        std::printf("%-16s %5llu %4d %10llu %8llu %7llu %10llu %11llu "
                    "%8llu %8llu\n",
                    env.name.c_str(),
                    static_cast<unsigned long long>(env.shard),
                    env.live ? 1 : 0,
                    static_cast<unsigned long long>(env.generation),
                    static_cast<unsigned long long>(env.epoch),
                    static_cast<unsigned long long>(env.delta),
                    static_cast<unsigned long long>(env.tombstones),
                    static_cast<unsigned long long>(env.compactions),
                    static_cast<unsigned long long>(env.base_q),
                    static_cast<unsigned long long>(env.base_p));
      } else if (net::ParseStatsEndLine(line, &shards, &envs).ok()) {
        exit_code = (shards == shard_rows && envs == env_rows) ? 0 : 1;
        if (exit_code != 0) {
          std::fprintf(stderr,
                       "client: ENDSTATS reports %llu shards / %llu envs "
                       "but %llu / %llu rows streamed\n",
                       static_cast<unsigned long long>(shards),
                       static_cast<unsigned long long>(envs),
                       static_cast<unsigned long long>(shard_rows),
                       static_cast<unsigned long long>(env_rows));
        }
        break;
      } else if (net::ParseErrLine(line, &err).ok()) {
        std::fprintf(stderr, "client: %s\n", err.ToString().c_str());
        break;
      } else {
        std::fprintf(stderr, "client: malformed line '%s'\n", line.c_str());
        break;
      }
    }
  }
  close(fd);
  return exit_code;
}

// `client --metrics`: one METRICS scrape, the Prometheus text exposition
// relayed to stdout verbatim (slow-query entries ride along as `# slowlog`
// comments). Exit 0 iff the ENDMETRICS line count matches the lines
// received.
int CmdClientMetrics(const std::string& host, size_t port) {
  const int fd = ConnectClient(host, port);
  if (fd < 0) return -fd;
  if (!net::SendAll(fd, "METRICS\n")) {
    std::fprintf(stderr, "client: send: %s\n", std::strerror(errno));
    close(fd);
    return 1;
  }
  net::LineReader reader(fd);
  std::string line;
  int exit_code = 1;
  if (!reader.ReadLine(&line)) {
    std::fprintf(stderr, "client: connection closed before a response\n");
  } else if (line != "OK") {
    Status err = Status::IoError("malformed response '" + line + "'");
    net::ParseErrLine(line, &err);
    std::fprintf(stderr, "client: %s\n", err.ToString().c_str());
  } else {
    uint64_t streamed = 0;
    uint64_t reported = 0;
    while (reader.ReadLine(&line)) {
      if (net::ParseMetricsEndLine(line, &reported).ok()) {
        exit_code = reported == streamed ? 0 : 1;
        if (exit_code != 0) {
          std::fprintf(stderr,
                       "client: ENDMETRICS reports %llu lines but %llu "
                       "streamed\n",
                       static_cast<unsigned long long>(reported),
                       static_cast<unsigned long long>(streamed));
        }
        break;
      }
      ++streamed;
      std::printf("%s\n", line.c_str());
    }
    if (exit_code != 0 && reported == 0) {
      std::fprintf(stderr, "client: stream ended without ENDMETRICS\n");
    }
  }
  close(fd);
  return exit_code;
}

// `client --epoch`: one EPOCH probe for --env, printed as "env epoch".
// The chaos smoke uses it to assert a respawned backend's mutation epoch
// matches the survivor's before comparing their query streams.
int CmdClientEpoch(const std::string& host, size_t port,
                   const std::string& env_name) {
  const int fd = ConnectClient(host, port);
  if (fd < 0) return -fd;
  if (!net::SendAll(fd, net::FormatEpochRequestLine(env_name) + "\n")) {
    std::fprintf(stderr, "client: send: %s\n", std::strerror(errno));
    close(fd);
    return 1;
  }
  net::LineReader reader(fd);
  std::string line;
  int exit_code = 1;
  if (!reader.ReadLine(&line)) {
    std::fprintf(stderr, "client: connection closed before a response\n");
  } else if (line != "OK") {
    Status err = Status::IoError("malformed response '" + line + "'");
    net::ParseErrLine(line, &err);
    std::fprintf(stderr, "client: %s\n", err.ToString().c_str());
  } else if (!reader.ReadLine(&line)) {
    std::fprintf(stderr, "client: connection closed before the epoch row\n");
  } else {
    std::string name;
    uint64_t epoch = 0;
    const Status parsed = net::ParseEpochResponseLine(line, &name, &epoch);
    if (!parsed.ok()) {
      std::fprintf(stderr, "client: %s\n", parsed.ToString().c_str());
    } else {
      std::printf("%s %llu\n", name.c_str(),
                  static_cast<unsigned long long>(epoch));
      exit_code = 0;
    }
  }
  close(fd);
  return exit_code;
}

// `client --mutations FILE`: sends the file's INSERT/DELETE/COMPACT lines
// to the server, one request (= one connection) each, in order. Lines
// without an env= field are bound to `env_name` (the --env flag). Exits
// non-zero at the first rejected or malformed exchange; on success prints
// the final MUT acknowledgement's counters.
int CmdClientMutations(const std::string& host, size_t port,
                       const std::string& env_name,
                       const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "client: cannot open %s\n", path.c_str());
    return 1;
  }
  // One connection carries the whole batch: the server acknowledges each
  // op with OK + MUT and keeps the conversation open for the next line,
  // so a mutation file costs one dial instead of one per op.
  const int fd = ConnectClient(host, port);
  if (fd < 0) return -fd;
  net::ProtocolClient client(fd);
  std::string line;
  int lineno = 0;
  uint64_t applied = 0;
  net::WireMutationAck last_ack;
  while (std::getline(in, line)) {
    ++lineno;
    const size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    net::WireMutation mutation;
    Status status = net::ParseMutationLine(line, &mutation);
    if (!status.ok()) {
      std::fprintf(stderr, "client: %s:%d: %s\n", path.c_str(), lineno,
                   status.ToString().c_str());
      return 2;
    }
    const net::WireMutation defaults;
    if (mutation.env_name == defaults.env_name) {
      mutation.env_name = env_name;
    }
    status = client.Mutate(mutation, &last_ack);
    if (!status.ok()) {
      std::fprintf(stderr, "client: %s:%d: %s\n", path.c_str(), lineno,
                   status.ToString().c_str());
      return 1;
    }
    ++applied;
  }
  std::printf("applied %llu mutations | env %s | epoch %llu | generation "
              "%llu | delta %llu | tombstones %llu | compactions %llu\n",
              static_cast<unsigned long long>(applied),
              last_ack.env_name.c_str(),
              static_cast<unsigned long long>(last_ack.epoch),
              static_cast<unsigned long long>(last_ack.generation),
              static_cast<unsigned long long>(last_ack.delta),
              static_cast<unsigned long long>(last_ack.tombstones),
              static_cast<unsigned long long>(last_ack.compactions));
  return 0;
}

// Scripted wire-protocol client: one connection, one query, pairs written
// as CSV (same columns as `join --out`) to --out or stdout as they stream.
int CmdClient(const std::map<std::string, std::string>& flags) {
  const std::string host = FlagOr(flags, "host", "127.0.0.1");
  size_t port = 0;
  if (!ParseCount(FlagOr(flags, "port", ""), 65535, &port) || port == 0) {
    std::fprintf(stderr, "client: --port (1..65535) is required\n");
    return 2;
  }
  if (flags.count("stats") != 0) return CmdClientStats(host, port);
  if (flags.count("metrics") != 0) return CmdClientMetrics(host, port);
  if (flags.count("epoch") != 0) {
    return CmdClientEpoch(host, port, FlagOr(flags, "env", "default"));
  }
  if (flags.count("mutations") != 0) {
    return CmdClientMutations(host, port, FlagOr(flags, "env", "default"),
                              flags.at("mutations"));
  }

  net::WireRequest request;
  request.env_name = FlagOr(flags, "env", "default");
  request.trace = flags.count("trace") != 0;
  request.trace_id = FlagOr(flags, "trace-id", "");
  if (!request.trace_id.empty() && !request.trace) {
    std::fprintf(stderr, "client: --trace-id needs --trace\n");
    return 2;
  }
  if (!request.trace_id.empty() && !net::IsValidTraceId(request.trace_id)) {
    std::fprintf(stderr,
                 "client: invalid --trace-id '%s' (want 1..64 chars of "
                 "[A-Za-z0-9_.-])\n",
                 request.trace_id.c_str());
    return 2;
  }
  if (!ParseAlgo(FlagOr(flags, "algo", "obj"), &request.spec.algorithm)) {
    std::fprintf(stderr, "client: unknown algorithm '%s'\n",
                 FlagOr(flags, "algo", "obj").c_str());
    return 2;
  }
  if (!net::ParseSearchOrderName(FlagOr(flags, "order", "dfs"),
                                 &request.spec.order)) {
    std::fprintf(stderr, "client: unknown search order '%s'\n",
                 FlagOr(flags, "order", "dfs").c_str());
    return 2;
  }
  if (!net::ParseBoolName(FlagOr(flags, "verify", "1"),
                          &request.spec.verify)) {
    std::fprintf(stderr, "client: invalid --verify '%s' (want 0|1)\n",
                 FlagOr(flags, "verify", "1").c_str());
    return 2;
  }
  // seed/limit span the full uint64 range — parsed by the wire's own
  // ParseUint64Field, so no ParseCount cap here.
  if (!ParseU64Flag("seed", FlagOr(flags, "seed", "42"),
                    &request.spec.random_seed)) {
    std::fprintf(stderr, "client: invalid --seed '%s'\n",
                 FlagOr(flags, "seed", "42").c_str());
    return 2;
  }
  if (!ParseU64Flag("limit", FlagOr(flags, "limit", "0"),
                    &request.spec.limit)) {
    std::fprintf(stderr, "client: invalid --limit '%s'\n",
                 FlagOr(flags, "limit", "0").c_str());
    return 2;
  }
  // The wire's own double validation (plus its non-negativity rule), so
  // the CLI and the protocol can never drift apart here either.
  if (!net::ParseDoubleField("io_ms", FlagOr(flags, "io-ms", "10"),
                             &request.spec.io_ms_per_fault)
           .ok() ||
      request.spec.io_ms_per_fault < 0.0) {
    std::fprintf(stderr, "client: invalid --io-ms '%s'\n",
                 FlagOr(flags, "io-ms", "10").c_str());
    return 2;
  }
  if (!ParseU64Flag("deadline-ms", FlagOr(flags, "deadline-ms", "0"),
                    &request.deadline_ms)) {
    std::fprintf(stderr, "client: invalid --deadline-ms '%s'\n",
                 FlagOr(flags, "deadline-ms", "0").c_str());
    return 2;
  }
  // --expect-shed: this invocation *wants* to be load-shed (an overload
  // or deadline drill). ERR Overloaded / ERR DeadlineExceeded then exit
  // 0; any other ERR still fails, so a smoke can't pass on the wrong
  // error.
  const bool expect_shed = flags.count("expect-shed") != 0;

  const int fd = ConnectClient(host, port);
  if (fd < 0) return -fd;

  if (!net::SendAll(fd, net::FormatRequestLine(request) + "\n")) {
    std::fprintf(stderr, "client: send: %s\n", std::strerror(errno));
    close(fd);
    return 1;
  }

  const std::string out = FlagOr(flags, "out", "");
  std::FILE* out_file = stdout;
  if (!out.empty()) {
    out_file = std::fopen(out.c_str(), "w");
    if (out_file == nullptr) {
      std::fprintf(stderr, "client: cannot open %s\n", out.c_str());
      close(fd);
      return 1;
    }
  }
  const bool quiet = flags.count("quiet") != 0;

  const auto shed_like = [](const Status& err) {
    return err.code() == StatusCode::kOverloaded ||
           err.code() == StatusCode::kDeadlineExceeded;
  };
  net::LineReader reader(fd);
  std::string line;
  int exit_code = 1;
  if (!reader.ReadLine(&line)) {
    std::fprintf(stderr, "client: connection closed before a response\n");
  } else if (line != "OK") {
    Status err = Status::IoError("malformed response '" + line + "'");
    const bool parsed = net::ParseErrLine(line, &err).ok();
    std::fprintf(stderr, "client: %s\n", err.ToString().c_str());
    if (expect_shed && parsed && shed_like(err)) {
      std::fprintf(stderr, "client: shed as expected (--expect-shed)\n");
      exit_code = 0;
    }
  } else {
    std::fprintf(out_file, "p_id,q_id,center_x,center_y,radius\n");
    uint64_t streamed = 0;
    while (reader.ReadLine(&line)) {
      RcjPair pair;
      net::WireSummary summary;
      Status err = Status::OK();
      if (net::ParsePairLine(line, &pair).ok()) {
        ++streamed;
        std::fprintf(out_file, "%lld,%lld,%.17g,%.17g,%.17g\n",
                     static_cast<long long>(pair.p.id),
                     static_cast<long long>(pair.q.id),
                     pair.circle.center.x, pair.circle.center.y,
                     pair.circle.Radius());
      } else if (net::ParseEndLine(line, &summary).ok()) {
        if (!quiet) {
          std::fprintf(stderr,
                       "%llu pairs | candidates %llu | node accesses %llu | "
                       "faults %llu (%llu cold, %llu warm) | I/O %.2fs "
                       "(wall %.3fs) | CPU %.3fs\n",
                       static_cast<unsigned long long>(summary.pairs),
                       static_cast<unsigned long long>(
                           summary.stats.candidates),
                       static_cast<unsigned long long>(
                           summary.stats.node_accesses),
                       static_cast<unsigned long long>(
                           summary.stats.page_faults),
                       static_cast<unsigned long long>(
                           summary.stats.cold_faults),
                       static_cast<unsigned long long>(
                           summary.stats.warm_faults),
                       summary.stats.io_seconds,
                       summary.stats.io_wall_seconds,
                       summary.stats.cpu_seconds);
        }
        exit_code = summary.pairs == streamed ? 0 : 1;
        if (exit_code != 0) {
          std::fprintf(stderr,
                       "client: END reports %llu pairs but %llu streamed\n",
                       static_cast<unsigned long long>(summary.pairs),
                       static_cast<unsigned long long>(streamed));
        }
        if (exit_code == 0 && request.trace) {
          // The span tree rides after END: TRACE rows (depth-indented
          // here), closed by ENDTRACE whose count must match.
          uint64_t rows = 0;
          uint64_t reported_spans = 0;
          std::string end_id;
          bool trace_done = false;
          while (reader.ReadLine(&line)) {
            net::WireTraceSpan span;
            if (net::ParseTraceEndLine(line, &end_id, &reported_spans)
                    .ok()) {
              trace_done = true;
              break;
            }
            if (!net::ParseTraceLine(line, &span).ok()) {
              std::fprintf(stderr, "client: malformed trace line '%s'\n",
                           line.c_str());
              break;
            }
            if (rows == 0) std::fprintf(stderr, "trace %s:\n", span.id.c_str());
            ++rows;
            std::fprintf(stderr,
                         "%*s%-24s count=%llu total=%.3fms start=+%.3fms\n",
                         static_cast<int>(2 * (span.depth + 1)), "",
                         span.span.c_str(),
                         static_cast<unsigned long long>(span.count),
                         span.total_s * 1e3, span.start_s * 1e3);
          }
          if (!trace_done || reported_spans != rows) {
            std::fprintf(
                stderr,
                "client: trace block ended badly (%llu rows, ENDTRACE %s)\n",
                static_cast<unsigned long long>(rows),
                trace_done ? std::to_string(reported_spans).c_str()
                           : "missing");
            exit_code = 1;
          }
        }
        break;
      } else if (net::ParseErrLine(line, &err).ok()) {
        std::fprintf(stderr, "client: %s\n", err.ToString().c_str());
        if (expect_shed && shed_like(err)) {
          std::fprintf(stderr, "client: shed as expected (--expect-shed)\n");
          exit_code = 0;
        }
        break;
      } else {
        std::fprintf(stderr, "client: malformed line '%s'\n", line.c_str());
        break;
      }
    }
    if (exit_code != 0 && line.empty()) {
      std::fprintf(stderr, "client: stream ended without END\n");
    }
  }
  if (out_file != stdout) std::fclose(out_file);
  close(fd);
  return exit_code;
}

/// Shared flag parsing of the fleet router tier (`proxy` and `fleet`).
/// False (with *exit_code set) on a malformed flag.
bool ParseProxyFlags(const char* cmd,
                     const std::map<std::string, std::string>& flags,
                     fleet::FleetProxyOptions* options, int* exit_code) {
  *exit_code = 2;
  size_t value = 0;
  if (!ParseCount(FlagOr(flags, "port", "0"), 65535, &value)) {
    std::fprintf(stderr, "%s: invalid --port '%s'\n", cmd,
                 FlagOr(flags, "port", "0").c_str());
    return false;
  }
  options->port = static_cast<uint16_t>(value);
  if (!ParseCount(FlagOr(flags, "replicas", "1"), 64, &value) ||
      value == 0) {
    std::fprintf(stderr, "%s: invalid --replicas '%s' (want 1..64)\n", cmd,
                 FlagOr(flags, "replicas", "1").c_str());
    return false;
  }
  options->replicas = value;
  if (!ParseCount(FlagOr(flags, "retry-attempts", "6"), 64, &value) ||
      value == 0) {
    std::fprintf(stderr, "%s: invalid --retry-attempts '%s' (want 1..64)\n",
                 cmd, FlagOr(flags, "retry-attempts", "6").c_str());
    return false;
  }
  options->retry.max_attempts = value;
  if (!ParseCount(FlagOr(flags, "retry-base-ms", "10"), 60000, &value)) {
    std::fprintf(stderr, "%s: invalid --retry-base-ms '%s'\n", cmd,
                 FlagOr(flags, "retry-base-ms", "10").c_str());
    return false;
  }
  options->retry.base_backoff_ms = value;
  if (!ParseCount(FlagOr(flags, "retry-max-ms", "500"), 600000, &value)) {
    std::fprintf(stderr, "%s: invalid --retry-max-ms '%s'\n", cmd,
                 FlagOr(flags, "retry-max-ms", "500").c_str());
    return false;
  }
  options->retry.max_backoff_ms = value;
  // The slow-query log is process-wide (the proxy records its relay wall
  // times into it); configuring it here covers both front ends. Under
  // `fleet` the flag also passes through to every backend's serve.
  const auto slow_it = flags.find("slow-query-ms");
  if (slow_it != flags.end()) {
    double slow_ms = -1.0;
    if (!net::ParseDoubleField("slow_query_ms", slow_it->second, &slow_ms)
             .ok() ||
        slow_ms < 0.0) {
      std::fprintf(stderr, "%s: invalid --slow-query-ms '%s' (want >= 0)\n",
                   cmd, slow_it->second.c_str());
      return false;
    }
    obs::MetricsRegistry::Default().slow_log()->Configure(slow_ms / 1000.0);
  }
  *exit_code = 0;
  return true;
}

/// Prints the proxy's shutdown counter line (shared by proxy and fleet).
void PrintProxyCounters(const fleet::FleetProxy& proxy) {
  const fleet::FleetProxy::Counters counters = proxy.counters();
  const fleet::BackendPool::Counters pool = proxy.pool().counters();
  std::printf(
      "shut down: %llu connections | %llu queries | %llu ok | "
      "%llu rejected | %llu shed | %llu expired | %llu failed | "
      "%llu cancelled | %llu retries | %llu failovers | %llu backoffs | "
      "%llu stats | %llu mutations | %llu catchups | %llu dials | "
      "%llu pooled\n",
      static_cast<unsigned long long>(counters.connections),
      static_cast<unsigned long long>(counters.queries),
      static_cast<unsigned long long>(counters.ok),
      static_cast<unsigned long long>(counters.rejected),
      static_cast<unsigned long long>(counters.shed),
      static_cast<unsigned long long>(counters.expired),
      static_cast<unsigned long long>(counters.failed),
      static_cast<unsigned long long>(counters.cancelled),
      static_cast<unsigned long long>(counters.retries),
      static_cast<unsigned long long>(counters.failovers),
      static_cast<unsigned long long>(counters.backoffs),
      static_cast<unsigned long long>(counters.stats),
      static_cast<unsigned long long>(counters.mutations),
      static_cast<unsigned long long>(counters.catchups),
      static_cast<unsigned long long>(pool.dials),
      static_cast<unsigned long long>(pool.reuses));
}

// `rcj_tool proxy`: the fleet router tier in front of already-running
// backends. Serves the same line protocol until SIGINT/SIGTERM.
int CmdProxy(const std::map<std::string, std::string>& flags) {
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  const std::string backends_flag = FlagOr(flags, "backends", "");
  if (backends_flag.empty()) {
    std::fprintf(stderr, "proxy: --backends host:port,... is required\n");
    return 2;
  }
  std::vector<fleet::BackendAddress> backends;
  Status status = fleet::ParseBackendList(backends_flag, &backends);
  if (!status.ok()) {
    std::fprintf(stderr, "proxy: %s\n", status.ToString().c_str());
    return 2;
  }
  fleet::FleetProxyOptions options;
  int exit_code = 0;
  if (!ParseProxyFlags("proxy", flags, &options, &exit_code)) {
    return exit_code;
  }
  fleet::FleetProxy proxy(std::move(backends), options);
  status = proxy.Start();
  if (!status.ok()) {
    std::fprintf(stderr, "proxy: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("proxy listening on %s:%u (%zu backends, %zu replicas)\n",
              options.bind_address.c_str(),
              static_cast<unsigned>(proxy.port()), proxy.backend_count(),
              options.replicas);
  std::fflush(stdout);
  while (g_serve_stop == 0) {
    poll(nullptr, 0, 100);
  }
  proxy.Stop();
  PrintProxyCounters(proxy);
  return 0;
}

// `rcj_tool fleet`: the dev/CI topology — spawn N local serve backends
// on ephemeral ports, supervise them (respawning the dead), and front
// them with the proxy. Every flag not consumed here passes through to
// each backend's `serve` command line.
int CmdFleet(int argc, char** argv) {
  const auto flags = ParseFlags(argc, argv, 2);
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  size_t backends = 0;
  if (!ParseCount(FlagOr(flags, "backends", "2"), 64, &backends) ||
      backends == 0) {
    std::fprintf(stderr, "fleet: invalid --backends '%s' (want 1..64)\n",
                 FlagOr(flags, "backends", "2").c_str());
    return 2;
  }
  fleet::FleetProxyOptions options;
  int exit_code = 0;
  if (!ParseProxyFlags("fleet", flags, &options, &exit_code)) {
    return exit_code;
  }

  // Everything but the fleet-level flags passes through to the backends'
  // serve command lines verbatim (the supervisor appends --port 0).
  fleet::FleetSupervisorOptions supervisor_options;
  supervisor_options.argv0 = "/proc/self/exe";
  supervisor_options.backends = backends;
  supervisor_options.log_dir = FlagOr(flags, "log-dir", "fleet-logs");
  supervisor_options.respawn = flags.count("no-respawn") == 0;
  for (int i = 2; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0) continue;
    const std::string key = argv[i] + 2;
    const bool has_value =
        i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0;
    bool fleet_only = false;
    for (const char* own :
         {"backends", "port", "replicas", "log-dir", "no-respawn",
          "retry-attempts", "retry-base-ms", "retry-max-ms", "wal-dir"}) {
      if (key == own) {
        fleet_only = true;
        break;
      }
    }
    if (fleet_only) {
      if (has_value) ++i;
      continue;
    }
    supervisor_options.serve_args.push_back(argv[i]);
    if (has_value) supervisor_options.serve_args.push_back(argv[++i]);
  }
  // --wal-dir is split per backend: journals are the state each process
  // must own alone, and a respawn finding its predecessor's journal is
  // the whole point of passing the same extras again.
  const std::string wal_dir = FlagOr(flags, "wal-dir", "");
  if (!wal_dir.empty()) {
    if (mkdir(wal_dir.c_str(), 0755) != 0 && errno != EEXIST) {
      std::fprintf(stderr, "fleet: mkdir %s: %s\n", wal_dir.c_str(),
                   std::strerror(errno));
      return 1;
    }
    supervisor_options.per_backend_args.resize(backends);
    for (size_t i = 0; i < backends; ++i) {
      supervisor_options.per_backend_args[i] = {
          "--wal-dir", wal_dir + "/backend-" + std::to_string(i)};
    }
  }

  fleet::FleetSupervisor supervisor(supervisor_options);
  Status status = supervisor.Start();
  if (!status.ok()) {
    std::fprintf(stderr, "fleet: %s\n", status.ToString().c_str());
    return 1;
  }
  fleet::FleetProxy proxy(supervisor.addresses(), options);
  status = proxy.Start();
  if (!status.ok()) {
    std::fprintf(stderr, "fleet: %s\n", status.ToString().c_str());
    supervisor.Stop();
    return 1;
  }
  for (size_t i = 0; i < backends; ++i) {
    std::printf("backend %zu pid %d at %s\n", i,
                static_cast<int>(supervisor.pid(i)),
                fleet::BackendAddressToString(supervisor.address(i))
                    .c_str());
  }
  std::printf("fleet listening on %s:%u (%zu backends, %zu replicas, "
              "logs in %s)\n",
              options.bind_address.c_str(),
              static_cast<unsigned>(proxy.port()), backends,
              options.replicas, supervisor_options.log_dir.c_str());
  std::fflush(stdout);

  while (g_serve_stop == 0) {
    poll(nullptr, 0, 200);
    supervisor.Supervise([&proxy](size_t index,
                                  const fleet::BackendAddress& address) {
      // Excluded first, address second: the respawned process recovered
      // only its own journal and may trail the mutations relayed while
      // it was down — it must not serve reads until CatchUp() below
      // proves its epochs match.
      proxy.SetExcluded(index, true);
      proxy.SetBackendAddress(index, address);
      std::printf("respawned backend %zu at %s (excluded pending "
                  "catch-up)\n",
                  index, fleet::BackendAddressToString(address).c_str());
      std::fflush(stdout);
    });
    // Readmission pass: any excluded backend with a live process gets a
    // catch-up attempt (mutation relays exclude dead replicas on their
    // own, before the supervisor even reaps them). Failures simply retry
    // next loop — the backend stays excluded, reads degrade gracefully.
    for (size_t i = 0; i < backends; ++i) {
      if (!proxy.excluded(i) || supervisor.pid(i) <= 0) continue;
      const Status caught_up = proxy.CatchUp(i);
      if (caught_up.ok()) {
        std::printf("backend %zu caught up; readmitted to the read "
                    "window\n",
                    i);
        std::fflush(stdout);
      }
    }
  }
  proxy.Stop();
  supervisor.Stop();
  PrintProxyCounters(proxy);
  return 0;
}

int CmdStats(const std::map<std::string, std::string>& flags) {
  const std::string q_path = FlagOr(flags, "q", "");
  const std::string p_path = FlagOr(flags, "p", "");
  if (q_path.empty() || p_path.empty()) {
    std::fprintf(stderr, "stats: --q and --p are required\n");
    return 2;
  }
  Result<Dataset> qset = LoadCsv(q_path);
  Result<Dataset> pset = LoadCsv(p_path);
  if (!qset.ok() || !pset.ok()) {
    std::fprintf(stderr, "stats: failed to load datasets\n");
    return 1;
  }

  Result<std::unique_ptr<RcjEnvironment>> env = RcjEnvironment::Build(
      qset.value().points, pset.value().points, RcjRunOptions{});
  if (!env.ok()) {
    std::fprintf(stderr, "stats: %s\n", env.status().ToString().c_str());
    return 1;
  }
  std::printf("%-6s %12s %10s %12s %10s %9s %9s\n", "algo", "candidates",
              "results", "node-access", "faults", "I/O(s)", "CPU(s)");
  for (const RcjAlgorithm algorithm :
       {RcjAlgorithm::kInj, RcjAlgorithm::kBij, RcjAlgorithm::kObj}) {
    QuerySpec spec = QuerySpec::For(env.value().get());
    spec.algorithm = algorithm;
    Result<RcjRunResult> run = env.value()->Run(spec);
    if (!run.ok()) {
      std::fprintf(stderr, "stats: %s\n", run.status().ToString().c_str());
      return 1;
    }
    const JoinStats& stats = run.value().stats;
    std::printf("%-6s %12llu %10llu %12llu %10llu %9.2f %9.3f\n",
                AlgorithmName(algorithm),
                static_cast<unsigned long long>(stats.candidates),
                static_cast<unsigned long long>(stats.results),
                static_cast<unsigned long long>(stats.node_accesses),
                static_cast<unsigned long long>(stats.page_faults),
                stats.io_seconds, stats.cpu_seconds);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  const auto flags = ParseFlags(argc, argv, 2);
  if (command == "generate") return CmdGenerate(flags);
  if (command == "join") return CmdJoin(flags);
  if (command == "stats") return CmdStats(flags);
  if (command == "batch") return CmdBatch(flags);
  if (command == "serve") return CmdServe(flags);
  if (command == "client") return CmdClient(flags);
  if (command == "proxy") return CmdProxy(flags);
  if (command == "fleet") return CmdFleet(argc, argv);
  return Usage();
}
