// Shared infrastructure for the paper-reproduction benchmark harness.
//
// Every bench binary reproduces one table or figure of the paper's Section
// 5. Benches run at a reduced default scale so the whole suite finishes in
// minutes on a laptop; pass --full (or set RINGJOIN_FULL=1) for the paper's
// original cardinalities. The cost model matches the paper exactly: I/O
// time = page faults x 10 ms on a shared LRU buffer of 1% of both trees
// (unless a bench sweeps that knob).
#ifndef RINGJOIN_BENCH_BENCH_UTIL_H_
#define RINGJOIN_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/rcj.h"
#include "workload/generator.h"

namespace rcj {
namespace bench {

/// Scale configuration shared by all bench binaries.
struct Scale {
  bool full = false;
  /// Cardinality multiplier vs the paper's setup.
  double factor = 0.125;

  /// Scales a paper cardinality (min 1000 so trees keep several levels).
  size_t N(size_t paper_n) const {
    if (full) return paper_n;
    const auto scaled = static_cast<size_t>(static_cast<double>(paper_n) *
                                            factor);
    return scaled < 1000 ? 1000 : scaled;
  }
};

/// Parses --full / RINGJOIN_FULL=1 / RINGJOIN_SCALE=<float>.
Scale ParseScale(int argc, char** argv);

/// Prints the standard bench banner: what the paper reports and what shape
/// to check for.
void PrintBanner(const char* experiment, const char* paper_claim,
                 const Scale& scale);

/// The paper's join combinations (Table 3): name, Q-side kind, P-side kind.
struct JoinCombo {
  const char* name;
  RealDataset q_kind;
  RealDataset p_kind;
};

/// SP, LP, SP', LP' from Table 3.
const std::vector<JoinCombo>& PaperCombos();

/// Scaled surrogate for one of the paper's real datasets (Table 2). All
/// surrogates of one bench share `seed`, which correlates them spatially
/// like the USGS originals.
std::vector<PointRecord> Surrogate(RealDataset kind, const Scale& scale,
                                   uint64_t seed = 7);

/// Standard stats row: label, candidates, results, node accesses, faults,
/// I/O seconds, measured CPU seconds, modeled CPU seconds, total.
///
/// The modeled CPU column charges a fixed cost per R-tree node access
/// (the paper: "CPU time roughly models the total number of node
/// accesses") so the I/O-vs-CPU split is comparable to the paper's 2005-era
/// hardware even though our measured CPU seconds are ~50x smaller.
void PrintStatsHeader();
void PrintStatsRow(const std::string& label, const JoinStats& stats);

/// Per-node-access CPU charge used for the modeled CPU column (50 us,
/// calibrated to the paper's Pentium D stacked bars).
inline constexpr double kCpuModelSecondsPerNodeAccess = 50e-6;

/// Machine-readable bench results. Each bench registers labelled rows of
/// numeric metrics and writes one `BENCH_<name>.json` artifact, so CI and
/// future PRs can track the performance trajectory without scraping stdout.
/// The output directory is $RINGJOIN_BENCH_JSON_DIR (default: the current
/// working directory).
class JsonReporter {
 public:
  explicit JsonReporter(std::string bench_name);

  /// Appends `key` = `value` to the row called `label`, creating the row on
  /// first use. Rows and metrics keep insertion order in the output.
  void AddMetric(const std::string& label, const std::string& key,
                 double value);

  /// Adds the standard JoinStats columns as metrics of row `label`.
  void AddStats(const std::string& label, const JoinStats& stats);

  /// Writes BENCH_<name>.json. Returns false (and warns on stderr) on I/O
  /// failure; benches treat the artifact as best-effort.
  bool Write() const;

  /// The artifact path Write() targets.
  std::string path() const;

 private:
  using Row = std::vector<std::pair<std::string, double>>;
  std::string name_;
  std::vector<std::pair<std::string, Row>> rows_;
};

/// Prints the standard stats row AND records it into `reporter` — the
/// one-call idiom for benches that both narrate to stdout and emit the
/// BENCH_<name>.json artifact.
void ReportStatsRow(JsonReporter* reporter, const std::string& label,
                    const JoinStats& stats);

/// Runs `spec` cold on `env` (binding it when `spec.env` is null), dying
/// with a message on error (benches have no error recovery story).
RcjRunResult MustRun(RcjEnvironment* env, const QuerySpec& spec);

/// Builds the standard two-tree environment, dying on error.
std::unique_ptr<RcjEnvironment> MustBuild(
    const std::vector<PointRecord>& qset,
    const std::vector<PointRecord>& pset,
    const RcjRunOptions& options = {});

}  // namespace bench
}  // namespace rcj

#endif  // RINGJOIN_BENCH_BENCH_UTIL_H_
