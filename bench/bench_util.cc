#include "bench_util.h"

#include <cstdlib>
#include <cstring>

namespace rcj {
namespace bench {

Scale ParseScale(int argc, char** argv) {
  Scale scale;
  const char* full_env = std::getenv("RINGJOIN_FULL");
  if (full_env != nullptr && std::strcmp(full_env, "1") == 0) {
    scale.full = true;
  }
  const char* factor_env = std::getenv("RINGJOIN_SCALE");
  if (factor_env != nullptr) {
    scale.factor = std::atof(factor_env);
    if (scale.factor <= 0.0) scale.factor = 0.125;
  }
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full") == 0) scale.full = true;
  }
  return scale;
}

void PrintBanner(const char* experiment, const char* paper_claim,
                 const Scale& scale) {
  std::printf("=======================================================\n");
  std::printf("%s\n", experiment);
  std::printf("paper: %s\n", paper_claim);
  if (scale.full) {
    std::printf("scale: FULL (paper cardinalities)\n");
  } else {
    std::printf("scale: %.3fx of paper cardinalities "
                "(--full or RINGJOIN_FULL=1 for original sizes)\n",
                scale.factor);
  }
  std::printf("=======================================================\n");
}

const std::vector<JoinCombo>& PaperCombos() {
  static const std::vector<JoinCombo> combos = {
      {"SP", RealDataset::kSchools, RealDataset::kPopulatedPlaces},
      {"LP", RealDataset::kLocales, RealDataset::kPopulatedPlaces},
      {"SP'", RealDataset::kPopulatedPlaces, RealDataset::kSchools},
      {"LP'", RealDataset::kPopulatedPlaces, RealDataset::kLocales},
  };
  return combos;
}

std::vector<PointRecord> Surrogate(RealDataset kind, const Scale& scale,
                                   uint64_t seed) {
  return MakeRealSurrogate(kind, seed, scale.N(RealDatasetCardinality(kind)));
}

void PrintStatsHeader() {
  std::printf("%-22s %12s %10s %12s %10s %8s %8s %9s %9s %10s %9s\n",
              "configuration", "candidates", "results", "node-access",
              "faults", "cold", "warm", "I/O(s)", "CPU(s)", "CPUmod(s)",
              "total(s)");
}

void PrintStatsRow(const std::string& label, const JoinStats& stats) {
  const double cpu_model = static_cast<double>(stats.node_accesses) *
                           kCpuModelSecondsPerNodeAccess;
  std::printf("%-22s %12llu %10llu %12llu %10llu %8llu %8llu %9.2f "
              "%9.3f %10.2f %9.2f\n",
              label.c_str(),
              static_cast<unsigned long long>(stats.candidates),
              static_cast<unsigned long long>(stats.results),
              static_cast<unsigned long long>(stats.node_accesses),
              static_cast<unsigned long long>(stats.page_faults),
              static_cast<unsigned long long>(stats.cold_faults),
              static_cast<unsigned long long>(stats.warm_faults),
              stats.io_seconds, stats.cpu_seconds, cpu_model,
              stats.total_seconds());
}

JsonReporter::JsonReporter(std::string bench_name)
    : name_(std::move(bench_name)) {}

void JsonReporter::AddMetric(const std::string& label, const std::string& key,
                             double value) {
  for (auto& row : rows_) {
    if (row.first == label) {
      row.second.emplace_back(key, value);
      return;
    }
  }
  rows_.emplace_back(label, Row{{key, value}});
}

void JsonReporter::AddStats(const std::string& label, const JoinStats& stats) {
  AddMetric(label, "candidates", static_cast<double>(stats.candidates));
  AddMetric(label, "results", static_cast<double>(stats.results));
  AddMetric(label, "node_accesses",
            static_cast<double>(stats.node_accesses));
  AddMetric(label, "page_faults", static_cast<double>(stats.page_faults));
  AddMetric(label, "cold_faults", static_cast<double>(stats.cold_faults));
  AddMetric(label, "warm_faults", static_cast<double>(stats.warm_faults));
  AddMetric(label, "io_seconds", stats.io_seconds);
  AddMetric(label, "io_wall_seconds", stats.io_wall_seconds);
  AddMetric(label, "cpu_seconds", stats.cpu_seconds);
  AddMetric(label, "total_seconds", stats.total_seconds());
}

std::string JsonReporter::path() const {
  const char* dir = std::getenv("RINGJOIN_BENCH_JSON_DIR");
  std::string out = dir != nullptr ? dir : ".";
  if (!out.empty() && out.back() != '/') out += '/';
  return out + "BENCH_" + name_ + ".json";
}

namespace {

// Labels are bench-chosen ASCII; escape just enough for valid JSON.
std::string JsonEscape(const std::string& in) {
  std::string out;
  for (const char c : in) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

bool JsonReporter::Write() const {
  const std::string file_path = path();
  std::FILE* f = std::fopen(file_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", file_path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"schema_version\": 1,\n"
               "  \"rows\": [\n",
               JsonEscape(name_).c_str());
  for (size_t r = 0; r < rows_.size(); ++r) {
    std::fprintf(f, "    {\"label\": \"%s\", \"metrics\": {",
                 JsonEscape(rows_[r].first).c_str());
    const Row& row = rows_[r].second;
    for (size_t m = 0; m < row.size(); ++m) {
      std::fprintf(f, "%s\"%s\": %.17g", m == 0 ? "" : ", ",
                   JsonEscape(row[m].first).c_str(), row[m].second);
    }
    std::fprintf(f, "}}%s\n", r + 1 == rows_.size() ? "" : ",");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("json results written to %s\n", file_path.c_str());
  return true;
}

void ReportStatsRow(JsonReporter* reporter, const std::string& label,
                    const JoinStats& stats) {
  PrintStatsRow(label, stats);
  reporter->AddStats(label, stats);
}

RcjRunResult MustRun(RcjEnvironment* env, const QuerySpec& spec) {
  Result<RcjRunResult> result = env->Run(spec);
  if (!result.ok()) {
    std::fprintf(stderr, "bench run failed: %s\n",
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(result).value();
}

std::unique_ptr<RcjEnvironment> MustBuild(
    const std::vector<PointRecord>& qset,
    const std::vector<PointRecord>& pset, const RcjRunOptions& options) {
  Result<std::unique_ptr<RcjEnvironment>> env =
      RcjEnvironment::Build(qset, pset, options);
  if (!env.ok()) {
    std::fprintf(stderr, "bench env build failed: %s\n",
                 env.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(env).value();
}

}  // namespace bench
}  // namespace rcj
