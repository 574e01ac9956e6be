// Integration tests for the real-I/O storage path: environments built on
// the file backend must be indistinguishable from the in-memory backend at
// the result level, must hold page files byte-identical to the in-memory
// build of the same points, and the parallel engine over file-backed trees
// must stream pair-identical results to a serial in-memory run.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/rcj.h"
#include "engine/engine.h"
#include "test_util.h"
#include "workload/generator.h"

namespace rcj {
namespace {

std::string StorageDir() {
  const char* dir = std::getenv("TMPDIR");
  return dir != nullptr ? dir : "/tmp";
}

RcjRunOptions FileOptions() {
  RcjRunOptions options;
  options.storage = StorageBackend::kFile;
  options.storage_dir = StorageDir();
  return options;
}

// Reads every page of both stores and compares them byte for byte — the
// strongest form of the "file build == mem build" contract, independent of
// any join result.
void ExpectByteIdenticalStores(PageStore* actual, PageStore* expected,
                               const char* label) {
  ASSERT_NE(actual, nullptr) << label;
  ASSERT_NE(expected, nullptr) << label;
  ASSERT_EQ(actual->page_size(), expected->page_size()) << label;
  ASSERT_EQ(actual->num_pages(), expected->num_pages()) << label;
  const uint32_t page_size = actual->page_size();
  std::vector<uint8_t> a(page_size);
  std::vector<uint8_t> b(page_size);
  for (uint64_t p = 0; p < actual->num_pages(); ++p) {
    ASSERT_TRUE(actual->Read(p, a.data()).ok()) << label << " page " << p;
    ASSERT_TRUE(expected->Read(p, b.data()).ok()) << label << " page " << p;
    ASSERT_EQ(a, b) << label << ": page " << p << " differs";
  }
}

TEST(StorageBackendTest, FileAndMmapMatchMemResults) {
  const std::vector<PointRecord> qset = GenerateUniform(3000, 101);
  const std::vector<PointRecord> pset = GenerateUniform(3000, 202);

  Result<std::unique_ptr<RcjEnvironment>> mem_env =
      RcjEnvironment::Build(qset, pset, RcjRunOptions{});
  ASSERT_TRUE(mem_env.ok()) << mem_env.status().ToString();
  QuerySpec spec = QuerySpec::For(mem_env.value().get());
  Result<RcjRunResult> mem = mem_env.value()->Run(spec);
  ASSERT_TRUE(mem.ok()) << mem.status().ToString();
  ASSERT_GT(mem.value().pairs.size(), 0u);

  Result<std::unique_ptr<RcjEnvironment>> env =
      RcjEnvironment::Build(qset, pset, FileOptions());
  ASSERT_TRUE(env.ok()) << env.status().ToString();
  EXPECT_EQ(env.value()->storage(), StorageBackend::kFile);
  Result<RcjRunResult> got =
      env.value()->Run(QuerySpec::For(env.value().get()));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  testing_util::ExpectSamePairs(got.value().pairs, mem.value().pairs, "file");
  // Deterministic accounting must not depend on where the pages live.
  EXPECT_EQ(got.value().stats.candidates, mem.value().stats.candidates);
  EXPECT_EQ(got.value().stats.node_accesses, mem.value().stats.node_accesses);
  EXPECT_EQ(got.value().stats.page_faults, mem.value().stats.page_faults);
  // A real backend must have spent measurable wall time inside reads.
  EXPECT_GT(got.value().stats.io_wall_seconds, 0.0);
}

TEST(StorageBackendTest, FileBuildIsByteIdenticalToMemBuild) {
  const std::vector<PointRecord> qset = GenerateUniform(6000, 7);
  const std::vector<PointRecord> pset = GenerateUniform(6000, 8);

  Result<std::unique_ptr<RcjEnvironment>> file =
      RcjEnvironment::Build(qset, pset, FileOptions());
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  Result<std::unique_ptr<RcjEnvironment>> mem =
      RcjEnvironment::Build(qset, pset, RcjRunOptions{});
  ASSERT_TRUE(mem.ok()) << mem.status().ToString();

  ExpectByteIdenticalStores(file.value()->q_page_store(),
                            mem.value()->q_page_store(), "q store");
  ExpectByteIdenticalStores(file.value()->p_page_store(),
                            mem.value()->p_page_store(), "p store");

  // Identical bytes must yield identical joins — and identical paper
  // accounting, since the traversal touches the same pages.
  Result<RcjRunResult> a =
      file.value()->Run(QuerySpec::For(file.value().get()));
  Result<RcjRunResult> b = mem.value()->Run(QuerySpec::For(mem.value().get()));
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ASSERT_GT(b.value().pairs.size(), 0u);
  testing_util::ExpectSamePairs(a.value().pairs, b.value().pairs, "file");
  EXPECT_EQ(a.value().stats.candidates, b.value().stats.candidates);
  EXPECT_EQ(a.value().stats.node_accesses, b.value().stats.node_accesses);
  EXPECT_EQ(a.value().stats.page_faults, b.value().stats.page_faults);
}

TEST(StorageBackendTest, FileBackedParallelEngineMatchesSerialMemRun) {
  const std::vector<PointRecord> qset = GenerateUniform(4000, 55);
  const std::vector<PointRecord> pset = GenerateUniform(4000, 56);

  // The reference: a serial run on the in-memory backend.
  Result<std::unique_ptr<RcjEnvironment>> mem_env =
      RcjEnvironment::Build(qset, pset, RcjRunOptions{});
  ASSERT_TRUE(mem_env.ok()) << mem_env.status().ToString();
  Result<RcjRunResult> serial =
      mem_env.value()->Run(QuerySpec::For(mem_env.value().get()));
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_GT(serial.value().pairs.size(), 0u);

  // The subject: the parallel engine over a file-backed environment, with
  // direct reads active (post-build Sync) and readahead on.
  Result<std::unique_ptr<RcjEnvironment>> file_env =
      RcjEnvironment::Build(qset, pset, FileOptions());
  ASSERT_TRUE(file_env.ok()) << file_env.status().ToString();

  EngineOptions engine_options;
  engine_options.num_threads = 4;
  Engine engine(engine_options);

  std::vector<RcjPair> streamed;
  VectorSink sink(&streamed);
  std::vector<EngineQuery> batch(1);
  batch[0].spec = QuerySpec::For(file_env.value().get());
  batch[0].sink = &sink;
  const std::vector<EngineQueryResult> results = engine.RunBatch(batch);
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].status.ok()) << results[0].status.ToString();

  // The streaming contract holds across backends: pairs arrive in the
  // exact serial order, not merely as the same set.
  ASSERT_EQ(streamed.size(), serial.value().pairs.size());
  for (size_t i = 0; i < streamed.size(); ++i) {
    ASSERT_EQ(streamed[i].q.id, serial.value().pairs[i].q.id) << "at " << i;
    ASSERT_EQ(streamed[i].p.id, serial.value().pairs[i].p.id) << "at " << i;
  }
  EXPECT_GT(results[0].run.stats.io_wall_seconds, 0.0);
}

}  // namespace
}  // namespace rcj
