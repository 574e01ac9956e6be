// Failure injection: a PageStore wrapper that starts failing after N
// operations, verifying that I/O errors propagate as Status through every
// layer (buffer manager, R-tree operations, joins) instead of crashing or
// being swallowed.
#include <gtest/gtest.h>

#include <memory>

#include "core/delta_overlay.h"
#include "core/rcj.h"
#include "rtree/inn_cursor.h"
#include "rtree/rtree.h"
#include "storage/page_store.h"
#include "test_util.h"

namespace rcj {
namespace {

using testing_util::RandomRecords;

/// Delegating store that fails every operation once `Trip()` has been
/// called (or after a countdown of successful reads).
class FailingPageStore : public PageStore {
 public:
  explicit FailingPageStore(PageStore* base)
      : PageStore(base->page_size()), base_(base) {}

  void Trip() { tripped_ = true; }
  void TripAfterReads(int n) { reads_left_ = n; }

  uint64_t num_pages() const override { return base_->num_pages(); }

  Status Read(uint64_t page_no, uint8_t* out) const override {
    if (tripped_) return Status::IoError("injected read failure");
    if (reads_left_ >= 0 && reads_left_-- == 0) {
      tripped_ = true;
      return Status::IoError("injected read failure (countdown)");
    }
    return base_->Read(page_no, out);
  }

  Status Write(uint64_t page_no, const uint8_t* data) override {
    if (tripped_) return Status::IoError("injected write failure");
    return base_->Write(page_no, data);
  }

  Result<uint64_t> Allocate() override {
    if (tripped_) return Status::IoError("injected allocate failure");
    return base_->Allocate();
  }

 private:
  PageStore* base_;
  mutable bool tripped_ = false;
  mutable int reads_left_ = -1;
};

struct Env {
  std::unique_ptr<MemPageStore> base;
  std::unique_ptr<FailingPageStore> store;
  std::unique_ptr<BufferManager> buffer;
  std::unique_ptr<RTree> tree;
};

Env MakeTree(size_t n, size_t buffer_pages = 16) {
  Env env;
  env.base = std::make_unique<MemPageStore>(512);
  env.store = std::make_unique<FailingPageStore>(env.base.get());
  env.buffer = std::make_unique<BufferManager>(buffer_pages);
  env.tree = std::move(
      RTree::Create(env.store.get(), env.buffer.get())
          .value());
  for (const PointRecord& r : RandomRecords(n, 42)) {
    EXPECT_TRUE(env.tree->Insert(r).ok());
  }
  return env;
}

TEST(FaultInjectionTest, RangeSearchSurfacesReadError) {
  Env env = MakeTree(800, 4);  // tiny buffer: queries must hit the store
  ASSERT_TRUE(env.buffer->Clear().ok());
  env.store->Trip();
  std::vector<PointRecord> out;
  const Status status =
      env.tree->RangeSearch(Rect{{0, 0}, {10000, 10000}}, &out);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
}

TEST(FaultInjectionTest, KnnSurfacesReadError) {
  Env env = MakeTree(800, 4);
  ASSERT_TRUE(env.buffer->Clear().ok());
  env.store->Trip();
  Result<std::vector<PointRecord>> result = env.tree->Knn(Point{1, 1}, 5);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

TEST(FaultInjectionTest, InnCursorStopsWithErrorStatus) {
  Env env = MakeTree(800, 4);
  ASSERT_TRUE(env.buffer->Clear().ok());
  env.store->TripAfterReads(3);
  InnCursor cursor(env.tree.get(), Point{5000, 5000});
  PointRecord rec;
  while (cursor.Next(&rec)) {
  }
  EXPECT_FALSE(cursor.status().ok());
}

TEST(FaultInjectionTest, InsertSurfacesWriteError) {
  Env env = MakeTree(100, 4);
  ASSERT_TRUE(env.buffer->Clear().ok());
  env.store->Trip();
  const Status status = env.tree->Insert(PointRecord{{1.0, 1.0}, 9999});
  EXPECT_FALSE(status.ok());
}

TEST(FaultInjectionTest, FilterAndVerifySurfaceErrors) {
  Env env = MakeTree(500, 4);
  ASSERT_TRUE(env.buffer->Clear().ok());
  env.store->TripAfterReads(2);
  std::vector<std::vector<PointRecord>> candidates;
  const Status filter_status =
      BulkFilterCandidates(*env.tree, {PointRecord{{100, 100}, 0}},
                           BulkFilterOptions{}, &candidates);
  EXPECT_FALSE(filter_status.ok());

  env.store->Trip();
  // A small circle in the middle of the domain: it intersects subtrees
  // (forcing a descent and therefore a read) but no MBR face lies inside
  // it, so the face rule cannot settle it at cached levels.
  std::vector<CandidateCircle> circles{CandidateCircle::Make(
      PointRecord{{4990, 5000}, 0}, PointRecord{{5010, 5000}, 1})};
  const Status verify_status =
      VerifyCandidates(*env.tree, TreeSide::kPSide, false, &circles);
  EXPECT_FALSE(verify_status.ok());
}

TEST(FaultInjectionTest, JoinSurfacesMidFlightError) {
  // Two trees; the P-side store dies partway through the join.
  Env env_q = MakeTree(400, 16);
  Env env_p = MakeTree(400, 16);
  ASSERT_TRUE(env_p.buffer->Clear().ok());
  env_p.store->TripAfterReads(50);

  std::vector<RcjPair> out;
  JoinStats stats;
  QuerySpec spec;
  spec.algorithm = RcjAlgorithm::kInj;
  VectorSink sink(&out);
  const Status status =
      RunIndexJoin(*env_q.tree, *env_p.tree, /*self_join=*/false, spec,
                   /*tq_leaf_subset=*/nullptr, /*delta_tail=*/true, &sink,
                   &stats);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
}

TEST(FaultInjectionTest, DeltaTailSurfacesTpError) {
  // A live query's last fragment: no base leaves, only the delta-Q tail,
  // whose filter reads T_P. The P-side store dies under it.
  Env env_q = MakeTree(400, 16);
  Env env_p = MakeTree(400, 16);
  ASSERT_TRUE(env_p.buffer->Clear().ok());
  env_p.store->Trip();

  DeltaOverlay overlay;
  overlay.delta_q.push_back(PointRecord{{5000, 5000}, 100000});
  overlay.dead_p.insert(7);
  QuerySpec spec;
  spec.algorithm = RcjAlgorithm::kObj;
  spec.overlay = &overlay;
  const std::vector<uint64_t> no_leaves;
  std::vector<RcjPair> out;
  VectorSink sink(&out);
  JoinStats stats;
  const Status status =
      RunIndexJoin(*env_q.tree, *env_p.tree, /*self_join=*/false, spec,
                   &no_leaves, /*delta_tail=*/true, &sink, &stats);
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_TRUE(out.empty());
}

TEST(FaultInjectionTest, BufferManagerDoesNotCacheFailedReads) {
  Env env = MakeTree(200, 8);
  ASSERT_TRUE(env.buffer->Clear().ok());
  env.store->TripAfterReads(0);  // next read fails
  std::vector<PointRecord> out;
  EXPECT_FALSE(env.tree->RangeSearch(Rect{{0, 0}, {1, 1}}, &out).ok());
  // After the store recovers (wrapper trips permanently, so rebuild the
  // expectation differently): a failed read must not have left a poisoned
  // frame behind. Pin stats should show the failure was not cached.
  EXPECT_EQ(env.buffer->cached_pages(), 0u);
}

}  // namespace
}  // namespace rcj
