// Differential test of Bulk_Filter (Algorithm 7). The oracle below is the
// plain loop: every heap entry, the root included, is tested against the
// group members in order until one is not pruned, and every member's
// anchors are scanned from the first. BulkFilterCandidates carries an
// alive-member mask down the tree and tests each member's last pruner
// first; neither may change a decision. Each case requires the same
// per-member candidate vectors, in the same order, and the same number of
// node accesses, over random groups of 1 to 130 members (mask words cross
// at 64 and 65), two page sizes, duplicate points (zero normals), points on
// shared grid lines (so on MBR edges), negative coordinates, symmetric
// pruning on and off, self-joins and tombstone sets. Every case prints its
// seed.
#include "core/filter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "test_util.h"

namespace rcj {
namespace {

using testing_util::SplitMix;

// The reference loop: Algorithm 7 with the Section 4.2 anchors, no mask
// and no hint.
Status OracleBulkFilter(const RTree& tp, const std::vector<PointRecord>& qs,
                        const BulkFilterOptions& options,
                        std::vector<std::vector<PointRecord>>* per_q,
                        const std::unordered_set<PointId>* exclude) {
  const size_t group = qs.size();
  per_q->assign(group, {});
  if (group == 0 || tp.height() == 0) return Status::OK();

  Point centroid{0.0, 0.0};
  for (const PointRecord& q : qs) {
    centroid.x += q.pt.x;
    centroid.y += q.pt.y;
  }
  centroid.x /= static_cast<double>(group);
  centroid.y /= static_cast<double>(group);

  std::vector<std::vector<PruneRegion>> anchors(group);
  if (options.symmetric_pruning) {
    for (size_t i = 0; i < group; ++i) {
      for (size_t j = 0; j < group; ++j) {
        if (i == j || qs[i].pt == qs[j].pt) continue;
        anchors[i].emplace_back(qs[i].pt, qs[j].pt);
      }
    }
  }
  auto pruned_for = [&](size_t i, const FilterHeapItem& item) {
    for (const PruneRegion& region : anchors[i]) {
      if (item.is_point ? region.PrunesPoint(item.rec.pt)
                        : region.PrunesRect(item.mbr)) {
        return true;
      }
    }
    return false;
  };

  struct Compare {
    bool operator()(const FilterHeapItem& a, const FilterHeapItem& b) const {
      return a.key > b.key;
    }
  };
  std::vector<FilterHeapItem> heap;
  auto push = [&heap](const FilterHeapItem& item) {
    heap.push_back(item);
    std::push_heap(heap.begin(), heap.end(), Compare{});
  };
  FilterHeapItem root;
  root.child_page = tp.root_page();
  push(root);

  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), Compare{});
    const FilterHeapItem top = heap.back();
    heap.pop_back();

    size_t first = 0;
    while (first < group && pruned_for(first, top)) ++first;
    if (first == group) continue;

    if (top.is_point) {
      if (exclude != nullptr && exclude->count(top.rec.id) != 0) continue;
      for (size_t i = first; i < group; ++i) {
        if (options.self_join && top.rec.id == qs[i].id) continue;
        if (i == first || !pruned_for(i, top)) {
          (*per_q)[i].push_back(top.rec);
          anchors[i].emplace_back(qs[i].pt, top.rec.pt);
        }
      }
      continue;
    }

    Result<Node> node = tp.ReadNode(top.child_page);
    if (!node.ok()) return node.status();
    if (node.value().is_leaf()) {
      for (const LeafEntry& e : node.value().points) {
        FilterHeapItem item;
        item.is_point = true;
        item.rec = e.rec;
        item.key = Dist2(centroid, e.rec.pt);
        push(item);
      }
    } else {
      for (const BranchEntry& e : node.value().children) {
        FilterHeapItem item;
        item.child_page = e.child;
        item.mbr = e.mbr;
        item.key = e.mbr.MinDist2(centroid);
        push(item);
      }
    }
  }
  return Status::OK();
}

struct Tree {
  std::unique_ptr<MemPageStore> store;
  std::unique_ptr<BufferManager> buffer;
  std::unique_ptr<RTree> rtree;
};

Tree BuildTree(const std::vector<PointRecord>& recs, uint32_t page_size,
               bool bulk) {
  Tree t;
  t.store = std::make_unique<MemPageStore>(page_size);
  t.buffer = std::make_unique<BufferManager>(1u << 16);
  Result<std::unique_ptr<RTree>> tree =
      RTree::Create(t.store.get(), t.buffer.get());
  EXPECT_TRUE(tree.ok());
  t.rtree = std::move(tree.value());
  if (bulk) {
    EXPECT_TRUE(t.rtree->BulkLoadStr(recs).ok());
  } else {
    for (const PointRecord& r : recs) EXPECT_TRUE(t.rtree->Insert(r).ok());
  }
  EXPECT_TRUE(t.rtree->CheckInvariants().ok());
  return t;
}

// P: uniform doubles in [-1000, 1000], points on a coarse integer grid
// (many shared x and y values, so many points lie on MBR edges) and exact
// duplicates of earlier points.
std::vector<PointRecord> MakePointset(size_t n, uint64_t seed) {
  SplitMix rng(seed);
  std::vector<PointRecord> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Point pt;
    const uint64_t kind = rng.Next() % 4;
    if (kind == 0 && !out.empty()) {
      pt = out[rng.Next() % out.size()].pt;
    } else if (kind == 1) {
      pt = Point{static_cast<double>(rng.Next() % 41) * 50.0 - 1000.0,
                 static_cast<double>(rng.Next() % 41) * 50.0 - 1000.0};
    } else {
      pt = rng.NextPoint(-1000.0, 1000.0);
    }
    out.push_back(PointRecord{pt, static_cast<PointId>(i)});
  }
  return out;
}

// A group shaped like a T_Q leaf: `size` points near one center, some on
// the grid, some repeating an earlier member, some on a P point.
std::vector<PointRecord> MakeGroup(const std::vector<PointRecord>& pset,
                                   size_t size, SplitMix* rng) {
  const Point center = rng->NextPoint(-1100.0, 1100.0);
  const double spread = rng->NextDouble(1.0, 300.0);
  std::vector<PointRecord> group;
  for (size_t k = 0; k < size; ++k) {
    Point pt;
    const uint64_t kind = rng->Next() % 8;
    if (kind == 0 && !group.empty()) {
      pt = group[rng->Next() % group.size()].pt;
    } else if (kind == 1) {
      pt = pset[rng->Next() % pset.size()].pt;
    } else if (kind == 2) {
      const double dx = static_cast<double>(rng->Next() % 5) - 2.0;
      const double dy = static_cast<double>(rng->Next() % 5) - 2.0;
      pt = Point{(std::round(center.x / 50.0) + dx) * 50.0,
                 (std::round(center.y / 50.0) + dy) * 50.0};
    } else {
      pt = Point{center.x + rng->NextDouble(-spread, spread),
                 center.y + rng->NextDouble(-spread, spread)};
    }
    group.push_back(PointRecord{pt, 1000000 + static_cast<PointId>(k)});
  }
  return group;
}

// A self-join group: the `size` points of P nearest a random center, with
// their own ids (T_Q is T_P).
std::vector<PointRecord> MakeSelfGroup(const std::vector<PointRecord>& pset,
                                       size_t size, SplitMix* rng) {
  const Point center = rng->NextPoint(-1000.0, 1000.0);
  std::vector<PointRecord> sorted = pset;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [&center](const PointRecord& a, const PointRecord& b) {
                     return Dist2(center, a.pt) < Dist2(center, b.pt);
                   });
  sorted.resize(std::min(size, sorted.size()));
  return sorted;
}

std::string Describe(const std::vector<PointRecord>& recs) {
  std::string out;
  for (const PointRecord& r : recs) out += std::to_string(r.id) + " ";
  return out;
}

class FilterDifferentialTest : public ::testing::Test {
 protected:
  // Runs both filters on one case and compares candidates and accesses.
  void ExpectSameAsOracle(const RTree& tree,
                          const std::vector<PointRecord>& group,
                          const BulkFilterOptions& options,
                          const std::unordered_set<PointId>* exclude) {
    std::vector<std::vector<PointRecord>> want;
    const uint64_t before_oracle = tree.buffer()->stats().logical_accesses;
    ASSERT_TRUE(OracleBulkFilter(tree, group, options, &want, exclude).ok());
    const uint64_t oracle_reads =
        tree.buffer()->stats().logical_accesses - before_oracle;

    std::vector<std::vector<PointRecord>> got;
    const uint64_t before = tree.buffer()->stats().logical_accesses;
    ASSERT_TRUE(BulkFilterCandidates(tree, group, options, &got, exclude,
                                     &scratch_)
                    .ok());
    const uint64_t reads = tree.buffer()->stats().logical_accesses - before;

    EXPECT_EQ(reads, oracle_reads) << "node accesses differ";
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i], want[i])
          << "member " << i << " (id " << group[i].id << "): got "
          << Describe(got[i]) << "want " << Describe(want[i]);
    }
    for (const std::vector<PointRecord>& member : want) {
      total_candidates_ += member.size();
    }
  }

  // Every option combination over `rounds` random groups of each size.
  void RunSweep(uint32_t page_size, bool bulk, uint64_t seed, int rounds) {
    const std::vector<PointRecord> pset = MakePointset(2500, seed);
    const Tree tree = BuildTree(pset, page_size, bulk);
    SplitMix rng(seed * 7919 + 1);
    for (int round = 0; round < rounds; ++round) {
      for (const size_t size : {1, 2, 42, 64, 65, 130}) {
        for (const bool self_join : {false, true}) {
          const std::vector<PointRecord> group =
              self_join ? MakeSelfGroup(pset, size, &rng)
                        : MakeGroup(pset, size, &rng);
          std::unordered_set<PointId> dead;
          for (const PointRecord& r : pset) {
            if (rng.Next() % 20 == 0) dead.insert(r.id);
          }
          // A self-join group holds live points only, as the join's does.
          std::vector<PointRecord> live_group;
          for (const PointRecord& q : group) {
            if (!self_join || dead.count(q.id) == 0) live_group.push_back(q);
          }
          for (const bool symmetric : {false, true}) {
            BulkFilterOptions options;
            options.symmetric_pruning = symmetric;
            options.self_join = self_join;
            SCOPED_TRACE("seed=" + std::to_string(seed) +
                         " page_size=" + std::to_string(page_size) +
                         " bulk=" + std::to_string(bulk) +
                         " round=" + std::to_string(round) +
                         " size=" + std::to_string(size) +
                         " self_join=" + std::to_string(self_join) +
                         " symmetric=" + std::to_string(symmetric));
            {
              SCOPED_TRACE("no tombstones");
              ExpectSameAsOracle(*tree.rtree, group, options, nullptr);
            }
            {
              SCOPED_TRACE("tombstones");
              ExpectSameAsOracle(*tree.rtree, live_group, options, &dead);
            }
          }
        }
      }
    }
  }

  BulkFilterScratch scratch_;  // reused by every case, as a join does
  size_t total_candidates_ = 0;
};

TEST_F(FilterDifferentialTest, BulkLoadedPage1024) {
  RunSweep(1024, /*bulk=*/true, 1, 3);
  EXPECT_GT(total_candidates_, 0u);
}

TEST_F(FilterDifferentialTest, BulkLoadedPage4096) {
  RunSweep(4096, /*bulk=*/true, 2, 3);
  EXPECT_GT(total_candidates_, 0u);
}

TEST_F(FilterDifferentialTest, InsertBuiltPage1024) {
  RunSweep(1024, /*bulk=*/false, 3, 3);
  EXPECT_GT(total_candidates_, 0u);
}

TEST_F(FilterDifferentialTest, InsertBuiltPage4096) {
  RunSweep(4096, /*bulk=*/false, 4, 3);
  EXPECT_GT(total_candidates_, 0u);
}

// A point exactly on the anchor's line is not pruned (the open half-plane)
// and a rect whose pruning corner lies on it is not pruned either; a
// duplicate of q gives a zero-normal anchor that prunes nothing. Here both
// cases sit at leaf MBR edges of a tiny tree.
TEST_F(FilterDifferentialTest, ZeroNormalsAndBoundaryPoints) {
  std::vector<PointRecord> pset;
  PointId id = 0;
  for (int x = -3; x <= 3; ++x) {
    for (int y = -3; y <= 3; ++y) {
      pset.push_back(PointRecord{Point{x * 10.0, y * 10.0}, id++});
      pset.push_back(PointRecord{Point{x * 10.0, y * 10.0}, id++});
    }
  }
  for (const uint32_t page_size : {1024u, 4096u}) {
    const Tree tree = BuildTree(pset, page_size, /*bulk=*/false);
    SplitMix rng(page_size);
    for (int round = 0; round < 20; ++round) {
      std::vector<PointRecord> group;
      const size_t size = 1 + rng.Next() % 70;
      for (size_t k = 0; k < size; ++k) {
        group.push_back(PointRecord{pset[rng.Next() % pset.size()].pt,
                                    5000 + static_cast<PointId>(k)});
      }
      for (const bool symmetric : {false, true}) {
        BulkFilterOptions options;
        options.symmetric_pruning = symmetric;
        SCOPED_TRACE("page_size=" + std::to_string(page_size) +
                     " round=" + std::to_string(round) +
                     " symmetric=" + std::to_string(symmetric));
        ExpectSameAsOracle(*tree.rtree, group, options, nullptr);
      }
    }
  }
  EXPECT_GT(total_candidates_, 0u);
}

}  // namespace
}  // namespace rcj
