// Tests for the filter step (Algorithm 2) and bulk filter (Algorithm 7):
// the filter must return a *superset* of the true RCJ partners of each
// query point (no false negatives — Lemma 4's completeness argument), and
// the symmetric pruning rule must only ever shrink candidate sets. The
// FilterTest cases run Algorithm 2 as the join does: Bulk_Filter over a
// group of one point.
#include "core/filter.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <utility>

#include "core/rcj_brute.h"
#include "test_util.h"

namespace rcj {
namespace {

using testing_util::RandomRecords;

struct Env {
  std::unique_ptr<MemPageStore> store;
  std::unique_ptr<BufferManager> buffer;
  std::unique_ptr<RTree> tree;
};

Env MakeTree(const std::vector<PointRecord>& recs, uint32_t page_size = 512) {
  Env env;
  env.store = std::make_unique<MemPageStore>(page_size);
  env.buffer = std::make_unique<BufferManager>(1u << 16);
  Result<std::unique_ptr<RTree>> tree =
      RTree::Create(env.store.get(), env.buffer.get());
  EXPECT_TRUE(tree.ok());
  env.tree = std::move(tree.value());
  for (const PointRecord& r : recs) {
    EXPECT_TRUE(env.tree->Insert(r).ok());
  }
  return env;
}

// True partner ids of q among pset (no Q-side points: the filter's
// guarantee is relative to P; Q-side invalidation happens in verification).
std::set<PointId> TruePartnersConsideringP(
    const std::vector<PointRecord>& pset, const PointRecord& q) {
  std::set<PointId> out;
  for (const PointRecord& p : pset) {
    if (PairSatisfiesRingConstraint(p, q, pset, p.id, kInvalidPointId)) {
      out.insert(p.id);
    }
  }
  return out;
}

// Algorithm 2 for q: Bulk_Filter over the one-point group {q}.
// `self_join` skips q's own id.
Status FilterOne(const RTree& tree, const PointRecord& q, bool self_join,
                 std::vector<PointRecord>* candidates) {
  BulkFilterOptions options;
  options.self_join = self_join;
  std::vector<std::vector<PointRecord>> per_q;
  RINGJOIN_RETURN_IF_ERROR(BulkFilterCandidates(tree, {q}, options, &per_q));
  *candidates = std::move(per_q.at(0));
  return Status::OK();
}

TEST(FilterTest, CandidatesAreSupersetOfTruePartners) {
  const std::vector<PointRecord> pset = RandomRecords(300, 100);
  const std::vector<PointRecord> qset = RandomRecords(40, 101);
  Env env = MakeTree(pset);

  for (const PointRecord& q : qset) {
    std::vector<PointRecord> candidates;
    ASSERT_TRUE(FilterOne(*env.tree, q, false, &candidates).ok());
    std::set<PointId> got;
    for (const PointRecord& c : candidates) got.insert(c.id);
    EXPECT_EQ(got.size(), candidates.size()) << "duplicate candidates";

    for (const PointId id : TruePartnersConsideringP(pset, q)) {
      EXPECT_TRUE(got.count(id) != 0)
          << "filter lost true partner " << id << " of q=" << q.id;
    }
  }
}

TEST(FilterTest, CandidateSetIsMuchSmallerThanDataset) {
  const std::vector<PointRecord> pset = RandomRecords(2000, 102);
  Env env = MakeTree(pset);
  testing_util::SplitMix rng(7);
  size_t total = 0;
  const int queries = 25;
  for (int i = 0; i < queries; ++i) {
    std::vector<PointRecord> candidates;
    const PointRecord q{rng.NextPoint(0, 10000), kInvalidPointId};
    ASSERT_TRUE(FilterOne(*env.tree, q, false, &candidates).ok());
    total += candidates.size();
    EXPECT_LT(candidates.size(), 100u)
        << "uniform data: candidate sets should be tiny vs |P|=2000";
  }
  EXPECT_LT(total / queries, 30u);
}

TEST(FilterTest, SelfSkipExcludesIdentityPoint) {
  const std::vector<PointRecord> pset = RandomRecords(200, 103);
  Env env = MakeTree(pset);
  const PointRecord& q = pset[17];
  std::vector<PointRecord> candidates;
  ASSERT_TRUE(FilterOne(*env.tree, q, true, &candidates).ok());
  for (const PointRecord& c : candidates) {
    EXPECT_NE(c.id, q.id);
  }
  // Without the skip, q itself (distance 0) is the first candidate and
  // prunes everything else.
  std::vector<PointRecord> unskipped;
  ASSERT_TRUE(FilterOne(*env.tree, q, false, &unskipped).ok());
  ASSERT_FALSE(unskipped.empty());
  EXPECT_EQ(unskipped[0].id, q.id);
}

TEST(FilterTest, EmptyTreeYieldsNoCandidates) {
  Env env = MakeTree({});
  // Stale output from an earlier group must be cleared.
  std::vector<std::vector<PointRecord>> per_q{{PointRecord{{1, 1}, 9}}};
  ASSERT_TRUE(BulkFilterCandidates(*env.tree, {PointRecord{{5, 5}, 1}},
                                   BulkFilterOptions{}, &per_q)
                  .ok());
  ASSERT_EQ(per_q.size(), 1u);
  EXPECT_TRUE(per_q[0].empty());
}

TEST(BulkFilterTest, PerQuerySetsAreSupersetsOfTruePartners) {
  const std::vector<PointRecord> pset = RandomRecords(300, 104);
  std::vector<PointRecord> group = RandomRecords(24, 105);
  // Distinct id space for the Q-side group, so skip-by-id stays unambiguous.
  for (PointRecord& q : group) q.id += 1000000;
  Env env = MakeTree(pset);

  for (const bool symmetric : {false, true}) {
    BulkFilterOptions options;
    options.symmetric_pruning = symmetric;
    std::vector<std::vector<PointRecord>> per_q;
    ASSERT_TRUE(BulkFilterCandidates(*env.tree, group, options, &per_q).ok());
    ASSERT_EQ(per_q.size(), group.size());

    for (size_t i = 0; i < group.size(); ++i) {
      std::set<PointId> got;
      for (const PointRecord& c : per_q[i]) got.insert(c.id);
      for (const PointId id : TruePartnersConsideringP(pset, group[i])) {
        // With symmetric pruning the sibling points of the group are extra
        // anchors; partners invalidated by a *sibling* may legitimately be
        // pruned here — but only if that sibling kills the pair, which the
        // verification against Q would do anyway. For the superset check,
        // include group siblings as Q-side context.
        std::vector<PointRecord> context = pset;
        context.insert(context.end(), group.begin(), group.end());
        const PointRecord* partner = nullptr;
        for (const PointRecord& p : pset) {
          if (p.id == id) partner = &p;
        }
        ASSERT_NE(partner, nullptr);
        const bool valid_with_group_context = PairSatisfiesRingConstraint(
            *partner, group[i], context, partner->id, group[i].id);
        if (!symmetric || valid_with_group_context) {
          EXPECT_TRUE(got.count(id) != 0)
              << "bulk filter (symmetric=" << symmetric
              << ") lost true partner " << id << " of group point "
              << group[i].id;
        }
      }
    }
  }
}

TEST(BulkFilterTest, SymmetricPruningOnlyShrinksCandidateSets) {
  const std::vector<PointRecord> pset = RandomRecords(500, 106);
  std::vector<PointRecord> group = RandomRecords(30, 107);
  for (PointRecord& q : group) q.id += 1000000;
  Env env = MakeTree(pset);

  BulkFilterOptions plain;
  std::vector<std::vector<PointRecord>> bij_sets;
  ASSERT_TRUE(BulkFilterCandidates(*env.tree, group, plain, &bij_sets).ok());

  BulkFilterOptions symmetric;
  symmetric.symmetric_pruning = true;
  std::vector<std::vector<PointRecord>> obj_sets;
  ASSERT_TRUE(
      BulkFilterCandidates(*env.tree, group, symmetric, &obj_sets).ok());

  // Note: per-query sets are NOT necessarily subsets — pruning a candidate
  // early also removes it as an anchor, which can let a different point
  // survive. The paper's Table-4 claim is about totals.
  size_t bij_total = 0;
  size_t obj_total = 0;
  for (size_t i = 0; i < group.size(); ++i) {
    bij_total += bij_sets[i].size();
    obj_total += obj_sets[i].size();
  }
  EXPECT_LT(obj_total, bij_total)
      << "Lemma-5 pruning should strictly reduce candidates on random data";
}

TEST(BulkFilterTest, EmptyGroup) {
  const std::vector<PointRecord> pset = RandomRecords(100, 108);
  Env env = MakeTree(pset);
  std::vector<std::vector<PointRecord>> per_q;
  ASSERT_TRUE(
      BulkFilterCandidates(*env.tree, {}, BulkFilterOptions{}, &per_q).ok());
  EXPECT_TRUE(per_q.empty());
}

TEST(BulkFilterTest, SelfJoinSkipsIdentityPerQuery) {
  const std::vector<PointRecord> set = RandomRecords(150, 109);
  Env env = MakeTree(set);
  const std::vector<PointRecord> group(set.begin(), set.begin() + 12);
  BulkFilterOptions options;
  options.self_join = true;
  options.symmetric_pruning = true;
  std::vector<std::vector<PointRecord>> per_q;
  ASSERT_TRUE(BulkFilterCandidates(*env.tree, group, options, &per_q).ok());
  for (size_t i = 0; i < group.size(); ++i) {
    for (const PointRecord& c : per_q[i]) {
      EXPECT_NE(c.id, group[i].id);
    }
  }
}

}  // namespace
}  // namespace rcj
