// Tests for the verification step (Algorithm 3): candidates must survive
// iff no point of the verified dataset other than the pair's own endpoints
// lies strictly inside their circle.
#include "core/verify.h"

#include <gtest/gtest.h>

#include <memory>

#include "test_util.h"

namespace rcj {
namespace {

using testing_util::RandomRecords;
using testing_util::SplitMix;

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

// Definitional survival check against one dataset (exact diametral form,
// matching the library's predicate).
bool SurvivesAgainst(const CandidateCircle& c,
                     const std::vector<PointRecord>& dataset,
                     PointId skip1, PointId skip2) {
  for (const PointRecord& o : dataset) {
    if (o.id == skip1 || o.id == skip2) continue;
    if (StrictlyInsideDiametral(o.pt, c.p.pt, c.q.pt)) return false;
  }
  return true;
}

TEST(VerifyTest, MatchesDefinitionalCheckOnRandomPairs) {
  const std::vector<PointRecord> pset = RandomRecords(400, 200);
  std::vector<PointRecord> qset = RandomRecords(400, 201);
  for (PointRecord& q : qset) q.id += 1000000;
  Env env_p = MakeTree(pset);
  Env env_q = MakeTree(qset);

  // Arbitrary (unfiltered) pairs stress the verifier more than real
  // candidates: many are invalid.
  SplitMix rng(1);
  std::vector<CandidateCircle> candidates;
  for (int i = 0; i < 300; ++i) {
    const PointRecord& p = pset[rng.Next() % pset.size()];
    const PointRecord& q = qset[rng.Next() % qset.size()];
    candidates.push_back(CandidateCircle::Make(p, q));
  }

  std::vector<CandidateCircle> verified = candidates;
  ASSERT_TRUE(
      VerifyCandidates(*env_q.tree, TreeSide::kQSide, false, &verified).ok());
  ASSERT_TRUE(
      VerifyCandidates(*env_p.tree, TreeSide::kPSide, false, &verified).ok());

  for (size_t i = 0; i < candidates.size(); ++i) {
    const CandidateCircle& c = candidates[i];
    const bool expected =
        SurvivesAgainst(c, pset, c.p.id, kInvalidPointId) &&
        SurvivesAgainst(c, qset, c.q.id, kInvalidPointId);
    EXPECT_EQ(verified[i].alive, expected)
        << "pair (" << c.p.id << ", " << c.q.id << ")";
  }
}

TEST(VerifyTest, EndpointsDoNotInvalidateTheirOwnPair) {
  // A pair in an otherwise empty region must survive even though both of
  // its endpoints are in the trees.
  std::vector<PointRecord> pset{{{100.0, 100.0}, 0}};
  std::vector<PointRecord> qset{{{200.0, 100.0}, 0}};
  Env env_p = MakeTree(pset);
  Env env_q = MakeTree(qset);

  std::vector<CandidateCircle> candidates{
      CandidateCircle::Make(pset[0], qset[0])};
  ASSERT_TRUE(
      VerifyCandidates(*env_q.tree, TreeSide::kQSide, false, &candidates)
          .ok());
  ASSERT_TRUE(
      VerifyCandidates(*env_p.tree, TreeSide::kPSide, false, &candidates)
          .ok());
  EXPECT_TRUE(candidates[0].alive);
}

TEST(VerifyTest, PointOnBoundaryDoesNotInvalidate) {
  // o sits exactly on the circle of (p, q): under the open-disk convention
  // the pair survives.
  std::vector<PointRecord> pset{{{0.0, 0.0}, 0}};
  std::vector<PointRecord> qset{{{4.0, 0.0}, 0}, {{2.0, 2.0}, 1}};
  Env env_p = MakeTree(pset);
  Env env_q = MakeTree(qset);

  std::vector<CandidateCircle> candidates{
      CandidateCircle::Make(pset[0], qset[0])};
  ASSERT_TRUE(
      VerifyCandidates(*env_q.tree, TreeSide::kQSide, false, &candidates)
          .ok());
  EXPECT_TRUE(candidates[0].alive);

  // Move the witness strictly inside: the pair dies.
  qset[1] = PointRecord{{2.0, 1.9}, 1};
  Env env_q2 = MakeTree(qset);
  candidates[0].alive = true;
  ASSERT_TRUE(
      VerifyCandidates(*env_q2.tree, TreeSide::kQSide, false, &candidates)
          .ok());
  EXPECT_FALSE(candidates[0].alive);
}

TEST(VerifyTest, SelfJoinSkipsBothEndpoints) {
  std::vector<PointRecord> set{
      {{0.0, 0.0}, 0}, {{4.0, 0.0}, 1}, {{100.0, 100.0}, 2}};
  Env env = MakeTree(set);
  std::vector<CandidateCircle> candidates{
      CandidateCircle::Make(set[0], set[1])};
  ASSERT_TRUE(
      VerifyCandidates(*env.tree, TreeSide::kQSide, true, &candidates).ok());
  EXPECT_TRUE(candidates[0].alive);
}

TEST(VerifyTest, EmptyCandidateSetIsNoop) {
  Env env = MakeTree(RandomRecords(50, 202));
  std::vector<CandidateCircle> candidates;
  EXPECT_TRUE(
      VerifyCandidates(*env.tree, TreeSide::kPSide, false, &candidates).ok());
}

TEST(VerifyTest, LargeConcurrentBatchMatchesDefinition) {
  // Verifies the shared-alive-flag bookkeeping across sibling subtree
  // recursions with a batch larger than any node fanout.
  const std::vector<PointRecord> pset = RandomRecords(600, 203);
  std::vector<PointRecord> qset = RandomRecords(600, 204);
  for (PointRecord& q : qset) q.id += 1000000;
  Env env_p = MakeTree(pset, 256);

  SplitMix rng(2);
  std::vector<CandidateCircle> candidates;
  for (int i = 0; i < 1000; ++i) {
    candidates.push_back(
        CandidateCircle::Make(pset[rng.Next() % pset.size()],
                              qset[rng.Next() % qset.size()]));
  }
  std::vector<CandidateCircle> verified = candidates;
  ASSERT_TRUE(
      VerifyCandidates(*env_p.tree, TreeSide::kPSide, false, &verified).ok());
  for (size_t i = 0; i < candidates.size(); ++i) {
    EXPECT_EQ(verified[i].alive,
              SurvivesAgainst(candidates[i], pset, candidates[i].p.id,
                              kInvalidPointId));
  }
}

}  // namespace
}  // namespace rcj
