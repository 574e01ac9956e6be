// Property tests for the pruning half-planes of Lemmas 1, 3 and 5.
//
// The key identity: x lies in the open half-plane Psi-(q, a) *iff* the
// anchor a lies strictly inside the diametral circle of (x, q) — i.e. the
// angle x-a-q is obtuse. Lemma 1 (soundness) is one direction; Lemma 2
// (maximality of the pruning region) is the other.
#include "geometry/halfplane.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "geometry/circle.h"
#include "test_util.h"

namespace rcj {
namespace {

using testing_util::SplitMix;

TEST(PruneRegionTest, QueryPointIsNeverPruned) {
  SplitMix rng(1);
  for (int trial = 0; trial < 200; ++trial) {
    const Point q = rng.NextPoint(-10, 10);
    const Point a = rng.NextPoint(-10, 10);
    if (q == a) continue;
    const PruneRegion region(q, a);
    EXPECT_FALSE(region.PrunesPoint(q));  // q is in Psi+ by definition
  }
}

TEST(PruneRegionTest, AnchorItselfIsOnTheBoundary) {
  const PruneRegion region(Point{0.0, 0.0}, Point{2.0, 0.0});
  EXPECT_FALSE(region.PrunesPoint(Point{2.0, 0.0}));   // on L(q, a)
  EXPECT_FALSE(region.PrunesPoint(Point{2.0, 55.0}));  // still on L(q, a)
  EXPECT_TRUE(region.PrunesPoint(Point{2.0001, 0.0}));
  EXPECT_FALSE(region.PrunesPoint(Point{1.9999, 0.0}));
}

TEST(PruneRegionTest, Lemma1SoundnessAndLemma2Maximality) {
  SplitMix rng(2);
  int pruned_count = 0;
  for (int trial = 0; trial < 5000; ++trial) {
    const Point q = rng.NextPoint(-100, 100);
    const Point a = rng.NextPoint(-100, 100);
    const Point x = rng.NextPoint(-150, 150);
    const PruneRegion region(q, a);
    
    if (region.PrunesPoint(x)) {
      // Lemma 1: the anchor invalidates the pair <x, q>.
      EXPECT_TRUE(StrictlyInsideDiametral(a, x, q))
          << "pruned point whose circle does not contain the anchor";
      ++pruned_count;
    } else {
      // Lemma 2: outside Psi-, the anchor alone cannot decide the pair.
      EXPECT_FALSE(StrictlyInsideDiametral(a, x, q))
          << "unpruned point whose circle contains the anchor";
    }
  }
  // Sanity: the test exercised both branches.
  EXPECT_GT(pruned_count, 500);
  EXPECT_LT(pruned_count, 4500);
}

TEST(PruneRegionTest, RectPrunedIffAllCornersPruned) {
  SplitMix rng(3);
  for (int trial = 0; trial < 2000; ++trial) {
    const Point q = rng.NextPoint(-100, 100);
    const Point a = rng.NextPoint(-100, 100);
    if (q == a) continue;
    const PruneRegion region(q, a);
    Rect r = Rect::Empty();
    r.Expand(rng.NextPoint(-150, 150));
    r.Expand(rng.NextPoint(-150, 150));
    bool all_corners = true;
    for (int i = 0; i < 4; ++i) {
      all_corners = all_corners && region.PrunesPoint(r.Corner(i));
    }
    EXPECT_EQ(region.PrunesRect(r), all_corners);
  }
}

TEST(PruneRegionTest, Lemma3RectSoundnessViaSampledInteriorPoints) {
  SplitMix rng(4);
  for (int trial = 0; trial < 500; ++trial) {
    const Point q = rng.NextPoint(-100, 100);
    const Point a = rng.NextPoint(-100, 100);
    if (q == a) continue;
    const PruneRegion region(q, a);
    Rect r = Rect::Empty();
    r.Expand(rng.NextPoint(-150, 150));
    r.Expand(rng.NextPoint(-150, 150));
    if (!region.PrunesRect(r)) continue;
    // Every point of the rect must individually be prunable.
    for (int i = 0; i < 10; ++i) {
      const Point s{rng.NextDouble(r.lo.x, r.hi.x),
                    rng.NextDouble(r.lo.y, r.hi.y)};
      EXPECT_TRUE(region.PrunesPoint(s));
      EXPECT_TRUE(StrictlyInsideDiametral(a, s, q));
    }
  }
}

TEST(PruneRegionTest, CloserAnchorsPruneMore) {
  // The paper's motivation for the incremental-NN search order: an anchor
  // near q yields a larger pruning region. Measure pruned fraction over a
  // fixed sample for a near and a far anchor along the same direction.
  const Point q{0.0, 0.0};
  const PruneRegion near_region(q, Point{1.0, 0.0});
  const PruneRegion far_region(q, Point{50.0, 0.0});
  SplitMix rng(5);
  int near_pruned = 0;
  int far_pruned = 0;
  for (int i = 0; i < 5000; ++i) {
    const Point x = rng.NextPoint(-100, 100);
    if (near_region.PrunesPoint(x)) ++near_pruned;
    if (far_region.PrunesPoint(x)) ++far_pruned;
  }
  EXPECT_GT(near_pruned, far_pruned);
}

TEST(PruneRegionTest, SymmetricRuleLemma5MatchesLemma1Geometry) {
  // Lemma 5 is Lemma 1 with the anchor drawn from Q instead of P; the
  // geometry is identical. Verify with the pair-invalidity interpretation:
  // if q' prunes x, then the circle of <x, q> strictly contains q'.
  SplitMix rng(6);
  for (int trial = 0; trial < 2000; ++trial) {
    const Point q = rng.NextPoint(-100, 100);
    const Point q_sibling = rng.NextPoint(-100, 100);
    const Point x = rng.NextPoint(-150, 150);
    if (q == q_sibling) continue;
    const PruneRegion region(q, q_sibling);
    if (region.PrunesPoint(x)) {
      EXPECT_TRUE(StrictlyInsideDiametral(q_sibling, x, q));
    }
  }
}

// The premise of the filter's alive-member mask: once an anchor prunes a
// node's MBR it prunes every MBR nested inside it and every point inside
// those, in IEEE arithmetic and not only over the reals. Anchors include
// zero-normal axes (the anchor level with q on one axis) and coordinates a
// few subnormal steps from the anchor, where rounding would show first.
TEST(PruneRegionTest, PruningIsMonotoneUnderNesting) {
  SplitMix rng(7);
  const double tiny = std::numeric_limits<double>::denorm_min();
  // base plus a wide, a subnormal or no offset.
  auto near = [&rng, tiny](double base) {
    switch (rng.Next() % 3) {
      case 0:
        return base + rng.NextDouble(-100.0, 100.0);
      case 1:
        return base + tiny * static_cast<double>(
                                 static_cast<int>(rng.Next() % 17) - 8);
      default:
        return base;
    }
  };
  // A value in [lo, hi], often one of the ends.
  auto within = [&rng](double lo, double hi) {
    switch (rng.Next() % 4) {
      case 0:
        return lo;
      case 1:
        return hi;
      default:
        return std::min(hi, std::max(lo, rng.NextDouble(lo, hi)));
    }
  };
  int parents_pruned = 0;
  int children_pruned = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    const Point q = rng.NextPoint(-100.0, 100.0);
    Point a = rng.NextPoint(-100.0, 100.0);
    if (rng.Next() % 4 == 0) a.x = q.x;  // zero normal on x
    if (rng.Next() % 4 == 0) a.y = q.y;  // zero normal on y
    if (q == a) continue;
    const PruneRegion region(q, a);

    Rect parent = Rect::Empty();
    parent.Expand(Point{near(a.x), near(a.y)});
    parent.Expand(Point{near(a.x), near(a.y)});
    Rect child;
    child.lo = Point{within(parent.lo.x, parent.hi.x),
                     within(parent.lo.y, parent.hi.y)};
    child.hi = Point{within(child.lo.x, parent.hi.x),
                     within(child.lo.y, parent.hi.y)};
    const Point pt{within(child.lo.x, child.hi.x),
                   within(child.lo.y, child.hi.y)};

    if (region.PrunesRect(parent)) {
      ++parents_pruned;
      EXPECT_TRUE(region.PrunesRect(child))
          << "trial " << trial << ": parent pruned, nested child not";
    }
    if (region.PrunesRect(child)) {
      ++children_pruned;
      EXPECT_TRUE(region.PrunesPoint(pt))
          << "trial " << trial << ": child pruned, point inside it not";
    }
  }
  // Sanity: both implications were exercised.
  EXPECT_GT(parents_pruned, 500);
  EXPECT_GT(children_pruned, parents_pruned);
}

}  // namespace
}  // namespace rcj
