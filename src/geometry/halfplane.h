// The pruning half-planes of the paper's Lemmas 1, 3 and 5.
//
// Given a query point q and an "anchor" point a (a previously discovered
// point of P for Lemma 1, or a sibling point of Q for Lemma 5), let L(q, a)
// be the line through a perpendicular to segment qa. The plane splits into
//   Psi+ (contains q)  and  Psi- (beyond a, away from q).
// No point in the *open* region Psi-(q, a) can form an RCJ pair with q.
// The region is open because a point exactly on L(q, a) yields a circle with
// the anchor exactly on its boundary, which under the open-disk convention
// does not invalidate the pair (see DESIGN.md).
#ifndef RINGJOIN_GEOMETRY_HALFPLANE_H_
#define RINGJOIN_GEOMETRY_HALFPLANE_H_

#include "geometry/point.h"
#include "geometry/rect.h"

namespace rcj {

/// The pruning half-plane Psi-(q, anchor) of Lemma 1 / Lemma 5.
/// Construct once per (q, anchor) pair; testing a point is one dot product.
class PruneRegion {
 public:
  /// Requires q != anchor (a zero normal prunes nothing, which is safe but
  /// useless; callers never pass q == anchor).
  PruneRegion(const Point& q, const Point& anchor)
      : anchor_(anchor), nx_(anchor.x - q.x), ny_(anchor.y - q.y) {}

  /// Lemma 1 / Lemma 5: true iff x lies strictly in Psi-(q, anchor), i.e.
  /// x cannot join with q.
  bool PrunesPoint(const Point& x) const {
    return (x.x - anchor_.x) * nx_ + (x.y - anchor_.y) * ny_ > 0.0;
  }

  /// Lemma 3: true iff the whole rectangle lies strictly in Psi-(q, anchor),
  /// i.e. no point in the subtree under MBR r can join with q. The signed
  /// offset is linear, so its minimum over r is attained at one corner,
  /// chosen per axis by the sign of the normal.
  ///
  /// The test is monotone under nesting in IEEE arithmetic, not only over
  /// the reals: if it prunes r, it prunes every rect inside r, and
  /// PrunesPoint prunes every point inside r. Per axis, nesting never
  /// lowers the corner term (c - anchor) * n: with n > 0 the corner is lo,
  /// which only grows, and with n <= 0 it is hi, which only shrinks (a
  /// point is a rect with lo == hi). Subtraction, multiplication by a fixed
  /// factor and addition all round monotonically, and a zero normal
  /// contributes zero whatever the coordinate, for finite coordinates whose
  /// differences do not overflow. Bulk_Filter relies on this to carry a
  /// pruned member down a subtree without testing it again.
  bool PrunesRect(const Rect& r) const {
    const double cx = nx_ > 0.0 ? r.lo.x : r.hi.x;
    const double cy = ny_ > 0.0 ? r.lo.y : r.hi.y;
    return (cx - anchor_.x) * nx_ + (cy - anchor_.y) * ny_ > 0.0;
  }

  const Point& anchor() const { return anchor_; }

 private:
  Point anchor_;
  // Outward normal of L(q, anchor): direction from q to the anchor.
  double nx_;
  double ny_;
};

}  // namespace rcj

#endif  // RINGJOIN_GEOMETRY_HALFPLANE_H_
