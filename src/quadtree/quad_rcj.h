// RCJ over quadtrees: the paper's Section 3 generality claim, realized.
// The filter step is the same best-first traversal with Lemma-1 (point) and
// Lemma-3 (region) half-plane pruning — quadrant regions play the role of
// MBRs; the verification step checks candidate circles with the exact
// diametral predicate via constrained region traversal.
#ifndef RINGJOIN_QUADTREE_QUAD_RCJ_H_
#define RINGJOIN_QUADTREE_QUAD_RCJ_H_

#include <vector>

#include "common/status.h"
#include "core/pair_sink.h"
#include "core/rcj_types.h"
#include "quadtree/quadtree.h"

namespace rcj {

/// Candidate partners of q from a quadtree over P (Algorithm 2 with
/// quadrant regions instead of MBRs).
Status QuadFilterCandidates(const QuadTree& tp, const Point& q,
                            PointId self_skip_id,
                            std::vector<PointRecord>* candidates);

/// Index nested loop RCJ over two quadtrees (INJ of Algorithm 5, with the
/// quadtree as the hierarchical index). Emission and `stats` semantics
/// match RunIndexJoin: pairs stream through `sink` in deterministic
/// depth-first order, and a sink returning false stops the traversal with
/// OK.
Status RunQuadRcj(const QuadTree& tq, const QuadTree& tp, PairSink* sink,
                  JoinStats* stats);

}  // namespace rcj

#endif  // RINGJOIN_QUADTREE_QUAD_RCJ_H_
