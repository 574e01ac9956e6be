// The filter step of the ring-constrained join: Bulk_Filter (paper Section
// 4.1, Algorithm 7, plus the Section 4.2 symmetric pruning rule used by
// OBJ). Filter (Section 3.1, Algorithm 2) is Bulk_Filter over a group of
// one point, whose centroid is the point itself, so INJ uses this same
// function with one-point groups.
//
// Bulk_Filter walks T_P best-first in ascending mindist from the group's
// centroid (the incremental-NN order of Hjaltason & Samet) and returns, per
// group member q, every point of P that no previously discovered candidate
// of q can prune via Lemma 1 (points) / Lemma 3 (MBRs). Each output set is
// a superset of q's true RCJ partners — the verification step removes the
// rest.
#ifndef RINGJOIN_CORE_FILTER_H_
#define RINGJOIN_CORE_FILTER_H_

#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "core/rcj_types.h"
#include "geometry/halfplane.h"
#include "rtree/rtree.h"

namespace rcj {

/// Options for the bulk filter.
struct BulkFilterOptions {
  /// Enables the Lemma-5 symmetric pruning rule (Section 4.2): sibling
  /// points of the same T_Q leaf act as pruning anchors even before any
  /// candidate from P is found. This is what turns BIJ into OBJ.
  bool symmetric_pruning = false;
  /// Self-join mode: skip identity points (T_P is the same tree as T_Q).
  bool self_join = false;
};

/// Heap element of the best-first traversal: either a node page or a point.
struct FilterHeapItem {
  double key = 0.0;  // squared mindist from the group's centroid
  bool is_point = false;
  PointRecord rec;
  uint64_t child_page = 0;
  Rect mbr;  // valid for nodes
};

/// Storage BulkFilterCandidates reuses across calls: the best-first heap
/// and the per-member anchor lists. A join passes one scratch to every
/// group of a query, so one-point groups allocate nothing per point.
struct BulkFilterScratch {
  std::vector<FilterHeapItem> heap;
  std::vector<std::vector<PruneRegion>> anchors;
};

/// Algorithm 7. One best-first traversal of T_P (ordered by mindist from the
/// centroid of `qs`) retrieves candidate sets for all points of `qs`
/// concurrently. `per_q_candidates` is resized to qs.size(), aligned with
/// qs; its inner vectors keep their capacity.
///
/// `exclude`: tombstoned point ids of a live environment's delta overlay
/// (null for a static join). Excluded points are never reported and never
/// a pruning anchor, so every remaining anchor is a live point and
/// Lemma-1/3 pruning stays sound. The caller must also drop tombstoned
/// points from `qs` itself (dead siblings must not seed symmetric anchors).
///
/// `scratch`: reusable storage (null = allocate for this call only).
Status BulkFilterCandidates(const RTree& tp,
                            const std::vector<PointRecord>& qs,
                            const BulkFilterOptions& options,
                            std::vector<std::vector<PointRecord>>*
                                per_q_candidates,
                            const std::unordered_set<PointId>* exclude =
                                nullptr,
                            BulkFilterScratch* scratch = nullptr);

}  // namespace rcj

#endif  // RINGJOIN_CORE_FILTER_H_
