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
//
// Two devices make each heap entry cheaper without changing a decision:
//
//  * Alive-member mask. A member pruned for a node stays pruned for the
//    node's whole subtree: anchor sets only grow, every stored MBR contains
//    its subtree, and the Lemma 3 corner test is monotone under MBR nesting
//    (see PruneRegion). So a node's pop tests every member its parent left
//    alive, and its children carry the survivors as a bit mask (one bit per
//    member, in a pool of the scratch, named by FilterHeapItem::mask). A
//    point entry tests only the members its leaf left alive. The root is
//    expanded untested, so its children start with every member alive:
//    the root has no stored MBR to test, and a stand-in MBR would clear
//    members for the whole tree.
//  * Last pruner first. Each member remembers the anchor that last pruned
//    an entry for it, and tests that anchor first. Any-of does not depend
//    on the order of the anchors.
//
// A group of one (INJ, a live query's delta tail) uses neither. A node
// pruned for its only member is dropped, so every surviving entry's mask
// is all ones. Its anchors are its candidates in ascending distance from
// q, and a nearer anchor prunes a larger half-plane, so list order already
// tests the strongest anchor first.
#ifndef RINGJOIN_CORE_FILTER_H_
#define RINGJOIN_CORE_FILTER_H_

#include <cstdint>
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
  /// Slot in BulkFilterScratch::masks of the members the entry's parent
  /// node was not pruned for.
  uint32_t mask = 0;
  PointRecord rec;
  uint64_t child_page = 0;
  Rect mbr;  // valid for nodes
};
// The mask slot sits in the padding after is_point.
static_assert(sizeof(FilterHeapItem) == sizeof(double) + sizeof(uint64_t) +
                                            sizeof(PointRecord) +
                                            sizeof(uint64_t) + sizeof(Rect),
              "FilterHeapItem grew");

/// Storage BulkFilterCandidates reuses across calls: the best-first heap,
/// the per-member anchor lists and last-pruner hints, and the alive-member
/// mask pool. A join passes one scratch to every group of a query, so
/// one-point groups allocate nothing per point.
struct BulkFilterScratch {
  std::vector<FilterHeapItem> heap;
  std::vector<std::vector<PruneRegion>> anchors;
  /// Index into anchors[i] of the region that last pruned for member i.
  std::vector<uint32_t> last_pruner;
  /// ceil(group / 64) words per slot; slot 0 has every member alive.
  std::vector<uint64_t> masks;
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
