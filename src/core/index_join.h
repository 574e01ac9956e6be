// The index join of the ring-constrained join: one kernel for INJ (paper
// Section 3, Algorithms 4 & 5), BIJ (Section 4, Algorithm 6) and OBJ
// (Section 4.2), over a static environment or a live one's delta overlay.
//
// The algorithms differ only in how they group T_Q's points. The kernel
// visits T_Q's leaves and, for each group, runs Bulk_Filter against T_P
// (Filter is Bulk_Filter over a group of one), builds the candidate
// circles, verifies them against both trees and emits the survivors:
//   * INJ: each live point of a leaf is its own group.
//   * BIJ: a leaf's live points form one group; OBJ adds the Lemma-5
//     sibling anchors (symmetric pruning).
//   * The delta tail of a live query: each delta-Q record, in insertion
//     order, is its own group, exactly as INJ.
#ifndef RINGJOIN_CORE_INDEX_JOIN_H_
#define RINGJOIN_CORE_INDEX_JOIN_H_

#include <vector>

#include "common/status.h"
#include "core/pair_sink.h"
#include "core/query_spec.h"
#include "core/rcj_types.h"
#include "rtree/rtree.h"

namespace rcj {

/// Runs the indexed algorithm `spec.algorithm` (INJ, BIJ or OBJ) over
/// T_Q's leaves. Emits each surviving pair through `sink` as soon as its
/// group is verified, in deterministic leaf/point order, and accumulates
/// candidate and result counts into `stats` (I/O and time accounting is
/// the caller's). Consults `spec`'s algorithm, order, random_seed, verify
/// and overlay; a null or empty overlay is the static join.
///
/// `tq_leaf_subset`, when non-null, visits exactly these T_Q leaf pages in
/// the given order and ignores `spec.order`/`spec.random_seed`: the engine
/// hands each task a contiguous range of the serial leaf order, and
/// concatenating the ranges' outputs yields the serial result.
/// `delta_tail` appends the overlay's delta-Q tail after the leaves; exactly
/// one fragment of a query sets it.
///
/// Returns OK early, with a prefix of the serial output emitted, when the
/// sink declines a pair.
Status RunIndexJoin(const RTree& tq, const RTree& tp, bool self_join,
                    const QuerySpec& spec,
                    const std::vector<uint64_t>* tq_leaf_subset,
                    bool delta_tail, PairSink* sink, JoinStats* stats);

/// Leaf pages of `tree` in the requested order: the serial visiting order
/// of the kernel, and what the engine partitions into leaf ranges.
Status LeafPagesInOrder(const RTree& tree, SearchOrder order, uint64_t seed,
                        std::vector<uint64_t>* pages);

/// Reorders depth-first leaf pages into `order` (a shuffle by
/// mt19937_64(seed) for random, nothing for depth-first): the last step of
/// LeafPagesInOrder, which the engine applies to its cached depth-first
/// order.
void ApplySearchOrder(SearchOrder order, uint64_t seed,
                      std::vector<uint64_t>* pages);

}  // namespace rcj

#endif  // RINGJOIN_CORE_INDEX_JOIN_H_
