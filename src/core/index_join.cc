#include "core/index_join.h"

#include <algorithm>
#include <random>
#include <unordered_set>

#include "core/delta_overlay.h"
#include "core/filter.h"
#include "core/verify.h"
#include "geometry/halfplane.h"

namespace rcj {
namespace {

// The overlay's delta lists are small (compaction folds them into a fresh
// base) and RAM-resident, so they are probed with flat-array forms of
// Algorithms 2 and 3; those probes are deliberately outside the paper's
// buffer-pool I/O accounting, exactly like the resident pointsets BRUTE
// reads.

// Algorithm 2 over a flat in-memory array: appends to `candidates` every
// point of `points` that no kept point prunes via Lemma 1. The kept points
// are q's candidates from the tree, already in `candidates`, and the
// nearer points appended before it. Every tree candidate is a live point
// of the base that is neither q nor a delta record, so a delta record it
// prunes forms a pair that verification would kill anyway. Points are
// examined in ascending distance from `q` (ties broken by id, so the
// appended order is deterministic). `self_skip_id` is q's own id in a
// self-join (kInvalidPointId otherwise).
void FilterCandidatesFlat(const std::vector<PointRecord>& points,
                          const Point& q, PointId self_skip_id,
                          std::vector<PointRecord>* candidates) {
  if (points.empty()) return;

  // Ascending-distance order with an id tiebreak: the flat analogue of the
  // best-first heap, and deterministic for equal keys.
  std::vector<const PointRecord*> ordered;
  ordered.reserve(points.size());
  for (const PointRecord& rec : points) {
    if (rec.id == self_skip_id) continue;
    ordered.push_back(&rec);
  }
  std::sort(ordered.begin(), ordered.end(),
            [&q](const PointRecord* a, const PointRecord* b) {
              const double da = Dist2(q, a->pt);
              const double db = Dist2(q, b->pt);
              if (da != db) return da < db;
              return a->id < b->id;
            });

  std::vector<PruneRegion> regions;
  regions.reserve(candidates->size());
  for (const PointRecord& kept : *candidates) regions.emplace_back(q, kept.pt);
  for (const PointRecord* rec : ordered) {
    bool pruned = false;
    for (const PruneRegion& region : regions) {
      if (region.PrunesPoint(rec->pt)) {
        pruned = true;
        break;
      }
    }
    if (pruned) continue;
    candidates->push_back(*rec);
    regions.emplace_back(q, rec->pt);
  }
}

// Algorithm 3 over a flat in-memory array: kills every candidate whose
// circle strictly contains a point of `points` other than the candidate's
// own `side` endpoint (both endpoints with `self_join`).
void VerifyCandidatesFlat(const std::vector<PointRecord>& points,
                          TreeSide side, bool self_join,
                          std::vector<CandidateCircle>* candidates) {
  if (points.empty()) return;
  for (CandidateCircle& c : *candidates) {
    if (!c.alive) continue;
    for (const PointRecord& rec : points) {
      const bool is_endpoint =
          self_join ? (rec.id == c.p.id || rec.id == c.q.id)
                    : (side == TreeSide::kPSide ? rec.id == c.p.id
                                                : rec.id == c.q.id);
      if (is_endpoint) continue;
      if (StrictlyInsideDiametral(rec.pt, c.p.pt, c.q.pt)) {
        c.alive = false;
        break;
      }
    }
  }
}

// The full merged verification: both base trees with tombstone exclusion,
// then the overlay's delta records. A null overlay is exactly the static
// verification (face rule enabled).
Status VerifyMerged(const RTree& tq, const RTree& tp, bool self_join,
                    const DeltaOverlay* overlay,
                    std::vector<CandidateCircle>* circles) {
  const std::unordered_set<PointId>* dead_q =
      overlay != nullptr ? overlay->dead_or_null(LiveSide::kQ) : nullptr;
  if (self_join) {
    RINGJOIN_RETURN_IF_ERROR(
        VerifyCandidates(tq, TreeSide::kQSide, true, circles, dead_q));
    if (overlay != nullptr) {
      VerifyCandidatesFlat(overlay->delta(LiveSide::kQ), TreeSide::kQSide,
                           true, circles);
    }
    return Status::OK();
  }
  const std::unordered_set<PointId>* dead_p =
      overlay != nullptr ? overlay->dead_or_null(LiveSide::kP) : nullptr;
  RINGJOIN_RETURN_IF_ERROR(
      VerifyCandidates(tq, TreeSide::kQSide, false, circles, dead_q));
  RINGJOIN_RETURN_IF_ERROR(
      VerifyCandidates(tp, TreeSide::kPSide, false, circles, dead_p));
  if (overlay != nullptr) {
    VerifyCandidatesFlat(overlay->delta(LiveSide::kQ), TreeSide::kQSide,
                         false, circles);
    VerifyCandidatesFlat(overlay->delta(LiveSide::kP), TreeSide::kPSide,
                         false, circles);
  }
  return Status::OK();
}

}  // namespace

void ApplySearchOrder(SearchOrder order, uint64_t seed,
                      std::vector<uint64_t>* pages) {
  if (order == SearchOrder::kRandom) {
    std::mt19937_64 rng(seed);
    std::shuffle(pages->begin(), pages->end(), rng);
  }
}

Status LeafPagesInOrder(const RTree& tree, SearchOrder order, uint64_t seed,
                        std::vector<uint64_t>* pages) {
  pages->clear();
  RINGJOIN_RETURN_IF_ERROR(tree.CollectLeafPages(pages));
  ApplySearchOrder(order, seed, pages);
  return Status::OK();
}

Status RunIndexJoin(const RTree& tq, const RTree& tp, bool self_join,
                    const QuerySpec& spec,
                    const std::vector<uint64_t>* tq_leaf_subset,
                    bool delta_tail, PairSink* sink, JoinStats* stats) {
  std::vector<uint64_t> leaf_pages;
  if (tq_leaf_subset == nullptr) {
    RINGJOIN_RETURN_IF_ERROR(
        LeafPagesInOrder(tq, spec.order, spec.random_seed, &leaf_pages));
    tq_leaf_subset = &leaf_pages;
  }

  // Under an overlay, tombstoned T_Q points join no group, tombstoned T_P
  // points stop being candidates, anchors and witnesses, and delta records
  // join both roles.
  const DeltaOverlay* overlay =
      spec.overlay != nullptr && !spec.overlay->empty() ? spec.overlay
                                                        : nullptr;
  const std::unordered_set<PointId>* dead_q =
      overlay != nullptr ? overlay->dead_or_null(LiveSide::kQ) : nullptr;
  const std::unordered_set<PointId>* dead_p = nullptr;
  if (overlay != nullptr) {
    dead_p = self_join ? dead_q : overlay->dead_or_null(LiveSide::kP);
  }

  BulkFilterOptions filter_options;
  filter_options.symmetric_pruning = spec.algorithm == RcjAlgorithm::kObj;
  filter_options.self_join = self_join;
  const bool point_groups = spec.algorithm == RcjAlgorithm::kInj;

  // Reused by every group of the query.
  BulkFilterScratch scratch;
  std::vector<PointRecord> group;
  std::vector<std::vector<PointRecord>> per_q;
  std::vector<CandidateCircle> circles;
  bool more = true;  // false once the sink has declined a pair

  // Filter, circles, verify and emit for `group`, then clears it.
  auto join_group = [&]() -> Status {
    RINGJOIN_RETURN_IF_ERROR(BulkFilterCandidates(tp, group, filter_options,
                                                  &per_q, dead_p, &scratch));
    circles.clear();
    for (size_t i = 0; i < group.size(); ++i) {
      const PointRecord& q = group[i];
      if (overlay != nullptr) {
        FilterCandidatesFlat(overlay->delta(LiveSide::kP), q.pt,
                             self_join ? q.id : kInvalidPointId, &per_q[i]);
      }
      for (const PointRecord& p : per_q[i]) {
        // Self-join: each unordered pair is generated once, from its
        // higher-id endpoint's perspective (the filter guarantees every
        // true partner of q is present, so no pair is lost; live ids are
        // unique across base and delta).
        if (self_join && p.id >= q.id) continue;
        circles.push_back(CandidateCircle::Make(p, q));
      }
    }
    group.clear();
    stats->candidates += circles.size();

    if (spec.verify) {
      RINGJOIN_RETURN_IF_ERROR(
          VerifyMerged(tq, tp, self_join, overlay, &circles));
    }
    for (const CandidateCircle& c : circles) {
      if (!c.alive) continue;
      ++stats->results;
      if (!sink->Emit(RcjPair{c.p, c.q, c.circle})) {
        more = false;  // early termination requested by the sink
        break;
      }
    }
    return Status::OK();
  };

  for (const uint64_t page : *tq_leaf_subset) {
    Result<Node> leaf = tq.ReadNode(page);
    if (!leaf.ok()) return leaf.status();
    for (const LeafEntry& entry : leaf.value().points) {
      // A tombstoned leaf member joins no group, so a dead sibling never
      // seeds a Lemma-5 symmetric anchor.
      if (dead_q != nullptr && dead_q->count(entry.rec.id) != 0) continue;
      group.push_back(entry.rec);
      if (point_groups) {
        RINGJOIN_RETURN_IF_ERROR(join_group());
        if (!more) return Status::OK();
      }
    }
    if (!point_groups) {
      RINGJOIN_RETURN_IF_ERROR(join_group());
      if (!more) return Status::OK();
    }
  }
  if (delta_tail && overlay != nullptr) {
    for (const PointRecord& q : overlay->delta(LiveSide::kQ)) {
      group.push_back(q);
      RINGJOIN_RETURN_IF_ERROR(join_group());
      if (!more) return Status::OK();
    }
  }
  return Status::OK();
}

}  // namespace rcj
