#include "core/filter.h"

#include <algorithm>

namespace rcj {
namespace {

// Min-heap order on the key; std::push_heap/pop_heap with this comparator
// are exactly std::priority_queue's push/pop, so ties pop in the same order.
struct HeapCompare {
  bool operator()(const FilterHeapItem& a, const FilterHeapItem& b) const {
    return a.key > b.key;
  }
};

// Any-of over `regions`, starting with the one at `*hint`; a region that
// prunes becomes the new hint. Any-of does not depend on the order, so the
// hint changes the cost of the test and never its answer. A null hint
// scans in list order.
template <typename Prunes>
bool AnyPrunes(const std::vector<PruneRegion>& regions, uint32_t* hint,
               const Prunes& prunes) {
  const size_t n = regions.size();
  if (hint == nullptr || n == 0) {
    for (size_t k = 0; k < n; ++k) {
      if (prunes(regions[k])) return true;
    }
    return false;
  }
  const uint32_t first = *hint;  // < n: hints only name existing regions
  if (prunes(regions[first])) return true;
  for (size_t k = 0; k < n; ++k) {
    if (k != first && prunes(regions[k])) {
      *hint = static_cast<uint32_t>(k);
      return true;
    }
  }
  return false;
}

}  // namespace

Status BulkFilterCandidates(const RTree& tp,
                            const std::vector<PointRecord>& qs,
                            const BulkFilterOptions& options,
                            std::vector<std::vector<PointRecord>>*
                                per_q_candidates,
                            const std::unordered_set<PointId>* exclude,
                            BulkFilterScratch* scratch) {
  const size_t group = qs.size();
  per_q_candidates->resize(group);
  for (std::vector<PointRecord>& candidates : *per_q_candidates) {
    candidates.clear();
  }
  if (group == 0 || tp.height() == 0) return Status::OK();

  BulkFilterScratch local;
  if (scratch == nullptr) scratch = &local;

  // Centroid of the group: the single reference point of the traversal
  // order (Algorithm 7 examines T_P in ascending distance from it).
  Point centroid{0.0, 0.0};
  for (const PointRecord& q : qs) {
    centroid.x += q.pt.x;
    centroid.y += q.pt.y;
  }
  centroid.x /= static_cast<double>(group);
  centroid.y /= static_cast<double>(group);

  // anchors[i]: pruning half-planes usable for qs[i]. With symmetric
  // pruning (Section 4.2) the sibling points of the leaf seed the anchor
  // sets before any candidate from P has been discovered.
  std::vector<std::vector<PruneRegion>>& anchors = scratch->anchors;
  anchors.resize(group);
  for (std::vector<PruneRegion>& member : anchors) member.clear();
  if (options.symmetric_pruning) {
    for (size_t i = 0; i < group; ++i) {
      for (size_t j = 0; j < group; ++j) {
        if (i == j || qs[i].pt == qs[j].pt) continue;
        anchors[i].emplace_back(qs[i].pt, qs[j].pt);
      }
    }
  }
  // A group of one keeps no masks and no hint (see filter.h).
  const bool single = group == 1;
  std::vector<uint32_t>& last_pruner = scratch->last_pruner;
  last_pruner.assign(group, 0);

  auto pruned_for = [&](size_t i, const FilterHeapItem& item) {
    uint32_t* hint = single ? nullptr : &last_pruner[i];
    if (item.is_point) {
      const Point& pt = item.rec.pt;
      return AnyPrunes(anchors[i], hint, [&pt](const PruneRegion& r) {
        return r.PrunesPoint(pt);
      });
    }
    const Rect& mbr = item.mbr;
    return AnyPrunes(anchors[i], hint, [&mbr](const PruneRegion& r) {
      return r.PrunesRect(mbr);
    });
  };

  // Alive-member masks, `words` 64-bit words per slot. Slot 0 has every
  // member alive; a node pop that prunes a member appends a narrower slot
  // for its children. Slots live until the call returns.
  const size_t words = (group + 63) / 64;
  std::vector<uint64_t>& masks = scratch->masks;
  masks.assign(words, ~uint64_t{0});
  if (group % 64 != 0) masks[words - 1] = (uint64_t{1} << (group % 64)) - 1;

  // The first member at or after `from` whose bit is set in slot `slot`,
  // or `group` when there is none. A group of one reads no mask: its member
  // is alive in every entry that survives.
  auto next_alive = [&](uint32_t slot, size_t from) -> size_t {
    if (single) return from == 0 ? 0 : group;
    size_t w = from / 64;
    if (w >= words) return group;
    const uint64_t* mask = &masks[slot * words];
    uint64_t bits = mask[w] & (~uint64_t{0} << (from % 64));
    while (bits == 0) {
      if (++w == words) return group;
      bits = mask[w];
    }
    return w * 64 + static_cast<size_t>(__builtin_ctzll(bits));
  };

  std::vector<FilterHeapItem>& heap = scratch->heap;
  heap.clear();
  auto push = [&heap](const FilterHeapItem& item) {
    heap.push_back(item);
    std::push_heap(heap.begin(), heap.end(), HeapCompare{});
  };
  // Pushes the entries of node `page`; they inherit mask slot `slot`.
  auto expand = [&](uint64_t page, uint32_t slot) -> Status {
    Result<Node> node = tp.ReadNode(page);
    if (!node.ok()) return node.status();
    if (node.value().is_leaf()) {
      for (const LeafEntry& e : node.value().points) {
        FilterHeapItem item;
        item.is_point = true;
        item.mask = slot;
        item.rec = e.rec;
        item.key = Dist2(centroid, e.rec.pt);
        push(item);
      }
    } else {
      for (const BranchEntry& e : node.value().children) {
        FilterHeapItem item;
        item.is_point = false;
        item.mask = slot;
        item.child_page = e.child;
        item.mbr = e.mbr;
        item.key = e.mbr.MinDist2(centroid);
        push(item);
      }
    }
    return Status::OK();
  };

  // The root has no MBR of its own to test, so it is expanded untested and
  // its children start with every member alive.
  RINGJOIN_RETURN_IF_ERROR(expand(tp.root_page(), 0));

  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), HeapCompare{});
    const FilterHeapItem top = heap.back();
    heap.pop_back();

    if (top.is_point) {
      // Discard the point only if it is prunable with respect to *every*
      // group member (Algorithm 7, line 7); members its leaf's mask
      // cleared are pruned already. `first` is the first member it is not
      // pruned for.
      size_t first = next_alive(top.mask, 0);
      while (first < group && pruned_for(first, top)) {
        first = next_alive(top.mask, first + 1);
      }
      if (first == group) continue;
      if (exclude != nullptr && exclude->count(top.rec.id) != 0) {
        continue;  // tombstoned: neither a candidate nor an anchor
      }
      // `first` needs no second test; only the alive members after it do.
      // A new anchor of member i never affects another member's test.
      for (size_t i = first; i < group; i = next_alive(top.mask, i + 1)) {
        if (options.self_join && top.rec.id == qs[i].id) continue;
        if (i == first || !pruned_for(i, top)) {
          (*per_q_candidates)[i].push_back(top.rec);
          anchors[i].emplace_back(qs[i].pt, top.rec.pt);
        }
      }
      continue;
    }

    // A node: test every alive member and hand the survivors to the
    // children. A group of one keeps slot 0 throughout, because a node
    // pruned for its only member is dropped here.
    uint32_t slot = top.mask;
    if (single) {
      if (pruned_for(0, top)) continue;
    } else {
      const size_t parent = size_t{top.mask} * words;
      const size_t narrowed = masks.size();
      masks.insert(masks.end(), words, 0);
      bool any = false;
      bool changed = false;
      for (size_t w = 0; w < words; ++w) {
        uint64_t kept = masks[parent + w];
        for (uint64_t bits = kept; bits != 0; bits &= bits - 1) {
          const int b = __builtin_ctzll(bits);
          if (pruned_for(w * 64 + static_cast<size_t>(b), top)) {
            kept &= ~(uint64_t{1} << b);
            changed = true;
          }
        }
        masks[narrowed + w] = kept;
        any = any || kept != 0;
      }
      if (!any) {
        masks.resize(narrowed);
        continue;  // pruned for every member
      }
      if (changed) {
        slot = static_cast<uint32_t>(narrowed / words);
      } else {
        masks.resize(narrowed);
      }
    }
    RINGJOIN_RETURN_IF_ERROR(expand(top.child_page, slot));
  }
  return Status::OK();
}

}  // namespace rcj
