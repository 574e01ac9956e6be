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

  auto pruned_for = [&](size_t i, const FilterHeapItem& item) {
    for (const PruneRegion& region : anchors[i]) {
      if (item.is_point ? region.PrunesPoint(item.rec.pt)
                        : region.PrunesRect(item.mbr)) {
        return true;
      }
    }
    return false;
  };

  std::vector<FilterHeapItem>& heap = scratch->heap;
  heap.clear();
  auto push = [&heap](const FilterHeapItem& item) {
    heap.push_back(item);
    std::push_heap(heap.begin(), heap.end(), HeapCompare{});
  };
  {
    FilterHeapItem root;
    root.is_point = false;
    root.child_page = tp.root_page();
    root.key = 0.0;
    push(root);
  }

  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), HeapCompare{});
    const FilterHeapItem top = heap.back();
    heap.pop_back();

    // Discard the entry only if it is prunable with respect to *every*
    // group member (Algorithm 7, line 7). `first` is the first member it
    // is not pruned for.
    size_t first = 0;
    while (first < group && pruned_for(first, top)) ++first;
    if (first == group) continue;

    if (top.is_point) {
      if (exclude != nullptr && exclude->count(top.rec.id) != 0) {
        continue;  // tombstoned: neither a candidate nor an anchor
      }
      // Members before `first` are pruned and `first` is not, as the scan
      // above found; only the members after it still need a test. A new
      // anchor of member i never affects another member's test.
      for (size_t i = first; i < group; ++i) {
        if (options.self_join && top.rec.id == qs[i].id) continue;
        if (i == first || !pruned_for(i, top)) {
          (*per_q_candidates)[i].push_back(top.rec);
          anchors[i].emplace_back(qs[i].pt, top.rec.pt);
        }
      }
      continue;
    }

    Result<Node> node = tp.ReadNode(top.child_page);
    if (!node.ok()) return node.status();
    if (node.value().is_leaf()) {
      for (const LeafEntry& e : node.value().points) {
        FilterHeapItem item;
        item.is_point = true;
        item.rec = e.rec;
        item.key = Dist2(centroid, e.rec.pt);
        push(item);
      }
    } else {
      for (const BranchEntry& e : node.value().children) {
        FilterHeapItem item;
        item.is_point = false;
        item.child_page = e.child;
        item.mbr = e.mbr;
        item.key = e.mbr.MinDist2(centroid);
        push(item);
      }
    }
  }
  return Status::OK();
}

}  // namespace rcj
