// Disk-based bucket quadtree — the paper's Section 3 claim is that the RCJ
// methodology "is directly applicable to other hierarchical spatial indexes
// (e.g., point quad-tree)". This substrate proves it: the same Lemma-1/3
// half-plane pruning and the same verification predicate drive an RCJ join
// over quadtrees (see quad_rcj.h), sharing the BufferManager cost
// accounting with the R-tree pipeline.
//
// Structure: a region quadtree over a fixed domain rectangle. Leaves hold
// up to a page worth of points; a full leaf splits into four equal
// quadrants. Node pages:
//   [u16 kind][u16 count][u32 pad]
//   leaf:     count * {x f64, y f64, id i64}
//   internal: 4 * u64 child page ids (quadrant order: x-low/y-low,
//             x-high/y-low, x-low/y-high, x-high/y-high)
#ifndef RINGJOIN_QUADTREE_QUADTREE_H_
#define RINGJOIN_QUADTREE_QUADTREE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "geometry/point.h"
#include "geometry/rect.h"
#include "rtree/node.h"  // reuses LeafEntry
#include "storage/buffer_manager.h"
#include "storage/page_store.h"

namespace rcj {

/// Decoded quadtree node.
struct QuadNode {
  bool is_leaf = true;
  std::vector<LeafEntry> points;   // leaf payload
  uint64_t children[4] = {0, 0, 0, 0};  // internal payload

  /// Region of child quadrant i within `region`.
  static Rect ChildRegion(const Rect& region, int quadrant);
};

/// A disk-resident bucket quadtree over a fixed domain rectangle. Shares
/// PageStore/BufferManager injection with RTree so joins across index
/// types are cost-accounted identically.
class QuadTree {
 public:
  /// Creates an empty tree over `domain`. Page 0 is the header.
  static Result<std::unique_ptr<QuadTree>> Create(PageStore* store,
                                                  BufferManager* buffer,
                                                  const Rect& domain);

  RINGJOIN_DISALLOW_COPY_AND_ASSIGN(QuadTree);

  /// Inserts one point; it must lie inside the domain rectangle.
  Status Insert(const PointRecord& rec);

  /// All points inside the closed rectangle.
  Status RangeSearch(const Rect& box, std::vector<PointRecord>* out) const;

  /// Depth-first traversal over (non-empty) leaves.
  Status VisitLeavesDepthFirst(
      const std::function<bool(const QuadNode&, const Rect& region)>&
          callback) const;

  /// Reads one node through the buffer (counts accesses/faults).
  Result<QuadNode> ReadNode(uint64_t page_no) const;

  uint64_t root_page() const { return root_page_; }
  const Rect& domain() const { return domain_; }
  uint64_t num_points() const { return num_points_; }
  uint32_t leaf_capacity() const { return leaf_capacity_; }
  BufferManager* buffer() const { return buffer_; }
  uint64_t num_pages() const { return store_->num_pages(); }

  /// Structural check: every point inside its leaf region, counts within
  /// capacity, total equals num_points().
  Status CheckInvariants() const;

 private:
  QuadTree(PageStore* store, BufferManager* buffer, const Rect& domain);

  Status WriteNode(uint64_t page_no, const QuadNode& node);
  Result<uint64_t> AllocateNode(const QuadNode& node);
  Status InsertRec(uint64_t page_no, const Rect& region, uint32_t depth,
                   const PointRecord& rec);
  Status RangeRec(uint64_t page_no, const Rect& region, const Rect& box,
                  std::vector<PointRecord>* out) const;
  Status VisitRec(uint64_t page_no, const Rect& region,
                  const std::function<bool(const QuadNode&, const Rect&)>&
                      callback,
                  bool* keep_going) const;
  Status CheckRec(uint64_t page_no, const Rect& region,
                  uint64_t* count) const;

  void SerializeNode(const QuadNode& node, uint8_t* out) const;
  Status DeserializeNode(const uint8_t* in, QuadNode* out) const;

  PageStore* store_;
  BufferManager* buffer_;
  int store_id_;
  Rect domain_;
  uint32_t leaf_capacity_;
  uint64_t root_page_ = 0;
  uint64_t num_points_ = 0;
};

}  // namespace rcj

#endif  // RINGJOIN_QUADTREE_QUADTREE_H_
