// Disk-based R*-tree (Beckmann, Kriegel, Schneider, Seeger, SIGMOD 1990) —
// the index the paper assumes for both input pointsets ("Each dataset is
// indexed by an R*-tree with disk page size of 1K bytes", Section 5).
//
// Every node visit is routed through a shared BufferManager so that page
// faults — and therefore the paper's charged I/O time — are measured
// exactly. The tree has one configuration, the R*-tree paper's: one-by-one
// insertion (ChooseSubtree with minimum overlap enlargement at the leaf
// level, forced reinsertion of 30% of an overflowing node, and the R*
// topological split with 40% minimum fill) and sort-tile-recursive (STR)
// bulk loading at 70% occupancy. Trees only grow: live environments
// tombstone deleted points and rebuild on compaction, so there is no delete.
#ifndef RINGJOIN_RTREE_RTREE_H_
#define RINGJOIN_RTREE_RTREE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "geometry/point.h"
#include "geometry/rect.h"
#include "rtree/node.h"
#include "storage/buffer_manager.h"
#include "storage/page_store.h"

namespace rcj {

/// A disk-resident R*-tree over 2-D points. Not thread-safe (the paper's
/// algorithms are sequential); one tree owns no storage — the PageStore and
/// BufferManager are injected so several trees can share one buffer.
class RTree {
 public:
  /// Creates an empty tree. Page 0 of the store becomes the tree header.
  static Result<std::unique_ptr<RTree>> Create(PageStore* store,
                                               BufferManager* buffer);

  /// Opens a tree previously persisted with SaveHeader().
  static Result<std::unique_ptr<RTree>> Open(PageStore* store,
                                             BufferManager* buffer);

  RINGJOIN_DISALLOW_COPY_AND_ASSIGN(RTree);

  /// R* insertion of one point.
  Status Insert(const PointRecord& rec);

  /// Sort-tile-recursive bulk load. The tree must be empty. The tiling
  /// sorts under total orders (coordinate, other coordinate, id), so the
  /// same points always pack into the same pages, whatever their input
  /// order and whatever the backing store.
  Status BulkLoadStr(std::vector<PointRecord> recs);

  /// Persists tree metadata to the header page and flushes the buffer.
  Status SaveHeader();

  // ---- Queries ---------------------------------------------------------

  /// All points inside the closed rectangle `box`.
  Status RangeSearch(const Rect& box, std::vector<PointRecord>* out) const;

  /// The k nearest neighbors of q in ascending distance order.
  Result<std::vector<PointRecord>> Knn(const Point& q, size_t k) const;

  /// Depth-first traversal over leaf nodes (paper Section 3.4's search
  /// order). The callback returns false to stop early.
  Status VisitLeavesDepthFirst(
      const std::function<bool(const Node&)>& callback) const;

  /// Leaf page numbers in depth-first order (for search-order ablations).
  Status CollectLeafPages(std::vector<uint64_t>* out) const;

  // ---- Low-level access for the join algorithms ------------------------

  /// Reads one node via the buffer manager (counts a logical access and
  /// possibly a fault).
  Result<Node> ReadNode(uint64_t page_no) const;

  bool empty() const { return num_points_ == 0; }
  uint64_t root_page() const { return root_page_; }
  /// Number of levels; 0 for an empty tree, 1 when the root is a leaf.
  uint32_t height() const { return height_; }
  uint64_t num_points() const { return num_points_; }
  /// Pages allocated in the backing store (including the header page) —
  /// the paper sizes buffers as a percentage of this.
  uint64_t num_pages() const { return store_->num_pages(); }
  uint32_t leaf_capacity() const { return leaf_capacity_; }
  uint32_t branch_capacity() const { return branch_capacity_; }
  /// MBR of the whole dataset (empty rect if the tree is empty).
  Result<Rect> Bounds() const;

  BufferManager* buffer() const { return buffer_; }
  int store_id() const { return store_id_; }

  /// Structural integrity check used by tests: level consistency, fanout
  /// bounds, and exact parent-MBR/child-MBR agreement.
  Status CheckInvariants() const;

 private:
  RTree(PageStore* store, BufferManager* buffer);

  // An entry being (re)inserted at a given target level: either a point
  // destined for a leaf (level 0) or a subtree handle.
  struct PendingEntry {
    Rect mbr;
    uint32_t target_level = 0;
    bool is_point = true;
    LeafEntry leaf;
    BranchEntry branch;
  };

  // One step of the descent path: the page, its decoded node, and the child
  // slot the descent took.
  struct PathStep {
    uint64_t page_no = 0;
    Node node;
    size_t child_idx = 0;
  };

  Status WriteNode(uint64_t page_no, const Node& node);
  Result<uint64_t> AllocateNode(const Node& node);

  Status InsertEntry(const PendingEntry& entry);
  Status HandleOverflow(uint64_t page_no, Node node,
                        std::vector<PathStep>* path);
  Status ForcedReinsert(uint64_t page_no, Node node,
                        std::vector<PathStep>* path);
  Status SplitAndPropagate(uint64_t page_no, Node node,
                           std::vector<PathStep>* path);
  // Updates ancestors after the child at the end of `path` changed to
  // `child_mbr`.
  Status PropagateMbrUp(std::vector<PathStep>* path, Rect child_mbr);

  size_t ChooseSubtree(const Node& node, const Rect& mbr) const;
  void SplitNode(Node* node, Node* sibling) const;

  Status RangeSearchRec(uint64_t page_no, const Rect& box,
                        std::vector<PointRecord>* out) const;
  Status VisitLeavesRec(uint64_t page_no,
                        const std::function<bool(const Node&)>& callback,
                        bool* keep_going) const;
  Status CheckInvariantsRec(uint64_t page_no, uint32_t expected_level,
                            const Rect& expected_mbr, bool is_root,
                            uint64_t* point_count) const;

  uint32_t NodeCapacity(const Node& node) const {
    return node.is_leaf() ? leaf_capacity_ : branch_capacity_;
  }

  PageStore* store_;
  BufferManager* buffer_;
  int store_id_;
  uint32_t leaf_capacity_;
  uint32_t branch_capacity_;

  uint64_t header_page_ = 0;
  uint64_t root_page_ = 0;
  uint32_t height_ = 0;  // 0 == empty tree
  uint64_t num_points_ = 0;

  // Per-level "overflow already treated" flags, reset at each Insert()
  // (R* forced reinsertion fires at most once per level per insertion).
  std::vector<bool> reinsert_done_;
};

}  // namespace rcj

#endif  // RINGJOIN_RTREE_RTREE_H_
