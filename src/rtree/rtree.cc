#include "rtree/rtree.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <numeric>

namespace rcj {
namespace {

constexpr uint64_t kHeaderMagic = 0x524a525452454531ull;  // "RJRTREE1"

// The R*-tree paper's recommendations: a split leaves each group at least
// 40% full, and an overflow first reinserts the 30% of entries farthest from
// the node's center.
constexpr double kMinFillFraction = 0.4;
constexpr double kReinsertFraction = 0.3;
// STR bulk loading fills nodes to 70%, about the steady-state occupancy of
// an insertion-built tree.
constexpr double kBulkFillFraction = 0.7;

// floor(fraction * count): how many of `count` entries a fraction names.
uint32_t FractionOf(double fraction, size_t count) {
  return static_cast<uint32_t>(fraction * static_cast<double>(count));
}

struct HeaderLayout {
  uint64_t magic;
  uint32_t page_size;
  uint32_t height;
  uint64_t root_page;
  uint64_t num_points;
};

// The total orders STR bulk loading tiles with (see BulkLoadStr).
bool StrLessByX(const PointRecord& a, const PointRecord& b) {
  if (a.pt.x != b.pt.x) return a.pt.x < b.pt.x;
  if (a.pt.y != b.pt.y) return a.pt.y < b.pt.y;
  return a.id < b.id;
}
bool StrLessByY(const PointRecord& a, const PointRecord& b) {
  if (a.pt.y != b.pt.y) return a.pt.y < b.pt.y;
  if (a.pt.x != b.pt.x) return a.pt.x < b.pt.x;
  return a.id < b.id;
}

}  // namespace

RTree::RTree(PageStore* store, BufferManager* buffer)
    : store_(store),
      buffer_(buffer),
      store_id_(buffer->RegisterStore(store)),
      leaf_capacity_(Node::LeafCapacity(store->page_size())),
      branch_capacity_(Node::BranchCapacity(store->page_size())) {}

Result<std::unique_ptr<RTree>> RTree::Create(PageStore* store,
                                             BufferManager* buffer) {
  if (store->num_pages() != 0) {
    return Status::InvalidArgument(
        "RTree::Create requires an empty page store");
  }
  std::unique_ptr<RTree> tree(new RTree(store, buffer));
  // Reserve page 0 for the header.
  uint64_t header_page = 0;
  Result<PageHandle> page = buffer->NewPage(tree->store_id_, &header_page);
  if (!page.ok()) return page.status();
  if (header_page != 0) {
    return Status::Corruption("header page must be page 0");
  }
  tree->header_page_ = header_page;
  return tree;
}

Result<std::unique_ptr<RTree>> RTree::Open(PageStore* store,
                                           BufferManager* buffer) {
  if (store->num_pages() == 0) {
    return Status::InvalidArgument("RTree::Open on an empty page store");
  }
  std::unique_ptr<RTree> tree(new RTree(store, buffer));
  Result<PageHandle> page = buffer->Pin(tree->store_id_, 0);
  if (!page.ok()) return page.status();
  HeaderLayout header;
  std::memcpy(&header, page.value().data(), sizeof(header));
  if (header.magic != kHeaderMagic) {
    return Status::Corruption("bad R-tree header magic");
  }
  if (header.page_size != store->page_size()) {
    return Status::InvalidArgument("page size mismatch on RTree::Open");
  }
  tree->height_ = header.height;
  tree->root_page_ = header.root_page;
  tree->num_points_ = header.num_points;
  return tree;
}

Status RTree::SaveHeader() {
  Result<PageHandle> page = buffer_->Pin(store_id_, header_page_);
  if (!page.ok()) return page.status();
  HeaderLayout header;
  header.magic = kHeaderMagic;
  header.page_size = store_->page_size();
  header.height = height_;
  header.root_page = root_page_;
  header.num_points = num_points_;
  std::memcpy(page.value().mutable_data(), &header, sizeof(header));
  page.value().Release();
  return buffer_->FlushAll();
}

Result<Node> RTree::ReadNode(uint64_t page_no) const {
  Result<PageHandle> page = buffer_->Pin(store_id_, page_no);
  if (!page.ok()) return page.status();
  Node node;
  RINGJOIN_RETURN_IF_ERROR(
      Node::Deserialize(page.value().data(), store_->page_size(), &node));
  return node;
}

Status RTree::WriteNode(uint64_t page_no, const Node& node) {
  Result<PageHandle> page = buffer_->Pin(store_id_, page_no);
  if (!page.ok()) return page.status();
  node.SerializeTo(page.value().mutable_data(), store_->page_size());
  return Status::OK();
}

Result<uint64_t> RTree::AllocateNode(const Node& node) {
  uint64_t page_no = 0;
  Result<PageHandle> page = buffer_->NewPage(store_id_, &page_no);
  if (!page.ok()) return page.status();
  node.SerializeTo(page.value().mutable_data(), store_->page_size());
  return page_no;
}

// ---- Insertion ----------------------------------------------------------

Status RTree::Insert(const PointRecord& rec) {
  reinsert_done_.assign(height_ == 0 ? 1 : height_, false);
  PendingEntry entry;
  entry.mbr = Rect::FromPoint(rec.pt);
  entry.target_level = 0;
  entry.is_point = true;
  entry.leaf.rec = rec;
  RINGJOIN_RETURN_IF_ERROR(InsertEntry(entry));
  ++num_points_;
  return Status::OK();
}

Status RTree::InsertEntry(const PendingEntry& entry) {
  if (height_ == 0) {
    assert(entry.is_point);
    Node root;
    root.level = 0;
    root.points.push_back(entry.leaf);
    Result<uint64_t> page = AllocateNode(root);
    if (!page.ok()) return page.status();
    root_page_ = page.value();
    height_ = 1;
    return Status::OK();
  }

  std::vector<PathStep> path;
  uint64_t cur_page = root_page_;
  uint32_t cur_level = height_ - 1;
  Result<Node> node = ReadNode(cur_page);
  if (!node.ok()) return node.status();
  while (cur_level > entry.target_level) {
    const size_t idx = ChooseSubtree(node.value(), entry.mbr);
    path.push_back(PathStep{cur_page, std::move(node.value()), idx});
    cur_page = path.back().node.children[idx].child;
    node = ReadNode(cur_page);
    if (!node.ok()) return node.status();
    --cur_level;
  }

  Node target = std::move(node.value());
  if (target.is_leaf()) {
    target.points.push_back(entry.leaf);
  } else {
    target.children.push_back(entry.branch);
  }

  if (target.size() <= NodeCapacity(target)) {
    RINGJOIN_RETURN_IF_ERROR(WriteNode(cur_page, target));
    return PropagateMbrUp(&path, target.ComputeMbr());
  }
  return HandleOverflow(cur_page, std::move(target), &path);
}

Status RTree::PropagateMbrUp(std::vector<PathStep>* path, Rect child_mbr) {
  for (auto it = path->rbegin(); it != path->rend(); ++it) {
    Rect& slot = it->node.children[it->child_idx].mbr;
    if (slot == child_mbr) return Status::OK();  // ancestors unchanged
    slot = child_mbr;
    RINGJOIN_RETURN_IF_ERROR(WriteNode(it->page_no, it->node));
    child_mbr = it->node.ComputeMbr();
  }
  return Status::OK();
}

Status RTree::HandleOverflow(uint64_t page_no, Node node,
                             std::vector<PathStep>* path) {
  const uint32_t level = node.level;
  const bool is_root = path->empty();
  if (!is_root && level < reinsert_done_.size() && !reinsert_done_[level]) {
    return ForcedReinsert(page_no, std::move(node), path);
  }
  return SplitAndPropagate(page_no, std::move(node), path);
}

Status RTree::ForcedReinsert(uint64_t page_no, Node node,
                             std::vector<PathStep>* path) {
  reinsert_done_[node.level] = true;

  const Point center = node.ComputeMbr().Center();
  const size_t total = node.size();
  size_t p = FractionOf(kReinsertFraction, total);
  p = std::clamp<size_t>(p, 1, total - 1);

  // Order entries by distance of their MBR center from the node center,
  // farthest first; the first p are removed and reinserted closest-first
  // (the R* paper's "close reinsert" policy).
  std::vector<size_t> order(total);
  std::iota(order.begin(), order.end(), 0);
  auto entry_center = [&](size_t i) {
    return node.is_leaf() ? node.points[i].rec.pt
                          : node.children[i].mbr.Center();
  };
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return Dist2(entry_center(a), center) > Dist2(entry_center(b), center);
  });

  std::vector<PendingEntry> removed;
  removed.reserve(p);
  std::vector<bool> is_removed(total, false);
  for (size_t i = 0; i < p; ++i) {
    const size_t idx = order[i];
    is_removed[idx] = true;
    PendingEntry entry;
    entry.target_level = node.level;
    if (node.is_leaf()) {
      entry.is_point = true;
      entry.leaf = node.points[idx];
      entry.mbr = entry.leaf.Mbr();
    } else {
      entry.is_point = false;
      entry.branch = node.children[idx];
      entry.mbr = entry.branch.mbr;
    }
    removed.push_back(std::move(entry));
  }

  if (node.is_leaf()) {
    std::vector<LeafEntry> kept;
    kept.reserve(total - p);
    for (size_t i = 0; i < total; ++i) {
      if (!is_removed[i]) kept.push_back(node.points[i]);
    }
    node.points = std::move(kept);
  } else {
    std::vector<BranchEntry> kept;
    kept.reserve(total - p);
    for (size_t i = 0; i < total; ++i) {
      if (!is_removed[i]) kept.push_back(node.children[i]);
    }
    node.children = std::move(kept);
  }

  RINGJOIN_RETURN_IF_ERROR(WriteNode(page_no, node));
  RINGJOIN_RETURN_IF_ERROR(PropagateMbrUp(path, node.ComputeMbr()));

  // Reinsert closest-first (reverse of farthest-first order).
  for (auto it = removed.rbegin(); it != removed.rend(); ++it) {
    RINGJOIN_RETURN_IF_ERROR(InsertEntry(*it));
  }
  return Status::OK();
}

Status RTree::SplitAndPropagate(uint64_t page_no, Node node,
                                std::vector<PathStep>* path) {
  Node sibling;
  SplitNode(&node, &sibling);
  RINGJOIN_RETURN_IF_ERROR(WriteNode(page_no, node));
  Result<uint64_t> new_page = AllocateNode(sibling);
  if (!new_page.ok()) return new_page.status();

  const Rect mbr1 = node.ComputeMbr();
  const Rect mbr2 = sibling.ComputeMbr();

  if (path->empty()) {
    // Root split: grow the tree by one level.
    Node new_root;
    new_root.level = node.level + 1;
    new_root.children.push_back(BranchEntry{mbr1, page_no});
    new_root.children.push_back(BranchEntry{mbr2, new_page.value()});
    Result<uint64_t> root = AllocateNode(new_root);
    if (!root.ok()) return root.status();
    root_page_ = root.value();
    ++height_;
    // The fresh level never reinserts within this insertion round.
    reinsert_done_.resize(height_, true);
    return Status::OK();
  }

  PathStep parent = std::move(path->back());
  path->pop_back();
  parent.node.children[parent.child_idx].mbr = mbr1;
  parent.node.children.push_back(BranchEntry{mbr2, new_page.value()});
  if (parent.node.size() <= branch_capacity_) {
    RINGJOIN_RETURN_IF_ERROR(WriteNode(parent.page_no, parent.node));
    return PropagateMbrUp(path, parent.node.ComputeMbr());
  }
  return HandleOverflow(parent.page_no, std::move(parent.node), path);
}

size_t RTree::ChooseSubtree(const Node& node, const Rect& mbr) const {
  assert(!node.is_leaf());
  const std::vector<BranchEntry>& entries = node.children;
  size_t best = 0;

  if (node.level == 1) {
    // Children are leaves: minimize overlap enlargement (R* heuristic),
    // breaking ties by area enlargement, then by area.
    double best_overlap = std::numeric_limits<double>::infinity();
    double best_enlarge = std::numeric_limits<double>::infinity();
    double best_area = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < entries.size(); ++i) {
      const Rect grown = Union(entries[i].mbr, mbr);
      double overlap_delta = 0.0;
      for (size_t j = 0; j < entries.size(); ++j) {
        if (j == i) continue;
        overlap_delta += grown.OverlapArea(entries[j].mbr) -
                         entries[i].mbr.OverlapArea(entries[j].mbr);
      }
      const double enlarge = grown.Area() - entries[i].mbr.Area();
      const double area = entries[i].mbr.Area();
      if (overlap_delta < best_overlap ||
          (overlap_delta == best_overlap &&
           (enlarge < best_enlarge ||
            (enlarge == best_enlarge && area < best_area)))) {
        best = i;
        best_overlap = overlap_delta;
        best_enlarge = enlarge;
        best_area = area;
      }
    }
    return best;
  }

  // Higher levels: minimize area enlargement, ties by area.
  double best_enlarge = std::numeric_limits<double>::infinity();
  double best_area = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < entries.size(); ++i) {
    const double enlarge = Enlargement(entries[i].mbr, mbr);
    const double area = entries[i].mbr.Area();
    if (enlarge < best_enlarge ||
        (enlarge == best_enlarge && area < best_area)) {
      best = i;
      best_enlarge = enlarge;
      best_area = area;
    }
  }
  return best;
}

void RTree::SplitNode(Node* node, Node* sibling) const {
  sibling->level = node->level;
  sibling->points.clear();
  sibling->children.clear();

  const size_t total = node->size();
  const uint32_t capacity = NodeCapacity(*node);
  size_t m = std::max<uint32_t>(1, FractionOf(kMinFillFraction, capacity));
  m = std::min(m, total / 2);
  m = std::max<size_t>(m, 1);

  auto mbr_of = [&](size_t i) {
    return node->is_leaf() ? node->points[i].Mbr() : node->children[i].mbr;
  };

  // R* split, step 1: choose the split axis by minimum total margin over all
  // candidate distributions (both sort orders, all legal split positions).
  // Step 2: on the winning axis choose the distribution with minimum overlap
  // between the two groups, ties broken by total area.
  std::vector<size_t> best_order;
  size_t best_split = 0;
  double best_axis_margin = std::numeric_limits<double>::infinity();
  double best_overlap = std::numeric_limits<double>::infinity();
  double best_area = std::numeric_limits<double>::infinity();
  int best_axis = -1;

  for (int axis = 0; axis < 2; ++axis) {
    double axis_margin = 0.0;
    // Candidate distributions for this axis, to re-rank if the axis wins.
    struct Candidate {
      std::vector<size_t> order;
      size_t split;
      double overlap;
      double area;
    };
    std::vector<Candidate> candidates;

    for (int by_upper = 0; by_upper < 2; ++by_upper) {
      std::vector<size_t> order(total);
      std::iota(order.begin(), order.end(), 0);
      std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        const Rect ra = mbr_of(a);
        const Rect rb = mbr_of(b);
        const double ka = axis == 0 ? (by_upper ? ra.hi.x : ra.lo.x)
                                    : (by_upper ? ra.hi.y : ra.lo.y);
        const double kb = axis == 0 ? (by_upper ? rb.hi.x : rb.lo.x)
                                    : (by_upper ? rb.hi.y : rb.lo.y);
        if (ka != kb) return ka < kb;
        return a < b;
      });

      // Prefix/suffix MBRs make each distribution O(1).
      std::vector<Rect> prefix(total), suffix(total);
      Rect acc = Rect::Empty();
      for (size_t i = 0; i < total; ++i) {
        acc.ExpandRect(mbr_of(order[i]));
        prefix[i] = acc;
      }
      acc = Rect::Empty();
      for (size_t i = total; i-- > 0;) {
        acc.ExpandRect(mbr_of(order[i]));
        suffix[i] = acc;
      }

      for (size_t k = m; k + m <= total; ++k) {
        const Rect& g1 = prefix[k - 1];
        const Rect& g2 = suffix[k];
        axis_margin += g1.Margin() + g2.Margin();
        candidates.push_back(Candidate{order, k, g1.OverlapArea(g2),
                                       g1.Area() + g2.Area()});
      }
    }

    if (axis_margin < best_axis_margin) {
      best_axis_margin = axis_margin;
      best_axis = axis;
      best_overlap = std::numeric_limits<double>::infinity();
      best_area = std::numeric_limits<double>::infinity();
      for (Candidate& c : candidates) {
        if (c.overlap < best_overlap ||
            (c.overlap == best_overlap && c.area < best_area)) {
          best_overlap = c.overlap;
          best_area = c.area;
          best_order = std::move(c.order);
          best_split = c.split;
        }
      }
    }
  }
  assert(best_axis >= 0);
  (void)best_axis;

  // Apply the chosen distribution: first `best_split` stay, rest move.
  if (node->is_leaf()) {
    std::vector<LeafEntry> keep, move;
    keep.reserve(best_split);
    move.reserve(total - best_split);
    for (size_t i = 0; i < total; ++i) {
      (i < best_split ? keep : move).push_back(node->points[best_order[i]]);
    }
    node->points = std::move(keep);
    sibling->points = std::move(move);
  } else {
    std::vector<BranchEntry> keep, move;
    keep.reserve(best_split);
    move.reserve(total - best_split);
    for (size_t i = 0; i < total; ++i) {
      (i < best_split ? keep : move).push_back(node->children[best_order[i]]);
    }
    node->children = std::move(keep);
    sibling->children = std::move(move);
  }
}

// ---- Bulk loading --------------------------------------------------------

Status RTree::BulkLoadStr(std::vector<PointRecord> recs) {
  if (height_ != 0 || num_points_ != 0) {
    return Status::InvalidArgument("BulkLoadStr requires an empty tree");
  }
  if (recs.empty()) return Status::OK();

  const uint32_t leaf_fill = std::clamp<uint32_t>(
      FractionOf(kBulkFillFraction, leaf_capacity_), 1, leaf_capacity_);
  const uint32_t branch_fill = std::clamp<uint32_t>(
      FractionOf(kBulkFillFraction, branch_capacity_), 2, branch_capacity_);

  const size_t n = recs.size();
  num_points_ = n;

  // Tile the points: sort by x, cut into ~sqrt(#leaves) vertical slabs,
  // sort each slab by y, cut into leaf-sized runs.
  std::sort(recs.begin(), recs.end(), StrLessByX);
  const size_t num_leaves = (n + leaf_fill - 1) / leaf_fill;
  const size_t num_slabs = static_cast<size_t>(
      std::ceil(std::sqrt(static_cast<double>(num_leaves))));
  const size_t per_slab = (n + num_slabs - 1) / num_slabs;

  std::vector<BranchEntry> level_entries;
  for (size_t slab_begin = 0; slab_begin < n; slab_begin += per_slab) {
    const size_t slab_end = std::min(n, slab_begin + per_slab);
    std::sort(recs.begin() + static_cast<std::ptrdiff_t>(slab_begin),
              recs.begin() + static_cast<std::ptrdiff_t>(slab_end),
              StrLessByY);
    for (size_t begin = slab_begin; begin < slab_end; begin += leaf_fill) {
      const size_t end = std::min(slab_end, begin + leaf_fill);
      Node leaf;
      leaf.level = 0;
      leaf.points.reserve(end - begin);
      for (size_t k = begin; k < end; ++k) {
        leaf.points.push_back(LeafEntry{recs[k]});
      }
      Result<uint64_t> page = AllocateNode(leaf);
      if (!page.ok()) return page.status();
      level_entries.push_back(BranchEntry{leaf.ComputeMbr(), page.value()});
    }
  }

  // Pack upper levels with the same tiling on entry-MBR centers.
  uint32_t level = 1;
  while (level_entries.size() > 1) {
    std::sort(level_entries.begin(), level_entries.end(),
              [](const BranchEntry& a, const BranchEntry& b) {
                const Point ca = a.mbr.Center();
                const Point cb = b.mbr.Center();
                if (ca.x != cb.x) return ca.x < cb.x;
                return ca.y < cb.y;
              });
    const size_t count = level_entries.size();
    const size_t nodes_needed = (count + branch_fill - 1) / branch_fill;
    const size_t slabs = static_cast<size_t>(
        std::ceil(std::sqrt(static_cast<double>(nodes_needed))));
    const size_t slab_size = (count + slabs - 1) / slabs;

    std::vector<BranchEntry> parents;
    for (size_t slab_begin = 0; slab_begin < count; slab_begin += slab_size) {
      const size_t slab_end = std::min(count, slab_begin + slab_size);
      std::sort(level_entries.begin() + static_cast<std::ptrdiff_t>(slab_begin),
                level_entries.begin() + static_cast<std::ptrdiff_t>(slab_end),
                [](const BranchEntry& a, const BranchEntry& b) {
                  const Point ca = a.mbr.Center();
                  const Point cb = b.mbr.Center();
                  if (ca.y != cb.y) return ca.y < cb.y;
                  return ca.x < cb.x;
                });
      for (size_t begin = slab_begin; begin < slab_end; begin += branch_fill) {
        const size_t end = std::min(slab_end, begin + branch_fill);
        Node branch;
        branch.level = level;
        branch.children.assign(
            level_entries.begin() + static_cast<std::ptrdiff_t>(begin),
            level_entries.begin() + static_cast<std::ptrdiff_t>(end));
        Result<uint64_t> page = AllocateNode(branch);
        if (!page.ok()) return page.status();
        parents.push_back(BranchEntry{branch.ComputeMbr(), page.value()});
      }
    }
    level_entries = std::move(parents);
    ++level;
  }

  root_page_ = level_entries.front().child;
  height_ = level;
  return Status::OK();
}

// ---- Queries -------------------------------------------------------------

Status RTree::RangeSearch(const Rect& box, std::vector<PointRecord>* out) const {
  if (height_ == 0) return Status::OK();
  return RangeSearchRec(root_page_, box, out);
}

Status RTree::RangeSearchRec(uint64_t page_no, const Rect& box,
                             std::vector<PointRecord>* out) const {
  Result<Node> node = ReadNode(page_no);
  if (!node.ok()) return node.status();
  if (node.value().is_leaf()) {
    for (const LeafEntry& e : node.value().points) {
      if (box.Contains(e.rec.pt)) out->push_back(e.rec);
    }
    return Status::OK();
  }
  for (const BranchEntry& e : node.value().children) {
    if (box.Intersects(e.mbr)) {
      RINGJOIN_RETURN_IF_ERROR(RangeSearchRec(e.child, box, out));
    }
  }
  return Status::OK();
}

Status RTree::VisitLeavesDepthFirst(
    const std::function<bool(const Node&)>& callback) const {
  if (height_ == 0) return Status::OK();
  bool keep_going = true;
  return VisitLeavesRec(root_page_, callback, &keep_going);
}

Status RTree::VisitLeavesRec(uint64_t page_no,
                             const std::function<bool(const Node&)>& callback,
                             bool* keep_going) const {
  if (!*keep_going) return Status::OK();
  Result<Node> node = ReadNode(page_no);
  if (!node.ok()) return node.status();
  if (node.value().is_leaf()) {
    *keep_going = callback(node.value());
    return Status::OK();
  }
  for (const BranchEntry& e : node.value().children) {
    RINGJOIN_RETURN_IF_ERROR(VisitLeavesRec(e.child, callback, keep_going));
    if (!*keep_going) break;
  }
  return Status::OK();
}

Status RTree::CollectLeafPages(std::vector<uint64_t>* out) const {
  if (height_ == 0) return Status::OK();
  // Depth-first collection without the callback interface: an explicit
  // stack of branch entries, children pushed in reverse to preserve order.
  std::vector<uint64_t> stack{root_page_};
  std::vector<uint32_t> levels{height_ - 1};
  while (!stack.empty()) {
    const uint64_t page = stack.back();
    const uint32_t level = levels.back();
    stack.pop_back();
    levels.pop_back();
    if (level == 0) {
      out->push_back(page);
      continue;
    }
    Result<Node> node = ReadNode(page);
    if (!node.ok()) return node.status();
    const std::vector<BranchEntry>& children = node.value().children;
    for (size_t i = children.size(); i-- > 0;) {
      stack.push_back(children[i].child);
      levels.push_back(level - 1);
    }
  }
  return Status::OK();
}

Result<Rect> RTree::Bounds() const {
  if (height_ == 0) return Rect::Empty();
  Result<Node> root = ReadNode(root_page_);
  if (!root.ok()) return root.status();
  return root.value().ComputeMbr();
}

// ---- Integrity -----------------------------------------------------------

Status RTree::CheckInvariants() const {
  if (height_ == 0) {
    if (num_points_ != 0) {
      return Status::Corruption("empty tree with nonzero point count");
    }
    return Status::OK();
  }
  Result<Node> root = ReadNode(root_page_);
  if (!root.ok()) return root.status();
  if (root.value().level != height_ - 1) {
    return Status::Corruption("root level does not match tree height");
  }
  uint64_t points = 0;
  RINGJOIN_RETURN_IF_ERROR(CheckInvariantsRec(
      root_page_, height_ - 1, root.value().ComputeMbr(), true, &points));
  if (points != num_points_) {
    return Status::Corruption("leaf point total does not match num_points");
  }
  return Status::OK();
}

Status RTree::CheckInvariantsRec(uint64_t page_no, uint32_t expected_level,
                                 const Rect& expected_mbr, bool is_root,
                                 uint64_t* point_count) const {
  Result<Node> node_result = ReadNode(page_no);
  if (!node_result.ok()) return node_result.status();
  const Node& node = node_result.value();
  if (node.level != expected_level) {
    return Status::Corruption("node level mismatch");
  }
  if (node.size() == 0 && !(is_root && height_ == 1)) {
    return Status::Corruption("empty non-root node");
  }
  if (node.size() > NodeCapacity(node)) {
    return Status::Corruption("node exceeds capacity");
  }
  if (!(node.ComputeMbr() == expected_mbr)) {
    return Status::Corruption("stored MBR does not equal exact child MBR");
  }
  if (node.is_leaf()) {
    *point_count += node.points.size();
    return Status::OK();
  }
  for (const BranchEntry& e : node.children) {
    RINGJOIN_RETURN_IF_ERROR(CheckInvariantsRec(e.child, expected_level - 1,
                                                e.mbr, false, point_count));
  }
  return Status::OK();
}

}  // namespace rcj
