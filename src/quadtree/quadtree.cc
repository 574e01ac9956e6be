#include "quadtree/quadtree.h"

#include <cassert>
#include <cstring>

namespace rcj {
namespace {

constexpr uint32_t kHeaderBytes = 8;
constexpr uint32_t kLeafEntryBytes = 24;
constexpr uint16_t kKindLeaf = 0;
constexpr uint16_t kKindInternal = 1;
// Splitting a leaf deeper than this fails (degenerate duplicate-heavy
// input); 2^-48 of the domain is far below double resolution anyway.
constexpr uint32_t kMaxDepth = 48;

template <typename T>
T LoadScalar(const uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}
template <typename T>
void StoreScalar(uint8_t* p, T v) {
  std::memcpy(p, &v, sizeof(T));
}

}  // namespace

Rect QuadNode::ChildRegion(const Rect& region, int quadrant) {
  const Point center = region.Center();
  Rect out = region;
  if (quadrant & 1) {
    out.lo.x = center.x;
  } else {
    out.hi.x = center.x;
  }
  if (quadrant & 2) {
    out.lo.y = center.y;
  } else {
    out.hi.y = center.y;
  }
  return out;
}

QuadTree::QuadTree(PageStore* store, BufferManager* buffer, const Rect& domain)
    : store_(store),
      buffer_(buffer),
      store_id_(buffer->RegisterStore(store)),
      domain_(domain),
      leaf_capacity_((store->page_size() - kHeaderBytes) / kLeafEntryBytes) {}

Result<std::unique_ptr<QuadTree>> QuadTree::Create(PageStore* store,
                                                   BufferManager* buffer,
                                                   const Rect& domain) {
  if (store->num_pages() != 0) {
    return Status::InvalidArgument(
        "QuadTree::Create requires an empty page store");
  }
  if (domain.IsEmpty()) {
    return Status::InvalidArgument("QuadTree domain must be non-empty");
  }
  std::unique_ptr<QuadTree> tree(new QuadTree(store, buffer, domain));
  uint64_t header_page = 0;
  Result<PageHandle> header = buffer->NewPage(tree->store_id_, &header_page);
  if (!header.ok()) return header.status();

  QuadNode root;  // empty leaf
  Result<uint64_t> root_page = tree->AllocateNode(root);
  if (!root_page.ok()) return root_page.status();
  tree->root_page_ = root_page.value();
  return tree;
}

void QuadTree::SerializeNode(const QuadNode& node, uint8_t* out) const {
  StoreScalar<uint16_t>(out, node.is_leaf ? kKindLeaf : kKindInternal);
  StoreScalar<uint16_t>(out + 2,
                        static_cast<uint16_t>(node.is_leaf
                                                  ? node.points.size()
                                                  : 4));
  StoreScalar<uint32_t>(out + 4, 0);
  uint8_t* cursor = out + kHeaderBytes;
  if (node.is_leaf) {
    assert(node.points.size() <= leaf_capacity_);
    for (const LeafEntry& e : node.points) {
      StoreScalar<double>(cursor + 0, e.rec.pt.x);
      StoreScalar<double>(cursor + 8, e.rec.pt.y);
      StoreScalar<int64_t>(cursor + 16, e.rec.id);
      cursor += kLeafEntryBytes;
    }
  } else {
    for (int i = 0; i < 4; ++i) {
      StoreScalar<uint64_t>(cursor, node.children[i]);
      cursor += 8;
    }
  }
}

Status QuadTree::DeserializeNode(const uint8_t* in, QuadNode* out) const {
  const uint16_t kind = LoadScalar<uint16_t>(in);
  const uint16_t count = LoadScalar<uint16_t>(in + 2);
  out->points.clear();
  const uint8_t* cursor = in + kHeaderBytes;
  if (kind == kKindLeaf) {
    out->is_leaf = true;
    if (count > leaf_capacity_) {
      return Status::Corruption("quadtree leaf count exceeds capacity");
    }
    out->points.reserve(count);
    for (uint16_t i = 0; i < count; ++i) {
      LeafEntry e;
      e.rec.pt.x = LoadScalar<double>(cursor + 0);
      e.rec.pt.y = LoadScalar<double>(cursor + 8);
      e.rec.id = LoadScalar<int64_t>(cursor + 16);
      out->points.push_back(e);
      cursor += kLeafEntryBytes;
    }
  } else if (kind == kKindInternal) {
    out->is_leaf = false;
    for (int i = 0; i < 4; ++i) {
      out->children[i] = LoadScalar<uint64_t>(cursor);
      cursor += 8;
    }
  } else {
    return Status::Corruption("bad quadtree node kind");
  }
  return Status::OK();
}

Result<QuadNode> QuadTree::ReadNode(uint64_t page_no) const {
  Result<PageHandle> page = buffer_->Pin(store_id_, page_no);
  if (!page.ok()) return page.status();
  QuadNode node;
  RINGJOIN_RETURN_IF_ERROR(DeserializeNode(page.value().data(), &node));
  return node;
}

Status QuadTree::WriteNode(uint64_t page_no, const QuadNode& node) {
  Result<PageHandle> page = buffer_->Pin(store_id_, page_no);
  if (!page.ok()) return page.status();
  SerializeNode(node, page.value().mutable_data());
  return Status::OK();
}

Result<uint64_t> QuadTree::AllocateNode(const QuadNode& node) {
  uint64_t page_no = 0;
  Result<PageHandle> page = buffer_->NewPage(store_id_, &page_no);
  if (!page.ok()) return page.status();
  SerializeNode(node, page.value().mutable_data());
  return page_no;
}

Status QuadTree::Insert(const PointRecord& rec) {
  if (!domain_.Contains(rec.pt)) {
    return Status::InvalidArgument("point outside the quadtree domain");
  }
  RINGJOIN_RETURN_IF_ERROR(InsertRec(root_page_, domain_, 0, rec));
  ++num_points_;
  return Status::OK();
}

Status QuadTree::InsertRec(uint64_t page_no, const Rect& region,
                           uint32_t depth, const PointRecord& rec) {
  Result<QuadNode> node_result = ReadNode(page_no);
  if (!node_result.ok()) return node_result.status();
  QuadNode node = std::move(node_result.value());

  if (!node.is_leaf) {
    const Point center = region.Center();
    const int quadrant =
        (rec.pt.x > center.x ? 1 : 0) | (rec.pt.y > center.y ? 2 : 0);
    return InsertRec(node.children[quadrant],
                     QuadNode::ChildRegion(region, quadrant), depth + 1,
                     rec);
  }

  if (node.points.size() < leaf_capacity_) {
    node.points.push_back(LeafEntry{rec});
    return WriteNode(page_no, node);
  }

  // Split the full leaf into four quadrant leaves and retry.
  if (depth >= kMaxDepth) {
    return Status::NotSupported(
        "quadtree leaf overflow at max depth (too many near-duplicate "
        "points for the bucket size)");
  }
  QuadNode internal;
  internal.is_leaf = false;
  QuadNode quadrant_leaves[4];
  const Point center = region.Center();
  for (const LeafEntry& e : node.points) {
    const int quadrant =
        (e.rec.pt.x > center.x ? 1 : 0) | (e.rec.pt.y > center.y ? 2 : 0);
    quadrant_leaves[quadrant].points.push_back(e);
  }
  for (int i = 0; i < 4; ++i) {
    Result<uint64_t> child = AllocateNode(quadrant_leaves[i]);
    if (!child.ok()) return child.status();
    internal.children[i] = child.value();
  }
  RINGJOIN_RETURN_IF_ERROR(WriteNode(page_no, internal));
  // Retry the insert from this (now internal) node.
  return InsertRec(page_no, region, depth, rec);
}

Status QuadTree::RangeSearch(const Rect& box,
                             std::vector<PointRecord>* out) const {
  return RangeRec(root_page_, domain_, box, out);
}

Status QuadTree::RangeRec(uint64_t page_no, const Rect& region,
                          const Rect& box,
                          std::vector<PointRecord>* out) const {
  if (!region.Intersects(box)) return Status::OK();
  Result<QuadNode> node = ReadNode(page_no);
  if (!node.ok()) return node.status();
  if (node.value().is_leaf) {
    for (const LeafEntry& e : node.value().points) {
      if (box.Contains(e.rec.pt)) out->push_back(e.rec);
    }
    return Status::OK();
  }
  for (int i = 0; i < 4; ++i) {
    RINGJOIN_RETURN_IF_ERROR(RangeRec(node.value().children[i],
                                      QuadNode::ChildRegion(region, i), box,
                                      out));
  }
  return Status::OK();
}

Status QuadTree::VisitLeavesDepthFirst(
    const std::function<bool(const QuadNode&, const Rect&)>& callback) const {
  bool keep_going = true;
  return VisitRec(root_page_, domain_, callback, &keep_going);
}

Status QuadTree::VisitRec(
    uint64_t page_no, const Rect& region,
    const std::function<bool(const QuadNode&, const Rect&)>& callback,
    bool* keep_going) const {
  if (!*keep_going) return Status::OK();
  Result<QuadNode> node = ReadNode(page_no);
  if (!node.ok()) return node.status();
  if (node.value().is_leaf) {
    if (!node.value().points.empty()) {
      *keep_going = callback(node.value(), region);
    }
    return Status::OK();
  }
  for (int i = 0; i < 4 && *keep_going; ++i) {
    RINGJOIN_RETURN_IF_ERROR(VisitRec(node.value().children[i],
                                      QuadNode::ChildRegion(region, i),
                                      callback, keep_going));
  }
  return Status::OK();
}

Status QuadTree::CheckInvariants() const {
  uint64_t count = 0;
  RINGJOIN_RETURN_IF_ERROR(CheckRec(root_page_, domain_, &count));
  if (count != num_points_) {
    return Status::Corruption("quadtree point total mismatch");
  }
  return Status::OK();
}

Status QuadTree::CheckRec(uint64_t page_no, const Rect& region,
                          uint64_t* count) const {
  Result<QuadNode> node = ReadNode(page_no);
  if (!node.ok()) return node.status();
  if (node.value().is_leaf) {
    if (node.value().points.size() > leaf_capacity_) {
      return Status::Corruption("quadtree leaf over capacity");
    }
    for (const LeafEntry& e : node.value().points) {
      if (!region.Contains(e.rec.pt)) {
        return Status::Corruption("quadtree point outside its leaf region");
      }
    }
    *count += node.value().points.size();
    return Status::OK();
  }
  for (int i = 0; i < 4; ++i) {
    RINGJOIN_RETURN_IF_ERROR(CheckRec(node.value().children[i],
                                      QuadNode::ChildRegion(region, i),
                                      count));
  }
  return Status::OK();
}

}  // namespace rcj
