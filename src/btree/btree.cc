#include "btree/btree.h"

#include <algorithm>
#include <cstring>

#include "common/encoding.h"
#include "common/logging.h"

namespace caldera {

namespace {

constexpr char kBTreeMagic[8] = {'C', 'L', 'D', 'R', 'B', 'T', 'R', '2'};
// The format before the meta page recorded the indexed stream length.
constexpr char kBTreeMagicV1[8] = {'C', 'L', 'D', 'R', 'B', 'T', 'R', '1'};
constexpr PageId kMetaPage = 1;

constexpr uint8_t kLeafNode = 1;
constexpr uint8_t kInternalNode = 2;
constexpr uint32_t kNodeHeaderSize = 16;

uint8_t NodeType(const char* page) {
  return static_cast<uint8_t>(page[0]);
}
void SetNodeType(char* page, uint8_t type) {
  page[0] = static_cast<char>(type);
}
uint16_t NodeCount(const char* page) {
  uint16_t v;
  std::memcpy(&v, page + 1, 2);
  return v;
}
void SetNodeCount(char* page, uint16_t count) {
  std::memcpy(page + 1, &count, 2);
}
PageId LeafNext(const char* page) { return GetFixed64(page + 4); }
void SetLeafNext(char* page, PageId next) {
  char buf[8];
  std::memcpy(buf, &next, 8);
  std::memcpy(page + 4, buf, 8);
}
PageId InternalChild0(const char* page) { return GetFixed64(page + 8); }
void SetInternalChild0(char* page, PageId child) {
  std::memcpy(page + 8, &child, 8);
}

// The share of each node's capacity that a bulk build fills.
constexpr double kFillFactor = 0.9;

// An internal node's entry: a separator key, then a child page id.
uint32_t InternalEntrySize(const BTreeOptions& options) {
  return options.key_size + 8;
}
// Entries per node on pages of `payload` usable bytes.
uint32_t LeafCapacity(const BTreeOptions& options, uint32_t payload) {
  return (payload - kNodeHeaderSize) / (options.key_size + options.value_size);
}
uint32_t InternalCapacity(const BTreeOptions& options, uint32_t payload) {
  return (payload - kNodeHeaderSize) / InternalEntrySize(options);
}

// The first of the entries [lo, hi), laid out `entry_size` bytes apart from
// `entries`, whose key is >= `key`.
size_t LowerBound(const char* entries, uint32_t entry_size, size_t lo,
                  size_t hi, std::string_view key) {
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (std::memcmp(entries + mid * entry_size, key.data(), key.size()) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

uint32_t BTree::leaf_capacity() const {
  return LeafCapacity(options_, pager_->page_size());
}

uint32_t BTree::internal_capacity() const {
  return InternalCapacity(options_, pager_->page_size());
}

// Rejects on-disk node headers whose entry count exceeds what the page can
// physically hold (defense against corrupted pages).
static Status ValidateNodeCount(uint16_t count, uint32_t capacity,
                                PageId id) {
  if (count > capacity) {
    return Status::Corruption("node " + std::to_string(id) + " claims " +
                              std::to_string(count) + " entries, capacity " +
                              std::to_string(capacity));
  }
  return Status::Ok();
}

Status BTree::ValidateLeaf(const char* data, PageId id) const {
  if (NodeType(data) != kLeafNode) {
    return Status::Corruption("page " + std::to_string(id) +
                              " is not a leaf");
  }
  CALDERA_RETURN_IF_ERROR(
      ValidateNodeCount(NodeCount(data), leaf_capacity(), id));
  const PageId next = LeafNext(data);
  if (next != kInvalidPageId && next <= id) {
    return Status::Corruption("leaf " + std::to_string(id) +
                              " points back to page " + std::to_string(next));
  }
  return Status::Ok();
}

// Checks a tree shape: what BTreeBuilder::Create accepts, and what Open
// demands of a meta page, since node capacities divide by the entry size.
static Status ValidateShape(const BTreeOptions& options, uint32_t page_size) {
  if (options.key_size == 0 || options.key_size > 256) {
    return Status::InvalidArgument("key_size must be in [1, 256]");
  }
  if (options.value_size > 1024) {
    return Status::InvalidArgument("value_size must be <= 1024");
  }
  uint32_t entry = options.key_size + options.value_size;
  // Capacity math runs on the pager payload (physical page minus the
  // integrity trailer), not the raw physical page size.
  if (page_size < kPageTrailerSize + kNodeHeaderSize ||
      entry * 4 > page_size - kPageTrailerSize - kNodeHeaderSize) {
    return Status::InvalidArgument("page too small for 4 entries per node");
  }
  return Status::Ok();
}

Result<std::unique_ptr<BTree>> BTree::Open(const std::string& path,
                                           size_t pool_pages) {
  CALDERA_ASSIGN_OR_RETURN(std::unique_ptr<Pager> pager, Pager::Open(path));
  auto tree = std::unique_ptr<BTree>(new BTree(std::move(pager), pool_pages));
  std::vector<char> meta(tree->pager_->page_size());
  CALDERA_RETURN_IF_ERROR(tree->pager_->ReadPage(kMetaPage, meta.data()));
  if (std::memcmp(meta.data(), kBTreeMagicV1, 8) == 0) {
    return Status::Corruption(path +
                              " is a v1 tree, which records no indexed "
                              "length; rebuild the stream's indexes");
  }
  if (std::memcmp(meta.data(), kBTreeMagic, 8) != 0) {
    return Status::Corruption("bad btree magic in " + path);
  }
  tree->options_.key_size = GetFixed32(meta.data() + 8);
  tree->options_.value_size = GetFixed32(meta.data() + 12);
  tree->root_ = GetFixed64(meta.data() + 16);
  tree->num_entries_ = GetFixed64(meta.data() + 24);
  tree->height_ = GetFixed32(meta.data() + 32);
  tree->indexed_length_ = GetFixed64(meta.data() + 36);
  tree->length_ = tree->indexed_length_;
  if (!ValidateShape(tree->options_, tree->pager_->physical_page_size()).ok()) {
    return Status::Corruption("bad btree key or value size in " + path);
  }
  if (tree->root_ == kInvalidPageId ||
      tree->root_ >= tree->pager_->page_count()) {
    return Status::Corruption("bad btree root in " + path);
  }
  return tree;
}

Result<PageHandle> BTree::FindLeaf(std::string_view key) {
  const uint32_t ks = options_.key_size;
  PageId current = root_;
  for (;;) {
    CALDERA_ASSIGN_OR_RETURN(PageHandle page, pool_->Fetch(current));
    const char* data = page.data();
    if (NodeType(data) == kLeafNode) {
      CALDERA_RETURN_IF_ERROR(ValidateLeaf(data, current));
      return page;
    }
    if (NodeType(data) != kInternalNode) {
      return Status::Corruption("bad node type on page " +
                                std::to_string(current));
    }
    uint16_t count = NodeCount(data);
    CALDERA_RETURN_IF_ERROR(
        ValidateNodeCount(count, internal_capacity(), current));
    // Find the largest separator <= key; its child covers the key.
    // Separator i lives at kNodeHeaderSize + i*(ks+8).
    uint32_t lo = 0, hi = count;  // First separator strictly > key.
    while (lo < hi) {
      uint32_t mid = (lo + hi) / 2;
      const char* sep = data + kNodeHeaderSize + mid * (ks + 8);
      if (std::memcmp(sep, key.data(), ks) <= 0) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo == 0) {
      current = InternalChild0(data);
    } else {
      const char* entry = data + kNodeHeaderSize + (lo - 1) * (ks + 8);
      current = GetFixed64(entry + ks);
    }
    if (current == kInvalidPageId) {
      return Status::Corruption("invalid child pointer");
    }
  }
}

Result<std::optional<std::string>> BTree::Get(std::string_view key) {
  if (key.size() != options_.key_size) {
    return Status::InvalidArgument("key size mismatch");
  }
  const uint32_t ks = options_.key_size;
  const uint32_t es = leaf_entry_size();
  {
    CALDERA_ASSIGN_OR_RETURN(PageHandle leaf, FindLeaf(key));
    const char* entries = leaf.data() + kNodeHeaderSize;
    const size_t count = NodeCount(leaf.data());
    const size_t slot = LowerBound(entries, es, 0, count, key);
    const char* entry = entries + slot * es;
    if (slot < count && std::memcmp(entry, key.data(), ks) == 0) {
      return std::optional<std::string>(
          std::string(entry + ks, options_.value_size));
    }
  }
  const size_t slot = TailLowerBound(key);
  if (slot < tail_.size() / es && TailKey(slot) == key) {
    return std::optional<std::string>(
        tail_.substr(slot * es + ks, options_.value_size));
  }
  return std::optional<std::string>();
}

Status BTree::AddToTail(std::string_view entries) {
  const size_t es = leaf_entry_size();
  const size_t ks = options_.key_size;
  if (entries.size() % es != 0) {
    return Status::InvalidArgument("tail entries are not whole entries");
  }
  auto key = [&](size_t i) { return entries.substr(i * es, ks); };
  std::vector<size_t> order(entries.size() / es);
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return key(a) < key(b); });
  // Merge the sorted batch into the tail.
  std::string merged;
  merged.reserve(tail_.size() + entries.size());
  const size_t old_slots = tail_.size() / es;
  size_t slot = 0;
  for (size_t i : order) {
    for (; slot < old_slots && TailKey(slot) < key(i); ++slot) {
      merged.append(tail_, slot * es, es);
    }
    if ((slot < old_slots && TailKey(slot) == key(i)) ||
        (!merged.empty() &&
         std::string_view(merged).substr(merged.size() - es, ks) == key(i))) {
      return Status::AlreadyExists("key already in the tail");
    }
    merged.append(entries.substr(i * es, es));
  }
  merged.append(tail_, slot * es);
  tail_ = std::move(merged);
  return Status::Ok();
}

size_t BTree::TailLowerBound(std::string_view key) const {
  const uint32_t es = leaf_entry_size();
  return LowerBound(tail_.data(), es, 0, tail_.size() / es, key);
}

const char* BTree::Cursor::entry() const {
  CALDERA_DCHECK(valid());
  return on_tail_ ? tree_->tail_.data() + tail_offset_
                  : run_.data() + run_offset_;
}

std::string_view BTree::Cursor::key() const {
  return std::string_view(entry(), tree_->options_.key_size);
}

std::string_view BTree::Cursor::value() const {
  return std::string_view(entry() + tree_->options_.key_size,
                          tree_->options_.value_size);
}

void BTree::Cursor::CopyRun(const char* data, size_t slot) {
  const size_t es = tree_->leaf_entry_size();
  run_.assign(data + kNodeHeaderSize + slot * es,
              (NodeCount(data) - slot) * es);
  run_offset_ = 0;
  next_leaf_ = LeafNext(data);
}

Status BTree::Cursor::LoadNextLeaf() {
  // ValidateLeaf makes each next pointer name a later page, so this ends.
  while (run_offset_ == run_.size() && next_leaf_ != kInvalidPageId) {
    const PageId id = next_leaf_;
    CALDERA_ASSIGN_OR_RETURN(PageHandle page, tree_->pool_->Fetch(id));
    CALDERA_RETURN_IF_ERROR(tree_->ValidateLeaf(page.data(), id));
    CopyRun(page.data(), 0);
  }
  return Status::Ok();
}

Status BTree::Cursor::Descend(std::string_view key) {
  {
    CALDERA_ASSIGN_OR_RETURN(PageHandle leaf, tree_->FindLeaf(key));
    const char* data = leaf.data();
    CopyRun(data, LowerBound(data + kNodeHeaderSize, tree_->leaf_entry_size(),
                             0, NodeCount(data), key));
  }
  return LoadNextLeaf();
}

void BTree::Cursor::Settle() {
  const bool in_file = run_offset_ < run_.size();
  const bool in_tail = tail_offset_ < tree_->tail_.size();
  if (!in_file && !in_tail) {
    tree_ = nullptr;
    return;
  }
  on_tail_ = in_tail && (!in_file || std::memcmp(tree_->tail_.data() +
                                                     tail_offset_,
                                                 run_.data() + run_offset_,
                                                 tree_->options_.key_size) < 0);
}

Status BTree::Cursor::Next() {
  CALDERA_DCHECK(valid());
  if (on_tail_) {
    tail_offset_ += tree_->leaf_entry_size();
  } else {
    run_offset_ += tree_->leaf_entry_size();
    CALDERA_RETURN_IF_ERROR(LoadNextLeaf());
  }
  Settle();
  return Status::Ok();
}

Status BTree::Cursor::SeekForward(std::string_view key) {
  if (!valid()) return Status::Ok();
  if (key.size() != tree_->options_.key_size) {
    return Status::InvalidArgument("key size mismatch");
  }
  if (key <= this->key()) return Status::Ok();
  const uint32_t es = tree_->leaf_entry_size();
  if (run_offset_ < run_.size()) {
    if (std::memcmp(run_.data() + run_.size() - es, key.data(), key.size()) >=
        0) {
      run_offset_ = LowerBound(run_.data(), es, run_offset_ / es,
                               run_.size() / es, key) *
                    es;
    } else {
      CALDERA_RETURN_IF_ERROR(Descend(key));
    }
  }
  tail_offset_ = tree_->TailLowerBound(key) * es;
  Settle();
  return Status::Ok();
}

Result<BTree::Cursor> BTree::Seek(std::string_view key) {
  if (key.size() != options_.key_size) {
    return Status::InvalidArgument("key size mismatch");
  }
  Cursor cursor;
  cursor.tree_ = this;
  CALDERA_RETURN_IF_ERROR(cursor.Descend(key));
  cursor.tail_offset_ = TailLowerBound(key) * leaf_entry_size();
  cursor.Settle();
  return cursor;
}

Status BTree::CheckNode(PageId id, std::string_view lower,
                        std::string_view upper, uint32_t depth,
                        uint64_t* nodes, uint64_t* entries,
                        PageId* leftmost_leaf) {
  // Nodes live in pages 2 and up, each reached once; the count also stops
  // a cycle of child pointers.
  if (++*nodes > pager_->page_count() - 2) {
    return Status::Corruption("tree reaches more nodes than the file holds");
  }
  CALDERA_ASSIGN_OR_RETURN(PageHandle page, pool_->Fetch(id));
  const char* data = page.data();
  const uint32_t ks = options_.key_size;
  uint16_t count = NodeCount(data);
  CALDERA_RETURN_IF_ERROR(ValidateNodeCount(
      count,
      NodeType(data) == kLeafNode ? leaf_capacity() : internal_capacity(),
      id));

  auto in_bounds = [&](const char* key) {
    if (!lower.empty() && std::memcmp(key, lower.data(), ks) < 0) return false;
    if (!upper.empty() && std::memcmp(key, upper.data(), ks) >= 0) return false;
    return true;
  };

  if (NodeType(data) == kLeafNode) {
    if (depth + 1 != height_) {
      return Status::Corruption("leaf at depth " + std::to_string(depth) +
                                " but height is " + std::to_string(height_));
    }
    if (leftmost_leaf != nullptr && *leftmost_leaf == kInvalidPageId) {
      *leftmost_leaf = id;
    }
    const uint32_t es = leaf_entry_size();
    for (uint32_t i = 0; i < count; ++i) {
      const char* key = data + kNodeHeaderSize + i * es;
      if (!in_bounds(key)) return Status::Corruption("leaf key out of bounds");
      if (i > 0 &&
          std::memcmp(data + kNodeHeaderSize + (i - 1) * es, key, ks) >= 0) {
        return Status::Corruption("unsorted leaf keys");
      }
    }
    *entries += count;
    return Status::Ok();
  }

  if (NodeType(data) != kInternalNode) {
    return Status::Corruption("unknown node type");
  }
  if (count == 0) return Status::Corruption("empty internal node");
  const uint32_t es = InternalEntrySize(options_);
  std::vector<std::string> seps;
  std::vector<PageId> children;
  children.push_back(InternalChild0(data));
  for (uint32_t i = 0; i < count; ++i) {
    const char* e = data + kNodeHeaderSize + i * es;
    if (!in_bounds(e)) return Status::Corruption("separator out of bounds");
    if (i > 0 && seps.back().compare(0, ks, e, ks) >= 0) {
      return Status::Corruption("unsorted separators");
    }
    seps.emplace_back(e, ks);
    children.push_back(GetFixed64(e + ks));
  }
  page.Release();
  for (size_t i = 0; i < children.size(); ++i) {
    std::string_view lo = (i == 0) ? lower : std::string_view(seps[i - 1]);
    std::string_view hi = (i == seps.size()) ? upper
                                             : std::string_view(seps[i]);
    CALDERA_RETURN_IF_ERROR(CheckNode(children[i], lo, hi, depth + 1, nodes,
                                      entries, leftmost_leaf));
  }
  return Status::Ok();
}

Status BTree::CheckInvariants() {
  uint64_t nodes = 0;
  uint64_t entries = 0;
  PageId leftmost = kInvalidPageId;
  CALDERA_RETURN_IF_ERROR(
      CheckNode(root_, {}, {}, 0, &nodes, &entries, &leftmost));
  if (nodes != pager_->page_count() - 2) {
    return Status::Corruption(
        "root reaches " + std::to_string(nodes) + " of the " +
        std::to_string(pager_->page_count() - 2) + " node pages");
  }
  if (entries != num_entries_) {
    return Status::Corruption(
        "entry count mismatch: counted " + std::to_string(entries) +
        " vs meta " + std::to_string(num_entries_));
  }
  // Walk the leaf chain and verify global key order.
  std::string prev;
  const uint32_t ks = options_.key_size;
  const uint32_t es = leaf_entry_size();
  uint64_t chained = 0;
  // ValidateLeaf makes each next pointer name a later page, so this ends.
  for (PageId leaf = leftmost; leaf != kInvalidPageId;) {
    CALDERA_ASSIGN_OR_RETURN(PageHandle page, pool_->Fetch(leaf));
    const char* data = page.data();
    CALDERA_RETURN_IF_ERROR(ValidateLeaf(data, leaf));
    const uint16_t count = NodeCount(data);
    for (uint32_t i = 0; i < count; ++i) {
      const char* key = data + kNodeHeaderSize + i * es;
      if (!prev.empty() && prev.compare(0, ks, key, ks) >= 0) {
        return Status::Corruption("leaf chain out of order");
      }
      prev.assign(key, ks);
      ++chained;
    }
    leaf = LeafNext(data);
  }
  if (chained != num_entries_) {
    return Status::Corruption("leaf chain entry count mismatch");
  }
  return Status::Ok();
}

BTreeBuilder::BTreeBuilder(std::unique_ptr<Pager> pager,
                           const BTreeOptions& options)
    : pager_(std::move(pager)),
      options_(options),
      node_(pager_->page_size(), '\0') {
  max_leaf_entries_ = std::max<uint32_t>(
      1, static_cast<uint32_t>(LeafCapacity(options_, pager_->page_size()) *
                               kFillFactor));
  levels_.resize(1);
}

Result<std::unique_ptr<BTreeBuilder>> BTreeBuilder::Create(
    const std::string& path, const BTreeOptions& options,
    uint32_t page_size) {
  CALDERA_RETURN_IF_ERROR(ValidateShape(options, page_size));
  CALDERA_ASSIGN_OR_RETURN(std::unique_ptr<Pager> pager,
                           Pager::Create(path, page_size));
  // Reserve the meta page; Finish writes it.
  CALDERA_ASSIGN_OR_RETURN(
      PageId meta,
      pager->AppendPage(std::string(pager->page_size(), '\0').data()));
  if (meta != kMetaPage) return Status::Internal("unexpected meta page id");
  return std::unique_ptr<BTreeBuilder>(
      new BTreeBuilder(std::move(pager), options));
}

Result<PageId> BTreeBuilder::WriteNode() {
  CALDERA_ASSIGN_OR_RETURN(PageId id, pager_->AppendPage(node_.data()));
  std::fill(node_.begin(), node_.end(), '\0');
  return id;
}

Status BTreeBuilder::WriteLeaf(bool last) {
  SetNodeType(node_.data(), kLeafNode);
  SetNodeCount(node_.data(), static_cast<uint16_t>(leaf_count_));
  const PageId id = pager_->page_count();
  SetLeafNext(node_.data(), last ? kInvalidPageId : id + 1);
  levels_[0].emplace_back(node_.substr(kNodeHeaderSize, options_.key_size),
                          id);
  leaf_count_ = 0;
  return WriteNode().status();
}

Status BTreeBuilder::Add(std::string_view key, std::string_view value) {
  if (finished_) return Status::FailedPrecondition("builder finished");
  if (key.size() != options_.key_size || value.size() != options_.value_size) {
    return Status::InvalidArgument("key/value size mismatch");
  }
  if (!last_key_.empty() && last_key_.compare(0, key.size(), key.data(),
                                              key.size()) >= 0) {
    return Status::InvalidArgument("bulk-load keys must strictly increase");
  }
  // A full leaf waits for this entry: only now is it known not to be last.
  if (leaf_count_ == max_leaf_entries_) {
    CALDERA_RETURN_IF_ERROR(WriteLeaf(/*last=*/false));
  }
  last_key_.assign(key.data(), key.size());
  char* entry = node_.data() + kNodeHeaderSize +
                leaf_count_ * (key.size() + value.size());
  std::memcpy(entry, key.data(), key.size());
  if (!value.empty()) {
    std::memcpy(entry + key.size(), value.data(), value.size());
  }
  ++leaf_count_;
  ++total_entries_;
  return Status::Ok();
}

Result<std::unique_ptr<BTree>> BTreeBuilder::Finish(uint64_t indexed_length) {
  if (finished_) return Status::FailedPrecondition("builder finished");
  finished_ = true;
  // The last leaf; in an empty build, the one empty leaf that is the root.
  CALDERA_RETURN_IF_ERROR(WriteLeaf(/*last=*/true));

  const uint32_t ks = options_.key_size;
  const uint32_t es = InternalEntrySize(options_);
  const uint32_t max_internal = std::max<uint32_t>(
      2, static_cast<uint32_t>(
             InternalCapacity(options_, pager_->page_size()) * kFillFactor));
  size_t level = 0;
  while (levels_[level].size() > 1) {
    levels_.emplace_back();
    auto& children = levels_[level];
    auto& parents = levels_[level + 1];
    size_t i = 0;
    while (i < children.size()) {
      // Each internal node takes child0 plus up to max_internal keyed
      // children.
      size_t group = std::min<size_t>(children.size() - i,
                                      static_cast<size_t>(max_internal) + 1);
      // Avoid a trailing single-child internal node (it would have zero
      // separators): steal one from this group.
      if (children.size() - (i + group) == 1) --group;
      char* data = node_.data();
      SetNodeType(data, kInternalNode);
      SetInternalChild0(data, children[i].second);
      uint16_t count = 0;
      for (size_t j = 1; j < group; ++j) {
        char* e = data + kNodeHeaderSize + count * es;
        std::memcpy(e, children[i + j].first.data(), ks);
        PageId child = children[i + j].second;
        std::memcpy(e + ks, &child, 8);
        ++count;
      }
      SetNodeCount(data, count);
      CALDERA_ASSIGN_OR_RETURN(PageId id, WriteNode());
      parents.emplace_back(children[i].first, id);
      i += group;
    }
    ++level;
  }

  std::string meta(kBTreeMagic, 8);
  PutFixed32(options_.key_size, &meta);
  PutFixed32(options_.value_size, &meta);
  PutFixed64(levels_[level][0].second, &meta);  // The root.
  PutFixed64(total_entries_, &meta);
  PutFixed32(static_cast<uint32_t>(level + 1), &meta);  // The height.
  PutFixed64(indexed_length, &meta);
  meta.resize(pager_->page_size(), '\0');
  CALDERA_RETURN_IF_ERROR(pager_->WritePage(kMetaPage, meta.data()));
  CALDERA_RETURN_IF_ERROR(pager_->Sync());
  const std::string path = pager_->path();
  pager_.reset();
  return BTree::Open(path);
}

}  // namespace caldera
