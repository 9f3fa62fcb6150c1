#ifndef CALDERA_BTREE_BTREE_H_
#define CALDERA_BTREE_BTREE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/pager.h"

namespace caldera {

/// Static configuration of one B+ tree. Keys and values are fixed-width byte
/// strings; keys compare with memcmp, so callers encode composite keys with
/// the order-preserving helpers in common/encoding.h.
struct BTreeOptions {
  uint32_t key_size = 0;
  uint32_t value_size = 0;
};

/// An immutable disk-resident B+ tree over a paged file with an LRU buffer
/// pool, plus an in-memory tail in front of it.
///
/// Caldera instantiates this two ways (Section 3 of the paper):
///   BT_C  key = (value_id:u32, time:u64),             value = prob:f64
///   BT_P  key = (value_id:u32, 1-prob:f64, time:u64), value = empty
///
/// Only BTreeBuilder writes a tree file; an opened tree never writes it. The
/// file records the stream length it indexes (indexed_length). The owner
/// adds the entries of later timesteps to the tail (AddToTail), and Get,
/// Seek and cursors merge file and tail in key order, so a tree with a tail
/// answers exactly like one built over the longer stream. Single-threaded.
class BTree {
 public:
  /// Opens an existing tree file. Corruption for a damaged file or one in
  /// the v1 format, which records no indexed length.
  static Result<std::unique_ptr<BTree>> Open(const std::string& path,
                                             size_t pool_pages = 64);

  BTree(const BTree&) = delete;
  BTree& operator=(const BTree&) = delete;

  /// Returns the value for `key`, or nullopt.
  Result<std::optional<std::string>> Get(std::string_view key);

  /// Adds entries to the in-memory tail: `entries` is whole entries (key,
  /// then value) back to back, in any key order. Their keys must not be in
  /// the file (the owner adds timesteps past indexed_length() only), and
  /// none is added when one is already in the tail (AlreadyExists) or the
  /// bytes are not whole entries (InvalidArgument). Costs O(tail size):
  /// add a batch at once.
  Status AddToTail(std::string_view entries);

  /// Forward iterator over the entries of file and tail, in key order.
  /// It copies the rest of each leaf it visits, so it reads a file page
  /// only when it crosses into the next leaf or seeks past its copy, and it
  /// holds no pin between calls. AddToTail invalidates it.
  class Cursor {
   public:
    Cursor() = default;

    bool valid() const { return tree_ != nullptr; }
    std::string_view key() const;
    std::string_view value() const;

    /// Advances to the next entry; the cursor becomes invalid at the end.
    Status Next();

    /// Advances to the first entry with key >= `key`; a no-op when the
    /// current key is already >= `key`. Lands where Seek(key) would, but
    /// searches the copied leaf entries first and descends from the root
    /// only when `key` is past them.
    Status SeekForward(std::string_view key);

   private:
    friend class BTree;
    BTree* tree_ = nullptr;
    // The file's entries from its next one to the end of its leaf, copied,
    // and the offset of the next one in run_; the file has no more once
    // run_offset_ reaches run_.size() with next_leaf_ kInvalidPageId.
    std::string run_;
    size_t run_offset_ = 0;
    PageId next_leaf_ = kInvalidPageId;
    // The byte offset of the tail's next entry, and whether it, not the
    // file's, is current.
    size_t tail_offset_ = 0;
    bool on_tail_ = false;

    // The current entry, in the tail or in the copied run.
    const char* entry() const;
    // Copies the entries of the validated leaf `data` from `slot` on, and
    // its next pointer.
    void CopyRun(const char* data, size_t slot);
    // Once the copied run is exhausted, copies the next nonempty leaf.
    Status LoadNextLeaf();
    // Positions the file side at its first entry >= `key`, from the root.
    Status Descend(std::string_view key);
    // Makes the smaller of the two next entries current, or invalidates
    // the cursor when both sources are exhausted.
    void Settle();
  };

  /// Positions a cursor at the first entry with key >= `key` (invalid cursor
  /// if no such entry).
  Result<Cursor> Seek(std::string_view key);

  /// Positions a cursor at the smallest entry.
  Result<Cursor> SeekFirst() {
    return Seek(std::string(options_.key_size, '\0'));
  }

  /// Entries of the file and the tail.
  uint64_t num_entries() const {
    return num_entries_ + tail_.size() / leaf_entry_size();
  }
  /// Stream length the file indexes: its entries are those of timesteps
  /// [0, indexed_length()).
  uint64_t indexed_length() const { return indexed_length_; }
  /// Stream length the file and the tail index together: indexed_length()
  /// until the owner, having added later timesteps' entries, raises it.
  uint64_t length() const { return length_; }
  void set_length(uint64_t length) { length_ = length; }

  uint32_t height() const { return height_; }
  const BTreeOptions& options() const { return options_; }
  /// The physical page size the tree was built with.
  uint32_t page_size() const { return pager_->physical_page_size(); }
  const BufferPoolStats& stats() const { return pool_->stats(); }
  void ResetStats() { pool_->ResetStats(); }

  /// Checks the file's structural invariants (key order within nodes,
  /// separator bounds, leaf chain order, the entry count of the meta page,
  /// and that the root reaches every page past the meta page).
  /// Test/debug helper; O(n).
  Status CheckInvariants();

 private:
  friend class Cursor;

  BTree(std::unique_ptr<Pager> pager, size_t pool_pages)
      : pager_(std::move(pager)),
        pool_(std::make_unique<BufferPool>(pager_.get(), pool_pages)) {}

  uint32_t leaf_entry_size() const {
    return options_.key_size + options_.value_size;
  }
  uint32_t leaf_capacity() const;
  uint32_t internal_capacity() const;
  /// Key of tail entry `slot`.
  std::string_view TailKey(size_t slot) const {
    return std::string_view(tail_).substr(slot * leaf_entry_size(),
                                          options_.key_size);
  }
  /// The first tail slot whose key is >= `key`.
  size_t TailLowerBound(std::string_view key) const;

  /// Descends from the root to the leaf that should hold `key` and returns
  /// it pinned, checked by ValidateLeaf.
  Result<PageHandle> FindLeaf(std::string_view key);
  /// Checks leaf page `id`: its node type, its entry count, and that its
  /// next pointer names a later page, so a chain walk always ends.
  Status ValidateLeaf(const char* data, PageId id) const;
  // Checks the subtree at `id`, adding its nodes to *nodes and its entries
  // to *entries.
  Status CheckNode(PageId id, std::string_view lower, std::string_view upper,
                   uint32_t depth, uint64_t* nodes, uint64_t* entries,
                   PageId* leftmost_leaf);

  std::unique_ptr<Pager> pager_;
  std::unique_ptr<BufferPool> pool_;
  BTreeOptions options_;
  PageId root_ = kInvalidPageId;
  uint64_t num_entries_ = 0;  // In the file.
  uint32_t height_ = 1;
  uint64_t indexed_length_ = 0;
  uint64_t length_ = 0;
  // The tail: whole entries of leaf_entry_size() bytes, sorted by key.
  std::string tail_;
};

/// Builds a B+ tree file from strictly-increasing (key, value) pairs: the
/// only writer of tree files. It writes each node once, straight through
/// its Pager: the leaves in key order from page 2 on, then the internal
/// levels bottom-up, then the meta page (page 1).
class BTreeBuilder {
 public:
  static Result<std::unique_ptr<BTreeBuilder>> Create(
      const std::string& path, const BTreeOptions& options,
      uint32_t page_size = kDefaultPageSize);

  /// Adds the next pair; keys must be strictly increasing.
  Status Add(std::string_view key, std::string_view value);

  /// Finishes the build, recording that the tree indexes a stream of
  /// `indexed_length` timesteps, syncs the file and returns the opened tree.
  Result<std::unique_ptr<BTree>> Finish(uint64_t indexed_length);

 private:
  BTreeBuilder(std::unique_ptr<Pager> pager, const BTreeOptions& options);

  // Writes the current leaf as the next page of the file. Its next pointer
  // names the page after it, where the next leaf goes, unless `last`.
  Status WriteLeaf(bool last);
  // Writes node_ as the next page of the file, then zeroes it.
  Result<PageId> WriteNode();

  std::unique_ptr<Pager> pager_;
  BTreeOptions options_;
  std::string node_;  // The node being filled, one page payload.
  uint32_t leaf_count_ = 0;
  uint32_t max_leaf_entries_ = 0;
  std::string last_key_;
  // first_key -> page id per written node, one vector per level.
  std::vector<std::vector<std::pair<std::string, PageId>>> levels_;
  uint64_t total_entries_ = 0;
  bool finished_ = false;
};

}  // namespace caldera

#endif  // CALDERA_BTREE_BTREE_H_
