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

/// A disk-resident B+ tree over a paged file with an LRU buffer pool.
///
/// Caldera instantiates this two ways (Section 3 of the paper):
///   BT_C  key = (value_id:u32, time:u64),             value = prob:f64
///   BT_P  key = (value_id:u32, 1-prob:f64, time:u64), value = empty
///
/// Single-threaded. Deletes are "lazy": the entry is removed from its leaf
/// but nodes are never rebalanced — appropriate for Caldera's write-once
/// archival workload, where indexes are bulk-built and rarely mutated.
class BTree {
 public:
  /// Creates an empty tree file at `path` (truncating any existing file).
  static Result<std::unique_ptr<BTree>> Create(
      const std::string& path, const BTreeOptions& options,
      uint32_t page_size = kDefaultPageSize, size_t pool_pages = 64);

  /// Opens an existing tree file.
  static Result<std::unique_ptr<BTree>> Open(const std::string& path,
                                             size_t pool_pages = 64);

  ~BTree();

  BTree(const BTree&) = delete;
  BTree& operator=(const BTree&) = delete;

  /// Inserts a key/value pair; AlreadyExists if the key is present.
  Status Insert(std::string_view key, std::string_view value);

  /// Returns the value for `key`, or nullopt.
  Result<std::optional<std::string>> Get(std::string_view key);

  /// Removes `key`; NotFound if absent.
  Status Delete(std::string_view key);

  /// Forward iterator over leaf entries. Invalidated by writes to the tree.
  class Cursor {
   public:
    Cursor() = default;

    bool valid() const { return tree_ != nullptr; }
    std::string_view key() const;
    std::string_view value() const;

    /// Advances to the next entry; the cursor becomes invalid at the end.
    Status Next();

   private:
    friend class BTree;
    BTree* tree_ = nullptr;
    PageId leaf_ = kInvalidPageId;
    uint32_t slot_ = 0;
    std::string entry_;  // Cached key+value bytes of the current slot.

    Status Load();
  };

  /// Positions a cursor at the first entry with key >= `key` (invalid cursor
  /// if no such entry).
  Result<Cursor> Seek(std::string_view key);

  /// Positions a cursor at the smallest entry.
  Result<Cursor> SeekFirst();

  /// Writes back dirty pages, the tree meta page and the pager header,
  /// without fsync: another handle opened afterwards sees every insert.
  /// The ingest path flushes after each committed batch.
  Status Flush();

  /// Flush + fsync: makes every insert so far durable. Bulk builds end
  /// with it, and the ingest checkpoint calls it.
  Status Sync();

  uint64_t num_entries() const { return num_entries_; }
  uint32_t height() const { return height_; }
  const BTreeOptions& options() const { return options_; }
  uint64_t file_pages() const { return pager_->page_count(); }
  uint32_t page_size() const { return pager_->page_size(); }
  const BufferPoolStats& stats() const { return pool_->stats(); }
  void ResetStats() { pool_->ResetStats(); }

  /// Checks structural invariants (key order within nodes, separator bounds,
  /// leaf chain order). Test/debug helper; O(n).
  Status CheckInvariants();

 private:
  friend class Cursor;
  friend class BTreeBuilder;

  BTree(std::unique_ptr<Pager> pager, size_t pool_pages)
      : pager_(std::move(pager)),
        pool_(std::make_unique<BufferPool>(pager_.get(), pool_pages)) {}

  uint32_t leaf_entry_size() const {
    return options_.key_size + options_.value_size;
  }
  uint32_t internal_entry_size() const { return options_.key_size + 8; }
  uint32_t leaf_capacity() const;
  uint32_t internal_capacity() const;

  Status WriteMeta();
  Result<PageId> FindLeaf(std::string_view key,
                          std::vector<PageId>* path_out);
  Status InsertIntoParent(std::vector<PageId>& path, size_t level,
                          std::string_view sep_key, PageId right_child);
  Status CheckNode(PageId id, std::string_view lower, std::string_view upper,
                   uint32_t depth, uint64_t* entries, PageId* leftmost_leaf);

  std::unique_ptr<Pager> pager_;
  std::unique_ptr<BufferPool> pool_;
  BTreeOptions options_;
  PageId root_ = kInvalidPageId;
  uint64_t num_entries_ = 0;
  uint32_t height_ = 1;
};

/// Builds a B+ tree from strictly-increasing (key, value) pairs, packing
/// leaves sequentially and constructing internal levels bottom-up. An order
/// of magnitude faster than repeated Insert and yields ~full pages.
class BTreeBuilder {
 public:
  static Result<std::unique_ptr<BTreeBuilder>> Create(
      const std::string& path, const BTreeOptions& options,
      uint32_t page_size = kDefaultPageSize,
      double fill_factor = 0.9);

  /// Adds the next pair; keys must be strictly increasing.
  Status Add(std::string_view key, std::string_view value);

  /// Finishes the build, syncs the file and returns the opened tree.
  Result<std::unique_ptr<BTree>> Finish(size_t pool_pages = 64);

 private:
  BTreeBuilder(std::unique_ptr<BTree> tree, double fill_factor);

  Status FlushLeaf();

  std::unique_ptr<BTree> tree_;
  double fill_factor_;
  std::string leaf_buf_;              // Packed entries of the current leaf.
  uint32_t leaf_count_ = 0;
  uint32_t max_leaf_entries_ = 0;
  std::string last_key_;
  // first_key -> page id per completed node, one vector per level.
  std::vector<std::vector<std::pair<std::string, PageId>>> levels_;
  PageId prev_leaf_ = kInvalidPageId;
  uint64_t total_entries_ = 0;
  bool finished_ = false;
};

}  // namespace caldera

#endif  // CALDERA_BTREE_BTREE_H_
