#ifndef CALDERA_INDEX_ATTRIBUTE_INDEX_H_
#define CALDERA_INDEX_ATTRIBUTE_INDEX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "btree/btree.h"
#include "common/status.h"
#include "markov/stream_io.h"

namespace caldera {

// What BT_C (btc_index.h) and BT_P (btp_index.h) share: the entries they
// index, the names of their files in a stream directory, and the in-memory
// tail that indexes the timesteps appended since a tree file was built.

/// The BT_C / BT_P file of attribute `attr` in stream directory `dir`.
std::string BtcIndexPath(const std::string& dir, size_t attr);
std::string BtpIndexPath(const std::string& dir, size_t attr);

/// A B+ tree index file of a stream.
struct TreeIndexFile {
  size_t attr;
  bool is_btc;
  std::string path;
};

/// The BT_C / BT_P files present in stream directory `dir` for a schema of
/// `num_attributes` attributes, found by existence alone (the files may be
/// arbitrarily damaged). Only the canonical name of an attribute the schema
/// has is a tree: a backup copy such as btc.attr0.bt.orig, or a tree named
/// for an attribute past the schema, is not an index of the stream.
std::vector<TreeIndexFile> TreeIndexFiles(const std::string& dir,
                                          size_t num_attributes);

/// The entries of tree `file` for timesteps [from, stream->length()) of
/// `stream`, read one marginal at a time: whole entries (key, then value),
/// in key order. An entry is one attribute value's marginal mass at one
/// timestep (Section 3.4.1: tuples sharing a timestamp are disjoint, so the
/// mass is a sum over the states holding the value, taken in state order).
/// BT_P keys clamp a mass above 1 to 1. What a build writes (from = 0), a
/// tail adds and fsck checks a tree against.
Result<std::string> TreeIndexEntries(const TreeIndexFile& file,
                                     StoredStream* stream, uint64_t from);

/// Builds tree index `file` of `stream` over all of its timesteps: the
/// TreeIndexEntries from 0, bulk-loaded through BTreeBuilder.
Result<std::unique_ptr<BTree>> BuildTreeIndex(const TreeIndexFile& file,
                                              StoredStream* stream);

/// Opens tree index `file` of `stream` and fills its in-memory tail with
/// the entries of the stream's timesteps from the tree's indexed length on,
/// so it answers like a tree built over the whole stream. Corruption if the
/// tree indexes more timesteps than the stream holds.
Result<std::unique_ptr<BTree>> OpenTreeIndex(const TreeIndexFile& file,
                                             StoredStream* stream,
                                             size_t pool_pages);

/// Adds to the tail of `tree`, opened from `file`, the TreeIndexEntries of
/// the stream's timesteps from tree->length() on.
Status ExtendTreeTail(const TreeIndexFile& file, StoredStream* stream,
                      BTree* tree);

/// A tree is compacted once its tail holds at least 1/kTreeCompactionDivisor
/// as many timesteps as its file indexes. A handle open then decodes at most
/// that share of the marginals a scan reads, and each appended entry is
/// rewritten about kTreeCompactionDivisor + 1 times in all.
inline constexpr uint64_t kTreeCompactionDivisor = 8;

/// Whether a tree file indexing `indexed_length` timesteps of a stream of
/// `length` timesteps is due for compaction.
bool TreeCompactionDue(uint64_t indexed_length, uint64_t length);

/// Rewrites tree index `file` of `stream` as one file indexing the whole
/// stream: extends `tree`'s tail to the stream's length, bulk-builds the
/// merged entries into a temporary file, syncs it, renames it over
/// file.path and syncs the directory. A crash leaves the old or the new
/// file, each whole. Returns the entries written.
Result<uint64_t> CompactTreeIndex(const TreeIndexFile& file,
                                  StoredStream* stream, BTree* tree);

}  // namespace caldera

#endif  // CALDERA_INDEX_ATTRIBUTE_INDEX_H_
