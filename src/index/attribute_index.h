#ifndef CALDERA_INDEX_ATTRIBUTE_INDEX_H_
#define CALDERA_INDEX_ATTRIBUTE_INDEX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "markov/distribution.h"
#include "markov/schema.h"
#include "markov/stream_io.h"

namespace caldera {

// What BT_C (btc_index.h) and BT_P (btp_index.h) share: the entries they
// index and the names of their files in a stream directory.

/// One attribute value's marginal probability at one timestep.
struct AttributeEntry {
  uint32_t value;
  uint64_t time;
  double prob;
};

/// Aggregates timestep `t`'s state marginal into per-attribute-value masses
/// (Section 3.4.1: tuples sharing a timestamp are disjoint, so attribute
/// value probabilities are sums), in increasing value order. Each sum runs
/// in state-id order, so rebuilt probabilities are bit-identical to any
/// other code (e.g. the verifier) that accumulates in state order. What a
/// live insert adds to a BT_C or BT_P tree.
std::vector<AttributeEntry> TimestepAttributeEntries(
    const Distribution& marginal, const StreamSchema& schema, size_t attr,
    uint64_t t);

/// Every timestep's entries for attribute `attr` of a stored stream, read
/// one marginal at a time: what a BT_C or BT_P build indexes.
Result<std::vector<AttributeEntry>> ReadAttributeEntries(StoredStream* stream,
                                                         size_t attr);

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

}  // namespace caldera

#endif  // CALDERA_INDEX_ATTRIBUTE_INDEX_H_
