#include "index/attribute_index.h"

#include <algorithm>
#include <filesystem>

#include "common/encoding.h"
#include "index/btc_index.h"
#include "index/btp_index.h"
#include "storage/file.h"

namespace caldera {

namespace {

/// One attribute value's marginal probability at one timestep.
struct AttributeEntry {
  uint32_t value;
  uint64_t time;
  double prob;
};

void AppendAttributeEntries(const Distribution& marginal,
                            const StreamSchema& schema, size_t attr,
                            uint64_t t, std::vector<AttributeEntry>* out) {
  // Values of a sorted state list are not sorted per attribute, so
  // aggregate via a small buffer, stable-sorted on the value only.
  std::vector<std::pair<uint32_t, double>> local;
  local.reserve(marginal.support_size());
  for (const Distribution::Entry& e : marginal.entries()) {
    local.emplace_back(schema.AttributeValue(e.value, attr), e.prob);
  }
  std::stable_sort(local.begin(), local.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  for (size_t i = 0; i < local.size();) {
    double sum = 0;
    size_t j = i;
    while (j < local.size() && local[j].first == local[i].first) {
      sum += local[j].second;
      ++j;
    }
    out->push_back({local[i].first, t, sum});
    i = j;
  }
}

BTreeOptions TreeOptions(bool is_btc) {
  return is_btc ? BTreeOptions{kBtcKeySize, kBtcValueSize}
                : BTreeOptions{kBtpKeySize, kBtpValueSize};
}

}  // namespace

std::string BtcIndexPath(const std::string& dir, size_t attr) {
  return dir + "/btc.attr" + std::to_string(attr) + ".bt";
}

std::string BtpIndexPath(const std::string& dir, size_t attr) {
  return dir + "/btp.attr" + std::to_string(attr) + ".bt";
}

std::vector<TreeIndexFile> TreeIndexFiles(const std::string& dir,
                                          size_t num_attributes) {
  std::vector<TreeIndexFile> out;
  for (size_t attr = 0; attr < num_attributes; ++attr) {
    for (bool is_btc : {true, false}) {
      std::string path =
          is_btc ? BtcIndexPath(dir, attr) : BtpIndexPath(dir, attr);
      if (FileExists(path)) out.push_back({attr, is_btc, std::move(path)});
    }
  }
  return out;
}

Result<std::string> TreeIndexEntries(const TreeIndexFile& file,
                                     StoredStream* stream, uint64_t from) {
  if (file.attr >= stream->schema().num_attributes()) {
    return Status::InvalidArgument("attribute index out of range");
  }
  std::vector<AttributeEntry> entries;
  Distribution marginal;
  for (uint64_t t = from; t < stream->length(); ++t) {
    CALDERA_RETURN_IF_ERROR(stream->ReadMarginal(t, &marginal));
    AppendAttributeEntries(marginal, stream->schema(), file.attr, t, &entries);
  }
  // Sort on the key's fields, which is faster than comparing encoded keys:
  // BT_C on (value, time), BT_P on (value, 1 - p, time), 1 - p being the
  // double EncodeProbDescending writes in an order-preserving form.
  if (file.is_btc) {
    std::sort(entries.begin(), entries.end(),
              [](const AttributeEntry& a, const AttributeEntry& b) {
                if (a.value != b.value) return a.value < b.value;
                return a.time < b.time;
              });
  } else {
    for (AttributeEntry& e : entries) e.prob = std::min(e.prob, 1.0);
    std::sort(entries.begin(), entries.end(),
              [](const AttributeEntry& a, const AttributeEntry& b) {
                if (a.value != b.value) return a.value < b.value;
                const double qa = 1.0 - a.prob, qb = 1.0 - b.prob;
                if (qa != qb) return qa < qb;
                return a.time < b.time;
              });
  }
  const BTreeOptions options = TreeOptions(file.is_btc);
  std::string out;
  out.reserve(entries.size() * (options.key_size + options.value_size));
  for (const AttributeEntry& e : entries) {
    if (file.is_btc) {
      out += EncodeBtcKey(e.value, e.time);
      PutDouble(e.prob, &out);
    } else {
      out += EncodeBtpKey(e.value, e.prob, e.time);
    }
  }
  return out;
}

Result<std::unique_ptr<BTree>> BuildTreeIndex(const TreeIndexFile& file,
                                              StoredStream* stream) {
  CALDERA_ASSIGN_OR_RETURN(std::string entries,
                           TreeIndexEntries(file, stream, 0));
  const BTreeOptions options = TreeOptions(file.is_btc);
  CALDERA_ASSIGN_OR_RETURN(std::unique_ptr<BTreeBuilder> builder,
                           BTreeBuilder::Create(file.path, options));
  const std::string_view all(entries);
  for (size_t i = 0; i < all.size();
       i += options.key_size + options.value_size) {
    CALDERA_RETURN_IF_ERROR(
        builder->Add(all.substr(i, options.key_size),
                     all.substr(i + options.key_size, options.value_size)));
  }
  return builder->Finish(stream->length());
}

Result<std::unique_ptr<BTree>> OpenTreeIndex(const TreeIndexFile& file,
                                             StoredStream* stream,
                                             size_t pool_pages) {
  CALDERA_ASSIGN_OR_RETURN(std::unique_ptr<BTree> tree,
                           BTree::Open(file.path, pool_pages));
  if (tree->indexed_length() > stream->length()) {
    return Status::Corruption(
        file.path + " indexes " + std::to_string(tree->indexed_length()) +
        " timesteps of a stream of " + std::to_string(stream->length()));
  }
  CALDERA_RETURN_IF_ERROR(ExtendTreeTail(file, stream, tree.get()));
  return tree;
}

Status ExtendTreeTail(const TreeIndexFile& file, StoredStream* stream,
                      BTree* tree) {
  if (tree->length() >= stream->length()) return Status::Ok();
  CALDERA_ASSIGN_OR_RETURN(std::string entries,
                           TreeIndexEntries(file, stream, tree->length()));
  CALDERA_RETURN_IF_ERROR(tree->AddToTail(entries));
  tree->set_length(stream->length());
  return Status::Ok();
}

bool TreeCompactionDue(uint64_t indexed_length, uint64_t length) {
  return length > indexed_length &&
         (length - indexed_length) * kTreeCompactionDivisor >= indexed_length;
}

Result<uint64_t> CompactTreeIndex(const TreeIndexFile& file,
                                  StoredStream* stream, BTree* tree) {
  CALDERA_RETURN_IF_ERROR(ExtendTreeTail(file, stream, tree));
  // Not a canonical tree name, so TreeIndexFiles never takes a leftover
  // of a crashed compaction for an index.
  const std::string temp = file.path + ".compact";
  CALDERA_ASSIGN_OR_RETURN(
      std::unique_ptr<BTreeBuilder> builder,
      BTreeBuilder::Create(temp, tree->options(), tree->page_size()));
  CALDERA_ASSIGN_OR_RETURN(BTree::Cursor cursor, tree->SeekFirst());
  while (cursor.valid()) {
    CALDERA_RETURN_IF_ERROR(builder->Add(cursor.key(), cursor.value()));
    CALDERA_RETURN_IF_ERROR(cursor.Next());
  }
  CALDERA_RETURN_IF_ERROR(builder->Finish(tree->length()).status());
  CALDERA_RETURN_IF_ERROR(RenameFile(temp, file.path));
  CALDERA_RETURN_IF_ERROR(SyncDirectory(
      std::filesystem::path(file.path).parent_path().string()));
  return tree->num_entries();
}

}  // namespace caldera
