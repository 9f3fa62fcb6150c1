#include "index/attribute_index.h"

#include <algorithm>
#include <filesystem>

#include "common/encoding.h"
#include "index/btc_index.h"
#include "index/btp_index.h"
#include "storage/file.h"

namespace caldera {

namespace {

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

}  // namespace

std::vector<AttributeEntry> TimestepAttributeEntries(
    const Distribution& marginal, const StreamSchema& schema, size_t attr,
    uint64_t t) {
  std::vector<AttributeEntry> entries;
  AppendAttributeEntries(marginal, schema, attr, t, &entries);
  return entries;
}

Result<std::vector<AttributeEntry>> ReadAttributeEntries(StoredStream* stream,
                                                         size_t attr) {
  if (attr >= stream->schema().num_attributes()) {
    return Status::InvalidArgument("attribute index out of range");
  }
  std::vector<AttributeEntry> entries;
  Distribution marginal;
  for (uint64_t t = 0; t < stream->length(); ++t) {
    CALDERA_RETURN_IF_ERROR(stream->ReadMarginal(t, &marginal));
    AppendAttributeEntries(marginal, stream->schema(), attr, t, &entries);
  }
  return entries;
}

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
  Distribution marginal;
  std::string entries;  // Whole entries, key then value, as a build adds.
  for (uint64_t t = tree->length(); t < stream->length(); ++t) {
    CALDERA_RETURN_IF_ERROR(stream->ReadMarginal(t, &marginal));
    for (const AttributeEntry& e :
         TimestepAttributeEntries(marginal, stream->schema(), file.attr, t)) {
      if (file.is_btc) {
        entries += EncodeBtcKey(e.value, e.time);
        PutDouble(e.prob, &entries);
      } else {
        entries += EncodeBtpEntryKey(e);
      }
    }
  }
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
