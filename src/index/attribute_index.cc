#include "index/attribute_index.h"

#include <algorithm>

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

}  // namespace caldera
