#include "markov/schema.h"

#include "common/encoding.h"
#include "common/logging.h"

namespace caldera {

size_t StreamSchema::AddAttribute(std::string name,
                                  std::vector<std::string> labels) {
  attributes_.push_back(
      Attribute{std::move(name), std::move(labels), /*radix=*/1});
  RecomputeRadices();
  return attributes_.size() - 1;
}

void StreamSchema::RecomputeRadices() {
  uint32_t radix = 1;
  for (size_t i = attributes_.size(); i-- > 0;) {
    attributes_[i].radix = radix;
    radix *= static_cast<uint32_t>(attributes_[i].labels.size());
  }
  state_count_ = attributes_.empty() ? 0 : radix;
}

Result<size_t> StreamSchema::AttributeIndex(std::string_view name) const {
  for (size_t i = 0; i < attributes_.size(); ++i) {
    if (attributes_[i].name == name) return i;
  }
  return Status::NotFound("no attribute named '" + std::string(name) + "'");
}

Result<uint32_t> StreamSchema::ValueOf(size_t attr,
                                       std::string_view label) const {
  const Attribute& a = attributes_[attr];
  for (size_t i = 0; i < a.labels.size(); ++i) {
    if (a.labels[i] == label) return static_cast<uint32_t>(i);
  }
  return Status::NotFound("no value labeled '" + std::string(label) +
                          "' in attribute " + a.name);
}

ValueId StreamSchema::EncodeState(
    const std::vector<uint32_t>& attr_values) const {
  CALDERA_CHECK(attr_values.size() == attributes_.size())
      << "expected " << attributes_.size() << " attribute values";
  ValueId state = 0;
  for (size_t i = 0; i < attributes_.size(); ++i) {
    CALDERA_CHECK(attr_values[i] < attributes_[i].labels.size());
    state += attr_values[i] * attributes_[i].radix;
  }
  return state;
}

uint32_t StreamSchema::AttributeValue(ValueId state, size_t attr) const {
  const Attribute& a = attributes_[attr];
  return (state / a.radix) % static_cast<uint32_t>(a.labels.size());
}

void StreamSchema::AppendTo(std::string* out) const {
  PutFixed32(static_cast<uint32_t>(attributes_.size()), out);
  for (const Attribute& a : attributes_) {
    PutLengthPrefixed(a.name, out);
    PutFixed32(static_cast<uint32_t>(a.labels.size()), out);
    for (const std::string& label : a.labels) PutLengthPrefixed(label, out);
  }
}

Result<StreamSchema> StreamSchema::Parse(std::string_view data,
                                         size_t* offset) {
  if (*offset + 4 > data.size()) return Status::Corruption("truncated schema");
  uint32_t num_attrs = GetFixed32(data.data() + *offset);
  *offset += 4;
  // Each attribute needs at least 8 bytes (name length + label count).
  if (*offset + static_cast<uint64_t>(num_attrs) * 8 > data.size()) {
    return Status::Corruption("schema attribute count exceeds bytes");
  }
  StreamSchema schema;
  for (uint32_t i = 0; i < num_attrs; ++i) {
    std::string_view name;
    if (!GetLengthPrefixed(data, offset, &name)) {
      return Status::Corruption("truncated schema attribute name");
    }
    if (*offset + 4 > data.size()) {
      return Status::Corruption("truncated schema label count");
    }
    uint32_t num_labels = GetFixed32(data.data() + *offset);
    *offset += 4;
    // Each label needs at least a 4-byte length prefix.
    if (*offset + static_cast<uint64_t>(num_labels) * 4 > data.size()) {
      return Status::Corruption("schema label count exceeds bytes");
    }
    std::vector<std::string> labels;
    labels.reserve(num_labels);
    for (uint32_t j = 0; j < num_labels; ++j) {
      std::string_view label;
      if (!GetLengthPrefixed(data, offset, &label)) {
        return Status::Corruption("truncated schema label");
      }
      labels.emplace_back(label);
    }
    schema.AddAttribute(std::string(name), std::move(labels));
  }
  return schema;
}

StreamSchema SingleAttributeSchema(std::string name,
                                   std::vector<std::string> labels) {
  StreamSchema schema;
  schema.AddAttribute(std::move(name), std::move(labels));
  return schema;
}

}  // namespace caldera
