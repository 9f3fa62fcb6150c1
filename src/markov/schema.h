#ifndef CALDERA_MARKOV_SCHEMA_H_
#define CALDERA_MARKOV_SCHEMA_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "markov/distribution.h"

namespace caldera {

/// Describes the value attributes A_1..A_k of a Markovian stream
/// (Section 2.1). Each attribute has a finite labeled domain; a full stream
/// state is one value per attribute, encoded into a single dense ValueId via
/// mixed-radix encoding so the rest of the system can treat the state space
/// as a flat domain.
class StreamSchema {
 public:
  StreamSchema() = default;

  /// Adds an attribute with the given domain labels; returns its index.
  size_t AddAttribute(std::string name, std::vector<std::string> labels);

  size_t num_attributes() const { return attributes_.size(); }
  uint32_t domain_size(size_t attr) const {
    return static_cast<uint32_t>(attributes_[attr].labels.size());
  }
  const std::string& label(size_t attr, uint32_t value) const {
    return attributes_[attr].labels[value];
  }

  /// Looks up an attribute index by name; NotFound otherwise.
  Result<size_t> AttributeIndex(std::string_view name) const;

  /// Looks up a value by label within an attribute; NotFound otherwise.
  Result<uint32_t> ValueOf(size_t attr, std::string_view label) const;

  /// Total number of encoded states (product of domain sizes; 0 if no
  /// attributes).
  uint32_t state_count() const { return state_count_; }

  /// Encodes one value per attribute into a flat state id.
  ValueId EncodeState(const std::vector<uint32_t>& attr_values) const;

  /// Extracts attribute `attr`'s value from an encoded state id.
  uint32_t AttributeValue(ValueId state, size_t attr) const;

  bool operator==(const StreamSchema&) const = default;

  // Binary serialization.
  void AppendTo(std::string* out) const;
  static Result<StreamSchema> Parse(std::string_view data, size_t* offset);

 private:
  struct Attribute {
    std::string name;
    std::vector<std::string> labels;
    uint32_t radix = 1;  ///< Product of later attributes' domain sizes.

    bool operator==(const Attribute&) const = default;
  };

  void RecomputeRadices();

  std::vector<Attribute> attributes_;
  uint32_t state_count_ = 0;
};

/// Convenience: a single-attribute schema (the common case in the paper).
StreamSchema SingleAttributeSchema(std::string name,
                                   std::vector<std::string> labels);

}  // namespace caldera

#endif  // CALDERA_MARKOV_SCHEMA_H_
