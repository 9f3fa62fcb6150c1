#ifndef CALDERA_QUERY_PREDICATE_H_
#define CALDERA_QUERY_PREDICATE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "markov/schema.h"

namespace caldera {

/// A Boolean function on one stream attribute (Section 2.2). Regular query
/// NFAs transition when predicates are satisfied by the stream state.
///
/// Indexable predicates (equality / set / range) expose the attribute values
/// they match so access methods can position B+ tree cursors; negations are
/// evaluated against their positive base (whose values ARE indexed).
class Predicate {
 public:
  enum class Kind : uint8_t { kAny, kEquality, kSet, kRange, kNegation };

  Predicate() : kind_(Kind::kAny) {}

  /// Matches every state (the implicit Sigma of the restart loop).
  static Predicate Any();

  /// attribute == value.
  static Predicate Equality(size_t attr, uint32_t value, std::string name);

  /// attribute in {values}.
  static Predicate In(size_t attr, std::vector<uint32_t> values,
                      std::string name);

  /// lo <= attribute <= hi.
  static Predicate Range(size_t attr, uint32_t lo, uint32_t hi,
                         std::string name);

  /// Logical negation of an indexable predicate.
  static Predicate Not(Predicate base);

  Kind kind() const { return kind_; }
  const std::string& name() const { return name_; }
  size_t attribute() const { return attr_; }

  /// True when the encoded stream state satisfies this predicate.
  bool Matches(const StreamSchema& schema, ValueId state) const;

  /// True for equality/set/range (predicates whose matching values can be
  /// enumerated for index lookups).
  bool indexable() const {
    return kind_ == Kind::kEquality || kind_ == Kind::kSet ||
           kind_ == Kind::kRange;
  }

  bool is_negation() const { return kind_ == Kind::kNegation; }
  bool is_any() const { return kind_ == Kind::kAny; }

  /// For negations: the positive base predicate. Undefined otherwise.
  const Predicate& base() const { return *base_; }

  /// The attribute values this (indexable) predicate matches, ascending.
  std::vector<uint32_t> MatchedAttributeValues(
      const StreamSchema& schema) const;

  /// Validates the predicate against a schema (attribute index and value
  /// bounds).
  Status ValidateAgainst(const StreamSchema& schema) const;

 private:
  Kind kind_;
  size_t attr_ = 0;
  std::vector<uint32_t> values_;        // kEquality (1 value) / kSet.
  uint32_t lo_ = 0, hi_ = 0;            // kRange.
  std::shared_ptr<const Predicate> base_;  // kNegation.
  std::string name_;
};

/// A star-schema dimension table (Section 3.4.1): maps values of one stream
/// attribute to descriptive columns, e.g. LocationType(locationID ->
/// locationType). Used to build predicates like "location is a CoffeeRoom".
class DimensionTable {
 public:
  DimensionTable() : key_attribute_(0) {}
  DimensionTable(std::string name, size_t key_attribute)
      : name_(std::move(name)), key_attribute_(key_attribute) {}

  /// Adds a column; `values[v]` is the column value for attribute value v.
  /// Column length must equal the attribute's domain size at query time.
  void AddColumn(std::string column, std::vector<std::string> values);

  const std::string& name() const { return name_; }
  size_t key_attribute() const { return key_attribute_; }

  /// All attribute values whose `column` equals `value`, ascending.
  Result<std::vector<uint32_t>> Lookup(const std::string& column,
                                       const std::string& value) const;

  /// Builds the set predicate "key_attribute joins to a row whose `column`
  /// equals `value`" — the conceptual star-schema join of the paper,
  /// resolved to stream attribute values at plan time.
  Result<Predicate> MakePredicate(const std::string& column,
                                  const std::string& value) const;

 private:
  std::string name_;
  size_t key_attribute_;
  std::vector<std::pair<std::string, std::vector<std::string>>> columns_;
};

}  // namespace caldera

#endif  // CALDERA_QUERY_PREDICATE_H_
