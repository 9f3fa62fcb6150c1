#include "query/predicate.h"

#include <algorithm>

#include "common/logging.h"

namespace caldera {

Predicate Predicate::Any() {
  Predicate p;
  p.kind_ = Kind::kAny;
  p.name_ = "*";
  return p;
}

Predicate Predicate::Equality(size_t attr, uint32_t value, std::string name) {
  Predicate p;
  p.kind_ = Kind::kEquality;
  p.attr_ = attr;
  p.values_ = {value};
  p.name_ = std::move(name);
  return p;
}

Predicate Predicate::In(size_t attr, std::vector<uint32_t> values,
                        std::string name) {
  Predicate p;
  p.kind_ = Kind::kSet;
  p.attr_ = attr;
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  p.values_ = std::move(values);
  p.name_ = std::move(name);
  return p;
}

Predicate Predicate::Range(size_t attr, uint32_t lo, uint32_t hi,
                           std::string name) {
  Predicate p;
  p.kind_ = Kind::kRange;
  p.attr_ = attr;
  p.lo_ = lo;
  p.hi_ = hi;
  p.name_ = std::move(name);
  return p;
}

Predicate Predicate::Not(Predicate base) {
  CALDERA_CHECK(base.indexable()) << "only indexable predicates can be negated";
  Predicate p;
  p.kind_ = Kind::kNegation;
  p.attr_ = base.attribute();
  p.name_ = "!" + base.name();
  p.base_ = std::make_shared<const Predicate>(std::move(base));
  return p;
}

bool Predicate::Matches(const StreamSchema& schema, ValueId state) const {
  switch (kind_) {
    case Kind::kAny:
      return true;
    case Kind::kNegation:
      return !base_->Matches(schema, state);
    case Kind::kEquality: {
      uint32_t v = schema.AttributeValue(state, attr_);
      return v == values_[0];
    }
    case Kind::kSet: {
      uint32_t v = schema.AttributeValue(state, attr_);
      return std::binary_search(values_.begin(), values_.end(), v);
    }
    case Kind::kRange: {
      uint32_t v = schema.AttributeValue(state, attr_);
      return v >= lo_ && v <= hi_;
    }
  }
  return false;
}

std::vector<uint32_t> Predicate::MatchedAttributeValues(
    const StreamSchema& schema) const {
  CALDERA_CHECK(indexable()) << "predicate '" << name_ << "' is not indexable";
  switch (kind_) {
    case Kind::kEquality:
    case Kind::kSet:
      return values_;
    case Kind::kRange: {
      std::vector<uint32_t> out;
      uint32_t hi = std::min(hi_, schema.domain_size(attr_) - 1);
      for (uint32_t v = lo_; v <= hi; ++v) out.push_back(v);
      return out;
    }
    default:
      return {};
  }
}

Status Predicate::ValidateAgainst(const StreamSchema& schema) const {
  if (kind_ == Kind::kAny) return Status::Ok();
  if (kind_ == Kind::kNegation) return base_->ValidateAgainst(schema);
  if (attr_ >= schema.num_attributes()) {
    return Status::InvalidArgument("predicate '" + name_ +
                                   "' references attribute " +
                                   std::to_string(attr_) + " of " +
                                   std::to_string(schema.num_attributes()));
  }
  uint32_t domain = schema.domain_size(attr_);
  if (kind_ == Kind::kRange) {
    if (lo_ > hi_) {
      return Status::InvalidArgument("predicate '" + name_ +
                                     "' has an empty range");
    }
    if (lo_ >= domain) {
      return Status::InvalidArgument("predicate '" + name_ +
                                     "' range below domain");
    }
    return Status::Ok();
  }
  if (values_.empty()) {
    return Status::InvalidArgument("predicate '" + name_ + "' has no values");
  }
  for (uint32_t v : values_) {
    if (v >= domain) {
      return Status::InvalidArgument(
          "predicate '" + name_ + "' value " + std::to_string(v) +
          " outside domain of size " + std::to_string(domain));
    }
  }
  return Status::Ok();
}

void DimensionTable::AddColumn(std::string column,
                               std::vector<std::string> values) {
  columns_.emplace_back(std::move(column), std::move(values));
}

Result<std::vector<uint32_t>> DimensionTable::Lookup(
    const std::string& column, const std::string& value) const {
  for (const auto& [name, values] : columns_) {
    if (name != column) continue;
    std::vector<uint32_t> out;
    for (size_t i = 0; i < values.size(); ++i) {
      if (values[i] == value) out.push_back(static_cast<uint32_t>(i));
    }
    return out;
  }
  return Status::NotFound("no column '" + column + "' in dimension table " +
                          name_);
}

Result<Predicate> DimensionTable::MakePredicate(const std::string& column,
                                                const std::string& value) const {
  CALDERA_ASSIGN_OR_RETURN(std::vector<uint32_t> values,
                           Lookup(column, value));
  if (values.empty()) {
    return Status::NotFound("no rows with " + column + "='" + value +
                            "' in dimension table " + name_);
  }
  return Predicate::In(key_attribute_, std::move(values), value);
}

}  // namespace caldera
