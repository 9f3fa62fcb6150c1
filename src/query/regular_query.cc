#include "query/regular_query.h"

namespace caldera {

RegularQuery RegularQuery::Sequence(std::string name,
                                    std::vector<Predicate> predicates) {
  std::vector<QueryLink> links;
  links.reserve(predicates.size());
  for (Predicate& p : predicates) {
    links.push_back(QueryLink{std::nullopt, std::move(p)});
  }
  return RegularQuery(std::move(name), std::move(links));
}

bool RegularQuery::fixed_length() const {
  for (const QueryLink& link : links_) {
    if (link.is_kleene()) return false;
  }
  return true;
}

std::vector<const Predicate*> RegularQuery::CursorPredicates() const {
  std::vector<const Predicate*> out;
  for (const QueryLink& link : links_) {
    if (link.primary.indexable()) {
      out.push_back(&link.primary);
    } else if (link.primary.is_negation()) {
      out.push_back(&link.primary.base());
    }
    if (link.is_kleene()) {
      if (link.loop->indexable()) {
        out.push_back(&*link.loop);
      } else if (link.loop->is_negation()) {
        out.push_back(&link.loop->base());
      }
    }
  }
  return out;
}

Status RegularQuery::ValidateAgainst(const StreamSchema& schema) const {
  if (links_.empty()) {
    return Status::InvalidArgument("query '" + name_ + "' has no links");
  }
  if (links_.size() > 16) {
    return Status::InvalidArgument("query '" + name_ +
                                   "' exceeds 16 links");
  }
  for (const QueryLink& link : links_) {
    CALDERA_RETURN_IF_ERROR(link.primary.ValidateAgainst(schema));
    if (link.primary.is_any()) {
      return Status::InvalidArgument(
          "query '" + name_ + "' uses '*' as a primary predicate");
    }
    if (link.is_kleene()) {
      CALDERA_RETURN_IF_ERROR(link.loop->ValidateAgainst(schema));
    }
  }
  return Status::Ok();
}

std::string RegularQuery::ToString() const {
  std::string out = "Q(";
  for (size_t i = 0; i < links_.size(); ++i) {
    if (i > 0) out += ", ";
    if (links_[i].is_kleene()) {
      out += links_[i].loop->name();
      out += "*, ";
    }
    out += links_[i].primary.name();
  }
  out += ")";
  return out;
}

}  // namespace caldera
