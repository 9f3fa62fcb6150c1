#ifndef CALDERA_QUERY_REGULAR_QUERY_H_
#define CALDERA_QUERY_REGULAR_QUERY_H_

#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "query/predicate.h"

namespace caldera {

/// One link of a Regular query (Section 2.2): either a single predicate
/// ("the stream satisfies `primary` at this step") or a Kleene pair
/// "(loop*, primary)" ("wait while `loop` holds, then `primary`").
struct QueryLink {
  std::optional<Predicate> loop;
  Predicate primary;

  bool is_kleene() const { return loop.has_value(); }
};

/// A Regular query: a linear NFA expressed as a concatenation of links.
/// Queries whose NFAs are loop-free (`no Kleene links`) are *fixed-length*:
/// an n-link query matches only length-n stream intervals. Queries with
/// Kleene links are *variable-length*. The distinction drives access-method
/// selection (Figure 5(b)).
class RegularQuery {
 public:
  RegularQuery() = default;
  RegularQuery(std::string name, std::vector<QueryLink> links)
      : name_(std::move(name)), links_(std::move(links)) {}

  /// Convenience: a fixed-length query from a plain predicate sequence.
  static RegularQuery Sequence(std::string name,
                               std::vector<Predicate> predicates);

  const std::string& name() const { return name_; }
  size_t num_links() const { return links_.size(); }
  const QueryLink& link(size_t i) const { return links_[i]; }
  const std::vector<QueryLink>& links() const { return links_; }

  bool fixed_length() const;

  /// The positive base predicates that must drive index cursors: for every
  /// predicate in the query, itself if indexable, or its base if a
  /// negation. Order: link order, primary before loop.
  std::vector<const Predicate*> CursorPredicates() const;

  /// Validates all predicates against the schema and checks structural
  /// constraints (at least one link, <= 16 links).
  Status ValidateAgainst(const StreamSchema& schema) const;

  /// Written syntax rendering, e.g. "Q(Hallway, !CoffeeRoom*, CoffeeRoom)".
  std::string ToString() const;

 private:
  std::string name_;
  std::vector<QueryLink> links_;
};

}  // namespace caldera

#endif  // CALDERA_QUERY_REGULAR_QUERY_H_
