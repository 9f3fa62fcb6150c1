#include <gtest/gtest.h>

#include "query/nfa.h"
#include "query/parser.h"
#include "query/predicate.h"
#include "query/regular_query.h"

namespace caldera {
namespace {

StreamSchema TestSchema() {
  return SingleAttributeSchema(
      "loc", {"H0", "H1", "H2", "Office", "Coffee", "Lounge"});
}

TEST(PredicateTest, EqualityMatches) {
  StreamSchema schema = TestSchema();
  Predicate p = Predicate::Equality(0, 3, "Office");
  EXPECT_TRUE(p.Matches(schema, 3));
  EXPECT_FALSE(p.Matches(schema, 4));
  EXPECT_TRUE(p.indexable());
  EXPECT_EQ(p.MatchedAttributeValues(schema), std::vector<uint32_t>{3});
  EXPECT_TRUE(p.ValidateAgainst(schema).ok());
}

TEST(PredicateTest, SetMatchesAndDedups) {
  StreamSchema schema = TestSchema();
  Predicate p = Predicate::In(0, {4, 1, 4}, "pair");
  EXPECT_TRUE(p.Matches(schema, 1));
  EXPECT_TRUE(p.Matches(schema, 4));
  EXPECT_FALSE(p.Matches(schema, 0));
  EXPECT_EQ(p.MatchedAttributeValues(schema),
            (std::vector<uint32_t>{1, 4}));
}

TEST(PredicateTest, RangeMatches) {
  StreamSchema schema = TestSchema();
  Predicate p = Predicate::Range(0, 1, 3, "range");
  EXPECT_FALSE(p.Matches(schema, 0));
  EXPECT_TRUE(p.Matches(schema, 1));
  EXPECT_TRUE(p.Matches(schema, 3));
  EXPECT_FALSE(p.Matches(schema, 4));
  EXPECT_EQ(p.MatchedAttributeValues(schema),
            (std::vector<uint32_t>{1, 2, 3}));
}

TEST(PredicateTest, NegationInvertsAndExposesBase) {
  StreamSchema schema = TestSchema();
  Predicate p = Predicate::Not(Predicate::Equality(0, 4, "Coffee"));
  EXPECT_TRUE(p.is_negation());
  EXPECT_FALSE(p.indexable());
  EXPECT_FALSE(p.Matches(schema, 4));
  EXPECT_TRUE(p.Matches(schema, 0));
  EXPECT_EQ(p.name(), "!Coffee");
  EXPECT_EQ(p.base().name(), "Coffee");
}

TEST(PredicateTest, AnyMatchesEverything) {
  StreamSchema schema = TestSchema();
  Predicate p = Predicate::Any();
  for (ValueId v = 0; v < schema.state_count(); ++v) {
    EXPECT_TRUE(p.Matches(schema, v));
  }
  EXPECT_FALSE(p.indexable());
}

TEST(PredicateTest, ValidationCatchesBadValues) {
  StreamSchema schema = TestSchema();
  EXPECT_FALSE(
      Predicate::Equality(0, 99, "bogus").ValidateAgainst(schema).ok());
  EXPECT_FALSE(Predicate::Equality(3, 0, "bogus").ValidateAgainst(schema).ok());
  EXPECT_FALSE(Predicate::Range(0, 4, 2, "empty").ValidateAgainst(schema).ok());
  EXPECT_FALSE(
      Predicate::In(0, {}, "empty").ValidateAgainst(schema).ok());
}

TEST(PredicateTest, MultiAttributePredicates) {
  StreamSchema schema;
  schema.AddAttribute("loc", {"A", "B", "C"});
  schema.AddAttribute("mode", {"idle", "busy"});
  Predicate on_b = Predicate::Equality(0, 1, "B");
  Predicate busy = Predicate::Equality(1, 1, "busy");
  ValueId b_busy = schema.EncodeState({1, 1});
  ValueId b_idle = schema.EncodeState({1, 0});
  ValueId c_busy = schema.EncodeState({2, 1});
  EXPECT_TRUE(on_b.Matches(schema, b_busy));
  EXPECT_TRUE(on_b.Matches(schema, b_idle));
  EXPECT_FALSE(on_b.Matches(schema, c_busy));
  EXPECT_TRUE(busy.Matches(schema, b_busy));
  EXPECT_FALSE(busy.Matches(schema, b_idle));
  EXPECT_TRUE(busy.Matches(schema, c_busy));
}

TEST(DimensionTableTest, LookupAndPredicate) {
  DimensionTable table("LocationType", 0);
  table.AddColumn("type", {"Corridor", "Corridor", "Corridor", "Office",
                           "CoffeeRoom", "Lounge"});
  auto ids = table.Lookup("type", "Corridor");
  ASSERT_TRUE(ids.ok());
  EXPECT_EQ(*ids, (std::vector<uint32_t>{0, 1, 2}));
  auto pred = table.MakePredicate("type", "CoffeeRoom");
  ASSERT_TRUE(pred.ok());
  StreamSchema schema = TestSchema();
  EXPECT_TRUE(pred->Matches(schema, 4));
  EXPECT_FALSE(pred->Matches(schema, 3));
  EXPECT_FALSE(table.Lookup("bogus", "x").ok());
  auto missing = table.MakePredicate("type", "Pool");
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST(RegularQueryTest, FixedVsVariableClassification) {
  StreamSchema schema = TestSchema();
  RegularQuery fixed = RegularQuery::Sequence(
      "f", {Predicate::Equality(0, 0, "H0"), Predicate::Equality(0, 3, "Office")});
  EXPECT_TRUE(fixed.fixed_length());

  Predicate coffee = Predicate::Equality(0, 4, "Coffee");
  std::vector<QueryLink> links;
  links.push_back(QueryLink{std::nullopt, Predicate::Equality(0, 0, "H0")});
  links.push_back(QueryLink{Predicate::Not(coffee), coffee});
  RegularQuery variable("v", links);
  EXPECT_FALSE(variable.fixed_length());
}

TEST(RegularQueryTest, CursorPredicatesUseBases) {
  Predicate coffee = Predicate::Equality(0, 4, "Coffee");
  Predicate hall = Predicate::Equality(0, 0, "H0");
  std::vector<QueryLink> links;
  links.push_back(QueryLink{std::nullopt, hall});
  links.push_back(QueryLink{Predicate::Not(coffee), coffee});
  RegularQuery query("q", links);
  auto cursors = query.CursorPredicates();
  ASSERT_EQ(cursors.size(), 3u);
  EXPECT_EQ(cursors[0]->name(), "H0");
  EXPECT_EQ(cursors[1]->name(), "Coffee");  // Primary.
  EXPECT_EQ(cursors[2]->name(), "Coffee");  // Base of the negated loop.
}

TEST(RegularQueryTest, ValidateRejectsBadQueries) {
  StreamSchema schema = TestSchema();
  RegularQuery empty("e", {});
  EXPECT_FALSE(empty.ValidateAgainst(schema).ok());
  RegularQuery any_primary(
      "a", {QueryLink{std::nullopt, Predicate::Any()}});
  EXPECT_FALSE(any_primary.ValidateAgainst(schema).ok());
  RegularQuery bad_value = RegularQuery::Sequence(
      "b", {Predicate::Equality(0, 77, "bogus")});
  EXPECT_FALSE(bad_value.ValidateAgainst(schema).ok());
}

TEST(RegularQueryTest, ToStringMatchesPaperSyntax) {
  Predicate coffee = Predicate::Equality(0, 4, "Coffee");
  std::vector<QueryLink> links;
  links.push_back(QueryLink{std::nullopt, Predicate::Equality(0, 0, "H0")});
  links.push_back(QueryLink{Predicate::Not(coffee), coffee});
  RegularQuery query("q", links);
  EXPECT_EQ(query.ToString(), "Q(H0, !Coffee*, Coffee)");
}

// ---------------------------------------------------------------------------
// QueryAutomaton
// ---------------------------------------------------------------------------

TEST(QueryAutomatonTest, FixedQueryAcceptsExactSequence) {
  StreamSchema schema = TestSchema();
  RegularQuery query = RegularQuery::Sequence(
      "f",
      {Predicate::Equality(0, 0, "H0"), Predicate::Equality(0, 3, "Office")});
  QueryAutomaton automaton(query, schema);

  int d = automaton.start_state();
  d = automaton.Transition(d, automaton.AtomOf(0));  // H0
  EXPECT_FALSE(automaton.IsAccepting(d));
  d = automaton.Transition(d, automaton.AtomOf(3));  // Office
  EXPECT_TRUE(automaton.IsAccepting(d));
  // Another Office does not re-accept without a preceding H0.
  d = automaton.Transition(d, automaton.AtomOf(3));
  EXPECT_FALSE(automaton.IsAccepting(d));
}

TEST(QueryAutomatonTest, RestartAllowsLaterMatches) {
  StreamSchema schema = TestSchema();
  RegularQuery query = RegularQuery::Sequence(
      "f",
      {Predicate::Equality(0, 0, "H0"), Predicate::Equality(0, 3, "Office")});
  QueryAutomaton automaton(query, schema);
  int d = automaton.start_state();
  for (ValueId v : {1u, 2u, 0u, 3u}) {  // noise, noise, H0, Office
    d = automaton.Transition(d, automaton.AtomOf(v));
  }
  EXPECT_TRUE(automaton.IsAccepting(d));
}

TEST(QueryAutomatonTest, KleeneWaitsThroughLoop) {
  StreamSchema schema = TestSchema();
  Predicate coffee = Predicate::Equality(0, 4, "Coffee");
  std::vector<QueryLink> links;
  links.push_back(QueryLink{std::nullopt, Predicate::Equality(0, 0, "H0")});
  links.push_back(QueryLink{Predicate::Not(coffee), coffee});
  RegularQuery query("v", links);
  QueryAutomaton automaton(query, schema);
  int d = automaton.start_state();
  d = automaton.Transition(d, automaton.AtomOf(0));  // H0
  d = automaton.Transition(d, automaton.AtomOf(1));  // wander (!Coffee)
  d = automaton.Transition(d, automaton.AtomOf(2));  // wander (!Coffee)
  EXPECT_FALSE(automaton.IsAccepting(d));
  d = automaton.Transition(d, automaton.AtomOf(4));  // Coffee
  EXPECT_TRUE(automaton.IsAccepting(d));
}

TEST(QueryAutomatonTest, FixedLinkDiesWithoutAdvance) {
  StreamSchema schema = TestSchema();
  RegularQuery query = RegularQuery::Sequence(
      "f",
      {Predicate::Equality(0, 0, "H0"), Predicate::Equality(0, 3, "Office")});
  QueryAutomaton automaton(query, schema);
  int d = automaton.start_state();
  d = automaton.Transition(d, automaton.AtomOf(0));  // H0: state 1 live.
  d = automaton.Transition(d, automaton.AtomOf(1));  // H1: state 1 dies.
  d = automaton.Transition(d, automaton.AtomOf(3));  // Office alone: no match.
  EXPECT_FALSE(automaton.IsAccepting(d));
}

TEST(QueryAutomatonTest, NullAtomAndIdempotence) {
  StreamSchema schema = TestSchema();
  Predicate coffee = Predicate::Equality(0, 4, "Coffee");
  std::vector<QueryLink> links;
  links.push_back(QueryLink{std::nullopt, Predicate::Equality(0, 0, "H0")});
  links.push_back(QueryLink{Predicate::Not(coffee), coffee});
  RegularQuery query("v", links);
  QueryAutomaton automaton(query, schema);

  // Null atom: negated loop bit set, positive primary bits clear.
  // A state matching neither H0 nor Coffee has exactly the null atom.
  EXPECT_EQ(automaton.AtomOf(1), automaton.null_atom());
  EXPECT_EQ(automaton.AtomOf(2), automaton.null_atom());
  EXPECT_NE(automaton.AtomOf(0), automaton.null_atom());
  EXPECT_NE(automaton.AtomOf(4), automaton.null_atom());

  // Idempotence of the null transition on every reachable state.
  for (int d = 0; d < automaton.num_dfa_states(); ++d) {
    int once = automaton.NullTransition(d);
    EXPECT_EQ(automaton.NullTransition(once), once);
  }
}

TEST(QueryAutomatonTest, PositiveLoopWaits) {
  StreamSchema schema = TestSchema();
  // Q(H0, (Office*, Coffee)): wait inside the office, then coffee.
  std::vector<QueryLink> links;
  links.push_back(QueryLink{std::nullopt, Predicate::Equality(0, 0, "H0")});
  links.push_back(
      QueryLink{Predicate::Equality(0, 3, "Office"),
                Predicate::Equality(0, 4, "Coffee")});
  RegularQuery query("p", links);
  QueryAutomaton automaton(query, schema);
  int d = automaton.start_state();
  d = automaton.Transition(d, automaton.AtomOf(0));  // H0.
  d = automaton.Transition(d, automaton.AtomOf(3));  // Office: waits.
  d = automaton.Transition(d, automaton.AtomOf(3));  // Office: waits.
  d = automaton.Transition(d, automaton.AtomOf(4));  // Coffee: accept.
  EXPECT_TRUE(automaton.IsAccepting(d));
  // But breaking the loop kills the wait.
  d = automaton.start_state();
  d = automaton.Transition(d, automaton.AtomOf(0));  // H0.
  d = automaton.Transition(d, automaton.AtomOf(1));  // H1: loop broken.
  d = automaton.Transition(d, automaton.AtomOf(4));  // Coffee: no match.
  EXPECT_FALSE(automaton.IsAccepting(d));
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

TEST(ParserTest, ParsesFixedQuery) {
  StreamSchema schema = TestSchema();
  SchemaResolver resolver(&schema);
  auto query = ParseQuery("Q(H0, Office)", resolver);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  EXPECT_EQ(query->num_links(), 2u);
  EXPECT_TRUE(query->fixed_length());
  EXPECT_EQ(query->link(0).primary.name(), "H0");
  EXPECT_EQ(query->link(1).primary.name(), "Office");
}

TEST(ParserTest, ParsesKleeneLink) {
  StreamSchema schema = TestSchema();
  SchemaResolver resolver(&schema);
  auto query = ParseQuery("Q(H0, (!Coffee*, Coffee))", resolver);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  EXPECT_EQ(query->num_links(), 2u);
  EXPECT_FALSE(query->fixed_length());
  ASSERT_TRUE(query->link(1).is_kleene());
  EXPECT_TRUE(query->link(1).loop->is_negation());
  EXPECT_EQ(query->ToString(), "Q(H0, !Coffee*, Coffee)");
}

TEST(ParserTest, ResolvesDimensionTableNames) {
  StreamSchema schema = TestSchema();
  DimensionTable table("LocationType", 0);
  table.AddColumn("type", {"Corridor", "Corridor", "Corridor", "Office",
                           "CoffeeRoom", "Lounge"});
  SchemaResolver resolver(&schema);
  resolver.AddDimension(&table, "type");
  auto query = ParseQuery("Q(Corridor, (!CoffeeRoom*, CoffeeRoom))", resolver);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  EXPECT_TRUE(query->link(0).primary.Matches(schema, 1));
  EXPECT_FALSE(query->link(0).primary.Matches(schema, 3));
  EXPECT_TRUE(query->link(1).primary.Matches(schema, 4));
}

TEST(ParserTest, RejectsMalformedQueries) {
  StreamSchema schema = TestSchema();
  SchemaResolver resolver(&schema);
  EXPECT_FALSE(ParseQuery("", resolver).ok());
  EXPECT_FALSE(ParseQuery("Q()", resolver).ok());
  EXPECT_FALSE(ParseQuery("Q(H0", resolver).ok());
  EXPECT_FALSE(ParseQuery("Q(H0,)", resolver).ok());
  EXPECT_FALSE(ParseQuery("Q(Narnia)", resolver).ok());
  EXPECT_FALSE(ParseQuery("Q(H0) trailing", resolver).ok());
  EXPECT_FALSE(ParseQuery("Q((H0, Office))", resolver).ok());  // Missing *.
}

}  // namespace
}  // namespace caldera
