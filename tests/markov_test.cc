#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/encoding.h"
#include "common/rng.h"
#include "markov/cpt.h"
#include "markov/distribution.h"
#include "markov/schema.h"
#include "markov/stream.h"
#include "rfid/workload.h"
#include "test_util.h"

namespace caldera {
namespace {

TEST(DistributionTest, FromPairsSortsAndMerges) {
  Distribution d = Distribution::FromPairs({{5, 0.2}, {1, 0.3}, {5, 0.1}});
  ASSERT_EQ(d.support_size(), 2u);
  EXPECT_EQ(d.entries()[0].value, 1u);
  EXPECT_DOUBLE_EQ(d.entries()[0].prob, 0.3);
  EXPECT_EQ(d.entries()[1].value, 5u);
  EXPECT_DOUBLE_EQ(d.entries()[1].prob, 0.30000000000000004);
}

TEST(DistributionTest, ProbabilityOfAndMass) {
  Distribution d = Distribution::FromPairs({{0, 0.5}, {3, 0.25}, {9, 0.25}});
  EXPECT_DOUBLE_EQ(d.ProbabilityOf(0), 0.5);
  EXPECT_DOUBLE_EQ(d.ProbabilityOf(3), 0.25);
  EXPECT_DOUBLE_EQ(d.ProbabilityOf(1), 0.0);
  EXPECT_DOUBLE_EQ(d.Mass(), 1.0);
  EXPECT_TRUE(d.IsNormalized());
}

TEST(DistributionTest, NormalizeAndTruncate) {
  Distribution d = Distribution::FromPairs({{0, 2.0}, {1, 1.0}, {2, 0.001}});
  d.Normalize();
  EXPECT_TRUE(d.IsNormalized());
  d.Truncate(0.01);
  EXPECT_EQ(d.support_size(), 2u);
  EXPECT_TRUE(d.IsNormalized());
  EXPECT_NEAR(d.ProbabilityOf(0), 2.0 / 3.0, 1e-9);
}

TEST(DistributionTest, AddKeepsOrder) {
  Distribution d;
  d.Add(5, 0.5);
  d.Add(1, 0.2);
  d.Add(5, 0.1);
  d.Add(3, 0.2);
  ASSERT_EQ(d.support_size(), 3u);
  EXPECT_EQ(d.entries()[0].value, 1u);
  EXPECT_EQ(d.entries()[1].value, 3u);
  EXPECT_EQ(d.entries()[2].value, 5u);
  EXPECT_NEAR(d.ProbabilityOf(5), 0.6, 1e-12);
}

TEST(DistributionTest, MassWhere) {
  Distribution d = Distribution::FromPairs({{0, 0.1}, {1, 0.2}, {2, 0.7}});
  EXPECT_DOUBLE_EQ(d.MassWhere([](ValueId v) { return v >= 1; }), 0.9);
  EXPECT_DOUBLE_EQ(d.MassWhere([](ValueId v) { return v == 42; }), 0.0);
}

TEST(DistributionTest, SerializationRoundTrip) {
  Distribution d = Distribution::FromPairs({{0, 0.125}, {7, 0.5}, {9, 0.375}});
  std::string buf;
  d.AppendTo(&buf);
  size_t offset = 0;
  Distribution parsed;
  ASSERT_TRUE(Distribution::Parse(buf, &offset, 10, &parsed).ok());
  EXPECT_EQ(parsed, d);
  EXPECT_EQ(offset, buf.size());
}

TEST(DistributionTest, ParseRejectsTruncation) {
  Distribution d = Distribution::FromPairs({{1, 1.0}});
  std::string buf;
  d.AppendTo(&buf);
  buf.resize(buf.size() - 1);
  size_t offset = 0;
  Distribution parsed;
  EXPECT_FALSE(Distribution::Parse(buf, &offset, 2, &parsed).ok());
  EXPECT_TRUE(parsed.empty());
}

TEST(DistributionTest, ParseRejectsUnsortedEntries) {
  std::string buf;
  PutFixed32(2, &buf);
  PutFixed32(5, &buf);
  PutDouble(0.5, &buf);
  PutFixed32(3, &buf);  // Out of order.
  PutDouble(0.5, &buf);
  size_t offset = 0;
  Distribution parsed;
  EXPECT_EQ(Distribution::Parse(buf, &offset, 8, &parsed).code(),
            StatusCode::kCorruption);
}

TEST(DistributionTest, ParseRejectsIdsOutsideDomain) {
  Distribution d = Distribution::FromPairs({{2, 0.5}, {7, 0.5}});
  std::string buf;
  d.AppendTo(&buf);
  size_t offset = 0;
  Distribution parsed = Distribution::FromPairs({{0, 1.0}});
  EXPECT_EQ(Distribution::Parse(buf, &offset, 7, &parsed).code(),
            StatusCode::kCorruption);
  EXPECT_TRUE(parsed.empty());
  offset = 0;
  ASSERT_TRUE(Distribution::Parse(buf, &offset, 8, &parsed).ok());
  EXPECT_EQ(parsed, d);
}

TEST(CptTest, SetRowFindRowProbability) {
  Cpt cpt;
  cpt.SetRow(3, {{1, 0.25}, {0, 0.75}});
  cpt.SetRow(1, {{1, 1.0}});
  ASSERT_TRUE(cpt.FindRow(3).has_value());
  EXPECT_FALSE(cpt.FindRow(2).has_value());
  EXPECT_DOUBLE_EQ(cpt.Probability(3, 0), 0.75);
  EXPECT_DOUBLE_EQ(cpt.Probability(3, 1), 0.25);
  EXPECT_DOUBLE_EQ(cpt.Probability(3, 2), 0.0);
  EXPECT_DOUBLE_EQ(cpt.Probability(9, 0), 0.0);
  EXPECT_EQ(cpt.nnz(), 3u);
}

TEST(CptTest, PropagateMatchesHandComputation) {
  // The paper's wall example: Bob in O1 or O2 with prob 0.5 each; no move
  // from O1 to O2 is possible.
  Cpt cpt;
  cpt.SetRow(0, {{0, 1.0}});           // O1 stays in O1.
  cpt.SetRow(1, {{0, 0.5}, {1, 0.5}}); // O2 may move to O1.
  Distribution in = Distribution::FromPairs({{0, 0.5}, {1, 0.5}});
  Distribution out = cpt.Propagate(in);
  EXPECT_DOUBLE_EQ(out.ProbabilityOf(0), 0.75);
  EXPECT_DOUBLE_EQ(out.ProbabilityOf(1), 0.25);
  // With correlations, P(O1 then O2) = 0.5 * 0 = 0, not 0.25.
  EXPECT_DOUBLE_EQ(cpt.Probability(0, 1), 0.0);
}

TEST(CptTest, PropagateDropsUnsupportedSources) {
  Cpt cpt;
  cpt.SetRow(0, {{0, 1.0}});
  Distribution in = Distribution::FromPairs({{0, 0.5}, {1, 0.5}});
  Distribution out = cpt.Propagate(in);
  EXPECT_DOUBLE_EQ(out.Mass(), 0.5);
}

TEST(CptTest, ValidateStochastic) {
  Cpt good;
  good.SetRow(0, {{0, 0.5}, {1, 0.5}});
  EXPECT_TRUE(good.ValidateStochastic().ok());
  Cpt bad;
  bad.SetRow(0, {{0, 0.5}, {1, 0.4}});
  EXPECT_EQ(bad.ValidateStochastic().code(), StatusCode::kCorruption);
  Cpt negative;
  negative.SetRow(0, {{0, 1.5}, {1, -0.5}});
  EXPECT_EQ(negative.ValidateStochastic().code(), StatusCode::kCorruption);
  // NaN compares false both ways, so neither the sign test nor the mass
  // test catches it; a non-finite entry fails on its own.
  for (double bad : {std::nan(""), HUGE_VAL}) {
    Cpt non_finite;
    non_finite.SetRow(0, {{0, bad}, {1, 1.0}});
    EXPECT_EQ(non_finite.ValidateStochastic().code(), StatusCode::kCorruption)
        << bad;
  }
}

TEST(CptTest, SerializationRoundTrip) {
  Cpt cpt;
  cpt.SetRow(2, {{0, 0.25}, {5, 0.75}});
  cpt.SetRow(7, {{7, 1.0}});
  std::string buf;
  cpt.AppendTo(&buf);
  size_t offset = 0;
  Cpt parsed;
  ASSERT_TRUE(Cpt::Parse(buf, &offset, /*domain=*/8, &parsed).ok());
  EXPECT_EQ(parsed, cpt);
  EXPECT_EQ(offset, buf.size());
}

TEST(CptTest, ComposeMatchesMatrixProduct) {
  // Random 6x6 stochastic matrices; compare sparse composition against a
  // dense reference product.
  const uint32_t n = 6;
  Rng rng(77);
  auto random_cpt = [&](Cpt* cpt, std::vector<std::vector<double>>* dense) {
    dense->assign(n, std::vector<double>(n, 0.0));
    for (uint32_t i = 0; i < n; ++i) {
      double sum = 0;
      std::vector<Cpt::RowEntry> row;
      for (uint32_t j = 0; j < n; ++j) {
        if (rng.NextBool(0.4)) {
          double v = rng.NextDouble() + 0.01;
          (*dense)[i][j] = v;
          sum += v;
        }
      }
      if (sum == 0) {
        (*dense)[i][i] = 1.0;
        sum = 1.0;
      }
      for (uint32_t j = 0; j < n; ++j) {
        (*dense)[i][j] /= sum;
        if ((*dense)[i][j] > 0) row.push_back({j, (*dense)[i][j]});
      }
      cpt->SetRow(i, std::move(row));
    }
  };
  Cpt a, b;
  std::vector<std::vector<double>> da, db;
  random_cpt(&a, &da);
  random_cpt(&b, &db);
  Cpt ab = ComposeCpts(a, b);
  EXPECT_TRUE(ab.ValidateStochastic(1e-9).ok());
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = 0; j < n; ++j) {
      double expected = 0;
      for (uint32_t k = 0; k < n; ++k) expected += da[i][k] * db[k][j];
      EXPECT_NEAR(ab.Probability(i, j), expected, 1e-12);
    }
  }
}

TEST(CptTest, ComposeIsAssociative) {
  const uint32_t n = 5;
  Rng rng(99);
  auto random_cpt = [&] {
    Cpt cpt;
    for (uint32_t i = 0; i < n; ++i) {
      std::vector<Cpt::RowEntry> row;
      double sum = 0;
      for (uint32_t j = 0; j < n; ++j) {
        double v = rng.NextDouble();
        row.push_back({j, v});
        sum += v;
      }
      for (auto& e : row) e.prob /= sum;
      cpt.SetRow(i, std::move(row));
    }
    return cpt;
  };
  Cpt a = random_cpt(), b = random_cpt(), c = random_cpt();
  Cpt left = ComposeCpts(ComposeCpts(a, b), c);
  Cpt right = ComposeCpts(a, ComposeCpts(b, c));
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = 0; j < n; ++j) {
      EXPECT_NEAR(left.Probability(i, j), right.Probability(i, j), 1e-12);
    }
  }
}

// ---------------------------------------------------------------------------
// Row builder (SetRow over the CSR arrays) and the decoder.

TEST(CptBuilderTest, SortsUnsortedInput) {
  Cpt cpt;
  cpt.SetRow(4, {{9, 0.5}, {2, 0.25}, {5, 0.25}});
  EXPECT_EQ(cpt.dsts(), (std::vector<ValueId>{2, 5, 9}));
  EXPECT_EQ(cpt.probs(), (std::vector<double>{0.25, 0.25, 0.5}));
  EXPECT_EQ(cpt.dst_begin(), 2u);
  EXPECT_EQ(cpt.dst_end(), 10u);
}

TEST(CptBuilderTest, MergesDuplicateDestinations) {
  Cpt cpt;
  cpt.SetRow(0, {{3, 0.2}, {1, 0.3}, {3, 0.1}, {1, 0.4}});
  ASSERT_EQ(cpt.nnz(), 2u);
  EXPECT_EQ(cpt.dsts(), (std::vector<ValueId>{1, 3}));
  // Summed after sorting by destination, as SetRow always has.
  EXPECT_DOUBLE_EQ(cpt.Probability(0, 1), 0.3 + 0.4);
  EXPECT_DOUBLE_EQ(cpt.Probability(0, 3), 0.2 + 0.1);
}

TEST(CptBuilderTest, ReplacingARowKeepsOrderAndBounds) {
  Cpt cpt;
  cpt.SetRow(1, {{0, 1.0}});
  cpt.SetRow(5, {{7, 0.5}, {9, 0.5}});
  cpt.SetRow(3, {{4, 1.0}});  // Out of order: lands between 1 and 5.
  EXPECT_EQ(cpt.srcs(), (std::vector<ValueId>{1, 3, 5}));
  EXPECT_EQ(cpt.offsets(), (std::vector<uint32_t>{0, 1, 2, 4}));
  EXPECT_EQ(cpt.dst_end(), 10u);

  // Replace the row holding the largest destination with a shorter one:
  // later offsets shift and the destination bound shrinks.
  cpt.SetRow(5, {{2, 1.0}});
  EXPECT_EQ(cpt.srcs(), (std::vector<ValueId>{1, 3, 5}));
  EXPECT_EQ(cpt.offsets(), (std::vector<uint32_t>{0, 1, 2, 3}));
  EXPECT_EQ(cpt.dsts(), (std::vector<ValueId>{0, 4, 2}));
  EXPECT_EQ(cpt.dst_begin(), 0u);
  EXPECT_EQ(cpt.dst_end(), 5u);

  // The same table built in ascending order compares equal.
  Cpt ordered;
  ordered.SetRow(1, {{0, 1.0}});
  ordered.SetRow(3, {{4, 1.0}});
  ordered.SetRow(5, {{2, 1.0}});
  EXPECT_EQ(cpt, ordered);
}

TEST(CptBuilderTest, EmptyTable) {
  Cpt empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.nnz(), 0u);
  EXPECT_FALSE(empty.FindRow(0).has_value());
  EXPECT_EQ(empty.Probability(0, 0), 0.0);
  std::string bytes;
  empty.AppendTo(&bytes);
  EXPECT_EQ(bytes, std::string(4, '\0'));

  // A cleared table and an empty decode both equal the default one.
  Cpt cleared;
  cleared.SetRow(2, {{2, 1.0}});
  cleared.Clear();
  EXPECT_EQ(cleared, empty);
  size_t offset = 0;
  Cpt parsed;
  parsed.SetRow(1, {{1, 1.0}});
  ASSERT_TRUE(Cpt::Parse(bytes, &offset, 4, &parsed).ok());
  EXPECT_EQ(parsed, empty);

  // An empty row is a row.
  Cpt one_empty_row;
  one_empty_row.SetRow(3, {});
  EXPECT_EQ(one_empty_row.num_rows(), 1u);
  EXPECT_EQ(one_empty_row.FindRow(3)->size(), 0u);
  EXPECT_EQ(one_empty_row.dst_end(), 0u);
}

TEST(CptBuilderTest, CopyAndMoveCompareEqual) {
  Cpt a;
  a.SetRow(0, {{0, 0.5}, {1, 0.5}});
  a.SetRow(4, {{3, 1.0}});
  Cpt copy = a;
  EXPECT_EQ(copy, a);
  Cpt assigned;
  assigned.SetRow(9, {{9, 1.0}});
  assigned = a;
  EXPECT_EQ(assigned, a);
  Cpt moved = std::move(copy);
  EXPECT_EQ(moved, a);
  moved.SetRow(1, {{0, 1.0}});
  EXPECT_FALSE(moved == a);
  EXPECT_EQ(a.num_rows(), 2u) << "copies must not share storage";
}

TEST(CptBuilderTest, ParseAppendToRoundTripIsByteIdentical) {
  RoutineSpec spec;
  spec.length = 300;
  spec.paper_building = false;
  Result<RoutineWorkload> w = MakeRoutineStream(spec);
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  const uint32_t domain = w->schema.state_count();
  // One Cpt decodes every step in turn, as the scan does.
  Cpt decoded;
  for (uint64_t t = 1; t < w->stream.length(); ++t) {
    std::string bytes;
    w->stream.transition(t).AppendTo(&bytes);
    size_t offset = 0;
    ASSERT_TRUE(Cpt::Parse(bytes, &offset, domain, &decoded).ok()) << t;
    EXPECT_EQ(offset, bytes.size());
    EXPECT_EQ(decoded, w->stream.transition(t)) << t;
    std::string again;
    decoded.AppendTo(&again);
    ASSERT_EQ(again, bytes) << t;
  }
}

TEST(CptTest, ParseReusesCapacity) {
  Cpt big;
  for (uint32_t src = 0; src < 8; ++src) {
    big.SetRow(src, {{src, 0.5}, {(src + 1) % 8, 0.5}});
  }
  Cpt small;
  small.SetRow(2, {{3, 1.0}});
  std::string big_bytes, small_bytes;
  big.AppendTo(&big_bytes);
  small.AppendTo(&small_bytes);
  Cpt out;
  size_t offset = 0;
  ASSERT_TRUE(Cpt::Parse(big_bytes, &offset, 8, &out).ok());
  const ValueId* dsts = out.dsts().data();
  const double* probs = out.probs().data();
  offset = 0;
  ASSERT_TRUE(Cpt::Parse(small_bytes, &offset, 8, &out).ok());
  EXPECT_EQ(out, small);
  EXPECT_EQ(out.dsts().data(), dsts);
  EXPECT_EQ(out.probs().data(), probs);
}

TEST(CptTest, ParseRejectsIdsOutsideDomain) {
  auto parse = [](ValueId src, ValueId dst, uint32_t domain) {
    std::string bytes;
    PutFixed32(1, &bytes);  // One row...
    PutFixed32(src, &bytes);
    PutFixed32(1, &bytes);  // ...with one entry.
    PutFixed32(dst, &bytes);
    PutDouble(1.0, &bytes);
    size_t offset = 0;
    Cpt out;
    Status s = Cpt::Parse(bytes, &offset, domain, &out);
    if (!s.ok()) {
      EXPECT_TRUE(out.empty()) << "a failed decode leaves it empty";
    }
    return s.code();
  };
  EXPECT_EQ(parse(3, 3, 4), StatusCode::kOk);
  EXPECT_EQ(parse(4, 0, 4), StatusCode::kCorruption);
  EXPECT_EQ(parse(0, 4, 4), StatusCode::kCorruption);
  // Unchecked, this dst would size the kernels' dense scratch to 4G
  // doubles, and 0xFFFFFFFF would wrap the destination bound to 0.
  EXPECT_EQ(parse(0, 0xF0000000u, 352), StatusCode::kCorruption);
  EXPECT_EQ(parse(0, 0xFFFFFFFFu, 352), StatusCode::kCorruption);
  EXPECT_EQ(parse(0xFFFFFFFFu, 0, 352), StatusCode::kCorruption);
}

TEST(SchemaTest, SingleAttribute) {
  StreamSchema schema = SingleAttributeSchema("loc", {"A", "B", "C"});
  EXPECT_EQ(schema.num_attributes(), 1u);
  EXPECT_EQ(schema.state_count(), 3u);
  EXPECT_EQ(schema.AttributeValue(2, 0), 2u);
  auto idx = schema.AttributeIndex("loc");
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(*idx, 0u);
  auto v = schema.ValueOf(0, "C");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 2u);
  EXPECT_FALSE(schema.ValueOf(0, "Z").ok());
}

TEST(SchemaTest, MultiAttributeMixedRadix) {
  StreamSchema schema;
  schema.AddAttribute("loc", {"A", "B", "C"});
  schema.AddAttribute("state", {"idle", "busy"});
  EXPECT_EQ(schema.state_count(), 6u);
  for (uint32_t loc = 0; loc < 3; ++loc) {
    for (uint32_t st = 0; st < 2; ++st) {
      ValueId encoded = schema.EncodeState({loc, st});
      EXPECT_LT(encoded, 6u);
      EXPECT_EQ(schema.AttributeValue(encoded, 0), loc);
      EXPECT_EQ(schema.AttributeValue(encoded, 1), st);
    }
  }
}

TEST(SchemaTest, SerializationRoundTrip) {
  StreamSchema schema;
  schema.AddAttribute("loc", {"A", "B"});
  schema.AddAttribute("mode", {"x", "y", "z"});
  std::string buf;
  schema.AppendTo(&buf);
  size_t offset = 0;
  auto parsed = StreamSchema::Parse(buf, &offset);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, schema);
}

using test::MakeValidStream;

TEST(StreamTest, ValidStreamValidates) {
  MarkovianStream stream = MakeValidStream(50, 8, 3);
  EXPECT_TRUE(stream.Validate().ok());
  EXPECT_EQ(stream.length(), 50u);
}

TEST(StreamTest, ValidateCatchesInconsistentMarginal) {
  MarkovianStream stream = MakeValidStream(10, 4, 5);
  *stream.mutable_marginal(5) = Distribution::Point(0);
  EXPECT_EQ(stream.Validate().code(), StatusCode::kCorruption);
}

TEST(StreamTest, ValidateCatchesNonStochasticCpt) {
  MarkovianStream stream = MakeValidStream(10, 4, 6);
  Cpt* cpt = stream.mutable_transition(3);
  Cpt broken;
  for (size_t r = 0; r < cpt->num_rows(); ++r) {
    const Cpt::RowView row = cpt->row(r);
    std::vector<Cpt::RowEntry> entries;
    for (size_t j = 0; j < row.size(); ++j) {
      entries.push_back({row.dsts[j], row.probs[j] * 0.5});
    }
    broken.SetRow(row.src, std::move(entries));
  }
  *cpt = broken;
  EXPECT_EQ(stream.Validate().code(), StatusCode::kCorruption);
}

TEST(StreamTest, ValidateCatchesNanCptRow) {
  MarkovianStream stream = MakeValidStream(10, 4, 6);
  Cpt* cpt = stream.mutable_transition(3);
  const Cpt::RowView row = cpt->row(0);
  std::vector<Cpt::RowEntry> entries = {{row.dsts[0], std::nan("")}};
  for (size_t j = 0; j < row.size(); ++j) {
    entries.push_back({row.dsts[j], row.probs[j]});
  }
  cpt->SetRow(row.src, std::move(entries));
  EXPECT_EQ(stream.Validate().code(), StatusCode::kCorruption);
}

TEST(StreamTest, ValidateCatchesMissingRow) {
  MarkovianStream stream = MakeValidStream(10, 4, 7);
  *stream.mutable_transition(4) = Cpt();  // No rows at all.
  EXPECT_EQ(stream.Validate().code(), StatusCode::kCorruption);
}

TEST(StreamTest, RelabelValuesPreservesValidity) {
  MarkovianStream stream = MakeValidStream(30, 6, 8);
  std::vector<double> before;
  for (uint64_t t = 0; t < stream.length(); ++t) {
    before.push_back(stream.marginal(t).ProbabilityOf(2));
  }
  std::vector<ValueId> perm = {0, 1, 5, 3, 4, 2};  // Swap 2 <-> 5.
  stream.RelabelValues(perm);
  EXPECT_TRUE(stream.Validate().ok());
  for (uint64_t t = 0; t < stream.length(); ++t) {
    EXPECT_DOUBLE_EQ(stream.marginal(t).ProbabilityOf(5), before[t]);
  }
}

TEST(StreamTest, ConcatenateWithBridge) {
  MarkovianStream a = MakeValidStream(20, 5, 10);
  MarkovianStream b = MakeValidStream(15, 5, 11);
  // Independence bridge.
  Cpt bridge;
  std::vector<Cpt::RowEntry> to;
  for (const Distribution::Entry& e : b.marginal(0).entries()) {
    to.push_back({e.value, e.prob});
  }
  for (const Distribution::Entry& e : a.marginal(19).entries()) {
    bridge.SetRow(e.value, to);
  }
  ASSERT_TRUE(a.Concatenate(b, bridge).ok());
  EXPECT_EQ(a.length(), 35u);
  EXPECT_TRUE(a.Validate().ok());
}

TEST(StreamTest, ConcatenateRejectsMissingBridgeRow) {
  MarkovianStream a = MakeValidStream(5, 4, 12);
  MarkovianStream b = MakeValidStream(5, 4, 13);
  EXPECT_EQ(a.Concatenate(b, Cpt()).code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace caldera
