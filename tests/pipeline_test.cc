// Differential tests for the cursor-based execution pipeline: the file
// keeps compact copies of the five pre-refactor monolithic access methods
// (the seed implementations) and asserts that the pipeline produces
// BIT-IDENTICAL signals and matching core stats, also under fault
// injection. Plus regression tests for the planner edge cases and the
// EXPLAIN plumbing that shipped with the pipeline.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "caldera/cursor.h"
#include "caldera/executor.h"
#include "caldera/planner.h"
#include "caldera/system.h"
#include "common/rng.h"
#include "index/btp_index.h"
#include "reg/reg_operator.h"
#include "storage/fault_injection_file.h"
#include "test_util.h"

namespace caldera {
namespace {

// ---------------------------------------------------------------------------
// Legacy reference implementations (verbatim logic of the pre-pipeline
// monolithic methods). Deliberately NOT refactored to share code with the
// pipeline: they are the independent implementation the differential tests
// compare against.
// ---------------------------------------------------------------------------

Result<QueryResult> LegacyScan(ArchivedStream* archived,
                               const RegularQuery& query) {
  CALDERA_RETURN_IF_ERROR(query.ValidateAgainst(archived->schema()));
  StoredStream* stream = archived->stream();
  if (stream->length() == 0) {
    return Status::FailedPrecondition("empty stream");
  }
  archived->ResetStats();
  QueryResult result;
  result.method = AccessMethodKind::kScan;
  RegOperator reg(query, archived->schema());
  Distribution marginal;
  CALDERA_RETURN_IF_ERROR(stream->ReadMarginal(0, &marginal));
  result.signal.push_back({0, reg.Initialize(marginal)});
  Cpt transition;
  for (uint64_t t = 1; t < stream->length(); ++t) {
    CALDERA_RETURN_IF_ERROR(stream->ReadTransition(t, &transition));
    result.signal.push_back({t, reg.Update(transition)});
  }
  result.stats.reg_updates = reg.num_updates();
  result.stats.relevant_timesteps = stream->length();
  result.stats.intervals = 1;
  return result;
}

Result<QueryResult> LegacyBTree(ArchivedStream* archived,
                                const RegularQuery& query) {
  CALDERA_RETURN_IF_ERROR(query.ValidateAgainst(archived->schema()));
  if (!query.fixed_length()) {
    return Status::FailedPrecondition("fixed-length only");
  }
  StoredStream* stream = archived->stream();
  const uint64_t n = query.num_links();
  if (stream->length() < n) {
    QueryResult empty;
    empty.method = AccessMethodKind::kBTree;
    return empty;
  }
  archived->ResetStats();
  std::vector<PredicateCursor> cursors;
  std::vector<uint64_t> offsets;
  for (size_t i = 0; i < query.num_links(); ++i) {
    const Predicate& primary = query.link(i).primary;
    if (!primary.indexable()) continue;
    CALDERA_ASSIGN_OR_RETURN(PredicateCursor cursor,
                             MakePredicateCursor(archived, primary));
    cursors.push_back(std::move(cursor));
    offsets.push_back(i);
  }
  if (cursors.empty()) {
    return Status::FailedPrecondition("no indexable link");
  }
  QueryResult result;
  result.method = AccessMethodKind::kBTree;
  RegOperator reg(query, archived->schema());
  IntervalIntersector intersector(std::move(cursors), std::move(offsets));
  IntervalMerger merger(n);
  uint64_t reg_updates = 0;

  auto run_interval = [&](IntervalMerger::Interval iv) -> Status {
    if (iv.first >= stream->length()) return Status::Ok();
    iv.last = std::min<uint64_t>(iv.last, stream->length() - 1);
    reg.Reset();
    Distribution marginal;
    CALDERA_RETURN_IF_ERROR(stream->ReadMarginal(iv.first, &marginal));
    result.signal.push_back({iv.first, reg.Initialize(marginal)});
    Cpt transition;
    for (uint64_t t = iv.first + 1; t <= iv.last; ++t) {
      CALDERA_RETURN_IF_ERROR(stream->ReadTransition(t, &transition));
      result.signal.push_back({t, reg.Update(transition)});
    }
    reg_updates += reg.num_updates();
    ++result.stats.intervals;
    return Status::Ok();
  };

  for (;;) {
    CALDERA_ASSIGN_OR_RETURN(std::optional<uint64_t> start,
                             intersector.Next());
    if (!start.has_value()) break;
    if (*start + n > stream->length()) break;
    ++result.stats.relevant_timesteps;
    if (std::optional<IntervalMerger::Interval> done = merger.Add(*start)) {
      CALDERA_RETURN_IF_ERROR(run_interval(*done));
    }
  }
  if (std::optional<IntervalMerger::Interval> done = merger.Flush()) {
    CALDERA_RETURN_IF_ERROR(run_interval(*done));
  }
  result.stats.reg_updates = reg_updates;
  return result;
}

Result<QueryResult> LegacyMcOrSemi(ArchivedStream* archived,
                                   const RegularQuery& query, bool exact) {
  CALDERA_RETURN_IF_ERROR(query.ValidateAgainst(archived->schema()));
  StoredStream* stream = archived->stream();
  McIndex* mc = archived->mc();
  if (exact && mc == nullptr) {
    return Status::FailedPrecondition("no MC index");
  }
  archived->ResetStats();
  std::vector<PredicateCursor> cursors;
  for (const Predicate* pred : query.CursorPredicates()) {
    CALDERA_ASSIGN_OR_RETURN(PredicateCursor cursor,
                             MakePredicateCursor(archived, *pred));
    cursors.push_back(std::move(cursor));
  }
  if (cursors.empty()) {
    return Status::FailedPrecondition("no indexable predicate bases");
  }
  QueryResult result;
  result.method =
      exact ? AccessMethodKind::kMcIndex : AccessMethodKind::kSemiIndependent;
  RegOperator reg(query, archived->schema());
  PredicateCursor relevant = PredicateCursor::Union(std::move(cursors));
  Distribution marginal;
  Cpt transition;
  uint64_t t_prev = 0;
  while (relevant.valid()) {
    uint64_t t = relevant.time();
    ++result.stats.relevant_timesteps;
    if (!reg.initialized()) {
      CALDERA_RETURN_IF_ERROR(stream->ReadMarginal(t, &marginal));
      result.signal.push_back({t, reg.Initialize(marginal)});
    } else if (t == t_prev + 1) {
      CALDERA_RETURN_IF_ERROR(stream->ReadTransition(t, &transition));
      result.signal.push_back({t, reg.Update(transition)});
    } else if (exact) {
      CALDERA_ASSIGN_OR_RETURN(std::shared_ptr<const Cpt> span,
                               mc->GetSpanCpt(t_prev, t));
      result.signal.push_back({t, reg.UpdateSpanning(*span, t - t_prev)});
    } else {
      CALDERA_RETURN_IF_ERROR(stream->ReadMarginal(t, &marginal));
      result.signal.push_back({t, reg.UpdateIndependent(marginal)});
    }
    t_prev = t;
    CALDERA_RETURN_IF_ERROR(relevant.Next());
  }
  result.stats.reg_updates = reg.num_updates();
  result.stats.intervals = result.stats.relevant_timesteps;
  return result;
}

constexpr size_t kUnbounded = SIZE_MAX;

class LegacyBestMatches {
 public:
  LegacyBestMatches(size_t k, double threshold)
      : k_(k), threshold_(threshold) {}
  double Floor() const {
    double kth = (k_ != kUnbounded && matches_.size() >= k_)
                     ? matches_.back().prob
                     : 0.0;
    return std::max(threshold_, kth);
  }
  bool CanStop(double unseen_bound) const {
    double floor = Floor();
    return floor > 0.0 && unseen_bound <= floor;
  }
  void Evaluate(uint64_t time, double prob) {
    if (prob <= threshold_ || prob <= 0.0) return;
    TimestepProbability entry{time, prob};
    auto pos = std::lower_bound(
        matches_.begin(), matches_.end(), entry,
        [](const TimestepProbability& a, const TimestepProbability& b) {
          if (a.prob != b.prob) return a.prob > b.prob;
          return a.time < b.time;
        });
    matches_.insert(pos, entry);
    if (k_ != kUnbounded && matches_.size() > k_) matches_.pop_back();
  }
  QuerySignal Take() { return std::move(matches_); }

 private:
  size_t k_;
  double threshold_;
  QuerySignal matches_;
};

Result<QueryResult> LegacyTaWalk(ArchivedStream* archived,
                                 const RegularQuery& query, size_t k,
                                 double threshold) {
  CALDERA_RETURN_IF_ERROR(query.ValidateAgainst(archived->schema()));
  if (!query.fixed_length()) {
    return Status::FailedPrecondition("fixed-length only");
  }
  StoredStream* stream = archived->stream();
  const uint64_t n = query.num_links();
  const StreamSchema& schema = archived->schema();
  archived->ResetStats();
  std::vector<TopProbCursor> cursors;
  for (size_t i = 0; i < n; ++i) {
    const Predicate& primary = query.link(i).primary;
    if (!primary.indexable() ||
        primary.kind() == Predicate::Kind::kRange ||
        archived->btp(primary.attribute()) == nullptr) {
      return Status::FailedPrecondition("not top-k indexable");
    }
    CALDERA_ASSIGN_OR_RETURN(
        TopProbCursor cursor,
        TopProbCursor::Create(archived->btp(primary.attribute()),
                              primary.MatchedAttributeValues(schema)));
    cursors.push_back(std::move(cursor));
  }
  QueryResult result;
  result.method = AccessMethodKind::kTopK;
  LegacyBestMatches best(k, threshold);
  std::unordered_set<uint64_t> evaluated;
  RegOperator reg(query, schema);
  uint64_t reg_updates = 0;
  Distribution marginal;
  auto predicate_prob = [&](size_t link, uint64_t t) -> Result<double> {
    CALDERA_RETURN_IF_ERROR(stream->ReadMarginal(t, &marginal));
    const Predicate& p = query.link(link).primary;
    return marginal.MassWhere(
        [&](ValueId state) { return p.Matches(schema, state); });
  };
  for (;;) {
    double unseen_bound = 1.0;
    size_t best_cursor = SIZE_MAX;
    double best_head = -1.0;
    for (size_t i = 0; i < n; ++i) {
      double bound = cursors[i].valid() ? cursors[i].UpperBound() : 0.0;
      unseen_bound = std::min(unseen_bound, bound);
      double head = cursors[i].valid() ? cursors[i].prob() : -1.0;
      if (head > best_head) {
        best_head = head;
        best_cursor = i;
      }
    }
    if (best_cursor == SIZE_MAX) break;
    if (best.CanStop(unseen_bound)) break;
    uint64_t entry_time = cursors[best_cursor].time();
    CALDERA_RETURN_IF_ERROR(cursors[best_cursor].Next());
    if (entry_time < best_cursor) continue;
    uint64_t s = entry_time - best_cursor;
    if (s + n > stream->length()) continue;
    if (!evaluated.insert(s).second) continue;
    double floor = best.Floor();
    bool prune = false;
    for (size_t i = 0; i < n && !prune; ++i) {
      CALDERA_ASSIGN_OR_RETURN(double p, predicate_prob(i, s + i));
      if (p <= 0.0 || p <= floor) prune = true;
    }
    if (prune) {
      ++result.stats.pruned_candidates;
      continue;
    }
    reg.Reset();
    CALDERA_RETURN_IF_ERROR(stream->ReadMarginal(s, &marginal));
    double p = reg.Initialize(marginal);
    Cpt transition;
    for (uint64_t t = s + 1; t < s + n; ++t) {
      CALDERA_RETURN_IF_ERROR(stream->ReadTransition(t, &transition));
      p = reg.Update(transition);
    }
    reg_updates += reg.num_updates();
    ++result.stats.intervals;
    best.Evaluate(s + n - 1, p);
  }
  result.signal = best.Take();
  result.stats.reg_updates = reg_updates;
  result.stats.relevant_timesteps = evaluated.size();
  return result;
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

void ExpectIdenticalSignal(const QuerySignal& got, const QuerySignal& want,
                           const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].time, want[i].time) << what << " entry " << i;
    // Bit-identical, not approximately equal: the pipeline must execute the
    // exact same Reg update sequence as the monolithic code did.
    EXPECT_EQ(got[i].prob, want[i].prob) << what << " entry " << i;
  }
}

void ExpectSameCoreStats(const ExecStats& got, const ExecStats& want,
                         const std::string& what) {
  EXPECT_EQ(got.reg_updates, want.reg_updates) << what;
  EXPECT_EQ(got.relevant_timesteps, want.relevant_timesteps) << what;
  EXPECT_EQ(got.intervals, want.intervals) << what;
  EXPECT_EQ(got.pruned_candidates, want.pruned_candidates) << what;
}

void ExpectMatchesScan(const QuerySignal& indexed, const QuerySignal& scan,
                       const std::string& what) {
  std::map<uint64_t, double> by_time;
  for (const TimestepProbability& e : indexed) by_time[e.time] = e.prob;
  for (const TimestepProbability& e : scan) {
    auto it = by_time.find(e.time);
    if (it != by_time.end()) {
      EXPECT_NEAR(it->second, e.prob, 1e-9) << what << " t=" << e.time;
    } else {
      EXPECT_NEAR(e.prob, 0.0, 1e-9)
          << what << " skipped a nonzero timestep t=" << e.time;
    }
  }
}

RegularQuery RandomQuery(Rng* rng, uint32_t domain) {
  size_t num_links = 1 + rng->NextBelow(4);
  std::vector<QueryLink> links;
  auto random_predicate = [&](const std::string& tag) {
    uint32_t kind = static_cast<uint32_t>(rng->NextBelow(3));
    if (kind == 0) {
      uint32_t v = static_cast<uint32_t>(rng->NextBelow(domain));
      return Predicate::Equality(0, v, tag + "=" + std::to_string(v));
    }
    if (kind == 1) {
      std::vector<uint32_t> values;
      size_t count = 1 + rng->NextBelow(3);
      for (size_t i = 0; i < count; ++i) {
        values.push_back(static_cast<uint32_t>(rng->NextBelow(domain)));
      }
      return Predicate::In(0, values, tag + "-set");
    }
    uint32_t lo = static_cast<uint32_t>(rng->NextBelow(domain));
    uint32_t hi =
        std::min<uint32_t>(domain - 1,
                           lo + static_cast<uint32_t>(rng->NextBelow(3)));
    return Predicate::Range(0, lo, hi, tag + "-range");
  };
  for (size_t i = 0; i < num_links; ++i) {
    Predicate primary = random_predicate("p" + std::to_string(i));
    std::optional<Predicate> loop;
    if (rng->NextBool(0.4)) {
      if (rng->NextBool(0.7)) {
        loop = Predicate::Not(primary);
      } else {
        loop = random_predicate("l" + std::to_string(i));
      }
    }
    links.push_back(QueryLink{std::move(loop), std::move(primary)});
  }
  return RegularQuery("random", std::move(links));
}

// A small deterministic stream over a 4-value domain where value 3 never
// has marginal mass (for zero-posting regression tests).
MarkovianStream ThreeOfFourValuesStream(uint64_t length) {
  MarkovianStream stream(
      SingleAttributeSchema("v", {"a", "b", "c", "d"}));
  Distribution current = Distribution::Point(0);
  stream.Append(current, Cpt());
  for (uint64_t t = 1; t < length; ++t) {
    ValueId from = static_cast<ValueId>((t - 1) % 3);
    ValueId to = static_cast<ValueId>(t % 3);
    Cpt cpt;
    cpt.SetRow(from, {{to, 1.0}});
    current = Distribution::Point(to);
    stream.Append(current, cpt);
  }
  return stream;
}

// ---------------------------------------------------------------------------
// Randomized differential: pipeline == legacy, bit for bit.
// ---------------------------------------------------------------------------

class PipelineDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PipelineDifferentialTest, PipelineMatchesLegacyBitForBit) {
  const uint64_t seed = GetParam();
  Rng rng(seed * 104729 + 7);
  test::ScratchDir scratch("pipeline_" + std::to_string(seed));

  const uint32_t domain = 6 + static_cast<uint32_t>(rng.NextBelow(10));
  const uint64_t length = 100 + rng.NextBelow(180);
  MarkovianStream stream =
      rng.NextBool(0.5)
          ? test::MakeBandedStream(length, domain, seed)
          : test::MakeValidStream(length, domain, seed, 0.4);
  ASSERT_TRUE(stream.Validate(1e-6).ok());

  StreamArchive archive(scratch.Path("archive"));
  ASSERT_TRUE(archive.CreateStream("s", stream,
                                   rng.NextBool(0.5)
                                       ? DiskLayout::kSeparated
                                       : DiskLayout::kCoClustered)
                  .ok());
  ASSERT_TRUE(archive.BuildBtc("s", 0).ok());
  ASSERT_TRUE(archive.BuildBtp("s", 0).ok());
  ASSERT_TRUE(archive.BuildMc("s", {}).ok());
  auto archived = archive.OpenStream("s");
  ASSERT_TRUE(archived.ok());
  ArchivedStream* handle = archived->get();

  for (int q = 0; q < 5; ++q) {
    RegularQuery query = RandomQuery(&rng, domain);
    const std::string tag = query.ToString();

    auto legacy_scan = LegacyScan(handle, query);
    ASSERT_TRUE(legacy_scan.ok());
    auto scan = RunPipeline(handle, query, AccessMethodKind::kScan);
    ASSERT_TRUE(scan.ok()) << scan.status().ToString();
    ExpectIdenticalSignal(scan->signal, legacy_scan->signal,
                          "scan[" + tag + "]");
    ExpectSameCoreStats(scan->stats, legacy_scan->stats, "scan[" + tag + "]");

    auto legacy_mc = LegacyMcOrSemi(handle, query, /*exact=*/true);
    ASSERT_TRUE(legacy_mc.ok()) << legacy_mc.status().ToString();
    auto mc = RunPipeline(handle, query, AccessMethodKind::kMcIndex);
    ASSERT_TRUE(mc.ok()) << mc.status().ToString();
    ExpectIdenticalSignal(mc->signal, legacy_mc->signal, "mc[" + tag + "]");
    ExpectSameCoreStats(mc->stats, legacy_mc->stats, "mc[" + tag + "]");

    auto legacy_semi = LegacyMcOrSemi(handle, query, /*exact=*/false);
    ASSERT_TRUE(legacy_semi.ok());
    auto semi = RunPipeline(handle, query, AccessMethodKind::kSemiIndependent);
    ASSERT_TRUE(semi.ok());
    ExpectIdenticalSignal(semi->signal, legacy_semi->signal,
                          "semi[" + tag + "]");
    ExpectSameCoreStats(semi->stats, legacy_semi->stats,
                        "semi[" + tag + "]");

    if (query.fixed_length()) {
      auto legacy_btree = LegacyBTree(handle, query);
      ASSERT_TRUE(legacy_btree.ok());
      auto btree = RunPipeline(handle, query, AccessMethodKind::kBTree);
      ASSERT_TRUE(btree.ok()) << btree.status().ToString();
      ExpectIdenticalSignal(btree->signal, legacy_btree->signal,
                            "btree[" + tag + "]");
      ExpectSameCoreStats(btree->stats, legacy_btree->stats,
                          "btree[" + tag + "]");

      bool topk_supported = true;
      for (const QueryLink& link : query.links()) {
        if (link.primary.kind() == Predicate::Kind::kRange) {
          topk_supported = false;
        }
      }
      if (topk_supported) {
        auto legacy_topk = LegacyTaWalk(handle, query, 4, 0.0);
        ASSERT_TRUE(legacy_topk.ok());
        auto topk = RunPipeline(handle, query, AccessMethodKind::kTopK,
                                {.k = 4});
        ASSERT_TRUE(topk.ok()) << topk.status().ToString();
        ExpectIdenticalSignal(topk->signal, legacy_topk->signal,
                              "topk[" + tag + "]");
        ExpectSameCoreStats(topk->stats, legacy_topk->stats,
                            "topk[" + tag + "]");

        auto legacy_tau = LegacyTaWalk(handle, query, kUnbounded, 0.25);
        ASSERT_TRUE(legacy_tau.ok());
        auto tau = RunPipeline(handle, query, AccessMethodKind::kTopK,
                               {.threshold = 0.25});
        ASSERT_TRUE(tau.ok());
        ExpectIdenticalSignal(tau->signal, legacy_tau->signal,
                              "threshold[" + tag + "]");
        ExpectSameCoreStats(tau->stats, legacy_tau->stats,
                            "threshold[" + tag + "]");
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineDifferentialTest,
                         ::testing::Range<uint64_t>(1, 9));

// ---------------------------------------------------------------------------
// Pipeline-specific behavior
// ---------------------------------------------------------------------------

class PipelineTest : public ::testing::Test {
 protected:
  PipelineTest() : scratch_("pipeline_fixture") {}

  void BuildArchive(const MarkovianStream& stream, bool btp = true,
                    bool mc = true) {
    archive_ = std::make_unique<StreamArchive>(scratch_.Path("archive"));
    ASSERT_TRUE(archive_->CreateStream("s", stream).ok());
    ASSERT_TRUE(archive_->BuildBtc("s", 0).ok());
    if (btp) {
      ASSERT_TRUE(archive_->BuildBtp("s", 0).ok());
    }
    if (mc) {
      ASSERT_TRUE(archive_->BuildMc("s", {}).ok());
    }
    auto archived = archive_->OpenStream("s");
    ASSERT_TRUE(archived.ok());
    handle_ = std::move(*archived);
  }

  RegularQuery SparseTwoStep() {
    std::vector<QueryLink> links;
    links.push_back(QueryLink{std::nullopt, Predicate::Equality(0, 1, "b")});
    links.push_back(QueryLink{std::nullopt, Predicate::Equality(0, 2, "c")});
    return RegularQuery("two-step", std::move(links));
  }

  test::ScratchDir scratch_;
  std::unique_ptr<StreamArchive> archive_;
  std::unique_ptr<ArchivedStream> handle_;
};

TEST_F(PipelineTest, ScanThroughGapPolicyIsExact) {
  MarkovianStream stream = test::MakeBandedStream(150, 8, 42);
  BuildArchive(stream, /*btp=*/false, /*mc=*/false);
  RegularQuery query = SparseTwoStep();

  auto scan = RunPipeline(handle_.get(), query, AccessMethodKind::kScan);
  ASSERT_TRUE(scan.ok());

  // The scan-through policy reads interior transitions instead of composed
  // span CPTs: exact results from a BT_C union plan with no MC index.
  auto factory = [](ArchivedStream* a, const RegularQuery& q) {
    return MakeUnionPlan(a, q, GapPolicy::kScanThrough);
  };
  auto hybrid = RunCursorPipeline(handle_.get(), query, factory,
                                  AccessMethodKind::kMcIndex);
  ASSERT_TRUE(hybrid.ok()) << hybrid.status().ToString();
  ExpectMatchesScan(hybrid->signal, scan->signal, "scan-through");
  EXPECT_NE(hybrid->stats.plan_summary.find("gap=scan-through"),
            std::string::npos)
      << hybrid->stats.plan_summary;
}

TEST_F(PipelineTest, EmptyPlanForShortStreamsReportsEmptyResult) {
  MarkovianStream stream = ThreeOfFourValuesStream(2);
  BuildArchive(stream, /*btp=*/false, /*mc=*/false);
  std::vector<QueryLink> links;
  for (int i = 0; i < 3; ++i) {
    links.push_back(QueryLink{std::nullopt, Predicate::Equality(0, 0, "a")});
  }
  RegularQuery query("longer-than-stream", std::move(links));
  auto result = RunPipeline(handle_.get(), query, AccessMethodKind::kBTree);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->method, AccessMethodKind::kBTree);
  EXPECT_TRUE(result->signal.empty());
  EXPECT_EQ(result->stats.reg_updates, 0u);
}

TEST_F(PipelineTest, FaultInjectionNeverYieldsWrongSignal) {
  MarkovianStream stream = test::MakeBandedStream(100, 10, 17);
  Caldera system(scratch_.Path("chaos"));
  ASSERT_TRUE(system.archive()->CreateStream("s", stream).ok());
  ASSERT_TRUE(system.archive()->BuildBtc("s", 0).ok());
  RegularQuery query = SparseTwoStep();

  ExecOptions scan_only;
  scan_only.method = AccessMethodKind::kScan;
  auto reference_scan = system.Execute("s", query, scan_only);
  ASSERT_TRUE(reference_scan.ok());
  ExecOptions btree_only;
  btree_only.method = AccessMethodKind::kBTree;
  auto reference_btree = system.Execute("s", query, btree_only);
  ASSERT_TRUE(reference_btree.ok());

  for (uint64_t seed = 1; seed <= 6; ++seed) {
    FaultInjectionOptions fault_options;
    fault_options.seed = seed;
    fault_options.read_error_prob = 0.2;
    ScopedFaultInjection fault("btc.attr0.bt", fault_options);
    system.InvalidateStreams();
    ExecOptions rescue;
    rescue.fallback_to_scan = true;
    auto result = system.Execute("s", query, rescue);
    if (!result.ok()) {
      EXPECT_EQ(result.status().code(), StatusCode::kIoError);
    } else if (result->method == AccessMethodKind::kScan) {
      // Degradation can happen at open, plan, or mid-query time; all paths
      // must yield the pristine scan signal.
      ExpectIdenticalSignal(result->signal, reference_scan->signal,
                            "rescued scan");
    } else {
      ASSERT_EQ(result->method, AccessMethodKind::kBTree);
      ExpectIdenticalSignal(result->signal, reference_btree->signal,
                            "surviving btree");
    }
  }
}

// ---------------------------------------------------------------------------
// Planner regressions (satellites): density edge cases + EXPLAIN plumbing.
// ---------------------------------------------------------------------------

TEST_F(PipelineTest, ZeroPostingPredicateHasZeroDensityAndCleanPlan) {
  MarkovianStream stream = ThreeOfFourValuesStream(30);
  BuildArchive(stream, /*btp=*/false, /*mc=*/false);

  // Value 3 ("d") never carries marginal mass: its BT_C posting list is
  // empty. Density must be 0 with a clean status — and execution must
  // return an empty signal, not an error.
  std::vector<QueryLink> links;
  links.push_back(QueryLink{std::nullopt, Predicate::Equality(0, 3, "d")});
  RegularQuery query("never-matches", std::move(links));

  auto density = EstimateDensity(handle_.get(), query);
  ASSERT_TRUE(density.ok()) << density.status().ToString();
  EXPECT_EQ(*density, 0.0);

  auto decision = PlanQuery(handle_.get(), query, /*want_topk=*/false,
                            /*approximation_ok=*/false);
  ASSERT_TRUE(decision.ok());
  EXPECT_EQ(decision->method, AccessMethodKind::kBTree);
  EXPECT_EQ(decision->estimated_density, 0.0);

  auto result = RunPipeline(handle_.get(), query, AccessMethodKind::kBTree);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->signal.empty());
}

TEST_F(PipelineTest, NonIndexableQueryPlansScanInsteadOfFailing) {
  MarkovianStream stream = ThreeOfFourValuesStream(30);
  BuildArchive(stream, /*btp=*/false, /*mc=*/false);

  // PlanQuery does not validate the query (the access methods do); handed
  // a query whose predicate has no indexable base — impossible to build
  // via the factories, but reachable through the planner's contract — it
  // must pick the scan deliberately (with a reason), not plan a doomed
  // index method or propagate a density-estimation failure.
  std::vector<QueryLink> links;
  links.push_back(QueryLink{std::nullopt, Predicate::Any()});
  RegularQuery query("anything", std::move(links));

  auto decision = PlanQuery(handle_.get(), query, /*want_topk=*/false,
                            /*approximation_ok=*/false);
  ASSERT_TRUE(decision.ok()) << decision.status().ToString();
  EXPECT_EQ(decision->method, AccessMethodKind::kScan);
  EXPECT_NE(decision->reason.find("no indexable"), std::string::npos)
      << decision->reason;

  // Density estimation on the same query is likewise a clean zero, not an
  // index error.
  auto density = EstimateDensity(handle_.get(), query);
  ASSERT_TRUE(density.ok()) << density.status().ToString();
  EXPECT_EQ(*density, 0.0);
}

TEST_F(PipelineTest, ExplainThreadsPlannerDecisionIntoResults) {
  MarkovianStream stream = test::MakeBandedStream(100, 8, 3);
  Caldera system(scratch_.Path("explain"));
  ASSERT_TRUE(system.archive()->CreateStream("s", stream).ok());
  ASSERT_TRUE(system.archive()->BuildBtc("s", 0).ok());
  RegularQuery query = SparseTwoStep();

  // kAuto: the decision's reason and density land in the result.
  ExecOptions auto_plan;
  auto plan = system.Plan("s", query, auto_plan);
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan->cursor.empty());
  EXPECT_FALSE(plan->gap_policy.empty());
  std::string explain = plan->Explain();
  EXPECT_NE(explain.find("method="), std::string::npos) << explain;
  EXPECT_NE(explain.find("cursor="), std::string::npos) << explain;
  EXPECT_NE(explain.find("gap="), std::string::npos) << explain;
  EXPECT_NE(explain.find("density="), std::string::npos) << explain;

  auto result = system.Execute("s", query, auto_plan);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->plan_reason, plan->reason);
  const std::string& summary = result->stats.plan_summary;
  EXPECT_NE(summary.find("method="), std::string::npos) << summary;
  EXPECT_NE(summary.find("cursor="), std::string::npos) << summary;
  EXPECT_NE(summary.find("gap="), std::string::npos) << summary;
  EXPECT_NE(summary.find("density="), std::string::npos) << summary;
  EXPECT_NE(summary.find("reason="), std::string::npos) << summary;

  // Explicit method: no planner run, reason says so, no density reported.
  ExecOptions explicit_scan;
  explicit_scan.method = AccessMethodKind::kScan;
  auto scan_result = system.Execute("s", query, explicit_scan);
  ASSERT_TRUE(scan_result.ok());
  EXPECT_EQ(scan_result->plan_reason, "explicitly requested");
  EXPECT_EQ(scan_result->stats.plan_summary.find("density="),
            std::string::npos)
      << scan_result->stats.plan_summary;
}

}  // namespace
}  // namespace caldera
