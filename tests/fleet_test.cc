// Tests for multi-stream (fleet) batch execution and Viterbi decoding.

#include <gtest/gtest.h>

#include <cmath>

#include "caldera/batch.h"
#include "common/logging.h"
#include "hmm/smoother.h"
#include "hmm/viterbi.h"
#include "rfid/layout.h"
#include "rfid/simulator.h"
#include "test_util.h"

namespace caldera {
namespace {

RegularQuery Fixed(uint32_t a, uint32_t b) {
  return RegularQuery::Sequence(
      "f", {Predicate::Equality(0, a, "a"), Predicate::Equality(0, b, "b")});
}

class BatchTest : public ::testing::Test {
 protected:
  BatchTest() : scratch_("batch_test"), system_(scratch_.Path("archive")) {}

  void AddStream(const std::string& name, uint64_t seed, bool index) {
    MarkovianStream stream = test::MakeBandedStream(150, 12, seed);
    CALDERA_CHECK_OK(system_.archive()->CreateStream(name, stream));
    if (index) {
      CALDERA_CHECK_OK(system_.archive()->BuildBtc(name, 0));
      CALDERA_CHECK_OK(system_.archive()->BuildBtp(name, 0));
    }
  }

  test::ScratchDir scratch_;
  Caldera system_;
};

TEST_F(BatchTest, RunsOverAllStreams) {
  AddStream("tag1", 1, true);
  AddStream("tag2", 2, true);
  AddStream("tag3", 3, true);
  auto batch = ExecuteBatch(&system_, Fixed(4, 5), {});
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->streams.size(), 3u);
  EXPECT_EQ(batch->streams[0].stream, "tag1");
  EXPECT_EQ(batch->streams[2].stream, "tag3");
  EXPECT_GT(batch->TotalStats().reg_updates, 0u);
  EXPECT_GE(batch->TotalSeconds(), 0.0);

  // Per-stream results equal individual execution.
  for (const BatchStreamResult& s : batch->streams) {
    auto single = system_.Execute(s.stream, Fixed(4, 5), {});
    ASSERT_TRUE(single.ok());
    ASSERT_EQ(s.result.signal.size(), single->signal.size());
    for (size_t i = 0; i < s.result.signal.size(); ++i) {
      EXPECT_EQ(s.result.signal[i], single->signal[i]);
    }
  }
}

TEST_F(BatchTest, SubsetSelection) {
  AddStream("a", 4, true);
  AddStream("b", 5, true);
  AddStream("c", 6, true);
  BatchOptions options;
  options.streams = {"c", "a"};
  auto batch = ExecuteBatch(&system_, Fixed(2, 3), options);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->streams.size(), 2u);
  EXPECT_EQ(batch->streams[0].stream, "c");
  EXPECT_EQ(batch->streams[1].stream, "a");
}

TEST_F(BatchTest, TopMatchesMergesAcrossStreams) {
  AddStream("x", 7, true);
  AddStream("y", 8, true);
  auto batch = ExecuteBatch(&system_, Fixed(3, 4), {});
  ASSERT_TRUE(batch.ok());
  auto top = batch->TopMatches(5, 0.0);
  EXPECT_LE(top.size(), 5u);
  for (size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(top[i - 1].second.prob, top[i].second.prob);
  }
  // The global best equals the max over per-stream bests.
  double best = 0;
  for (const BatchStreamResult& s : batch->streams) {
    for (const TimestepProbability& e : s.result.signal) {
      best = std::max(best, e.prob);
    }
  }
  if (!top.empty()) {
    EXPECT_DOUBLE_EQ(top[0].second.prob, best);
  }
}

TEST_F(BatchTest, MissingStreamFailsBatch) {
  AddStream("only", 9, true);
  BatchOptions options;
  options.streams = {"only", "ghost"};
  auto batch = ExecuteBatch(&system_, Fixed(1, 2), options);
  EXPECT_EQ(batch.status().code(), StatusCode::kNotFound);
}

TEST_F(BatchTest, FallbackToScanOnMissingIndex) {
  AddStream("indexed", 10, true);
  AddStream("bare", 11, false);  // No indexes at all.
  BatchOptions options;
  options.exec.method = AccessMethodKind::kBTree;
  auto strict = ExecuteBatch(&system_, Fixed(2, 3), options);
  EXPECT_EQ(strict.status().code(), StatusCode::kFailedPrecondition);

  options.exec.fallback_to_scan = true;
  auto relaxed = ExecuteBatch(&system_, Fixed(2, 3), options);
  ASSERT_TRUE(relaxed.ok()) << relaxed.status().ToString();
  ASSERT_EQ(relaxed->streams.size(), 2u);
  for (const BatchStreamResult& s : relaxed->streams) {
    EXPECT_EQ(s.result.method, s.stream == "indexed"
                                   ? AccessMethodKind::kBTree
                                   : AccessMethodKind::kScan)
        << s.stream;
  }
}

// ---------------------------------------------------------------------------
// Viterbi
// ---------------------------------------------------------------------------

Hmm ChainHmm() {
  Hmm hmm(3, 3);
  hmm.SetInitial(Distribution::FromPairs({{0, 1.0}}));
  hmm.SetTransitionRow(0, {{0, 0.5}, {1, 0.5}});
  hmm.SetTransitionRow(1, {{0, 0.25}, {1, 0.5}, {2, 0.25}});
  hmm.SetTransitionRow(2, {{1, 0.5}, {2, 0.5}});
  hmm.SetEmissionRow(0, {{0, 0.3}, {1, 0.7}});
  hmm.SetEmissionRow(1, {{0, 1.0}});
  hmm.SetEmissionRow(2, {{0, 0.3}, {2, 0.7}});
  return hmm;
}

TEST(ViterbiTest, RecoversUnambiguousTrajectory) {
  // Fully observable model: Viterbi must reproduce the truth exactly.
  Hmm hmm(3, 3);
  hmm.SetInitial(Distribution::FromPairs({{0, 1.0}}));
  hmm.SetTransitionRow(0, {{0, 0.5}, {1, 0.5}});
  hmm.SetTransitionRow(1, {{0, 0.25}, {1, 0.5}, {2, 0.25}});
  hmm.SetTransitionRow(2, {{1, 0.5}, {2, 0.5}});
  for (uint32_t s = 0; s < 3; ++s) hmm.SetEmissionRow(s, {{s, 1.0}});
  Rng rng(1);
  std::vector<uint32_t> truth, obs;
  ASSERT_TRUE(hmm.Sample(60, &rng, &truth, &obs).ok());
  auto decoded = ViterbiDecode(hmm, obs);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->states, truth);
  EXPECT_LT(decoded->log_probability, 0.0);
}

TEST(ViterbiTest, PathIsModelConsistent) {
  Hmm hmm = ChainHmm();
  std::vector<uint32_t> obs = {1, 0, 0, 0, 2, 0, 1};
  auto decoded = ViterbiDecode(hmm, obs);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->states.size(), obs.size());
  // Every step possible under the model and consistent with emissions.
  EXPECT_GT(hmm.initial().ProbabilityOf(decoded->states[0]), 0.0);
  for (size_t t = 0; t < obs.size(); ++t) {
    EXPECT_GT(hmm.EmissionProb(decoded->states[t], obs[t]), 0.0);
    if (t > 0) {
      EXPECT_GT(hmm.transition().Probability(decoded->states[t - 1],
                                             decoded->states[t]),
                0.0);
    }
  }
}

TEST(ViterbiTest, BeatsOrTiesAnyOtherPath) {
  // Brute-force check on a short sequence: no trajectory scores higher.
  Hmm hmm = ChainHmm();
  std::vector<uint32_t> obs = {1, 0, 0, 2};
  auto decoded = ViterbiDecode(hmm, obs);
  ASSERT_TRUE(decoded.ok());
  double best = -1e300;
  for (uint32_t a = 0; a < 3; ++a) {
    for (uint32_t b = 0; b < 3; ++b) {
      for (uint32_t c = 0; c < 3; ++c) {
        for (uint32_t d = 0; d < 3; ++d) {
          double p = hmm.initial().ProbabilityOf(a) *
                     hmm.EmissionProb(a, obs[0]) *
                     hmm.transition().Probability(a, b) *
                     hmm.EmissionProb(b, obs[1]) *
                     hmm.transition().Probability(b, c) *
                     hmm.EmissionProb(c, obs[2]) *
                     hmm.transition().Probability(c, d) *
                     hmm.EmissionProb(d, obs[3]);
          if (p > 0) best = std::max(best, std::log(p));
        }
      }
    }
  }
  EXPECT_NEAR(decoded->log_probability, best, 1e-9);
}

TEST(ViterbiTest, RejectsImpossibleSequences) {
  Hmm hmm = ChainHmm();
  EXPECT_FALSE(ViterbiDecode(hmm, {}).ok());
  EXPECT_FALSE(ViterbiDecode(hmm, {2}).ok());  // C's beep from start A.
  EXPECT_FALSE(ViterbiDecode(hmm, {9}).ok());  // Unknown symbol.
}

TEST(ViterbiTest, AgreesWithSmootherOnStrongEvidence) {
  // Where the posterior is concentrated, the Viterbi path should track the
  // smoothed argmax.
  Hmm hmm = ChainHmm();
  Rng rng(2);
  std::vector<uint32_t> truth, obs;
  ASSERT_TRUE(hmm.Sample(40, &rng, &truth, &obs).ok());
  auto decoded = ViterbiDecode(hmm, obs);
  ASSERT_TRUE(decoded.ok());
  auto stream = SmoothToMarkovianStream(
      hmm, obs, SingleAttributeSchema("loc", {"A", "B", "C"}),
      {.truncate_eps = 0.0});
  ASSERT_TRUE(stream.ok());
  size_t agreements = 0;
  for (uint64_t t = 0; t < stream->length(); ++t) {
    ValueId argmax = 0;
    double best = -1;
    for (const Distribution::Entry& e : stream->marginal(t).entries()) {
      if (e.prob > best) {
        best = e.prob;
        argmax = e.value;
      }
    }
    if (best > 0.8 && argmax == decoded->states[t]) ++agreements;
    if (best > 0.8 && argmax != decoded->states[t]) {
      ADD_FAILURE() << "strongly-supported marginal disagrees with Viterbi "
                       "at t=" << t;
    }
    (void)agreements;
  }
}

}  // namespace
}  // namespace caldera
