// Randomized differential testing: generate random streams and random
// Regular queries, then check that every exact access method produces the
// same probability signal as the naive scan, that top-k equals the sorted
// scan prefix, and that the planner's auto choice matches too. One failure
// here pinpoints a divergence between two independent implementations of
// the same semantics.

#include <gtest/gtest.h>

#include <map>
#include <optional>

#include "caldera/executor.h"
#include "common/logging.h"
#include "common/rng.h"
#include "test_util.h"

namespace caldera {
namespace {

// Draws a random Regular query over a flat domain: 1..4 links, each
// primary an equality/set/range predicate, optionally a Kleene link with a
// negated or positive loop.
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
        loop = Predicate::Not(primary);  // The paper's canonical (!P*, P).
      } else {
        loop = random_predicate("l" + std::to_string(i));  // Positive loop.
      }
    }
    links.push_back(QueryLink{std::move(loop), std::move(primary)});
  }
  return RegularQuery("random", std::move(links));
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

class DifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DifferentialTest, AllExactMethodsAgreeOnRandomWorkloads) {
  const uint64_t seed = GetParam();
  Rng rng(seed * 7919 + 13);
  test::ScratchDir scratch("differential_" + std::to_string(seed));

  const uint32_t domain = 8 + static_cast<uint32_t>(rng.NextBelow(12));
  const uint64_t length = 120 + rng.NextBelow(200);
  MarkovianStream stream = rng.NextBool(0.5)
                               ? test::MakeBandedStream(length, domain, seed)
                               : test::MakeValidStream(length, domain, seed,
                                                       0.4);
  ASSERT_TRUE(stream.Validate(1e-6).ok());

  StreamArchive archive(scratch.Path("archive"));
  ASSERT_TRUE(archive.CreateStream("s", stream,
                                   rng.NextBool(0.5)
                                       ? DiskLayout::kSeparated
                                       : DiskLayout::kCoClustered)
                  .ok());
  ASSERT_TRUE(archive.BuildBtc("s", 0).ok());
  ASSERT_TRUE(archive.BuildBtp("s", 0).ok());
  ASSERT_TRUE(archive.BuildMc("s", {.alpha = 2 + static_cast<uint32_t>(
                                                     rng.NextBelow(3))})
                  .ok());
  auto archived = archive.OpenStream("s");
  ASSERT_TRUE(archived.ok());

  for (int q = 0; q < 6; ++q) {
    RegularQuery query = RandomQuery(&rng, domain);
    ASSERT_TRUE(query.ValidateAgainst(stream.schema()).ok());

    auto scan = RunPipeline(archived->get(), query, AccessMethodKind::kScan);
    ASSERT_TRUE(scan.ok()) << scan.status().ToString();

    // MC method handles every query shape.
    auto mc = RunPipeline(archived->get(), query, AccessMethodKind::kMcIndex);
    ASSERT_TRUE(mc.ok()) << query.ToString() << ": "
                         << mc.status().ToString();
    ExpectMatchesScan(mc->signal, scan->signal,
                      "mc[" + query.ToString() + "]");

    if (query.fixed_length()) {
      auto btree = RunPipeline(archived->get(), query,
                               AccessMethodKind::kBTree);
      ASSERT_TRUE(btree.ok()) << btree.status().ToString();
      ExpectMatchesScan(btree->signal, scan->signal,
                        "btree[" + query.ToString() + "]");

      // Top-k: ranked probabilities equal the scan's sorted prefix.
      bool topk_supported = true;
      for (const QueryLink& link : query.links()) {
        if (link.primary.kind() == Predicate::Kind::kRange) {
          topk_supported = false;
        }
      }
      if (topk_supported) {
        auto topk = RunPipeline(archived->get(), query, AccessMethodKind::kTopK,
                                {.k = 5});
        ASSERT_TRUE(topk.ok()) << topk.status().ToString();
        QuerySignal reference = TopKOfSignal(
            FilterSignal(scan->signal, 0.0), 5);
        ASSERT_EQ(topk->signal.size(), reference.size())
            << query.ToString();
        for (size_t i = 0; i < reference.size(); ++i) {
          EXPECT_NEAR(topk->signal[i].prob, reference[i].prob, 1e-9)
              << query.ToString() << " rank " << i;
        }
      }
    }

    // Semi-independent: not exact, but must report the same relevant
    // timesteps as the MC method with probabilities in range.
    auto semi = RunPipeline(archived->get(), query,
                            AccessMethodKind::kSemiIndependent);
    ASSERT_TRUE(semi.ok());
    ASSERT_EQ(semi->signal.size(), mc->signal.size());
    for (size_t i = 0; i < semi->signal.size(); ++i) {
      EXPECT_EQ(semi->signal[i].time, mc->signal[i].time);
      EXPECT_GE(semi->signal[i].prob, -1e-12);
      EXPECT_LE(semi->signal[i].prob, 1.0 + 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest,
                         ::testing::Range<uint64_t>(1, 13));

}  // namespace
}  // namespace caldera
