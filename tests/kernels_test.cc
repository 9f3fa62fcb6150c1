#include "markov/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/rng.h"
#include "markov/cpt.h"
#include "markov/distribution.h"
#include "markov/stream.h"
#include "markov/synthetic.h"

namespace caldera {
namespace {

using kernels::PropagationWorkspace;

// ---------------------------------------------------------------------------
// Generators (seeded: every failure is reproducible from the test body).

Cpt RandomCpt(uint32_t domain, double row_density, double entry_density,
              Rng* rng) {
  Cpt cpt;
  for (uint32_t src = 0; src < domain; ++src) {
    if (!rng->NextBool(row_density)) continue;
    std::vector<Cpt::RowEntry> entries;
    for (uint32_t dst = 0; dst < domain; ++dst) {
      if (rng->NextBool(entry_density)) {
        entries.push_back({dst, rng->NextDouble() + 1e-6});
      }
    }
    if (entries.empty()) {
      entries.push_back({static_cast<ValueId>(rng->NextBelow(domain)), 1.0});
    }
    double mass = 0;
    for (const auto& e : entries) mass += e.prob;
    for (auto& e : entries) e.prob /= mass;
    cpt.SetRow(src, std::move(entries));
  }
  return cpt;
}

Distribution RandomDistribution(uint32_t domain, double density, Rng* rng) {
  std::vector<Distribution::Entry> entries;
  for (uint32_t v = 0; v < domain; ++v) {
    if (rng->NextBool(density)) entries.push_back({v, rng->NextDouble()});
  }
  if (entries.empty()) {
    entries.push_back({static_cast<ValueId>(rng->NextBelow(domain)), 1.0});
  }
  Distribution d = Distribution::FromPairs(std::move(entries));
  d.Normalize();
  return d;
}

// Union-of-support comparison: every value present in either distribution
// must agree within tol (absent = 0).
void ExpectDistsNear(const Distribution& a, const Distribution& b, double tol,
                     const std::string& context) {
  auto ia = a.entries().begin();
  auto ib = b.entries().begin();
  while (ia != a.entries().end() || ib != b.entries().end()) {
    ValueId va = ia != a.entries().end() ? ia->value : UINT32_MAX;
    ValueId vb = ib != b.entries().end() ? ib->value : UINT32_MAX;
    if (va < vb) {
      EXPECT_NEAR(ia->prob, 0.0, tol) << context << " value " << va;
      ++ia;
    } else if (vb < va) {
      EXPECT_NEAR(ib->prob, 0.0, tol) << context << " value " << vb;
      ++ib;
    } else {
      EXPECT_NEAR(ia->prob, ib->prob, tol) << context << " value " << va;
      ++ia;
      ++ib;
    }
  }
}

void ExpectCptsNear(const Cpt& a, const Cpt& b, uint32_t domain, double tol,
                    const std::string& context) {
  for (uint32_t src = 0; src < domain; ++src) {
    for (uint32_t dst = 0; dst < domain; ++dst) {
      double pa = a.Probability(src, dst);
      double pb = b.Probability(src, dst);
      ASSERT_NEAR(pa, pb, tol)
          << context << " P(" << dst << "|" << src << ")";
    }
  }
}

// O(d^3) brute-force chain-rule reference, independent of every kernel and
// of ComposeCpts itself.
Cpt BruteForceCompose(const Cpt& first, const Cpt& second, uint32_t domain) {
  Cpt out;
  for (size_t r = 0; r < first.num_rows(); ++r) {
    const Cpt::RowView row = first.row(r);
    std::vector<Cpt::RowEntry> entries;
    for (uint32_t z = 0; z < domain; ++z) {
      double p = 0;
      for (size_t j = 0; j < row.size(); ++j) {
        p += row.probs[j] * second.Probability(row.dsts[j], z);
      }
      if (p != 0.0) entries.push_back({z, p});
    }
    if (!entries.empty()) out.SetRow(row.src, std::move(entries));
  }
  return out;
}

// O(d^2) dense brute-force propagation reference, independent of every
// kernel: out[y] = sum_x in[x] * P(y|x) by table lookups, zeros dropped.
Distribution BruteForcePropagate(const Cpt& cpt, const Distribution& in,
                                 uint32_t domain) {
  std::vector<Distribution::Entry> out;
  for (uint32_t y = 0; y < domain; ++y) {
    double p = 0;
    for (const Distribution::Entry& e : in.entries()) {
      p += e.prob * cpt.Probability(e.value, y);
    }
    if (p != 0.0) out.push_back({y, p});
  }
  return Distribution::FromSorted(std::move(out));
}

// The propagation kernel on an explicit workspace, its entries collected.
Distribution PropagateWith(const Cpt& cpt, const Distribution& in,
                           PropagationWorkspace* ws) {
  std::vector<Distribution::Entry> out;
  kernels::Propagate(cpt, in, ws,
                     [&out](ValueId d, double p) { out.push_back({d, p}); });
  return Distribution::FromSorted(std::move(out));
}

// Dense per-row reference for composition, sharing no code with the
// kernels: row x of first·second accumulates P(mid|x)·P(z|mid) over the
// rows of second into a vector sized by second.dst_end(), then keeps its
// nonzeros in destination order: O(rows x dst_end) time.
Cpt DenseRowCompose(const Cpt& first, const Cpt& second) {
  Cpt out;
  const std::vector<ValueId>& mids = second.srcs();
  for (size_t r = 0; r < first.num_rows(); ++r) {
    const Cpt::RowView row = first.row(r);
    std::vector<double> sums(second.dst_end(), 0.0);
    for (size_t j = 0; j < row.size(); ++j) {
      auto mid = std::lower_bound(mids.begin(), mids.end(), row.dsts[j]);
      if (mid == mids.end() || *mid != row.dsts[j]) continue;
      const Cpt::RowView next = second.row(mid - mids.begin());
      for (size_t k = 0; k < next.size(); ++k) {
        sums[next.dsts[k]] += row.probs[j] * next.probs[k];
      }
    }
    std::vector<Cpt::RowEntry> entries;
    for (ValueId z = 0; z < sums.size(); ++z) {
      if (sums[z] != 0.0) entries.push_back({z, sums[z]});
    }
    if (!entries.empty()) out.SetRow(row.src, std::move(entries));
  }
  return out;
}

Cpt ComposeWith(const Cpt& first, const Cpt& second,
                PropagationWorkspace* ws) {
  Cpt out;
  kernels::Compose(first, second, ws, &out);
  return out;
}

// ---------------------------------------------------------------------------
// CSR layout.

TEST(CsrCptTest, FlattensRowsInOrder) {
  Cpt cpt;
  cpt.SetRow(7, {{0, 1.0}});
  cpt.SetRow(2, {{4, 0.5}, {1, 0.5}});
  ASSERT_EQ(cpt.num_rows(), 2u);
  EXPECT_EQ(cpt.srcs(), (std::vector<ValueId>{2, 7}));
  EXPECT_EQ(cpt.offsets(), (std::vector<uint32_t>{0, 2, 3}));
  EXPECT_EQ(cpt.dsts(), (std::vector<ValueId>{1, 4, 0}));
  EXPECT_EQ(cpt.probs(), (std::vector<double>{0.5, 0.5, 1.0}));
  EXPECT_EQ(cpt.dst_begin(), 0u);
  EXPECT_EQ(cpt.dst_end(), 5u);
  EXPECT_EQ(cpt.nnz(), 3u);
}

TEST(CsrCptTest, EmptyCpt) {
  Cpt cpt;
  EXPECT_TRUE(cpt.empty());
  EXPECT_TRUE(cpt.offsets().empty());
  EXPECT_EQ(cpt.dst_end(), 0u);
}

// ---------------------------------------------------------------------------
// Differential: the kernels against independent references.

struct Shape {
  uint32_t domain;
  double row_density;
  double entry_density;
  double dist_density;
};

const Shape kShapes[] = {
    {1, 1.0, 1.0, 1.0},      {3, 0.8, 0.6, 0.7},
    {32, 0.9, 0.10, 0.3},    {32, 0.5, 0.9, 0.9},
    {352, 0.9, 0.01, 0.05},  {352, 0.7, 0.10, 0.5},
    {1024, 0.3, 0.01, 0.02}, {1024, 0.9, 0.05, 0.9},
};

TEST(KernelDifferentialTest, PropagateMatchesBruteForceAcrossShapes) {
  PropagationWorkspace ws;
  Rng rng(0xC0FFEE);
  for (const Shape& s : kShapes) {
    for (int round = 0; round < 6; ++round) {
      Cpt cpt = RandomCpt(s.domain, s.row_density, s.entry_density, &rng);
      Distribution in = RandomDistribution(s.domain, s.dist_density, &rng);
      Distribution fast = cpt.Propagate(in);
      std::string ctx = "domain=" + std::to_string(s.domain) +
                        " round=" + std::to_string(round);
      ExpectDistsNear(BruteForcePropagate(cpt, in, s.domain), fast, 1e-12,
                      ctx);
      EXPECT_EQ(PropagateWith(cpt, in, &ws), fast) << ctx;
    }
  }
}

TEST(KernelDifferentialTest, PropagateAdversarialCases) {
  PropagationWorkspace ws;

  // Empty CPT: everything propagates to the empty distribution.
  Cpt empty;
  Distribution in = Distribution::FromPairs({{0, 0.5}, {9, 0.5}});
  EXPECT_TRUE(PropagateWith(empty, in, &ws).empty());

  // Input entirely outside the CPT's rows.
  Cpt cpt;
  cpt.SetRow(5, {{1, 1.0}});
  EXPECT_TRUE(PropagateWith(cpt, in, &ws).empty());

  // Empty input.
  EXPECT_TRUE(PropagateWith(cpt, Distribution{}, &ws).empty());

  // Missing interior rows + boundary destinations + denormal-tiny probs.
  Cpt gappy;
  gappy.SetRow(0, {{0, 1e-300}, {999, 1.0 - 1e-300}});
  gappy.SetRow(999, {{0, 1.0}});
  Distribution wide = Distribution::FromPairs({{0, 0.25}, {500, 0.5},
                                               {999, 0.25}});
  ExpectDistsNear(BruteForcePropagate(gappy, wide, 1000),
                  PropagateWith(gappy, wide, &ws), 1e-12, "gappy");
}

TEST(KernelDifferentialTest, ComposeMatchesBruteForceSmallDomains) {
  PropagationWorkspace ws;
  Rng rng(0xBEEF);
  for (uint32_t domain : {1u, 3u, 8u, 24u}) {
    for (int round = 0; round < 8; ++round) {
      Cpt first = RandomCpt(domain, 0.8, 0.5, &rng);
      Cpt second = RandomCpt(domain, 0.8, 0.5, &rng);
      Cpt expected = BruteForceCompose(first, second, domain);
      std::string ctx = "domain=" + std::to_string(domain) +
                        " round=" + std::to_string(round);
      Cpt fast = ComposeWith(first, second, &ws);
      ExpectCptsNear(expected, fast, domain, 1e-12, "kernel " + ctx);
      Cpt composed = ComposeCpts(first, second);
      ExpectCptsNear(expected, composed, domain, 1e-12, "ComposeCpts " + ctx);
      ExpectCptsNear(DenseRowCompose(first, second), fast, domain, 1e-12,
                     "dense-row " + ctx);
    }
  }
}

// Domains too large for the brute-force reference, in both the sparse
// (touched-slot) and dense (range-scan) drain modes: the kernel's table has
// exactly the dense per-row reference's support, entry for entry.
TEST(KernelDifferentialTest, ComposeMatchesDenseRowReferenceLargeDomains) {
  PropagationWorkspace ws;
  Rng rng(0xFACADE);
  for (uint32_t domain : {352u, 1024u}) {
    for (double density : {0.01, 0.10}) {
      Cpt first = RandomCpt(domain, 0.6, density, &rng);
      Cpt second = RandomCpt(domain, 0.6, density, &rng);
      Cpt fast = ComposeWith(first, second, &ws);
      Cpt reference = DenseRowCompose(first, second);
      ASSERT_EQ(reference.srcs(), fast.srcs());
      ASSERT_EQ(reference.offsets(), fast.offsets());
      ASSERT_EQ(reference.dsts(), fast.dsts());
      EXPECT_EQ(reference.dst_begin(), fast.dst_begin());
      EXPECT_EQ(reference.dst_end(), fast.dst_end());
      for (size_t i = 0; i < fast.nnz(); ++i) {
        ASSERT_NEAR(reference.probs()[i], fast.probs()[i], 1e-12);
      }
    }
  }
}

// The compose scratch is sized by the second table's largest destination,
// which bounds every slot the kernels write; nothing else sizes it.
TEST(KernelDifferentialTest, ComposeScratchIsSizedByTheData) {
  Cpt first;
  first.SetRow(0, {{2, 0.5}, {5, 0.5}});
  Cpt second;
  second.SetRow(2, {{3, 1.0}});
  second.SetRow(5, {{1, 0.25}, {6, 0.75}});
  PropagationWorkspace ws;
  Cpt out;
  kernels::Compose(first, second, &ws, &out);
  EXPECT_EQ(ws.dense.size(), second.dst_end());
  EXPECT_EQ(ws.mark.size(), second.dst_end());
  EXPECT_EQ(out, ComposeCpts(first, second));
  EXPECT_DOUBLE_EQ(out.Probability(0, 6), 0.375);
}

// The workspace's all-zero invariant: interleaving wildly different shapes
// through one workspace never changes any result. Neither does composing
// into a previously composed table.
TEST(KernelDifferentialTest, WorkspaceReuseIsStateless) {
  Rng rng(42);
  std::vector<Cpt> cpts;
  std::vector<Distribution> dists;
  for (const Shape& s : kShapes) {
    cpts.push_back(RandomCpt(s.domain, s.row_density, s.entry_density, &rng));
    dists.push_back(RandomDistribution(s.domain, s.dist_density, &rng));
  }
  PropagationWorkspace shared;
  for (int round = 0; round < 3; ++round) {
    for (size_t i = 0; i < cpts.size(); ++i) {
      PropagationWorkspace fresh;
      EXPECT_EQ(PropagateWith(cpts[i], dists[i], &shared),
                PropagateWith(cpts[i], dists[i], &fresh))
          << "shared-vs-fresh " << i;
    }
  }
  Cpt reused;
  for (size_t i = 0; i < cpts.size(); ++i) {
    kernels::Compose(cpts[i], cpts[i], &shared, &reused);
    EXPECT_EQ(reused, ComposeCpts(cpts[i], cpts[i])) << i;
  }
}

// The generators propagate with the query kernel, so each generated marginal
// is exactly what the Reg operator computes from the one before it.
TEST(GeneratedStreamTest, MarginalsAreTheKernelsPropagationBitForBit) {
  MarkovianStream stream = MakeRandomStream(40, 64, 7, 0.3);
  PropagationWorkspace ws;
  for (uint64_t t = 1; t < stream.length(); ++t) {
    ASSERT_EQ(stream.marginal(t),
              PropagateWith(stream.transition(t), stream.marginal(t - 1), &ws))
        << "t=" << t;
  }
}

// ---------------------------------------------------------------------------
// Backend label.

// One portable implementation: nothing the host CPU or the environment
// says selects another.
TEST(KernelDispatchTest, BackendReportsLivePath) {
  EXPECT_STREQ(kernels::Backend(), "scalar");
}

// ---------------------------------------------------------------------------
// New Distribution builders.

TEST(DistributionBuilderTest, FromSortedMovesEntries) {
  Distribution d = Distribution::FromSorted({{1, 0.25}, {5, 0.75}});
  EXPECT_EQ(d.support_size(), 2u);
  EXPECT_NEAR(d.ProbabilityOf(5), 0.75, 0.0);
}

}  // namespace
}  // namespace caldera
