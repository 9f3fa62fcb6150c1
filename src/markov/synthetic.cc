#include "markov/synthetic.h"

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"

namespace caldera {

namespace {

StreamSchema FlatSchema(uint32_t domain) {
  std::vector<std::string> labels;
  labels.reserve(domain);
  for (uint32_t i = 0; i < domain; ++i) {
    labels.push_back("s" + std::to_string(i));
  }
  return SingleAttributeSchema("loc", std::move(labels));
}

}  // namespace

MarkovianStream MakeRandomStream(uint64_t length, uint32_t domain,
                                 uint64_t seed, double edge_prob) {
  MarkovianStream stream(FlatSchema(domain));
  Rng rng(seed);
  Distribution current = Distribution::Point(rng.NextBelow(domain));
  stream.Append(current, Cpt());
  for (uint64_t t = 1; t < length; ++t) {
    Cpt cpt;
    for (const Distribution::Entry& e : current.entries()) {
      std::vector<Cpt::RowEntry> row;
      double sum = 0;
      for (uint32_t j = 0; j < domain; ++j) {
        if (rng.NextBool(edge_prob)) {
          double v = rng.NextDouble() + 0.05;
          row.push_back({j, v});
          sum += v;
        }
      }
      if (row.empty()) {
        row.push_back({e.value, 1.0});
        sum = 1.0;
      }
      for (auto& re : row) re.prob /= sum;
      cpt.SetRow(e.value, std::move(row));
    }
    current = cpt.Propagate(current);
    stream.Append(current, std::move(cpt));
  }
  return stream;
}

namespace {

// The banded walk of MakeBandedRandomWalkStream with steps of up to
// `half_width` value ids either way.
MarkovianStream BandedWalk(uint64_t length, uint32_t domain, uint64_t seed,
                           double truncate_eps, int64_t half_width) {
  MarkovianStream stream(FlatSchema(domain));
  Rng rng(seed);
  Distribution current = Distribution::Point(rng.NextBelow(domain));
  stream.Append(current, Cpt());
  for (uint64_t t = 1; t < length; ++t) {
    Cpt cpt;
    for (const Distribution::Entry& e : current.entries()) {
      std::vector<Cpt::RowEntry> row;
      double sum = 0;
      for (int64_t d = -half_width; d <= half_width; ++d) {
        int64_t v = static_cast<int64_t>(e.value) + d;
        if (v < 0 || v >= static_cast<int64_t>(domain)) continue;
        double w = rng.NextDouble() + 0.1;
        row.push_back({static_cast<ValueId>(v), w});
        sum += w;
      }
      for (auto& re : row) re.prob /= sum;
      cpt.SetRow(e.value, std::move(row));
    }
    current = cpt.Propagate(current);
    // Keep supports genuinely sparse, as sample-based smoothing would,
    // then restrict the CPT to the surviving support so the stream stays
    // exactly consistent.
    current.Truncate(truncate_eps);
    Cpt restricted;
    for (size_t i = 0; i < cpt.num_rows(); ++i) {
      const Cpt::RowView cpt_row = cpt.row(i);
      std::vector<Cpt::RowEntry> kept;
      double sum = 0;
      for (size_t j = 0; j < cpt_row.size(); ++j) {
        if (current.ProbabilityOf(cpt_row.dsts[j]) > 0) {
          kept.push_back({cpt_row.dsts[j], cpt_row.probs[j]});
          sum += cpt_row.probs[j];
        }
      }
      if (kept.empty()) {
        // Rescue: keep the row's best destination so every supported
        // source retains a row (support widens accordingly below).
        size_t best = 0;
        for (size_t j = 1; j < cpt_row.size(); ++j) {
          if (cpt_row.probs[j] > cpt_row.probs[best]) best = j;
        }
        kept.push_back({cpt_row.dsts[best], 1.0});
        sum = 1.0;
      }
      for (auto& e : kept) e.prob /= sum;
      restricted.SetRow(cpt_row.src, std::move(kept));
    }
    Distribution prev = stream.marginal(t - 1);
    current = restricted.Propagate(prev);
    current.Normalize();
    stream.Append(current, std::move(restricted));
  }
  return stream;
}

}  // namespace

MarkovianStream MakeBandedRandomWalkStream(uint64_t length, uint32_t domain,
                                           uint64_t seed,
                                           double truncate_eps) {
  return BandedWalk(length, domain, seed, truncate_eps, 1);
}

MarkovianStream MakeScaledBandWalkStream(uint64_t length, uint32_t domain,
                                         uint64_t seed, double truncate_eps) {
  return BandedWalk(length, domain, seed, truncate_eps,
                    std::max<int64_t>(1, domain / 32));
}

}  // namespace caldera
