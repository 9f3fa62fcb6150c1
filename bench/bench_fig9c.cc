// Figure 9(c): approximation error of the semi-independent access method —
// the exact (MC index) and approximate probability signals of one real-
// world variable-length query over time, plus the error at the maximum-
// probability timestep.
//
// Paper shape to reproduce: the approximate signal tracks the exact one's
// magnitudes; in the paper's favorable example the max-probability timestep
// is identified correctly with ~13% relative error, while other streams
// show raw errors up to ~0.286.

#include <cmath>
#include <cstdio>

#include "bench_util.h"
#include "caldera/executor.h"
#include "rfid/workload.h"

using namespace caldera;         // NOLINT
using namespace caldera::bench;  // NOLINT

int main() {
  std::string root = ScratchDir("fig9c");

  std::printf("# Figure 9(c): semi-independent approximation error on "
              "variable-length Entered-Room queries\n");

  double worst_raw_error = 0;
  int correct_peaks = 0, total = 0;
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u}) {
    RoutineSpec spec;
    spec.length = 900;
    spec.num_excursions = 4;
    spec.seed = seed;
    auto workload = MakeRoutineStream(spec);
    CALDERA_CHECK_OK(workload.status());
    auto archived = ArchiveStream(root, "t" + std::to_string(seed),
                                  workload->stream, DiskLayout::kSeparated,
                                  true, false, true);
    // Query with a SHORT gap between its predicates' relevant timesteps:
    // the first link is a corridor cell a few segments away from the room,
    // so the intermediate walk (2-5 timesteps) is skipped — exactly the
    // regime where discarding correlations hurts. (Across the long gaps of
    // Figure 9(b)'s queries the chain mixes and independence is almost
    // exact.) We borrow the far hallway from the 4-link query.
    uint32_t room = workload->excursion_rooms[0];
    auto four_link = workload->EnteredRoom(room, 4, true);
    CALDERA_CHECK_OK(four_link.status());
    std::vector<QueryLink> links;
    links.push_back(four_link->links()[0]);    // Far approach hallway.
    links.push_back(four_link->links().back());  // (!Room*, Room).
    RegularQuery query_obj("short-gap", links);
    Result<RegularQuery> query = query_obj;

    auto exact = RunPipeline(archived.get(), *query,
                             AccessMethodKind::kMcIndex);
    auto approx = RunPipeline(archived.get(), *query,
                              AccessMethodKind::kSemiIndependent);
    CALDERA_CHECK_OK(exact.status());
    CALDERA_CHECK_OK(approx.status());

    // Peak analysis.
    size_t exact_peak = 0, approx_peak = 0;
    double max_raw = 0;
    for (size_t i = 0; i < exact->signal.size(); ++i) {
      if (exact->signal[i].prob > exact->signal[exact_peak].prob) {
        exact_peak = i;
      }
      if (approx->signal[i].prob > approx->signal[approx_peak].prob) {
        approx_peak = i;
      }
      max_raw = std::max(
          max_raw, std::abs(exact->signal[i].prob - approx->signal[i].prob));
    }
    worst_raw_error = std::max(worst_raw_error, max_raw);
    bool peak_ok =
        exact->signal[exact_peak].time == approx->signal[approx_peak].time;
    correct_peaks += peak_ok ? 1 : 0;
    ++total;
    double rel_err =
        exact->signal[exact_peak].prob > 0
            ? std::abs(exact->signal[exact_peak].prob -
                       approx->signal[exact_peak].prob) /
                  exact->signal[exact_peak].prob
            : 0.0;
    std::printf("trace %llu: peak-correct=%s  rel-err-at-peak=%7.3f%%  "
                "max-raw-err=%.6f\n",
                static_cast<unsigned long long>(seed),
                peak_ok ? "yes" : "NO ", rel_err * 100, max_raw);

    // Print the signal series around the exact peak for the first trace
    // (the Figure 9(c) plot).
    if (seed == 1) {
      std::printf("  t       exact     approx\n");
      size_t lo = exact_peak > 5 ? exact_peak - 5 : 0;
      for (size_t i = lo; i < std::min(exact->signal.size(), exact_peak + 6);
           ++i) {
        std::printf("  %-7llu %9.4f %9.4f\n",
                    static_cast<unsigned long long>(exact->signal[i].time),
                    exact->signal[i].prob, approx->signal[i].prob);
      }
    }
  }
  std::printf("# summary: %d/%d traces identify the max-probability "
              "timestep correctly; worst raw error %.6f\n",
              correct_peaks, total, worst_raw_error);
  std::printf("# (on these well-observed traces the posterior is unimodal "
              "across gaps, so errors are small)\n");

  // Worst-case demonstration: a stream whose skipped span carries strong
  // correlation "memory". Two start states H/X flow deterministically
  // through distinct null-state channels (u/v) and surface as C/D. The
  // exact P(H, !C*, C) is 0.5; assuming independence across the gap yields
  // 0.25 -- a raw error of 0.25, the magnitude the paper reports (0.286).
  {
    StreamSchema schema =
        SingleAttributeSchema("loc", {"H", "X", "u", "v", "C", "D"});
    MarkovianStream stream(schema);
    stream.Append(Distribution::FromPairs({{0, 0.5}, {1, 0.5}}), Cpt());
    {
      Cpt cpt;  // H -> u, X -> v (memory channels).
      cpt.SetRow(0, {{2, 1.0}});
      cpt.SetRow(1, {{3, 1.0}});
      stream.Append(cpt.Propagate(stream.marginal(0)), cpt);
    }
    for (int t = 2; t <= 3; ++t) {
      Cpt cpt;  // Channels persist.
      cpt.SetRow(2, {{2, 1.0}});
      cpt.SetRow(3, {{3, 1.0}});
      stream.Append(cpt.Propagate(stream.marginal(t - 1)), cpt);
    }
    {
      Cpt cpt;  // u -> C, v -> D.
      cpt.SetRow(2, {{4, 1.0}});
      cpt.SetRow(3, {{5, 1.0}});
      stream.Append(cpt.Propagate(stream.marginal(3)), cpt);
    }
    CALDERA_CHECK_OK(stream.Validate());
    auto archived2 = ArchiveStream(root, "worstcase", stream,
                                   DiskLayout::kSeparated, true, false, true);
    Predicate c = Predicate::Equality(0, 4, "C");
    std::vector<QueryLink> wl;
    wl.push_back(QueryLink{std::nullopt, Predicate::Equality(0, 0, "H")});
    wl.push_back(QueryLink{Predicate::Not(c), c});
    RegularQuery wq("worst", wl);
    auto exact2 = RunPipeline(archived2.get(), wq, AccessMethodKind::kMcIndex);
    auto approx2 = RunPipeline(archived2.get(), wq,
                               AccessMethodKind::kSemiIndependent);
    CALDERA_CHECK_OK(exact2.status());
    CALDERA_CHECK_OK(approx2.status());
    double exact_p = 0, approx_p = 0;
    for (const auto& e : exact2->signal) exact_p = std::max(exact_p, e.prob);
    for (const auto& e : approx2->signal) approx_p = std::max(approx_p, e.prob);
    std::printf("\n# worst-case correlated stream: exact peak %.3f, "
                "semi-independent peak %.3f, raw error %.3f\n",
                exact_p, approx_p, std::abs(exact_p - approx_p));
  }
  std::printf("# paper: peak usually-but-not-always correct; raw errors up "
              "to ~0.286\n");
  return 0;
}
