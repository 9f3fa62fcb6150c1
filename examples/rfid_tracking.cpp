// End-to-end RFID tracking pipeline (Figure 1 of the paper):
// simulate a person in a two-floor building, log noisy antenna reads,
// smooth them into a Markovian stream, archive + index it, then answer the
// paper's two example queries:
//   Entered-Room (Figure 3(a))  -- fixed-length
//   Coffee-Break (Figure 3(b))  -- variable-length (Kleene)
// Also prints the Figure 4-style probability signal with threshold event
// detection.
//
//   ./rfid_tracking [archive-dir]

#include <cstdio>

#include "common/logging.h"
#include "caldera/system.h"
#include "rfid/workload.h"

using namespace caldera;  // NOLINT: example brevity.

namespace {

void PrintSignal(const char* title, const QuerySignal& signal,
                 double threshold) {
  std::printf("\n%s\n", title);
  std::printf("  events above p=%.2f:\n", threshold);
  int events = 0;
  uint64_t last = 0;
  for (const TimestepProbability& e : signal) {
    if (e.prob > threshold) {
      // Collapse runs of consecutive above-threshold timesteps.
      if (events == 0 || e.time > last + 3) {
        std::printf("    t=%-6llu p=%.3f\n",
                    static_cast<unsigned long long>(e.time), e.prob);
      }
      last = e.time;
      ++events;
    }
  }
  if (events == 0) {
    std::printf("    (none)\n");
  }
  QuerySignal top = TopKOfSignal(signal, 3);
  std::printf("  top-3 peaks:");
  for (const TimestepProbability& e : top) {
    std::printf("  (t=%llu p=%.3f)", static_cast<unsigned long long>(e.time),
                e.prob);
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string dir = argc > 1 ? argv[1] : "/tmp/caldera_rfid_tracking";

  // 1. Simulate + smooth: a ~7-minute office routine in the paper-scale
  //    building (352 locations, 38 corridor antennas).
  RoutineSpec spec;
  spec.length = 450;
  spec.num_excursions = 3;
  spec.seed = 20260705;
  auto workload = MakeRoutineStream(spec);
  CALDERA_CHECK_OK(workload.status());
  std::printf("building: %u locations, %zu antennas\n",
              workload->layout.num_locations(),
              workload->layout.antennas().size());
  std::printf("smoothed stream: %llu timesteps (valid: %s)\n",
              static_cast<unsigned long long>(workload->stream.length()),
              workload->stream.Validate(1e-6).ToString().c_str());

  // 2. Archive and index.
  Caldera system(dir);
  Status st = system.archive()->CreateStream("james", workload->stream);
  if (st.ok()) {
    CALDERA_CHECK_OK(system.archive()->BuildBtc("james", 0));
    CALDERA_CHECK_OK(system.archive()->BuildBtp("james", 0));
    CALDERA_CHECK_OK(system.archive()->BuildMc("james", {.alpha = 2}));
  } else if (st.code() != StatusCode::kAlreadyExists) {
    CALDERA_CHECK_OK(st);
  }

  // 3. Entered-Room on the person's own office (dense data) and on an
  //    excursion room (sparse data).
  for (uint32_t room : {workload->own_office, workload->excursion_rooms[0]}) {
    auto query = workload->EnteredRoom(room, /*num_links=*/2);
    CALDERA_CHECK_OK(query.status());
    auto plan = system.Plan("james", *query, {});
    CALDERA_CHECK_OK(plan.status());
    auto result = system.Execute("james", *query, {});
    CALDERA_CHECK_OK(result.status());
    std::printf("\n== %s ==\n  density=%.3f  planner: %s\n",
                query->ToString().c_str(), plan->estimated_density,
                AccessMethodName(result->method));
    PrintSignal("  signal (Figure 4 style)", result->signal, 0.3);
    std::printf("  Reg updates: %llu of %llu timesteps\n",
                static_cast<unsigned long long>(result->stats.reg_updates),
                static_cast<unsigned long long>(workload->stream.length()));
  }

  // 4. Coffee-Break (variable length, via the LocationType dimension
  //    table), exact through the MC index.
  auto coffee = workload->CoffeeBreak();
  CALDERA_CHECK_OK(coffee.status());
  ExecOptions mc_options;
  mc_options.method = AccessMethodKind::kMcIndex;
  auto exact = system.Execute("james", *coffee, mc_options);
  CALDERA_CHECK_OK(exact.status());
  std::printf("\n== %s (MC index) ==\n", coffee->ToString().c_str());
  PrintSignal("  signal", exact->signal, 0.2);

  // ... and approximately through the semi-independent method.
  ExecOptions approx_options;
  approx_options.method = AccessMethodKind::kSemiIndependent;
  auto approx = system.Execute("james", *coffee, approx_options);
  CALDERA_CHECK_OK(approx.status());
  double max_err = 0;
  for (size_t i = 0;
       i < std::min(exact->signal.size(), approx->signal.size()); ++i) {
    max_err = std::max(
        max_err, std::abs(exact->signal[i].prob - approx->signal[i].prob));
  }
  std::printf("\nsemi-independent vs exact: max abs error %.4f\n", max_err);
  std::printf(
      "(the Coffee-Break query touches every corridor timestep, so on this\n"
      " dense query all variable-length methods approach a full scan -- the\n"
      " regime the paper calls data density ~1)\n");
  return 0;
}
