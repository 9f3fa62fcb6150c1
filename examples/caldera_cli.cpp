// caldera_cli: a small command-line front end to a Caldera archive.
//
//   caldera_cli <archive-dir> demo
//       populates the archive with a simulated, smoothed RFID stream
//       ("james") plus all indexes and a LocationType dimension table.
//   caldera_cli <archive-dir> list
//       lists archived streams.
//   caldera_cli <archive-dir> query <stream> "<Q(...)>" [--method=M] [--k=N]
//       runs a written-syntax Regular query; M in
//       {auto,scan,btree,topk,mc,semi}.

#include <charconv>
#include <cstdio>
#include <cstring>
#include <string>

#include "common/logging.h"
#include "caldera/system.h"
#include "caldera/verify.h"
#include "query/parser.h"
#include "rfid/workload.h"

using namespace caldera;  // NOLINT: example brevity.

namespace {

int Fail(const Status& st) {
  std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
  return 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: caldera_cli <archive-dir> demo\n"
               "       caldera_cli <archive-dir> list\n"
               "       caldera_cli <archive-dir> fsck <stream>\n"
               "       caldera_cli <archive-dir> query <stream> 'Q(...)'"
               " [--method=auto|scan|btree|topk|mc|semi] [--k=N]\n");
  return 2;
}

// Parses a non-negative decimal count. False on anything else: empty,
// signed ("-1", "+1"), trailing junk ("3x") or out of range.
bool ParseCount(const char* text, size_t* out) {
  const char* end = text + std::strlen(text);
  auto [ptr, ec] = std::from_chars(text, end, *out);
  return ec == std::errc() && ptr == end;
}

int RunDemo(Caldera& system) {
  RoutineSpec spec;
  spec.length = 900;
  spec.num_excursions = 4;
  spec.seed = 1;
  auto workload = MakeRoutineStream(spec);
  if (!workload.ok()) return Fail(workload.status());
  Status st = system.archive()->CreateStream("james", workload->stream);
  if (st.code() == StatusCode::kAlreadyExists) {
    std::printf("archive already populated\n");
    return 0;
  }
  if (!st.ok()) return Fail(st);
  CALDERA_CHECK_OK(system.archive()->BuildBtc("james", 0));
  CALDERA_CHECK_OK(system.archive()->BuildBtp("james", 0));
  CALDERA_CHECK_OK(system.archive()->BuildMc("james", {.alpha = 2}));
  std::printf(
      "created stream 'james' (%llu timesteps) with BT_C, BT_P and MC "
      "indexes\n",
      static_cast<unsigned long long>(workload->stream.length()));
  std::printf("try:  query james 'Q(Corridor, (!CoffeeRoom*, CoffeeRoom))'\n");
  std::printf("      (own office: %s)\n",
              workload->schema.label(0, workload->own_office).c_str());
  return 0;
}

int RunFsck(Caldera& system, const std::string& stream_name) {
  auto archived = system.GetStream(stream_name);
  if (!archived.ok()) return Fail(archived.status());
  VerifyReport report;
  Status st = VerifyArchivedStream(archived->get(), &report);
  if (!st.ok()) {
    std::fprintf(stderr, "CORRUPT: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("OK: %s\n", report.ToString().c_str());
  return 0;
}

int RunList(Caldera& system) {
  auto names = system.archive()->ListStreams();
  if (!names.ok()) return Fail(names.status());
  for (const std::string& name : *names) {
    auto stream = system.GetStream(name);
    if (!stream.ok()) return Fail(stream.status());
    std::printf("%-16s %8llu timesteps  layout=%s  indexes:", name.c_str(),
                static_cast<unsigned long long>((*stream)->length()),
                DiskLayoutName((*stream)->stream()->layout()));
    if ((*stream)->btc(0) != nullptr) std::printf(" BT_C");
    if ((*stream)->btp(0) != nullptr) std::printf(" BT_P");
    if ((*stream)->mc() != nullptr) std::printf(" MC");
    std::printf("\n");
  }
  return 0;
}

int RunQuery(Caldera& system, const std::string& stream_name,
             const std::string& query_text, const std::string& method,
             size_t k) {
  auto archived = system.GetStream(stream_name);
  if (!archived.ok()) return Fail(archived.status());

  // Resolve identifiers against the schema and any type dimension the demo
  // created (location types live in the layout's naming convention here, so
  // rebuild the standard dimension for the paper building).
  const StreamSchema& schema = (*archived)->schema();
  SchemaResolver resolver(&schema);
  DimensionTable types("LocationType", 0);
  {
    // Derive location types from name prefixes (F1_Coffee12 etc.).
    std::vector<std::string> column;
    for (uint32_t v = 0; v < schema.domain_size(0); ++v) {
      const std::string& label = schema.label(0, v);
      if (label.find("Coffee") != std::string::npos) {
        column.push_back("CoffeeRoom");
      } else if (label.find("Lounge") != std::string::npos) {
        column.push_back("Lounge");
      } else if (label.find("Conf") != std::string::npos) {
        column.push_back("ConferenceRoom");
      } else if (label.find("Lab") != std::string::npos) {
        column.push_back("Lab");
      } else if (label.find("H") != std::string::npos &&
                 label.find("Office") == std::string::npos) {
        column.push_back("Corridor");
      } else {
        column.push_back("Office");
      }
    }
    types.AddColumn("type", std::move(column));
  }
  resolver.AddDimension(&types, "type");

  auto query = ParseQuery(query_text, resolver);
  if (!query.ok()) return Fail(query.status());

  ExecOptions options;
  options.k = k;
  if (method == "scan") options.method = AccessMethodKind::kScan;
  else if (method == "btree") options.method = AccessMethodKind::kBTree;
  else if (method == "topk") options.method = AccessMethodKind::kTopK;
  else if (method == "mc") options.method = AccessMethodKind::kMcIndex;
  else if (method == "semi") options.method = AccessMethodKind::kSemiIndependent;
  else if (method != "auto") return Usage();

  auto result = system.Execute(stream_name, *query, options);
  if (!result.ok()) return Fail(result.status());

  std::printf("# method=%s elapsed=%.3fms reg_updates=%llu "
              "stream_fetches=%llu index_fetches=%llu\n",
              AccessMethodName(result->method),
              result->stats.elapsed_seconds * 1e3,
              static_cast<unsigned long long>(result->stats.reg_updates),
              static_cast<unsigned long long>(result->stats.stream_io.fetches),
              static_cast<unsigned long long>(result->stats.index_io.fetches));
  size_t printed = 0;
  for (const TimestepProbability& e : result->signal) {
    if (e.prob <= 1e-9 && k == 0) continue;
    std::printf("%llu\t%.6f\n", static_cast<unsigned long long>(e.time),
                e.prob);
    if (++printed >= 50) {
      std::printf("# ... (%zu more rows suppressed)\n",
                  result->signal.size() - printed);
      break;
    }
  }
  if (printed == 0) std::printf("# no matches with nonzero probability\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return Usage();
  Caldera system(argv[1]);
  std::string command = argv[2];
  if (command == "demo") return RunDemo(system);
  if (command == "list") return RunList(system);
  if (command == "fsck") {
    if (argc < 4) return Usage();
    return RunFsck(system, argv[3]);
  }
  if (command == "query") {
    if (argc < 5) return Usage();
    std::string method = "auto";
    size_t k = 0;
    for (int i = 5; i < argc; ++i) {
      if (std::strncmp(argv[i], "--method=", 9) == 0) method = argv[i] + 9;
      else if (std::strncmp(argv[i], "--k=", 4) == 0) {
        if (!ParseCount(argv[i] + 4, &k)) return Usage();
      } else return Usage();
    }
    return RunQuery(system, argv[3], argv[4], method, k);
  }
  return Usage();
}
