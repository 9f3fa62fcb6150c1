// The paper's evaluation (Section 4, Figures 8-11), plus the ablations and
// the fleet experiment, as one table of claims checked on deterministic
// work counters.
//
// Each experiment builds its workload and runs each access method once
// through RunPipeline, after emptying the MC index's span cache: MC spans
// are composed cold and no run is served by an earlier one. One line per run
// gives its counters, with the wall time in brackets as context only. Each
// claim of EXPERIMENTS.md then checks that the values it measures lie in
// its bounds, and prints one line:
//   CHECK|DEVIATION <figure> ok|FAIL <claim> | <measure>: <min..max>, bound
// A DEVIATION row is a known difference from the paper that EXPERIMENTS.md
// explains; it checks that the difference is still the declared one. Claim
// lines hold counters only, so two runs print them identically. Takes no
// options; exits 1 if any check fails.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <numeric>
#include <string>
#include <string_view>
#include <vector>

#include "bench_util.h"
#include "caldera/batch.h"
#include "caldera/executor.h"
#include "common/logging.h"
#include "index/mc_index.h"
#include "markov/synthetic.h"
#include "rfid/workload.h"

using namespace caldera;         // NOLINT
using namespace caldera::bench;  // NOLINT

namespace {

std::string Fmt(const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

/// What ArchiveStream builds and how it opens the stream.
struct Archive {
  DiskLayout layout = DiskLayout::kSeparated;
  bool btp = false;
  bool mc = false;
  uint32_t alpha = 2;
  uint32_t page_size = kDefaultPageSize;
  size_t pool_pages = 128;  ///< Per file: keeps page traffic meaningful.
};

/// Archives `stream` with a BT_C on attribute 0 plus `spec`'s indexes.
std::unique_ptr<ArchivedStream> ArchiveStream(const std::string& root,
                                              const std::string& name,
                                              const MarkovianStream& stream,
                                              const Archive& spec = {}) {
  StreamArchive archive(root);
  CALDERA_CHECK_OK(
      archive.CreateStream(name, stream, spec.layout, spec.page_size));
  CALDERA_CHECK_OK(archive.BuildBtc(name, 0));
  if (spec.btp) CALDERA_CHECK_OK(archive.BuildBtp(name, 0));
  if (spec.mc) CALDERA_CHECK_OK(archive.BuildMc(name, {.alpha = spec.alpha}));
  auto opened = archive.OpenStream(name, spec.pool_pages);
  CALDERA_CHECK_OK(opened.status());
  return std::move(*opened);
}

/// Fraction of timesteps carrying support for any cursor predicate of
/// `query` (the paper's data density, Section 4.1.2).
double MeasuredDensity(const MarkovianStream& stream,
                       const RegularQuery& query) {
  uint64_t relevant = 0;
  for (uint64_t t = 0; t < stream.length(); ++t) {
    bool hit = false;
    for (const Predicate* pred : query.CursorPredicates()) {
      const Predicate* base = pred->is_negation() ? &pred->base() : pred;
      for (const Distribution::Entry& e : stream.marginal(t).entries()) {
        hit = hit || base->Matches(stream.schema(), e.value);
      }
    }
    relevant += hit ? 1 : 0;
  }
  return static_cast<double>(relevant) / stream.length();
}

SnippetWorkload Snippets(uint32_t snippets, double density,
                         double match_rate, uint64_t seed,
                         double truncate_eps = 1e-3) {
  SnippetStreamSpec spec;
  spec.num_snippets = snippets;  // ~30 timesteps each.
  spec.density = density;
  spec.match_rate = match_rate;
  spec.seed = seed;
  spec.truncate_eps = truncate_eps;
  auto workload = MakeSnippetStream(spec);
  CALDERA_CHECK_OK(workload.status());
  return std::move(*workload);
}

RoutineWorkload Routine(uint64_t length, uint32_t excursions, uint64_t seed) {
  RoutineSpec spec;
  spec.length = length;
  spec.num_excursions = excursions;
  spec.seed = seed;
  auto workload = MakeRoutineStream(spec);
  CALDERA_CHECK_OK(workload.status());
  return std::move(*workload);
}

/// Q(first, (!target*, target)) on attribute 0.
RegularQuery KleeneQuery(uint32_t first, uint32_t target) {
  Predicate goal = Predicate::Equality(0, target, "target");
  std::vector<QueryLink> links;
  links.push_back(
      QueryLink{std::nullopt, Predicate::Equality(0, first, "first")});
  links.push_back(QueryLink{Predicate::Not(goal), goal});
  return RegularQuery("kleene", links);
}

RegularQuery Checked(Result<RegularQuery> query) {
  CALDERA_CHECK_OK(query.status());
  return std::move(*query);
}

std::string D(double density) { return Fmt("d=%.2f", density); }

/// A counter the claims read off a recorded measurement.
enum Field { kReg, kStreamPages, kStreamMisses, kIndexPages, kIndexMisses,
             kSpanMisses, kMatches, kValue };
const char* const kFieldNames[] = {
    "reg_updates",  "stream pages", "stream misses", "index pages",
    "index misses", "span misses",  "matches",       "value"};

/// One measurement: a query execution's counters, or a plain value.
struct Run {
  ExecStats stats;
  QuerySignal signal;
  double value = 0;

  double Get(Field field) const {
    switch (field) {
      case kReg: return stats.reg_updates;
      case kStreamPages: return stats.stream_io.fetches;
      case kStreamMisses: return stats.stream_io.misses;
      case kIndexPages: return stats.index_io.fetches;
      case kIndexMisses: return stats.index_io.misses;
      case kSpanMisses: return stats.span_cache_misses;
      case kMatches:
        return std::count_if(signal.begin(), signal.end(),
                             [](const auto& e) { return e.prob > 1e-6; });
      case kValue: return value;
    }
    return 0;
  }
};

/// Matches `key` against `pattern`, where each '*' matches characters up to
/// the next '/', and appends what each '*' matched to `stars`.
bool Glob(std::string_view pattern, std::string_view key,
          std::vector<std::string>* stars) {
  if (pattern.empty()) return key.empty();
  if (pattern[0] != '*') {
    return !key.empty() && key[0] == pattern[0] &&
           Glob(pattern.substr(1), key.substr(1), stars);
  }
  for (size_t n = 0; n <= key.size(); ++n) {
    stars->emplace_back(key.substr(0, n));
    if (Glob(pattern.substr(1), key.substr(n), stars)) return true;
    stars->pop_back();
    if (n < key.size() && key[n] == '/') break;
  }
  return false;
}

using Values = std::vector<double>;

/// Everything the experiments measured, by key ("8a/d=0.01/scan-separated"),
/// printed as it is recorded.
class Results {
 public:
  /// Runs `method` once, cold, and records it under `key`.
  void Execute(const std::string& key, ArchivedStream* archived,
               const RegularQuery& query, AccessMethodKind method,
               const PipelineOptions& options = {}) {
    if (McIndex* mc = archived->mc()) mc->ClearSpanCache();
    auto result = RunPipeline(archived, query, method, options);
    CALDERA_CHECK_OK(result.status());
    Record(key, result->stats, std::move(result->signal));
  }

  void Record(const std::string& key, const ExecStats& s,
              QuerySignal signal = {}) {
    Run& run = runs_[key] = Run{s, std::move(signal)};
    std::printf(
        "run   %-30s reg=%-6llu stream=%llu/%llu index=%llu/%llu "
        "mc=%llu/%llu span-miss=%llu%s [%.2f ms]\n",
        key.c_str(), Ull(s.reg_updates), Ull(s.stream_io.fetches),
        Ull(s.stream_io.misses), Ull(s.index_io.fetches),
        Ull(s.index_io.misses), Ull(s.mc_entry_fetches),
        Ull(s.mc_raw_fetches), Ull(s.span_cache_misses),
        run.signal.empty() ? ""
                           : Fmt(" matches=%.0f", run.Get(kMatches)).c_str(),
        s.elapsed_seconds * 1e3);
  }

  /// Records a value that is not a query execution; `ms` < 0: untimed.
  void Set(const std::string& key, double value, double ms = -1) {
    runs_[key].value = value;
    std::printf("value %-30s %.6g", key.c_str(), value);
    std::printf(ms < 0 ? "\n" : " [%.2f ms]\n", ms);
  }

  const Run& at(const std::string& key) const {
    auto it = runs_.find(key);
    CALDERA_CHECK(it != runs_.end()) << "bench_paper: no measurement " << key;
    return it->second;
  }
  double value(const std::string& key) const { return at(key).value; }

  /// `field` of every measurement matching `num`, divided by `field` of the
  /// measurement `den` names once num's '*'s fill den's in order (unless
  /// `den` is null). A 0/0 pair did no work on either side and is skipped.
  Values Measure(Field field, const char* num, const char* den) const {
    Values out;
    for (const auto& [key, run] : runs_) {
      std::vector<std::string> stars;
      if (!Glob(num, key, &stars)) continue;
      double n = run.Get(field), d = 1;
      if (den != nullptr) {
        std::string den_key;
        size_t star = 0;
        for (const char* c = den; *c != '\0'; ++c) {
          den_key += *c == '*' ? stars.at(star++) : std::string(1, *c);
        }
        d = at(den_key).Get(field);
      }
      if (n != 0 || d != 0) out.push_back(n / d);
    }
    return out;
  }

 private:
  static unsigned long long Ull(uint64_t v) { return v; }

  std::map<std::string, Run> runs_;
};

// ---------------------------------------------------------------------------
// Experiments: each builds its workload and records its runs.
// ---------------------------------------------------------------------------

const double kDensities[] = {0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0};

// Figure 8(a): scan vs B+Tree on ~30k-step snippet streams, both layouts,
// match rate 100% (the worst case).
void Fig8a(Results& r, const std::string& root) {
  for (double d : kDensities) {
    SnippetWorkload w = Snippets(1000, d, 1.0, 8);
    for (DiskLayout layout :
         {DiskLayout::kSeparated, DiskLayout::kCoClustered}) {
      const std::string tag = DiskLayoutName(layout);
      auto a = ArchiveStream(root, "8a" + D(d) + tag, w.stream,
                             {.layout = layout});
      const std::string key = "8a/" + D(d) + "/";
      r.Execute(key + "scan-" + tag, a.get(), w.EnteredRoomFixed(),
                AccessMethodKind::kScan);
      r.Execute(key + "btree-" + tag, a.get(), w.EnteredRoomFixed(),
                AccessMethodKind::kBTree);
    }
  }
}

// Figures 8(b) and 9(b): 22 Entered-Room queries, fixed and Kleene, on one
// 28-minute routine trace. Keys carry the room's density mode: sparse
// (<= 0.1), dense (>= 0.75) or mid.
void Fig8b9b(Results& r, const std::string& root) {
  RoutineWorkload w = Routine(1680, 6, 81);
  auto a = ArchiveStream(root, "trace", w.stream, {.btp = true, .mc = true});
  for (uint32_t room : w.QueryRooms(22)) {
    RegularQuery fixed = Checked(w.EnteredRoom(room, 2));
    RegularQuery kleene = Checked(w.EnteredRoom(room, 2, /*variable=*/true));
    double density = MeasuredDensity(w.stream, fixed);
    const char* mode =
        density <= 0.1 ? "sparse" : density >= 0.75 ? "dense" : "mid";
    const std::string key =
        Fmt("%s/%s/", mode, w.schema.label(0, room).c_str());
    r.Set("8b/" + key + "density", density);
    r.Execute("8b/" + key + "scan", a.get(), fixed, AccessMethodKind::kScan);
    r.Execute("8b/" + key + "btree", a.get(), fixed,
              AccessMethodKind::kBTree);
    r.Execute("8b/" + key + "topk", a.get(), fixed, AccessMethodKind::kTopK,
              {.k = 1});
    r.Execute("9b/" + key + "scan", a.get(), kleene, AccessMethodKind::kScan);
    r.Execute("9b/" + key + "mc", a.get(), kleene,
              AccessMethodKind::kMcIndex);
    r.Execute("9b/" + key + "semi", a.get(), kleene,
              AccessMethodKind::kSemiIndependent);
  }
}

// Figure 8(c): the B+Tree method at query-match rates 100/50/25%.
void Fig8c(Results& r, const std::string& root) {
  for (double d : {0.01, 0.05, 0.1, 0.25, 0.5, 1.0}) {
    for (double rate : {1.0, 0.5, 0.25}) {
      SnippetWorkload w = Snippets(1000, d, rate, 80);
      const std::string key = Fmt("8c/%s/m=%.0f%%", D(d).c_str(), rate * 100);
      auto a = ArchiveStream(root, key.substr(3), w.stream);
      r.Execute(key, a.get(), w.EnteredRoomFixed(), AccessMethodKind::kBTree);
    }
  }
}

// Figure 9(a): scan vs MC index vs semi-independent on the Figure 8(a)
// streams with the Kleene query; then MC vs semi on banded random walks of
// 32, 128 and 384 states (the paper's deployment has 352 locations), whose
// band grows with the state count.
void Fig9a(Results& r, const std::string& root) {
  for (double d : kDensities) {
    SnippetWorkload w = Snippets(1000, d, 1.0, 90);
    auto a = ArchiveStream(root, "9a" + D(d), w.stream, {.mc = true});
    const std::string key = "9a/" + D(d) + "/";
    RegularQuery query = w.EnteredRoomVariable();
    r.Execute(key + "scan", a.get(), query, AccessMethodKind::kScan);
    r.Execute(key + "mc", a.get(), query, AccessMethodKind::kMcIndex);
    r.Execute(key + "semi", a.get(), query,
              AccessMethodKind::kSemiIndependent);
  }
  for (uint32_t domain : {32u, 128u, 384u}) {
    // Aggressive truncation keeps supports tight, so the query is sparse.
    MarkovianStream stream =
        MakeScaledBandWalkStream(12000, domain, 91, /*truncate_eps=*/0.02);
    // The query ends just below the walk's highest state, the edge of the
    // region it roams.
    ValueId top = 0;
    for (uint64_t t = 0; t < stream.length(); ++t) {
      top = std::max(top, stream.marginal(t).entries().back().value);
    }
    CALDERA_CHECK(top >= 4) << "walk too narrow for the sweep's query";
    const uint32_t target = top - 1;
    RegularQuery query = KleeneQuery(target - 3, target);
    auto a = ArchiveStream(root, Fmt("9a-%u", domain), stream, {.mc = true});
    const std::string key = Fmt("9a/states=%u/", domain);
    r.Execute(key + "mc", a.get(), query, AccessMethodKind::kMcIndex);
    r.Execute(key + "semi", a.get(), query,
              AccessMethodKind::kSemiIndependent);
  }
}

// Figure 9(c): exact (MC) vs semi-independent signals. Eight routine
// traces with a short-gap query, then a stream built so the skipped span
// carries correlation: exact P(H, !C*, C) = 0.5, independence gives 0.25.
void Fig9c(Results& r, const std::string& root) {
  auto compare = [&](const std::string& key, ArchivedStream* a,
                     const RegularQuery& query) {
    r.Execute(key + "/mc", a, query, AccessMethodKind::kMcIndex);
    r.Execute(key + "/semi", a, query, AccessMethodKind::kSemiIndependent);
    const QuerySignal& exact = r.at(key + "/mc").signal;
    const QuerySignal& approx = r.at(key + "/semi").signal;
    size_t exact_peak = 0, approx_peak = 0;
    double max_err = 0;
    for (size_t i = 0; i < exact.size(); ++i) {
      if (exact[i].prob > exact[exact_peak].prob) exact_peak = i;
      if (approx[i].prob > approx[approx_peak].prob) approx_peak = i;
      max_err = std::max(max_err, std::abs(exact[i].prob - approx[i].prob));
    }
    r.Set(key + "/peak-ok", exact_peak == approx_peak ? 1 : 0);
    r.Set(key + "/max-err", max_err);
  };
  for (int trace = 1; trace <= 8; ++trace) {
    RoutineWorkload w = Routine(900, 4, trace);
    const std::string key = Fmt("9c/t%d", trace);
    auto a = ArchiveStream(root, key.substr(3), w.stream, {.mc = true});
    // A far approach hallway, then the room: the short walk between them
    // is skipped, where dropping correlations hurts most.
    RegularQuery four_link =
        Checked(w.EnteredRoom(w.excursion_rooms[0], 4, true));
    compare(key, a.get(),
            RegularQuery("short-gap", {four_link.links().front(),
                                       four_link.links().back()}));
  }
  MarkovianStream stream(
      SingleAttributeSchema("loc", {"H", "X", "u", "v", "C", "D"}));
  stream.Append(Distribution::FromPairs({{0, 0.5}, {1, 0.5}}), Cpt());
  // H -> u and X -> v (the memory channels), which persist, then u -> C
  // and v -> D.
  for (auto moves : std::vector<std::vector<std::pair<ValueId, ValueId>>>{
           {{0, 2}, {1, 3}}, {{2, 2}, {3, 3}}, {{2, 2}, {3, 3}},
           {{2, 4}, {3, 5}}}) {
    Cpt cpt;
    for (auto [from, to] : moves) cpt.SetRow(from, {{to, 1.0}});
    stream.Append(cpt.Propagate(stream.marginal(stream.length() - 1)), cpt);
  }
  CALDERA_CHECK_OK(stream.Validate());
  auto a = ArchiveStream(root, "worst", stream, {.mc = true});
  compare("9c/worst", a.get(), KleeneQuery(/*H=*/0, /*C=*/4));
}

// Figure 10: three traces (James: dense own-office query; Sally: sparse;
// Pat: long) x 2, 3 and 4 link queries, fixed and Kleene.
void Fig10(Results& r, const std::string& root) {
  struct Trace {
    const char* person;
    uint64_t length;
    uint64_t seed;
    bool own_office;  ///< Else a rarely visited excursion room.
  };
  for (const Trace& t : {Trace{"James", 462, 101, true},
                         Trace{"Sally", 458, 102, false},
                         Trace{"Pat", 1683, 103, false}}) {
    RoutineWorkload w = Routine(t.length, t.own_office ? 5 : 2, t.seed);
    auto a = ArchiveStream(root, t.person, w.stream, {.btp = true, .mc = true});
    uint32_t room = t.own_office ? w.own_office : w.excursion_rooms[0];
    for (size_t links = 2; links <= 4; ++links) {
      RegularQuery fixed = Checked(w.EnteredRoom(room, links, false));
      RegularQuery kleene = Checked(w.EnteredRoom(room, links, true));
      const std::string key = Fmt("10/%s/links=%zu/", t.person, links);
      r.Set(key + "relevant",
            std::round(MeasuredDensity(w.stream, fixed) * w.stream.length()));
      r.Execute(key + "scan", a.get(), fixed, AccessMethodKind::kScan);
      r.Execute(key + "btree", a.get(), fixed, AccessMethodKind::kBTree);
      r.Execute(key + "topk", a.get(), fixed, AccessMethodKind::kTopK,
                {.k = 1});
      r.Execute(key + "mc", a.get(), kleene, AccessMethodKind::kMcIndex);
      r.Execute(key + "semi", a.get(), kleene,
                AccessMethodKind::kSemiIndependent);
    }
  }
}

// Figure 11(a): CPT fetches to relate two timesteps `gap` apart, averaged
// over 24 placements: the naive raw scan (i>=0), then the MC index (alpha
// 2) restricted to its levels >= 1..5.
const uint64_t kGaps[] = {2, 4, 8, 16, 32, 64, 128, 256, 512, 1024};
void Fig11a(Results& r, const std::string& root) {
  constexpr int kPlacements = 24;
  SnippetWorkload w = Snippets(1100, 1.0, 1.0, 110);
  auto a = ArchiveStream(root, "11a", w.stream, {.mc = true});
  McIndex* mc = a->mc();
  Cpt cpt;
  for (uint64_t gap : kGaps) {
    for (uint32_t min_level = 0; min_level <= 5; ++min_level) {
      CALDERA_CHECK_OK(
          mc->SetMinLevel(min_level == 0 ? mc->num_levels() + 1 : min_level));
      mc->ResetStats();
      auto start = std::chrono::steady_clock::now();
      for (int p = 0; p < kPlacements; ++p) {
        uint64_t from = 1 + (p * 797) % (a->length() - gap - 2);
        CALDERA_CHECK_OK(mc->ComputeCpt(from, from + gap, &cpt));
      }
      std::chrono::duration<double, std::milli> ms =
          std::chrono::steady_clock::now() - start;
      r.Set(Fmt("11a/gap=%llu/i>=%u", (unsigned long long)gap, min_level),
            static_cast<double>(mc->entry_fetches() + mc->raw_fetches()) /
                kPlacements,
            ms.count());
    }
  }
}

// Figure 11(b): MC index bytes vs stream length and alpha, next to the raw
// stream's CPT bytes.
void Fig11b(Results& r, const std::string& root) {
  for (uint32_t snippets : {36, 73, 146, 292, 584, 1100}) {
    SnippetWorkload w = Snippets(snippets, 1.0, 1.0, 111);
    const std::string key = Fmt("11b/n=%u/", snippets);
    r.Set(key + "steps", w.stream.length());
    r.Set(key + "raw", w.stream.CptBytes());
    for (uint32_t alpha : {2, 4, 8, 16}) {
      const std::string dir = root + Fmt("/11b-%u-%u", snippets, alpha);
      CALDERA_CHECK_OK(McIndex::Build(w.stream, dir, {.alpha = alpha}));
      auto index = McIndex::Open(dir, nullptr);
      CALDERA_CHECK_OK(index.status());
      r.Set(key + Fmt("a=%u", alpha), (*index)->StoredBytes());
    }
  }
}

// Ablations on one 600-snippet stream at density 0.1: buffer-pool pages,
// page size, MC alpha and the MC method's layout; then the smoothing
// truncation threshold on a dense 200-snippet stream.
void Ablations(Results& r, const std::string& root) {
  SnippetWorkload w = Snippets(600, 0.1, 1.0, 120);
  RegularQuery fixed = w.EnteredRoomFixed();
  RegularQuery kleene = w.EnteredRoomVariable();
  for (size_t pool : {4, 16, 64, 256, 1024}) {
    const std::string key = Fmt("abl/pool=%zu", pool);
    auto a = ArchiveStream(root, key.substr(4), w.stream,
                           {.pool_pages = pool});
    r.Execute(key, a.get(), fixed, AccessMethodKind::kBTree);
  }
  for (uint32_t page_size : {1024, 4096, 16384}) {
    const std::string key = Fmt("abl/page=%u", page_size);
    auto a = ArchiveStream(root, key.substr(4), w.stream,
                           {.page_size = page_size, .pool_pages = 64});
    r.Execute(key, a.get(), fixed, AccessMethodKind::kScan);
  }
  for (uint32_t alpha : {2, 4, 8, 16}) {
    const std::string key = Fmt("abl/alpha=%u", alpha);
    auto a = ArchiveStream(root, key.substr(4), w.stream,
                           {.mc = true, .alpha = alpha});
    r.Execute(key, a.get(), kleene, AccessMethodKind::kMcIndex);
    r.Set(key + "/bytes", a->mc()->StoredBytes());
  }
  for (DiskLayout layout :
       {DiskLayout::kSeparated, DiskLayout::kCoClustered}) {
    const std::string key = Fmt("abl/mc-%s", DiskLayoutName(layout));
    auto a = ArchiveStream(root, key.substr(4), w.stream,
                           {.layout = layout, .mc = true, .pool_pages = 64});
    r.Execute(key, a.get(), kleene, AccessMethodKind::kMcIndex);
  }
  for (double eps : {1e-4, 1e-3, 1e-2}) {
    SnippetWorkload e = Snippets(200, 1.0, 1.0, 120, eps);
    const std::string key = Fmt("abl/eps=%g", eps);
    auto a = ArchiveStream(root, key.substr(4), e.stream);
    r.Set(key + "/density", MeasuredDensity(e.stream, e.EnteredRoomFixed()));
    r.Execute(key, a.get(), e.EnteredRoomFixed(), AccessMethodKind::kScan);
    double peak = 0;
    for (const TimestepProbability& p : r.at(key).signal) {
      peak = std::max(peak, p.prob);
    }
    r.Set(key + "/peak", peak);
  }
}

// Fleet: one stream per tag (Section 3.4.2's partitioning by stream), and
// a BT_C query on tag 0 alone and over the whole fleet as it grows to the
// paper's 58 tags. "tag-sum" adds up each tag's stats queried alone. The
// batch runs on one thread, so its counters are deterministic.
void Fleet(Results& r, const std::string& root) {
  Caldera system(root + "/fleet");
  ExecOptions options;
  options.method = AccessMethodKind::kBTree;
  RegularQuery query;  // Every tag shares tag 0's schema.
  ExecStats tag_sum;
  uint32_t tags = 0;
  for (uint32_t fleet : {1, 4, 16, 58}) {
    for (; tags < fleet; ++tags) {
      SnippetWorkload w = Snippets(60, 0.2, 1.0, 500 + tags);
      const std::string name = Fmt("tag%u", tags);
      CALDERA_CHECK_OK(system.archive()->CreateStream(name, w.stream));
      CALDERA_CHECK_OK(system.archive()->BuildBtc(name, 0));
      if (tags == 0) query = w.EnteredRoomFixed();
      auto alone = system.Execute(name, query, options);
      CALDERA_CHECK_OK(alone.status());
      tag_sum += alone->stats;
    }
    const std::string key = Fmt("fleet/tags=%u/", fleet);
    auto one = system.Execute("tag0", query, options);
    CALDERA_CHECK_OK(one.status());
    r.Record(key + "one-tag", one->stats, one->signal);
    BatchOptions batch_options;
    batch_options.exec = options;
    batch_options.num_threads = 1;
    auto batch = ExecuteBatch(&system, query, batch_options);
    CALDERA_CHECK_OK(batch.status());
    r.Record(key + "fleet", batch->TotalStats());
    r.Record(key + "tag-sum", tag_sum);
  }
}

// ---------------------------------------------------------------------------
// Claims: one row per claim of EXPERIMENTS.md. A row measures values, by
// key pattern (Results::Measure) or by hand, and passes when each lies in
// [lo, hi].
// ---------------------------------------------------------------------------

struct Claim {
  const char* figure;
  bool deviation;  ///< A difference from the paper, declared as such.
  const char* text;
  double lo, hi;
  Field field;
  const char* num;  ///< Results::Measure's patterns; with `by_hand`, `num`
  const char* den;  ///< describes what it measures.
  Values (*by_hand)(const Results&) = nullptr;
};

constexpr double kInf = INFINITY;
constexpr bool kDeviation = true;

double Fetches(const Results& r, uint64_t gap, uint32_t min_level) {
  return r.value(Fmt("11a/gap=%llu/i>=%u", (unsigned long long)gap,
                     min_level));
}

const Claim kClaims[] = {
    {"fig8a", false,
     "B+Tree beats the scan by 1-2 orders of magnitude at low density", 0,
     0.1, kReg, "8a/d=0.01/btree-*", "8a/d=0.01/scan-*"},
    {"fig8a", false,
     "At density 1 the B+Tree degenerates into a scan with index overhead",
     0.5, 2, kReg, "8a/d=1.00/btree-*", "8a/d=1.00/scan-*"},
    {"fig8a", false, "Both methods read fewer pages on the separated layout",
     0, 1, kStreamPages, "8a/*/*-separated", "8a/*/*-co-clustered"},
    {"fig8b", false, "Data density is bimodal: at least 0.75 or near 0", 0, 0,
     kValue, "rooms of density in (0.1, 0.75)", nullptr,
     [](const Results& r) {
       return Values{static_cast<double>(
           r.Measure(kValue, "8b/mid/*/density", nullptr).size())};
     }},
    {"fig8b", false, "B+Tree gains at least 10x at low density", 0, 0.1, kReg,
     "8b/sparse/*/btree", "8b/sparse/*/scan"},
    {"fig8b", false, "Top-k can win by ~10x on a dense, peaky query", 0, 0.1,
     kReg, "best topk/btree reg_updates of a dense room", nullptr,
     [](const Results& r) {
       Values v = r.Measure(kReg, "8b/dense/*/topk", "8b/dense/*/btree");
       return v.empty() ? v : Values{*std::min_element(v.begin(), v.end())};
     }},
    {"fig8b", false, "... but not on every dense query", 1, kInf, kReg,
     "worst topk/btree reg_updates of a dense room", nullptr,
     [](const Results& r) {
       Values v = r.Measure(kReg, "8b/dense/*/topk", "8b/dense/*/btree");
       return v.empty() ? v : Values{*std::max_element(v.begin(), v.end())};
     }},
    {"fig8b", kDeviation,
     "Top-k loses to the B+Tree at low density: not on Reg work here", 0, 1,
     kReg, "8b/sparse/*/topk", "8b/sparse/*/btree"},
    {"fig8c", false, "Work falls with density on every match-rate curve", 0,
     0.1, kReg, "8c/d=0.01/*", "8c/d=1.00/*"},
    {"fig8c", kDeviation,
     "Lower match rates run proportionally faster: 3-5x from 100% to 25%, "
     "not ~10x",
     3, 6, kReg, "8c/*/m=100%", "8c/*/m=25%"},
    {"fig9a", false,
     "The MC-index speedup mirrors the B+Tree's at low density", 0, 0.1,
     kReg, "9a/d=0.01/mc", "9a/d=0.01/scan"},
    {"fig9a", false, "... and it degenerates into a scan at density 1", 0.5, 2,
     kReg, "9a/d=1.00/mc", "9a/d=1.00/scan"},
    {"fig9a", kDeviation,
     "Semi-independent ~8x faster than MC: it skips only MC's span fetches, "
     "cheap here",
     1, 1, kReg, "9a/*/semi", "9a/*/mc"},
    {"fig9a", false, "Every timed MC run of the state sweep composes cold", 1,
     kInf, kSpanMisses, "9a/states=*/mc", nullptr},
    {"fig9a", false, "MC work per span grows with the state count", 1.1, kInf,
     kValue, "MC level pages per span-CPT fetch, 128/32 and 384/128 states",
     nullptr,
     [](const Results& r) {
       auto pages_per_fetch = [&r](uint32_t states) {
         const std::string key = Fmt("9a/states=%u/", states);
         const ExecStats& mc = r.at(key + "mc").stats;
         // Semi reads the same BT_C pages; the rest are MC level pages.
         const double level_pages = static_cast<double>(
             mc.index_io.fetches - r.at(key + "semi").stats.index_io.fetches);
         return level_pages / static_cast<double>(mc.mc_entry_fetches);
       };
       return Values{pages_per_fetch(128) / pages_per_fetch(32),
                     pages_per_fetch(384) / pages_per_fetch(128)};
     }},
    {"fig9b", false, "The MC index does over 10x less work at low density",
     0, 0.1, kReg, "9b/sparse/*/mc", "9b/sparse/*/scan"},
    {"fig9b", kDeviation,
     "Semi-independent just under 10x faster than MC: compressed as in 9(a)",
     1, 1, kReg, "9b/*/*/semi", "9b/*/*/mc"},
    {"fig9b", false, "The scan column is comparable with Figure 8(b)'s", 1, 1,
     kStreamPages, "9b/*/*/scan", "8b/*/*/scan"},
    {"fig9c", false, "The approximate signal tracks the exact one", 0, 0.01,
     kValue, "9c/t*/max-err", nullptr},
    {"fig9c", false, "The peak is usually identified correctly", 6, 8,
     kValue, "traces of 8 where semi's peak is the exact peak", nullptr,
     [](const Results& r) {
       Values v = r.Measure(kValue, "9c/t*/peak-ok", nullptr);
       return Values{std::accumulate(v.begin(), v.end(), 0.0)};
     }},
    {"fig9c", false, "Errors can be large (raw magnitude up to 0.286)", 0.2,
     1, kValue, "9c/worst/max-err", nullptr},
    {"fig10", false, "The indexed methods' advantage grows with query links",
     0, 0.5, kReg, "10/*/links=4/btree", "10/*/links=2/btree"},
    {"fig10", kDeviation,
     "The scan slows as links are added: ours is flat, tracking live states",
     1, 1, kReg, "10/*/links=*/scan", "10/*/links=2/scan"},
    {"fig10", false, "Match counts fall as links are added", 0, 1, kMatches,
     "10/*/links=*/scan", "10/*/links=2/scan"},
    {"fig10", false, "Variable-length queries match at least as often", 1,
     kInf, kMatches, "10/*/*/mc", "10/*/*/scan"},
    {"fig11a", false, "The naive scan grows linearly in the interval", 1, 1,
     kValue, "naive CPT fetches per lookup / gap", nullptr,
     [](const Results& r) {
       Values v;
       for (uint64_t gap : kGaps) v.push_back(Fetches(r, gap, 0) / gap);
       return v;
     }},
    {"fig11a", false, "With the index the cost is logarithmic", 0, 2, kValue,
     "i>=1 CPT fetches per lookup / log2(gap)", nullptr,
     [](const Results& r) {
       Values v;
       for (uint64_t gap : kGaps) {
         v.push_back(Fetches(r, gap, 1) / std::log2(gap));
       }
       return v;
     }},
    {"fig11a", false, "Removing a level never lowers the lookup cost", 1,
     kInf, kValue, "fetches at i>=L / at i>=L-1, every gap, L = 2..5", nullptr,
     [](const Results& r) {
       Values v;
       for (uint64_t gap : kGaps) {
         for (uint32_t level = 2; level <= 5; ++level) {
           v.push_back(Fetches(r, gap, level) / Fetches(r, gap, level - 1));
         }
       }
       return v;
     }},
    {"fig11a", false,
     "Each removed level roughly doubles the cost below its span", 1.5, 2.5,
     kValue, "fetches at gap 32, i>=4 / i>=3 and i>=5 / i>=4", nullptr,
     [](const Results& r) {
       return Values{Fetches(r, 32, 4) / Fetches(r, 32, 3),
                     Fetches(r, 32, 5) / Fetches(r, 32, 4)};
     }},
    {"fig11b", false, "Storage is linear in stream length", 1, 1.15, kValue,
     "alpha=2 bytes per timestep / the lowest over lengths", nullptr,
     [](const Results& r) {
       Values bytes = r.Measure(kValue, "11b/*/a=2", "11b/*/steps");
       if (bytes.empty()) return bytes;
       double lowest = *std::min_element(bytes.begin(), bytes.end());
       for (double& b : bytes) b /= lowest;
       return bytes;
     }},
    {"fig11b", false, "alpha=2 at most doubles the stream's CPT storage", 0,
     2, kValue, "11b/*/a=2", "11b/*/raw"},
    {"fig11b", false, "Larger alpha decreases storage steeply", 0, 0.125,
     kValue, "11b/*/a=16", "11b/*/a=2"},
    {"ablation", false,
     "Buffer pool: misses settle once the pool holds the hot path (16 pages)",
     1, 1, kIndexMisses, "index misses at 64..1024 pool pages / at 16",
     nullptr,
     [](const Results& r) {
       Values v;
       for (int pool : {64, 256, 1024}) {
         v.push_back(r.at(Fmt("abl/pool=%d", pool)).Get(kIndexMisses) /
                     r.at("abl/pool=16").Get(kIndexMisses));
       }
       return v;
     }},
    {"ablation", false, "... and stream misses do not depend on the pool", 1,
     1, kStreamMisses, "abl/pool=*", "abl/pool=16"},
    {"ablation", false, "Page size: scan work is insensitive from 1 to 16 KiB",
     1, 1.1, kStreamPages, "abl/page=*", "abl/page=16384"},
    {"ablation", false,
     "MC alpha: fetches rise with alpha as the index shrinks", 1.2, kInf,
     kValue, "MC fetch growth and index byte shrink per alpha step", nullptr,
     [](const Results& r) {
       Values v;
       for (uint32_t alpha : {4, 8, 16}) {
         auto fetches = [&](uint32_t a) {
           const ExecStats& s = r.at(Fmt("abl/alpha=%u", a)).stats;
           return static_cast<double>(s.mc_entry_fetches + s.mc_raw_fetches);
         };
         auto bytes = [&](uint32_t a) {
           return r.value(Fmt("abl/alpha=%u/bytes", a));
         };
         v.push_back(fetches(alpha) / fetches(alpha / 2));
         v.push_back(bytes(alpha / 2) / bytes(alpha));
       }
       return v;
     }},
    {"ablation", false,
     "The MC method misses fewer stream pages on the separated layout", 0, 1,
     kStreamMisses, "abl/mc-separated", "abl/mc-co-clustered"},
    {"ablation", false, "Truncation eps up to 1e-2 barely moves the peak", 0,
     0.005, kValue, "|peak at eps - peak at 1e-4|, eps = 1e-3 and 1e-2",
     nullptr,
     [](const Results& r) {
       double base = r.value("abl/eps=0.0001/peak");
       return Values{std::abs(r.value("abl/eps=0.001/peak") - base),
                     std::abs(r.value("abl/eps=0.01/peak") - base)};
     }},
    {"ablation", false, "... while it shrinks the stream", 0, 0.5,
     kStreamMisses, "abl/eps=0.01", "abl/eps=0.0001"},
    {"fleet", false, "Querying one tag costs the same at any fleet size", 1,
     1, kIndexPages, "fleet/*/one-tag", "fleet/tags=1/one-tag"},
    {"fleet", false, "A fleet query costs the sum of its per-tag costs", 1, 1,
     kReg, "fleet/*/fleet", "fleet/*/tag-sum"},
};

}  // namespace

int main() {
  const std::string root = ScratchDir("paper");
  Results results;
  for (auto experiment : {Fig8a, Fig8b9b, Fig8c, Fig9a, Fig9c, Fig10, Fig11a,
                          Fig11b, Ablations, Fleet}) {
    experiment(results, root);
  }

  int failed = 0, deviations = 0;
  std::printf("\n");
  for (const Claim& claim : kClaims) {
    Values values = claim.by_hand != nullptr
                        ? claim.by_hand(results)
                        : results.Measure(claim.field, claim.num, claim.den);
    const size_t n = values.size();
    bool ok = n > 0;  // A pattern that matches nothing fails.
    for (double v : values) ok = ok && v >= claim.lo && v <= claim.hi;
    if (n == 0) values.push_back(NAN);
    auto [lo, hi] = std::minmax_element(values.begin(), values.end());
    failed += ok ? 0 : 1;
    deviations += claim.deviation ? 1 : 0;
    std::string measure =
        claim.by_hand != nullptr
            ? claim.num
            : Fmt("%s %s%s%s", kFieldNames[claim.field], claim.num,
                  claim.den != nullptr ? " / " : "",
                  claim.den != nullptr ? claim.den : "");
    std::printf("%-9s %-8s %-4s %s | %s: %.3g..%.3g (%zu), bound [%g, %g]\n",
                claim.deviation ? "DEVIATION" : "CHECK", claim.figure,
                ok ? "ok" : "FAIL", claim.text, measure.c_str(), *lo, *hi, n,
                claim.lo, claim.hi);
  }
  std::printf("# %zu claims, %d declared deviations, %d failed\n",
              std::size(kClaims), deviations, failed);
  std::filesystem::remove_all(root);
  return failed == 0 ? 0 : 1;
}
