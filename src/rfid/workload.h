#ifndef CALDERA_RFID_WORKLOAD_H_
#define CALDERA_RFID_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "markov/stream.h"
#include "query/regular_query.h"
#include "rfid/layout.h"

namespace caldera {

/// A bridging CPT mapping every source in `from`'s support to the `to`
/// distribution (i.e. an independence boundary). Used to concatenate
/// independently smoothed stream snippets (Section 4.1.1).
Cpt IndependenceBridge(const Distribution& from, const Distribution& to);

// --------------------------------------------------------------------------
// Synthetic snippet streams (Section 4.1.1): long streams built by
// concatenating ~30-second smoothed snippets in which a simulated person
// walks down a corridor, enters a room, dwells, and walks back. Room labels
// are permuted per snippet to control, with respect to the target
// Entered-Room query:
//   * data density    — fraction of snippets whose room segment carries the
//                       target room in its marginal support, and
//   * match rate      — fraction of *relevant* snippets in which the target
//                       hallway precedes the room (forming a candidate
//                       interval for the fixed-length query).
// --------------------------------------------------------------------------

struct SnippetStreamSpec {
  uint32_t corridor_segments = 10;
  /// Number of snippets to concatenate (~30 timesteps each).
  uint32_t num_snippets = 100;
  /// Fraction of snippets relevant to the target query.
  double density = 1.0;
  /// Fraction of relevant snippets forming a candidate match.
  double match_rate = 1.0;
  double detect_prob = 0.85;
  double truncate_eps = 1e-3;
  uint64_t seed = 1;
};

struct SnippetWorkload {
  BuildingLayout layout;
  StreamSchema schema;
  MarkovianStream stream;
  uint32_t target_room;  ///< Value id of the queried room.
  uint32_t target_hall;  ///< Value id of the hallway fronting it.

  /// Q(TargetHall, TargetRoom) — the paper's 2-link Entered-Room query.
  RegularQuery EnteredRoomFixed() const;
  /// Q(TargetHall, (!TargetRoom*, TargetRoom)) — its variable-length form.
  RegularQuery EnteredRoomVariable() const;
};

Result<SnippetWorkload> MakeSnippetStream(const SnippetStreamSpec& spec);

// --------------------------------------------------------------------------
// Routine streams (Section 4.1.2): analogs of the paper's real volunteer
// traces. A person spends most of the day in their own office (data density
// near 1 for queries about it) with a few excursions to other rooms (density
// near 0 for those) — reproducing the bimodal density the paper reports.
// --------------------------------------------------------------------------

struct RoutineSpec {
  /// Stream length in timesteps (1 step ~ 1 second; the paper's real
  /// streams are 7.6-28 minutes).
  uint64_t length = 1680;
  /// Dwell per excursion (timesteps).
  uint32_t excursion_dwell = 30;
  /// Number of excursions to other rooms.
  uint32_t num_excursions = 6;
  double detect_prob = 0.8;
  double truncate_eps = 1e-3;
  uint64_t seed = 7;
  /// Use the full 352-location paper building; false = a small corridor
  /// building (faster for tests).
  bool paper_building = true;
};

struct RoutineWorkload {
  BuildingLayout layout;
  StreamSchema schema;
  DimensionTable types;
  /// The person-specific HMM and the simulated readings it smooths into
  /// `stream`.
  Hmm hmm{0, 0};
  std::vector<uint32_t> observations;
  MarkovianStream stream;
  uint32_t own_office;                  ///< Office where most time is spent.
  std::vector<uint32_t> excursion_rooms;///< Rooms actually visited.
  std::vector<uint32_t> decoy_rooms;    ///< Rooms never visited.

  /// An Entered-Room query with `num_links` links: the room preceded by
  /// `num_links - 1` specific hallway segments on its approach path
  /// (Section 4.2.4). `variable` adds a Kleene link before the room.
  Result<RegularQuery> EnteredRoom(uint32_t room, size_t num_links = 2,
                                   bool variable = false) const;

  /// A Coffee-Room query via the LocationType dimension table:
  /// Q(Hallway-of-room, (!CoffeeRoom*, CoffeeRoom)).
  Result<RegularQuery> CoffeeBreak() const;

  /// The mixed room set used for the 22-query experiment of Figure 8(b).
  std::vector<uint32_t> QueryRooms(size_t count = 22) const;
};

Result<RoutineWorkload> MakeRoutineStream(const RoutineSpec& spec);

}  // namespace caldera

#endif  // CALDERA_RFID_WORKLOAD_H_
