#include "rfid/workload.h"

#include <algorithm>

#include "common/logging.h"
#include "common/rng.h"
#include "hmm/smoother.h"
#include "rfid/simulator.h"

namespace caldera {

Cpt IndependenceBridge(const Distribution& from, const Distribution& to) {
  Cpt bridge;
  std::vector<Cpt::RowEntry> row;
  row.reserve(to.support_size());
  for (const Distribution::Entry& e : to.entries()) {
    row.push_back({e.value, e.prob});
  }
  for (const Distribution::Entry& src : from.entries()) {
    bridge.SetRow(src.value, row);
  }
  return bridge;
}

namespace {

/// Identity permutation with the given pairs swapped.
std::vector<ValueId> SwapPermutation(
    uint32_t domain, const std::vector<std::pair<ValueId, ValueId>>& swaps) {
  std::vector<ValueId> perm(domain);
  for (uint32_t i = 0; i < domain; ++i) perm[i] = i;
  for (const auto& [a, b] : swaps) std::swap(perm[a], perm[b]);
  return perm;
}

}  // namespace

RegularQuery SnippetWorkload::EnteredRoomFixed() const {
  Predicate hall = Predicate::Equality(
      0, target_hall, schema.label(0, target_hall));
  Predicate room = Predicate::Equality(
      0, target_room, schema.label(0, target_room));
  return RegularQuery::Sequence("EnteredRoomFixed", {hall, room});
}

RegularQuery SnippetWorkload::EnteredRoomVariable() const {
  Predicate hall = Predicate::Equality(
      0, target_hall, schema.label(0, target_hall));
  Predicate room = Predicate::Equality(
      0, target_room, schema.label(0, target_room));
  std::vector<QueryLink> links;
  links.push_back(QueryLink{std::nullopt, hall});
  links.push_back(QueryLink{Predicate::Not(room), room});
  return RegularQuery("EnteredRoomVariable", std::move(links));
}

Result<SnippetWorkload> MakeSnippetStream(const SnippetStreamSpec& spec) {
  if (spec.corridor_segments < 8) {
    return Status::InvalidArgument(
        "snippet streams need >= 8 corridor segments");
  }
  if (spec.density < 0 || spec.density > 1 || spec.match_rate < 0 ||
      spec.match_rate > 1) {
    return Status::InvalidArgument("density/match_rate must be in [0,1]");
  }

  SnippetWorkload workload;
  BuildingLayout::CorridorSpec corridor;
  corridor.segments = spec.corridor_segments;
  corridor.rooms_per_segment = 1;
  corridor.detect_prob = spec.detect_prob;
  workload.layout = BuildingLayout::MakeCorridor(corridor);
  workload.schema = workload.layout.MakeSchema();

  const uint32_t m = spec.corridor_segments / 2;
  CALDERA_ASSIGN_OR_RETURN(
      uint32_t target_room,
      workload.layout.LocationByName("Room" + std::to_string(m) + "_0"));
  CALDERA_ASSIGN_OR_RETURN(
      uint32_t target_hall,
      workload.layout.LocationByName("H" + std::to_string(m)));
  workload.target_room = target_room;
  workload.target_hall = target_hall;

  // Swap partners live in the corridor tail the walk never visits, so a
  // relabeled snippet carries no support on the swapped-away location.
  CALDERA_ASSIGN_OR_RETURN(
      uint32_t tail_hall,
      workload.layout.LocationByName(
          "H" + std::to_string(spec.corridor_segments - 1)));
  CALDERA_ASSIGN_OR_RETURN(
      uint32_t tail_room,
      workload.layout.LocationByName(
          "Room" + std::to_string(spec.corridor_segments - 2) + "_0"));

  Hmm hmm = workload.layout.MakeHmm({});
  CALDERA_ASSIGN_OR_RETURN(uint32_t start,
                           workload.layout.LocationByName("H0"));
  hmm.SetInitial(Distribution::Point(start));

  PersonSimulator simulator(&workload.layout, spec.seed);
  Rng type_rng(spec.seed ^ 0x5eed);
  SmootherOptions smoother;
  smoother.truncate_eps = spec.truncate_eps;

  MarkovianStream stream(workload.schema);
  const uint32_t domain = workload.schema.state_count();
  for (uint32_t i = 0; i < spec.num_snippets; ++i) {
    // Walk to the target room, dwell ~15 steps, walk back.
    std::vector<PersonSimulator::Stop> stops = {
        {target_room, 15},
        {start, 0},
    };
    CALDERA_ASSIGN_OR_RETURN(std::vector<uint32_t> truth,
                             simulator.SimulateRoutine(start, stops,
                                                       /*pause_prob=*/0.1));
    CALDERA_ASSIGN_OR_RETURN(std::vector<uint32_t> obs,
                             simulator.Observe(truth, hmm));
    CALDERA_ASSIGN_OR_RETURN(
        MarkovianStream snippet,
        SmoothToMarkovianStream(hmm, obs, workload.schema, smoother));

    const bool relevant = type_rng.NextBool(spec.density);
    const bool match = relevant && type_rng.NextBool(spec.match_rate);
    if (relevant && !match) {
      // Keep the room's support but move the fronting hallway away so the
      // fixed-length intersection cannot fire.
      snippet.RelabelValues(
          SwapPermutation(domain, {{target_hall, tail_hall}}));
    } else if (!relevant) {
      // Move both the room and the hallway away.
      snippet.RelabelValues(SwapPermutation(
          domain, {{target_room, tail_room}, {target_hall, tail_hall}}));
    }

    if (stream.empty()) {
      stream = std::move(snippet);
    } else {
      Cpt bridge = IndependenceBridge(stream.marginal(stream.length() - 1),
                                      snippet.marginal(0));
      CALDERA_RETURN_IF_ERROR(stream.Concatenate(snippet, bridge));
    }
  }
  workload.stream = std::move(stream);
  return workload;
}

Result<RegularQuery> RoutineWorkload::EnteredRoom(uint32_t room,
                                                  size_t num_links,
                                                  bool variable) const {
  if (num_links < 2 || num_links > 8) {
    return Status::InvalidArgument("Entered-Room queries use 2..8 links");
  }
  if (layout.location(room).type == LocationType::kCorridor) {
    return Status::InvalidArgument("Entered-Room target must be a room");
  }
  // The room's fronting corridor cell.
  uint32_t front = UINT32_MAX;
  for (uint32_t n : layout.neighbors(room)) {
    if (layout.location(n).type == LocationType::kCorridor) {
      front = n;
      break;
    }
  }
  if (front == UINT32_MAX) {
    return Status::InvalidArgument("room has no corridor access");
  }
  // Walk the corridor chain away from the room to pick the approach cells
  // (deterministically toward lower ids, falling back to higher).
  std::vector<uint32_t> halls{front};
  uint32_t prev = room;
  uint32_t cur = front;
  while (halls.size() < num_links - 1) {
    uint32_t next = UINT32_MAX;
    for (uint32_t n : layout.neighbors(cur)) {
      if (n == prev || layout.location(n).type != LocationType::kCorridor) {
        continue;
      }
      if (next == UINT32_MAX || n < next) next = n;
    }
    if (next == UINT32_MAX) {
      return Status::InvalidArgument("corridor too short for " +
                                     std::to_string(num_links) + " links");
    }
    halls.push_back(next);
    prev = cur;
    cur = next;
  }
  std::reverse(halls.begin(), halls.end());  // Approach order.

  std::vector<QueryLink> links;
  for (uint32_t h : halls) {
    links.push_back(QueryLink{
        std::nullopt, Predicate::Equality(0, h, schema.label(0, h))});
  }
  Predicate room_pred = Predicate::Equality(0, room, schema.label(0, room));
  if (variable) {
    links.push_back(QueryLink{Predicate::Not(room_pred), room_pred});
  } else {
    links.push_back(QueryLink{std::nullopt, room_pred});
  }
  std::string name = "EnteredRoom(" + schema.label(0, room) + "," +
                     std::to_string(num_links) + (variable ? ",var)" : ")");
  return RegularQuery(std::move(name), std::move(links));
}

Result<RegularQuery> RoutineWorkload::CoffeeBreak() const {
  CALDERA_ASSIGN_OR_RETURN(Predicate corridor,
                           types.MakePredicate("type", "Corridor"));
  CALDERA_ASSIGN_OR_RETURN(Predicate coffee,
                           types.MakePredicate("type", "CoffeeRoom"));
  std::vector<QueryLink> links;
  links.push_back(QueryLink{std::nullopt, corridor});
  links.push_back(QueryLink{Predicate::Not(coffee), coffee});
  return RegularQuery("CoffeeBreak", std::move(links));
}

std::vector<uint32_t> RoutineWorkload::QueryRooms(size_t count) const {
  std::vector<uint32_t> rooms;
  rooms.push_back(own_office);
  for (uint32_t r : excursion_rooms) {
    if (rooms.size() < count) rooms.push_back(r);
  }
  for (uint32_t r : decoy_rooms) {
    if (rooms.size() < count) rooms.push_back(r);
  }
  return rooms;
}

Result<RoutineWorkload> MakeRoutineStream(const RoutineSpec& spec) {
  RoutineWorkload workload;
  if (spec.paper_building) {
    workload.layout = BuildingLayout::MakePaperBuilding();
  } else {
    BuildingLayout::CorridorSpec corridor;
    corridor.segments = 12;
    corridor.rooms_per_segment = 3;
    corridor.detect_prob = spec.detect_prob;
    workload.layout = BuildingLayout::MakeCorridor(corridor);
    // Give the small building a coffee room for CoffeeBreak queries.
    // (Room at segment 9.)
  }
  workload.schema = workload.layout.MakeSchema();
  workload.types = workload.layout.MakeTypeDimension();

  std::vector<uint32_t> offices =
      workload.layout.LocationsOfType(LocationType::kOffice);
  if (offices.size() < 2) {
    return Status::InvalidArgument("building has too few offices");
  }
  Rng rng(spec.seed);
  workload.own_office = offices[offices.size() / 3];

  // Candidate excursion targets: offices plus special rooms.
  std::vector<uint32_t> candidates;
  for (LocationType type :
       {LocationType::kOffice, LocationType::kCoffeeRoom,
        LocationType::kLounge, LocationType::kConferenceRoom,
        LocationType::kLab}) {
    for (uint32_t r : workload.layout.LocationsOfType(type)) {
      if (r != workload.own_office) candidates.push_back(r);
    }
  }
  std::vector<uint32_t> excursions;
  for (uint32_t i = 0; i < spec.num_excursions && !candidates.empty(); ++i) {
    size_t pick = rng.NextBelow(candidates.size());
    excursions.push_back(candidates[pick]);
    candidates.erase(candidates.begin() + pick);
  }
  workload.excursion_rooms = excursions;
  // Decoys: rooms never visited.
  for (uint32_t r : candidates) {
    if (workload.decoy_rooms.size() >= 32) break;
    workload.decoy_rooms.push_back(r);
  }

  // Routine: office -> excursion -> office -> ...
  std::vector<PersonSimulator::Stop> stops;
  uint32_t office_dwell = 60;
  stops.push_back({workload.own_office, office_dwell});
  for (uint32_t room : excursions) {
    stops.push_back({room, spec.excursion_dwell});
    stops.push_back({workload.own_office, office_dwell});
  }

  PersonSimulator simulator(&workload.layout, spec.seed);
  CALDERA_ASSIGN_OR_RETURN(
      std::vector<uint32_t> truth,
      simulator.SimulateRoutine(workload.own_office, stops));
  // Pad or trim to the requested length (pad = keep sitting in the office).
  while (truth.size() < spec.length) truth.push_back(workload.own_office);
  if (truth.size() > spec.length) truth.resize(spec.length);

  // Person-specific model: this person disproportionately enters their own
  // office and their habitual rooms (Section 2.1).
  BuildingLayout::HmmParams params;
  params.entry_bias.emplace_back(workload.own_office, 8.0);
  for (uint32_t room : excursions) params.entry_bias.emplace_back(room, 3.0);
  workload.hmm = workload.layout.MakeHmm(params);
  workload.hmm.SetInitial(Distribution::Point(workload.own_office));
  CALDERA_ASSIGN_OR_RETURN(workload.observations,
                           simulator.Observe(truth, workload.hmm));
  SmootherOptions smoother;
  smoother.truncate_eps = spec.truncate_eps;
  CALDERA_ASSIGN_OR_RETURN(
      workload.stream,
      SmoothToMarkovianStream(workload.hmm, workload.observations,
                              workload.schema, smoother));
  return workload;
}

}  // namespace caldera
