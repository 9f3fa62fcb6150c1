#include <gtest/gtest.h>

#include <set>

#include "caldera/access_method.h"
#include "reg/reg_operator.h"
#include "rfid/layout.h"
#include "rfid/simulator.h"
#include "rfid/workload.h"

namespace caldera {
namespace {

TEST(LayoutTest, CorridorFactoryShape) {
  BuildingLayout layout =
      BuildingLayout::MakeCorridor({.segments = 6, .rooms_per_segment = 2});
  EXPECT_EQ(layout.num_locations(), 6u + 12u);
  EXPECT_EQ(layout.antennas().size(), 6u);
  auto h0 = layout.LocationByName("H0");
  auto h5 = layout.LocationByName("H5");
  ASSERT_TRUE(h0.ok());
  ASSERT_TRUE(h5.ok());
  auto path = layout.ShortestPath(*h0, *h5);
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(path->size(), 6u);
  auto room = layout.LocationByName("Room3_1");
  ASSERT_TRUE(room.ok());
  EXPECT_EQ(layout.location(*room).type, LocationType::kOffice);
  // Rooms hang off exactly one corridor cell.
  EXPECT_EQ(layout.neighbors(*room).size(), 1u);
}

TEST(LayoutTest, PaperBuildingMatchesDeploymentScale) {
  BuildingLayout layout = BuildingLayout::MakePaperBuilding();
  EXPECT_EQ(layout.num_locations(), 352u);
  EXPECT_EQ(layout.antennas().size(), 38u);
  // Antennas only in corridors.
  for (const auto& antenna : layout.antennas()) {
    EXPECT_EQ(layout.location(antenna.location).type,
              LocationType::kCorridor);
  }
  // Both floors reachable.
  auto f1 = layout.LocationByName("F1_H0");
  auto f2 = layout.LocationByName("F2_H25");
  ASSERT_TRUE(f1.ok());
  ASSERT_TRUE(f2.ok());
  EXPECT_TRUE(layout.ShortestPath(*f1, *f2).ok());
  // It has the special room types.
  EXPECT_FALSE(layout.LocationsOfType(LocationType::kCoffeeRoom).empty());
  EXPECT_FALSE(layout.LocationsOfType(LocationType::kLounge).empty());
}

TEST(LayoutTest, SchemaAndDimensionAgree) {
  BuildingLayout layout = BuildingLayout::MakeCorridor({.segments = 4});
  StreamSchema schema = layout.MakeSchema();
  EXPECT_EQ(schema.state_count(), layout.num_locations());
  DimensionTable types = layout.MakeTypeDimension();
  auto corridors = types.Lookup("type", "Corridor");
  ASSERT_TRUE(corridors.ok());
  EXPECT_EQ(corridors->size(), 4u);
  for (uint32_t c : *corridors) {
    EXPECT_EQ(layout.location(c).type, LocationType::kCorridor);
  }
}

TEST(LayoutTest, HmmIsValidAndLocal) {
  BuildingLayout layout = BuildingLayout::MakeCorridor({.segments = 8});
  Hmm hmm = layout.MakeHmm({});
  EXPECT_TRUE(hmm.Validate().ok());
  // Transitions only to self or neighbors.
  for (uint32_t loc = 0; loc < layout.num_locations(); ++loc) {
    const std::optional<Cpt::RowView> row = hmm.transition().FindRow(loc);
    ASSERT_TRUE(row.has_value());
    for (ValueId dst : row->dsts) {
      if (dst == loc) continue;
      const auto& neighbors = layout.neighbors(loc);
      EXPECT_NE(std::find(neighbors.begin(), neighbors.end(), dst),
                neighbors.end());
    }
  }
  // Rooms (no antennas nearby... rooms adjacent to corridor with antenna
  // may produce false reads) always allow silence.
  for (uint32_t loc = 0; loc < layout.num_locations(); ++loc) {
    EXPECT_GT(hmm.EmissionProb(loc, 0), 0.0);
  }
}

TEST(SimulatorTest, RoutineVisitsStopsInOrder) {
  BuildingLayout layout = BuildingLayout::MakeCorridor({.segments = 8});
  PersonSimulator sim(&layout, 3);
  auto h0 = layout.LocationByName("H0");
  auto room = layout.LocationByName("Room5_0");
  auto h7 = layout.LocationByName("H7");
  ASSERT_TRUE(h0.ok());
  ASSERT_TRUE(room.ok());
  ASSERT_TRUE(h7.ok());
  auto truth = sim.SimulateRoutine(*h0, {{*room, 5}, {*h7, 2}});
  ASSERT_TRUE(truth.ok());
  // Consecutive cells are identical or adjacent.
  for (size_t i = 1; i < truth->size(); ++i) {
    if ((*truth)[i] == (*truth)[i - 1]) continue;
    const auto& neighbors = layout.neighbors((*truth)[i - 1]);
    EXPECT_NE(std::find(neighbors.begin(), neighbors.end(), (*truth)[i]),
              neighbors.end());
  }
  // The room is dwelled in for at least its dwell time.
  size_t room_steps = 0;
  for (uint32_t loc : *truth) room_steps += (loc == *room) ? 1 : 0;
  EXPECT_GE(room_steps, 5u);
  EXPECT_EQ(truth->back(), *h7);
}

TEST(SimulatorTest, ObservationsComeFromEmissionModel) {
  BuildingLayout layout = BuildingLayout::MakeCorridor({.segments = 6});
  Hmm hmm = layout.MakeHmm({});
  PersonSimulator sim(&layout, 4);
  auto h0 = layout.LocationByName("H0");
  ASSERT_TRUE(h0.ok());
  std::vector<uint32_t> truth = sim.RandomWalk(*h0, 300);
  auto obs = sim.Observe(truth, hmm);
  ASSERT_TRUE(obs.ok());
  ASSERT_EQ(obs->size(), truth.size());
  for (size_t t = 0; t < obs->size(); ++t) {
    EXPECT_GT(hmm.EmissionProb(truth[t], (*obs)[t]), 0.0);
  }
}

TEST(WorkloadTest, SnippetStreamDensityControl) {
  for (double density : {0.1, 0.9}) {
    SnippetStreamSpec spec;
    spec.num_snippets = 30;
    spec.density = density;
    spec.match_rate = 1.0;
    spec.seed = 17;
    auto workload = MakeSnippetStream(spec);
    ASSERT_TRUE(workload.ok()) << workload.status().ToString();
    EXPECT_TRUE(workload->stream.Validate(1e-6).ok());

    // Measured density: fraction of timesteps with target-room support.
    uint64_t relevant = 0;
    for (uint64_t t = 0; t < workload->stream.length(); ++t) {
      if (workload->stream.marginal(t).ProbabilityOf(workload->target_room) >
          0) {
        ++relevant;
      }
    }
    double measured =
        static_cast<double>(relevant) / workload->stream.length();
    if (density < 0.5) {
      EXPECT_LT(measured, 0.35) << "requested density " << density;
    } else {
      EXPECT_GT(measured, 0.2) << "requested density " << density;
    }
  }
}

TEST(WorkloadTest, SnippetMatchRateControlsSignal) {
  SnippetStreamSpec spec;
  spec.num_snippets = 40;
  spec.density = 1.0;
  spec.seed = 19;

  spec.match_rate = 1.0;
  auto matching = MakeSnippetStream(spec);
  ASSERT_TRUE(matching.ok());
  spec.match_rate = 0.0;
  auto non_matching = MakeSnippetStream(spec);
  ASSERT_TRUE(non_matching.ok());

  auto count_peaks = [](const SnippetWorkload& w) {
    std::vector<double> signal =
        RunRegOverStream(w.EnteredRoomFixed(), w.stream);
    int peaks = 0;
    for (double p : signal) peaks += (p > 0.05) ? 1 : 0;
    return peaks;
  };
  EXPECT_GT(count_peaks(*matching), 10);
  EXPECT_EQ(count_peaks(*non_matching), 0);
}

TEST(WorkloadTest, SnippetQueriesValidate) {
  SnippetStreamSpec spec;
  spec.num_snippets = 3;
  auto workload = MakeSnippetStream(spec);
  ASSERT_TRUE(workload.ok());
  EXPECT_TRUE(workload->EnteredRoomFixed()
                  .ValidateAgainst(workload->schema)
                  .ok());
  RegularQuery variable = workload->EnteredRoomVariable();
  EXPECT_TRUE(variable.ValidateAgainst(workload->schema).ok());
  EXPECT_FALSE(variable.fixed_length());
}

TEST(WorkloadTest, RoutineStreamIsBimodal) {
  RoutineSpec spec;
  spec.length = 900;
  spec.num_excursions = 3;
  spec.paper_building = false;
  auto workload = MakeRoutineStream(spec);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  EXPECT_TRUE(workload->stream.Validate(1e-6).ok());

  auto density_of = [&](uint32_t room) {
    uint64_t relevant = 0;
    for (uint64_t t = 0; t < workload->stream.length(); ++t) {
      if (workload->stream.marginal(t).ProbabilityOf(room) > 0) ++relevant;
    }
    return static_cast<double>(relevant) / workload->stream.length();
  };

  // Bimodality (Section 4.1.2): own-office density high, decoy density low.
  EXPECT_GT(density_of(workload->own_office), 0.5);
  ASSERT_FALSE(workload->decoy_rooms.empty());
  EXPECT_LT(density_of(workload->decoy_rooms[0]), 0.1);
}

TEST(WorkloadTest, RoutineEnteredRoomQueries) {
  RoutineSpec spec;
  spec.length = 600;
  spec.num_excursions = 2;
  spec.paper_building = false;
  auto workload = MakeRoutineStream(spec);
  ASSERT_TRUE(workload.ok());

  for (size_t links : {2u, 3u, 4u}) {
    auto query = workload->EnteredRoom(workload->own_office, links);
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    EXPECT_EQ(query->num_links(), links);
    EXPECT_TRUE(query->fixed_length());
    EXPECT_TRUE(query->ValidateAgainst(workload->schema).ok());
    auto variable = workload->EnteredRoom(workload->own_office, links, true);
    ASSERT_TRUE(variable.ok());
    EXPECT_FALSE(variable->fixed_length());
  }
  // Corridor targets are rejected.
  uint32_t corridor =
      workload->layout.LocationsOfType(LocationType::kCorridor)[0];
  EXPECT_FALSE(workload->EnteredRoom(corridor, 2).ok());
  // The 22-room query mix is available on the paper building.
  EXPECT_GE(workload->QueryRooms(22).size(), 3u);
}

TEST(WorkloadTest, IndependenceBridgeIsStochastic) {
  Distribution from = Distribution::FromPairs({{0, 0.5}, {2, 0.5}});
  Distribution to = Distribution::FromPairs({{1, 0.25}, {3, 0.75}});
  Cpt bridge = IndependenceBridge(from, to);
  EXPECT_TRUE(bridge.ValidateStochastic().ok());
  EXPECT_DOUBLE_EQ(bridge.Probability(0, 3), 0.75);
  EXPECT_DOUBLE_EQ(bridge.Probability(2, 1), 0.25);
}

}  // namespace
}  // namespace caldera
