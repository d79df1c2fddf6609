#include "core/mapper.hpp"

#include <gtest/gtest.h>

#include <set>

#include "core/mapping_strategy.hpp"
#include "core/policy.hpp"
#include "util/rng.hpp"

namespace spcd::core {
namespace {

arch::Topology xeon() {
  return arch::Topology(arch::TopologySpec{.sockets = 2,
                                           .cores_per_socket = 8,
                                           .smt_per_core = 2});
}

/// Band matrix: each thread communicates with t-1 and t+1 (no wrap),
/// strength decreasing slightly with id so ties are broken consistently.
CommMatrix band_matrix(std::uint32_t n) {
  CommMatrix m(n);
  for (std::uint32_t t = 0; t + 1 < n; ++t) {
    m.add(t, t + 1, 1000 - t);
  }
  return m;
}

MappingResult blossom_map(const CommMatrix& matrix,
                          const arch::Topology& topology,
                          const sim::Placement& current = {}) {
  return make_mapping_strategy({})->map(matrix, topology, current);
}

MappingResult greedy_map(const CommMatrix& matrix,
                         const arch::Topology& topology) {
  MappingConfig config;
  config.strategy = "greedy";
  return make_mapping_strategy(config)->map(matrix, topology);
}

void expect_valid_placement(const sim::Placement& p, std::uint32_t contexts) {
  std::set<arch::ContextId> used;
  for (const auto ctx : p) {
    EXPECT_LT(ctx, contexts);
    EXPECT_TRUE(used.insert(ctx).second) << "duplicate context " << ctx;
  }
}

TEST(MapperTest, PlacementIsInjective) {
  const auto topo = xeon();
  const auto result = blossom_map(band_matrix(32), topo);
  expect_valid_placement(result.placement, topo.num_contexts());
  EXPECT_EQ(result.rounds, 5u);  // 32 -> 16 -> 8 -> 4 -> 2 -> 1
}

TEST(MapperTest, StrongPairsLandOnSmtSiblings) {
  const auto topo = xeon();
  // Clear pairing: (0,1), (2,3), ... with huge weights; everything else 0.
  CommMatrix m(32);
  for (std::uint32_t p = 0; p < 16; ++p) m.add(2 * p, 2 * p + 1, 100000);
  // Light chain between consecutive pairs to order the upper levels.
  for (std::uint32_t p = 0; p + 1 < 16; ++p) m.add(2 * p + 1, 2 * p + 2, 10);
  const auto result = blossom_map(m, topo);
  for (std::uint32_t p = 0; p < 16; ++p) {
    EXPECT_EQ(topo.core_of(result.placement[2 * p]),
              topo.core_of(result.placement[2 * p + 1]))
        << "pair " << p << " split across cores";
  }
}

TEST(MapperTest, BandMatrixStaysMostlyWithinSockets) {
  const auto topo = xeon();
  const auto result = blossom_map(band_matrix(32), topo);
  // For a chain, the ideal split cuts exactly one link; allow a little
  // slack but far below the ~16 cross links of a communication-oblivious
  // spread.
  std::uint32_t cross = 0;
  for (std::uint32_t t = 0; t + 1 < 32; ++t) {
    if (topo.socket_of(result.placement[t]) !=
        topo.socket_of(result.placement[t + 1])) {
      ++cross;
    }
  }
  EXPECT_LE(cross, 3u);
}

TEST(MapperTest, CostOfMappedBandBeatsSpread) {
  const auto topo = xeon();
  const auto m = band_matrix(32);
  const auto mapped = blossom_map(m, topo).placement;
  const auto spread = os_spread_placement(topo, 32);
  EXPECT_LT(placement_comm_cost(m, topo, mapped),
            0.5 * placement_comm_cost(m, topo, spread));
}

TEST(MapperTest, GreedyIsValidAndWeaklyWorseOrEqual) {
  const auto topo = xeon();
  util::Xoshiro256 rng(5);
  CommMatrix m(32);
  for (std::uint32_t i = 0; i < 32; ++i) {
    for (std::uint32_t j = i + 1; j < 32; ++j) {
      const auto w = rng.below(100);
      if (w > 0) m.add(i, j, w);
    }
  }
  const auto exact = blossom_map(m, topo).placement;
  const auto greedy = greedy_map(m, topo).placement;
  expect_valid_placement(greedy, topo.num_contexts());
  // The matching-based mapper should not be worse than greedy by more
  // than a smidge (it optimizes each level exactly).
  EXPECT_LE(placement_comm_cost(m, topo, exact),
            placement_comm_cost(m, topo, greedy) * 1.05);
}

TEST(MapperTest, AlignmentKeepsEquivalentMappingInPlace) {
  const auto topo = xeon();
  const auto m = band_matrix(32);
  const auto first = blossom_map(m, topo).placement;
  // Remapping with the same matrix and the current placement must not move
  // anything: the grouping is identical and alignment keeps assignments.
  const auto second = blossom_map(m, topo, first).placement;
  EXPECT_EQ(first, second);
}

TEST(MapperTest, AlignmentPreservesQuality) {
  const auto topo = xeon();
  util::Xoshiro256 rng(17);
  CommMatrix m(32);
  for (std::uint32_t t = 0; t + 1 < 32; ++t) m.add(t, t + 1, 500 + rng.below(100));
  const auto current = random_placement(topo, 32, 99);
  const auto unaligned = blossom_map(m, topo).placement;
  const auto aligned = blossom_map(m, topo, current).placement;
  expect_valid_placement(aligned, topo.num_contexts());
  EXPECT_NEAR(placement_comm_cost(m, topo, aligned),
              placement_comm_cost(m, topo, unaligned),
              placement_comm_cost(m, topo, unaligned) * 1e-9);
}

TEST(MapperTest, AlignmentMinimizesMovesFromNearOptimal) {
  const auto topo = xeon();
  const auto m = band_matrix(32);
  const auto optimal = blossom_map(m, topo).placement;
  // Perturb: swap two threads within the same core (SMT slots).
  auto current = optimal;
  std::swap(current[0], current[1]);
  const auto re = blossom_map(m, topo, current).placement;
  std::uint32_t moves = 0;
  for (std::uint32_t t = 0; t < 32; ++t) {
    if (re[t] != current[t]) ++moves;
  }
  // At most the two perturbed threads move back (or zero if the order
  // within a core is symmetric, which it is for SMT slots).
  EXPECT_LE(moves, 2u);
}

TEST(MapperTest, EmptyMatrixStillProducesValidPlacement) {
  const auto topo = xeon();
  const auto result = blossom_map(CommMatrix(32), topo);
  expect_valid_placement(result.placement, topo.num_contexts());
}

TEST(MapperTest, FewerThreadsThanContexts) {
  const auto topo = xeon();
  const auto result = blossom_map(band_matrix(8), topo);
  EXPECT_EQ(result.placement.size(), 8u);
  expect_valid_placement(result.placement, topo.num_contexts());
}

TEST(MapperTest, OddThreadCount) {
  const auto topo = xeon();
  const auto result = blossom_map(band_matrix(7), topo);
  EXPECT_EQ(result.placement.size(), 7u);
  expect_valid_placement(result.placement, topo.num_contexts());
}

TEST(MapperTest, SingleSocketMachine) {
  arch::Topology topo(arch::TopologySpec{.sockets = 1,
                                         .cores_per_socket = 4,
                                         .smt_per_core = 1});
  const auto result = blossom_map(band_matrix(4), topo);
  expect_valid_placement(result.placement, topo.num_contexts());
}

TEST(MapperTest, PlacementCommCostWeightsDistance) {
  const auto topo = xeon();
  CommMatrix m(2);
  m.add(0, 1, 100);
  const double same_core = placement_comm_cost(m, topo, {0, 1});
  const double same_socket = placement_comm_cost(m, topo, {0, 2});
  const double cross = placement_comm_cost(m, topo, {0, 16});
  EXPECT_LT(same_core, same_socket);
  EXPECT_LT(same_socket, cross);
}

}  // namespace
}  // namespace spcd::core
