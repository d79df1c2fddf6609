// The latency bound of one hierarchical remap decision at 1024 threads, on
// the clustered workload fig17 sweeps: the best of 3 must stay below
// 64.3 ms, ten times the 6.43 ms recorded when the strategy was introduced.
// Only an unsanitized Release build registers it, and ctest runs it alone
// (RUN_SERIAL): the refinement's worker count follows SPCD_JOBS, so tests
// running beside it would be timed too.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>

#include "arch/topology.hpp"
#include "bench/mapper_workload.hpp"
#include "core/mapping_strategy.hpp"

namespace spcd {
namespace {

TEST(RemapBoundTest, Hierarchical1024ThreadsUnder64ms) {
  const arch::Topology topo(bench::mapper_scale_topology(1024));
  const core::CommMatrix m = bench::mapper_scale_matrix(1024);
  core::MappingConfig config;
  config.strategy = "hierarchical";
  const auto hierarchical = core::make_mapping_strategy(config);
  double best_ms = 1e300;
  for (int pass = 0; pass < 3; ++pass) {
    const auto start = std::chrono::steady_clock::now();
    const auto placement = hierarchical->map(m, topo).placement;
    const std::chrono::duration<double, std::milli> took =
        std::chrono::steady_clock::now() - start;
    ASSERT_EQ(placement.size(), 1024u);
    best_ms = std::min(best_ms, took.count());
  }
  EXPECT_LT(best_ms, 64.3) << "best of 3 remaps took " << best_ms << " ms";
}

}  // namespace
}  // namespace spcd
