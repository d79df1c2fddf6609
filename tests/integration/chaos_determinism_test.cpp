// The determinism contract of the perturbation layer: chaos streams are
// seeded from the experiment's cell seed, so a perturbed run is
// bit-identical for any SPCD_JOBS worker count — the same guarantee the
// pipeline gives for unperturbed runs (pipeline_determinism_test), extended
// to every degradation counter.
#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "chaos/perturbation.hpp"
#include "core/runner.hpp"
#include "metrics_digest.hpp"
#include "workloads/npb.hpp"

namespace spcd {
namespace {

std::vector<core::RunMetrics> run_grid(const char* jobs) {
  ::setenv("SPCD_JOBS", jobs, 1);
  core::RunnerConfig config;
  config.repetitions = 4;
  config.jobs = 0;  // resolve through the SPCD_JOBS environment knob
  config.chaos = chaos::PerturbationConfig::at_intensity(0.8);
  core::Runner runner(config);
  auto runs = runner.run_policy("cg", workloads::nas_factory("cg", 0.15),
                                core::MappingPolicy::kSpcd);
  ::unsetenv("SPCD_JOBS");
  return runs;
}

TEST(ChaosDeterminismTest, PerturbedRunsAreByteIdenticalAcrossJobCounts) {
  const std::vector<core::RunMetrics> serial = run_grid("1");
  const std::vector<core::RunMetrics> parallel = run_grid("4");

  ASSERT_EQ(serial.size(), parallel.size());
  std::uint64_t total_perturbations = 0;
  for (std::size_t rep = 0; rep < serial.size(); ++rep) {
    const core::RunMetrics& a = serial[rep];
    const core::RunMetrics& b = parallel[rep];
    const std::string where = "rep " + std::to_string(rep);
    // Exact equality on purpose: the chaos streams must not perturb a
    // single bit across scheduling orders.
    EXPECT_EQ(a.exec_seconds, b.exec_seconds) << where;
    EXPECT_EQ(a.instructions, b.instructions) << where;
    EXPECT_EQ(a.l2_mpki, b.l2_mpki) << where;
    EXPECT_EQ(a.l3_mpki, b.l3_mpki) << where;
    EXPECT_EQ(a.c2c_transactions, b.c2c_transactions) << where;
    EXPECT_EQ(a.invalidations, b.invalidations) << where;
    EXPECT_EQ(a.dram_accesses, b.dram_accesses) << where;
    EXPECT_EQ(a.package_joules, b.package_joules) << where;
    EXPECT_EQ(a.dram_joules, b.dram_joules) << where;
    EXPECT_EQ(a.detection_overhead, b.detection_overhead) << where;
    EXPECT_EQ(a.mapping_overhead, b.mapping_overhead) << where;
    EXPECT_EQ(a.migration_events, b.migration_events) << where;
    EXPECT_EQ(a.minor_faults, b.minor_faults) << where;
    EXPECT_EQ(a.injected_faults, b.injected_faults) << where;
    EXPECT_EQ(a.saturation_resets, b.saturation_resets) << where;
    EXPECT_EQ(a.migration_retries, b.migration_retries) << where;
    EXPECT_EQ(a.migration_giveups, b.migration_giveups) << where;
    EXPECT_EQ(a.overrun_skips, b.overrun_skips) << where;
    EXPECT_EQ(a.perturbations_injected, b.perturbations_injected) << where;
    total_perturbations += a.perturbations_injected;
  }
  // Guard against vacuous success: the chaos layer actually perturbed.
  EXPECT_GT(total_perturbations, 0u);
  // Across commits: drops, duplicates and forced collisions all run through
  // the detector's delivery path, which the reference cache never perturbs.
  EXPECT_EQ(integer_metrics_digest(serial), 0x9bd36fc8661bd002ULL);
}

}  // namespace
}  // namespace spcd
