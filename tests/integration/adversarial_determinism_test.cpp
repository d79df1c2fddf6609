// The determinism contract of the adversarial layer: phantom faults are
// fabricated inside the detector's serial drain loop from cell-seeded
// streams, and every defense decision keys off detector/kernel state that
// is itself deterministic — so an attacked, hardened run is bit-identical
// for any SPCD_JOBS value, down to each new defense counter.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "chaos/adversary.hpp"
#include "core/runner.hpp"
#include "metrics_digest.hpp"
#include "workloads/npb.hpp"

namespace spcd {
namespace {

std::vector<core::RunMetrics> run_grid(const char* jobs,
                                       chaos::AdversaryKind kind) {
  ::setenv("SPCD_JOBS", jobs, 1);
  core::RunnerConfig config;
  config.repetitions = 3;
  config.jobs = 0;  // resolve through SPCD_JOBS
  config.adversary.kind = kind;
  config.adversary.intensity = 1.0;
  config.spcd.hardening.enabled = true;
  config.spcd.hardening.anomaly_window_faults = 128;
  core::Runner runner(config);
  auto runs = runner.run_policy("cg", workloads::nas_factory("cg", 0.15),
                                core::MappingPolicy::kSpcd);
  ::unsetenv("SPCD_JOBS");
  return runs;
}

void expect_identical(const std::vector<core::RunMetrics>& lhs,
                      const std::vector<core::RunMetrics>& rhs) {
  ASSERT_EQ(lhs.size(), rhs.size());
  for (std::size_t rep = 0; rep < lhs.size(); ++rep) {
    const core::RunMetrics& a = lhs[rep];
    const core::RunMetrics& b = rhs[rep];
    const std::string where = "rep " + std::to_string(rep);
    EXPECT_EQ(a.exec_seconds, b.exec_seconds) << where;
    EXPECT_EQ(a.instructions, b.instructions) << where;
    EXPECT_EQ(a.c2c_transactions, b.c2c_transactions) << where;
    EXPECT_EQ(a.dram_accesses, b.dram_accesses) << where;
    EXPECT_EQ(a.minor_faults, b.minor_faults) << where;
    EXPECT_EQ(a.injected_faults, b.injected_faults) << where;
    EXPECT_EQ(a.migration_events, b.migration_events) << where;
    EXPECT_EQ(a.saturation_resets, b.saturation_resets) << where;
    // The defense counters themselves must not wobble either.
    EXPECT_EQ(a.anomalies_flagged, b.anomalies_flagged) << where;
    EXPECT_EQ(a.admissions_refused, b.admissions_refused) << where;
    EXPECT_EQ(a.remaps_deferred, b.remaps_deferred) << where;
    EXPECT_EQ(a.remaps_rolled_back, b.remaps_rolled_back) << where;
  }
}

TEST(AdversarialDeterminismTest, SkewAttackIsByteIdenticalAcrossJobCounts) {
  const auto base = run_grid("1", chaos::AdversaryKind::kSkew);
  expect_identical(base, run_grid("4", chaos::AdversaryKind::kSkew));
  // Across commits: the phantoms and every defense counter.
  EXPECT_EQ(integer_metrics_digest(base), 0xd58e533969bcd578ULL);

  // Guard against vacuous success: the attack and the defenses both fired.
  std::uint64_t phantom_evidence = 0;
  for (const auto& m : base) {
    phantom_evidence +=
        m.anomalies_flagged + m.admissions_refused + m.remaps_deferred;
  }
  EXPECT_GT(phantom_evidence, 0u);
}

TEST(AdversarialDeterminismTest, PhaseFlipAttackIsByteIdenticalAcrossGrid) {
  const auto base = run_grid("1", chaos::AdversaryKind::kPhaseFlip);
  expect_identical(base, run_grid("4", chaos::AdversaryKind::kPhaseFlip));
  EXPECT_EQ(integer_metrics_digest(base), 0x44d06a1235ccfaafULL);
}

}  // namespace
}  // namespace spcd
