// Integration tests of the experiment pipeline on a scaled-down workload:
// the full OS / random / oracle / SPCD comparison on the tiny machine.
#include "core/runner.hpp"

#include <gtest/gtest.h>

#include "util/thread_pool.hpp"
#include "workloads/npb.hpp"

namespace spcd::core {
namespace {

RunnerConfig fast_config() {
  RunnerConfig config;
  config.repetitions = 2;
  // Scale the SPCD cadence with the shorter runs.
  config.spcd.injector_period = 100'000;
  config.spcd.mapping_interval = 200'000;
  config.spcd.min_matrix_total = 32;
  return config;
}

WorkloadFactory tiny_sp() {
  return [](std::uint64_t seed) {
    return workloads::make_nas("sp", seed, /*scale=*/0.12);
  };
}

TEST(RunnerTest, RunOnceProducesSaneMetrics) {
  Runner runner(fast_config());
  const auto m = runner.run_once("sp", tiny_sp(), MappingPolicy::kOs, 0);
  EXPECT_GT(m.exec_seconds, 0.0);
  EXPECT_GT(m.instructions, 0u);
  EXPECT_GT(m.l2_mpki, 0.0);
  EXPECT_GT(m.package_joules, 0.0);
  EXPECT_GT(m.dram_joules, 0.0);
  EXPECT_EQ(m.migration_events, 0u);   // OS run has no SPCD
  EXPECT_EQ(m.injected_faults, 0u);
  EXPECT_EQ(m.detection_overhead, 0.0);
}

TEST(RunnerTest, RepetitionsAreDeterministicPerIndex) {
  Runner a(fast_config());
  Runner b(fast_config());
  const auto ma = a.run_once("sp", tiny_sp(), MappingPolicy::kOs, 1);
  const auto mb = b.run_once("sp", tiny_sp(), MappingPolicy::kOs, 1);
  EXPECT_DOUBLE_EQ(ma.exec_seconds, mb.exec_seconds);
  EXPECT_EQ(ma.instructions, mb.instructions);
}

TEST(RunnerTest, DifferentRepetitionsDiffer) {
  Runner runner(fast_config());
  const auto m0 = runner.run_once("sp", tiny_sp(), MappingPolicy::kOs, 0);
  const auto m1 = runner.run_once("sp", tiny_sp(), MappingPolicy::kOs, 1);
  EXPECT_NE(m0.exec_seconds, m1.exec_seconds);
}

TEST(RunnerTest, OraclePlacementIsCachedAndValid) {
  Runner runner(fast_config());
  const auto& p1 = runner.oracle_placement("sp", tiny_sp());
  EXPECT_EQ(p1.size(), 32u);
  const auto* matrix = runner.oracle_matrix("sp");
  ASSERT_NE(matrix, nullptr);
  EXPECT_GT(matrix->total(), 0u);
  const auto& p2 = runner.oracle_placement("sp", tiny_sp());
  EXPECT_EQ(&p1, &p2);  // same cached object
}

// refine_passes > 64 fails the oracle's mapping step after its profiling
// run: the failure must reach every requester instead of leaving them
// waiting for an entry that never becomes ready.
TEST(RunnerTest, FailedOracleProfileReachesEveryRequester) {
  RunnerConfig config = fast_config();
  config.jobs = 2;
  config.spcd.mapping.refine_passes = 65;
  const WorkloadFactory cg = workloads::nas_factory("cg", 0.02);
  {
    // Two requests in turn on one thread: both throw.
    Runner runner(config);
    EXPECT_THROW(runner.oracle_placement("cg", cg), ConfigError);
    EXPECT_THROW(runner.oracle_placement("cg", cg), ConfigError);
    EXPECT_EQ(runner.oracle_matrix("cg"), nullptr);
  }
  // Two repetitions on two workers: both fail, each named once.
  Runner runner(config);
  try {
    runner.run_policy("cg", cg, MappingPolicy::kOracle);
    ADD_FAILURE() << "run_policy returned despite failed repetitions";
  } catch (const util::JobErrors& e) {
    ASSERT_EQ(e.errors().size(), 2u);
    EXPECT_EQ(e.errors()[0].context, "cg/oracle/rep0");
    EXPECT_EQ(e.errors()[1].context, "cg/oracle/rep1");
    for (const util::JobErrors::Entry& failed : e.errors()) {
      EXPECT_NE(failed.message.find("refine_passes"), std::string::npos)
          << failed.message;
    }
  }
}

TEST(RunnerTest, SpcdRunRecordsMatrixAndOverheads) {
  Runner runner(fast_config());
  const auto m = runner.run_once("sp", tiny_sp(), MappingPolicy::kSpcd, 0);
  EXPECT_GT(m.injected_faults, 0u);
  EXPECT_GT(m.detection_overhead, 0.0);
  EXPECT_LT(m.detection_overhead, 0.10);
  ASSERT_NE(m.spcd_matrix, nullptr);
  EXPECT_GT(m.spcd_matrix->total(), 0u);
}

TEST(RunnerTest, RunPolicyReturnsAllRepetitions) {
  Runner runner(fast_config());
  const auto runs = runner.run_policy("sp", tiny_sp(), MappingPolicy::kRandom);
  EXPECT_EQ(runs.size(), 2u);
}

TEST(RunnerTest, AggregateComputesMeanAndCi) {
  std::vector<RunMetrics> runs(4);
  runs[0].exec_seconds = 1.0;
  runs[1].exec_seconds = 2.0;
  runs[2].exec_seconds = 3.0;
  runs[3].exec_seconds = 4.0;
  const auto ci = aggregate(
      runs, [](const RunMetrics& m) { return m.exec_seconds; });
  EXPECT_DOUBLE_EQ(ci.mean, 2.5);
  EXPECT_GT(ci.ci95, 0.0);
}

TEST(RunnerTest, InjectedRatioHelper) {
  RunMetrics m;
  m.minor_faults = 90;
  m.injected_faults = 10;
  EXPECT_DOUBLE_EQ(m.injected_fault_ratio(), 0.10);
  RunMetrics zero;
  EXPECT_EQ(zero.injected_fault_ratio(), 0.0);
}

// The headline integration property: on the communication-heavy SP-like
// kernel, the oracle mapping beats the OS scheduler on time and
// cache-to-cache traffic, and SPCD reduces c2c traffic relative to the OS.
TEST(RunnerTest, MappingOrderingMatchesPaperShape) {
  RunnerConfig config = fast_config();
  config.repetitions = 3;
  Runner runner(config);
  const auto factory = [](std::uint64_t seed) {
    return workloads::make_nas("sp", seed, /*scale=*/0.3);
  };
  const auto os = runner.run_policy("sp", factory, MappingPolicy::kOs);
  const auto oracle = runner.run_policy("sp", factory, MappingPolicy::kOracle);

  const auto os_time =
      aggregate(os, [](const RunMetrics& m) { return m.exec_seconds; });
  const auto oracle_time =
      aggregate(oracle, [](const RunMetrics& m) { return m.exec_seconds; });
  EXPECT_LT(oracle_time.mean, os_time.mean);

  const auto os_c2c = aggregate(os, [](const RunMetrics& m) {
    return static_cast<double>(m.c2c_transactions);
  });
  const auto oracle_c2c = aggregate(oracle, [](const RunMetrics& m) {
    return static_cast<double>(m.c2c_transactions);
  });
  EXPECT_LT(oracle_c2c.mean, 0.5 * os_c2c.mean);
}

}  // namespace
}  // namespace spcd::core
