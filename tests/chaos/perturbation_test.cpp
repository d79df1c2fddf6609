#include "chaos/perturbation.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

namespace spcd::chaos {
namespace {

TEST(PerturbationConfigTest, DefaultIsInertAndValid) {
  PerturbationConfig config;
  EXPECT_FALSE(config.enabled());
  EXPECT_EQ(config.validate(), "");
}

TEST(PerturbationConfigTest, IntensityZeroIsInert) {
  const PerturbationConfig config = PerturbationConfig::at_intensity(0.0);
  EXPECT_FALSE(config.enabled());
  EXPECT_EQ(config.validate(), "");
}

TEST(PerturbationConfigTest, IntensityScalesTheStandardProfile) {
  const PerturbationConfig one = PerturbationConfig::at_intensity(1.0);
  EXPECT_TRUE(one.enabled());
  EXPECT_EQ(one.validate(), "");
  EXPECT_DOUBLE_EQ(one.drop_fault, 0.15);
  EXPECT_DOUBLE_EQ(one.duplicate_fault, 0.05);
  EXPECT_DOUBLE_EQ(one.forced_collision, 0.20);
  EXPECT_DOUBLE_EQ(one.wakeup_jitter, 0.25);
  EXPECT_DOUBLE_EQ(one.migration_fail, 0.35);

  // Probabilities saturate and the jitter stays below the overrun
  // detection threshold even at the extreme end of the scale.
  const PerturbationConfig four = PerturbationConfig::at_intensity(4.0);
  EXPECT_EQ(four.validate(), "");
  EXPECT_DOUBLE_EQ(four.drop_fault, 0.60);
  EXPECT_DOUBLE_EQ(four.migration_fail, 1.0);
  EXPECT_DOUBLE_EQ(four.wakeup_jitter, 0.45);

  // Out-of-range intensities clamp instead of producing invalid configs.
  const PerturbationConfig huge = PerturbationConfig::at_intensity(99.0);
  EXPECT_DOUBLE_EQ(huge.drop_fault, four.drop_fault);
  EXPECT_FALSE(PerturbationConfig::at_intensity(-3.0).enabled());
}

TEST(PerturbationConfigTest, ValidateRejectsBadValues) {
  PerturbationConfig config;
  config.drop_fault = 1.5;
  EXPECT_NE(config.validate(), "");

  config = {};
  config.wakeup_jitter = 0.6;  // would register as overruns
  EXPECT_NE(config.validate(), "");

  config = {};
  config.overrun_factor = 1.0;
  EXPECT_NE(config.validate(), "");

  config = {};
  config.collision_buckets = 0;
  EXPECT_NE(config.validate(), "");

  config = {};
  config.migration_delay = 0.5;
  config.migration_delay_cycles = 0;
  EXPECT_NE(config.validate(), "");

  config = {};
  config.migration_fail = -0.1;
  EXPECT_NE(config.validate(), "");
}

TEST(PerturbationEngineTest, InertConfigDrawsAndCountsNothing) {
  PerturbationEngine engine(PerturbationConfig{}, 42);
  std::uint64_t bucket = 17;
  util::Cycles delay = 0;
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(engine.drop_fault());
    EXPECT_FALSE(engine.duplicate_fault());
    EXPECT_FALSE(engine.redirect_bucket(1024, &bucket));
    EXPECT_EQ(engine.perturb_period(500'000), 500'000u);
    EXPECT_FALSE(engine.fail_migration());
    EXPECT_FALSE(engine.delay_migration(&delay));
  }
  EXPECT_EQ(bucket, 17u);  // never touched
  EXPECT_EQ(engine.counters().total(), 0u);
}

TEST(PerturbationEngineTest, SameSeedSameDrawSequence) {
  const PerturbationConfig config = PerturbationConfig::at_intensity(1.0);
  PerturbationEngine a(config, 123);
  PerturbationEngine b(config, 123);
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(a.drop_fault(), b.drop_fault());
    EXPECT_EQ(a.fail_migration(), b.fail_migration());
    EXPECT_EQ(a.perturb_period(500'000), b.perturb_period(500'000));
  }
  EXPECT_EQ(a.counters().total(), b.counters().total());
}

TEST(PerturbationEngineTest, HookFamiliesDrawFromIndependentStreams) {
  // The migration draw sequence must not depend on how many fault or
  // injector draws happened in between — each hook family owns a stream.
  const PerturbationConfig config = PerturbationConfig::at_intensity(1.0);
  PerturbationEngine interleaved(config, 7);
  PerturbationEngine isolated(config, 7);

  std::vector<bool> with_noise;
  for (int i = 0; i < 200; ++i) {
    (void)interleaved.drop_fault();
    (void)interleaved.duplicate_fault();
    (void)interleaved.perturb_period(500'000);
    with_noise.push_back(interleaved.fail_migration());
  }
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(isolated.fail_migration(), with_noise[static_cast<std::size_t>(i)])
        << "draw " << i;
  }
}

TEST(PerturbationEngineTest, RedirectBucketLandsInTheHotRange) {
  PerturbationConfig config;
  config.forced_collision = 1.0;
  config.collision_buckets = 4;
  PerturbationEngine engine(config, 99);
  for (int i = 0; i < 100; ++i) {
    std::uint64_t bucket = 500;
    EXPECT_TRUE(engine.redirect_bucket(1024, &bucket));
    EXPECT_LT(bucket, 4u);
  }
  EXPECT_EQ(engine.counters().collisions_forced, 100u);
}

TEST(PerturbationEngineTest, JitterStaysInsideTheConfiguredBand) {
  PerturbationConfig config;
  config.wakeup_jitter = 0.45;
  PerturbationEngine engine(config, 5);
  for (int i = 0; i < 200; ++i) {
    const util::Cycles period = engine.perturb_period(1'000'000);
    EXPECT_GE(period, 550'000u);
    EXPECT_LE(period, 1'450'000u);
  }
  EXPECT_EQ(engine.counters().wakeups_jittered, 200u);
}

TEST(PerturbationEngineTest, OverrunStretchesThePeriodByTheFactor) {
  PerturbationConfig config;
  config.overrun = 1.0;
  config.overrun_factor = 2.5;
  PerturbationEngine engine(config, 5);
  EXPECT_EQ(engine.perturb_period(1'000'000), 2'500'000u);
  EXPECT_EQ(engine.counters().overruns_injected, 1u);
}

TEST(PerturbationEngineTest, CountersTrackEveryInjection) {
  PerturbationConfig config;
  config.drop_fault = 1.0;
  config.duplicate_fault = 1.0;
  config.migration_fail = 1.0;
  config.migration_delay = 1.0;
  PerturbationEngine engine(config, 3);
  util::Cycles delay = 0;
  EXPECT_TRUE(engine.drop_fault());
  EXPECT_TRUE(engine.duplicate_fault());
  EXPECT_TRUE(engine.fail_migration());
  EXPECT_TRUE(engine.delay_migration(&delay));
  EXPECT_EQ(delay, config.migration_delay_cycles);
  EXPECT_EQ(engine.counters().faults_dropped, 1u);
  EXPECT_EQ(engine.counters().faults_duplicated, 1u);
  EXPECT_EQ(engine.counters().migrations_failed, 1u);
  EXPECT_EQ(engine.counters().migrations_delayed, 1u);
  EXPECT_EQ(engine.counters().total(), 4u);
}

TEST(PerturbationEnvTest, WorkerKnobsApplyOverTheBase) {
  ::setenv("SPCD_CHAOS_WORKER_CRASH", "0.5", 1);
  const PerturbationConfig worker = worker_config_from_env();
  const PerturbationConfig both =
      worker_config_from_env(PerturbationConfig::at_intensity(1.0));
  ::unsetenv("SPCD_CHAOS_WORKER_CRASH");
  EXPECT_DOUBLE_EQ(worker.worker_crash, 0.5);
  EXPECT_FALSE(worker.enabled());  // no run-level probability from env
  // spcdsim --chaos plus the env: both the profile and the worker hook.
  EXPECT_DOUBLE_EQ(both.drop_fault, 0.15);
  EXPECT_DOUBLE_EQ(both.worker_crash, 0.5);
}

}  // namespace
}  // namespace spcd::chaos
