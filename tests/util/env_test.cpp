#include "util/env.hpp"

#include <gtest/gtest.h>

#include <cstdlib>

namespace spcd::util {
namespace {

TEST(EnvTest, U64FallbackWhenUnset) {
  ::unsetenv("SPCD_TEST_ENV_U64");
  EXPECT_EQ(env_u64_clamped("SPCD_TEST_ENV_U64", 7, 0, 1 << 20), 7u);
}

TEST(EnvTest, U64ParsesValue) {
  ::setenv("SPCD_TEST_ENV_U64", "1234", 1);
  EXPECT_EQ(env_u64_clamped("SPCD_TEST_ENV_U64", 7, 0, 1 << 20), 1234u);
  ::unsetenv("SPCD_TEST_ENV_U64");
}

TEST(EnvTest, U64RejectsGarbage) {
  ::setenv("SPCD_TEST_ENV_U64", "12abc", 1);
  EXPECT_EQ(env_u64_clamped("SPCD_TEST_ENV_U64", 7, 0, 1 << 20), 7u);
  ::setenv("SPCD_TEST_ENV_U64", "", 1);
  EXPECT_EQ(env_u64_clamped("SPCD_TEST_ENV_U64", 7, 0, 1 << 20), 7u);
  ::unsetenv("SPCD_TEST_ENV_U64");
}

TEST(EnvTest, U64ClampedClampsOutOfRangeValues) {
  ::setenv("SPCD_TEST_ENV_U64", "0", 1);
  EXPECT_EQ(env_u64_clamped("SPCD_TEST_ENV_U64", 10, 1, 1024), 1u);
  ::setenv("SPCD_TEST_ENV_U64", "5000", 1);
  EXPECT_EQ(env_u64_clamped("SPCD_TEST_ENV_U64", 10, 1, 1024), 1024u);
  ::setenv("SPCD_TEST_ENV_U64", "7", 1);
  EXPECT_EQ(env_u64_clamped("SPCD_TEST_ENV_U64", 10, 1, 1024), 7u);
  ::unsetenv("SPCD_TEST_ENV_U64");
}

TEST(EnvTest, U64ClampedRejectsNegativeAndMalformed) {
  // strtoull would silently wrap "-3" to 2^64-3; the knob must not.
  ::setenv("SPCD_TEST_ENV_U64", "-3", 1);
  EXPECT_EQ(env_u64_clamped("SPCD_TEST_ENV_U64", 10, 1, 1024), 10u);
  ::setenv("SPCD_TEST_ENV_U64", "abc", 1);
  EXPECT_EQ(env_u64_clamped("SPCD_TEST_ENV_U64", 10, 1, 1024), 10u);
  ::unsetenv("SPCD_TEST_ENV_U64");
}

TEST(EnvTest, U64ClampedUnsetKeepsSentinelFallback) {
  // An unset variable returns the fallback untouched even when it lies
  // outside [lo, hi] — 0 is the "not configured" sentinel for SPCD_JOBS.
  ::unsetenv("SPCD_TEST_ENV_U64");
  EXPECT_EQ(env_u64_clamped("SPCD_TEST_ENV_U64", 0, 1, 1024), 0u);
}

TEST(EnvTest, DoubleClampedClampsAndRejects) {
  ::setenv("SPCD_TEST_ENV_D", "-2.5", 1);
  EXPECT_DOUBLE_EQ(env_double_clamped("SPCD_TEST_ENV_D", 1.0, 1e-4, 1e3),
                   1e-4);
  ::setenv("SPCD_TEST_ENV_D", "1e9", 1);
  EXPECT_DOUBLE_EQ(env_double_clamped("SPCD_TEST_ENV_D", 1.0, 1e-4, 1e3),
                   1e3);
  ::setenv("SPCD_TEST_ENV_D", "nan", 1);
  EXPECT_DOUBLE_EQ(env_double_clamped("SPCD_TEST_ENV_D", 1.0, 1e-4, 1e3),
                   1.0);
  ::setenv("SPCD_TEST_ENV_D", "garbage", 1);
  EXPECT_DOUBLE_EQ(env_double_clamped("SPCD_TEST_ENV_D", 1.0, 1e-4, 1e3),
                   1.0);
  ::setenv("SPCD_TEST_ENV_D", "0.5", 1);
  EXPECT_DOUBLE_EQ(env_double_clamped("SPCD_TEST_ENV_D", 1.0, 1e-4, 1e3),
                   0.5);
  ::unsetenv("SPCD_TEST_ENV_D");
}

TEST(EnvTest, StringFallbackAndValue) {
  ::unsetenv("SPCD_TEST_ENV_S");
  EXPECT_EQ(env_string("SPCD_TEST_ENV_S", "dft"), "dft");
  ::setenv("SPCD_TEST_ENV_S", "hello", 1);
  EXPECT_EQ(env_string("SPCD_TEST_ENV_S", "dft"), "hello");
  ::unsetenv("SPCD_TEST_ENV_S");
}

}  // namespace
}  // namespace spcd::util
