// The CLI error contract: any malformed input — unknown flag, policy or
// mapper, malformed or out-of-range value, invalid configuration — makes
// spcdsim, spcd_pipeline and the examples quickstart and prodcons_phases
// exit with code 2 (see ConfigError in core/spcd_config.hpp and
// util::CliArgs). The binary paths are injected by CMake as SPCDSIM_BINARY,
// SPCD_PIPELINE_BINARY, QUICKSTART_BINARY and PRODCONS_PHASES_BINARY.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <string>

namespace {

/// Runs `binary args` and returns its exit code. Its stdout and stderr are
/// captured into *output when given, and discarded otherwise.
int exit_code_of(const char* binary, const std::string& args,
                 std::string* output = nullptr) {
  const std::string cmd = std::string(binary) + " " + args + " 2>&1";
  FILE* pipe = ::popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  if (pipe == nullptr) return -1;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0) {
    if (output != nullptr) output->append(buf, n);
  }
  const int status = ::pclose(pipe);
  EXPECT_TRUE(WIFEXITED(status));
  return WEXITSTATUS(status);
}

int exit_code_of(const std::string& args) {
  return exit_code_of(SPCDSIM_BINARY, args);
}

// Values a workload scale must reject: the cast of iterations * scale is
// undefined for -1, NaN and infinity, and 0 is no workload at all.
constexpr const char* kBadScales[] = {"-1", "0", "nan", "inf"};

TEST(CliExitCodeTest, InvalidSpcdConfigExitsTwo) {
  // extra_fault_ratio must be in (0, 1]: rejected by SpcdConfig::validate()
  // before any simulation runs.
  EXPECT_EQ(exit_code_of("--fault-ratio 0"), 2);
  EXPECT_EQ(exit_code_of("--fault-ratio 1.5"), 2);
}

TEST(CliExitCodeTest, UnknownPolicyExitsTwo) {
  EXPECT_EQ(exit_code_of("--policy linux"), 2);
}

TEST(CliExitCodeTest, UnknownFlagExitsTwo) {
  EXPECT_EQ(exit_code_of("--frobnicate"), 2);
  EXPECT_EQ(exit_code_of("--bogus-flag"), 2);
}

TEST(CliExitCodeTest, HelpExitsZero) {
  EXPECT_EQ(exit_code_of("--help"), 0);
}

TEST(CliExitCodeTest, MalformedValueExitsTwo) {
  EXPECT_EQ(exit_code_of("--reps notanumber"), 2);
  EXPECT_EQ(exit_code_of("--reps 4294967297"), 2);  // would wrap to 1
  // These would run as 12, as 2^64 - 1, and clamped to 2^64 - 1.
  EXPECT_EQ(exit_code_of("--granularity 4294967308"), 2);
  EXPECT_EQ(exit_code_of("--window ' -1'"), 2);
  EXPECT_EQ(exit_code_of("--window 99999999999999999999"), 2);
}

TEST(CliExitCodeTest, UnknownMapperExitsTwoListingTheRegistry) {
  std::string output;
  EXPECT_EQ(exit_code_of(SPCDSIM_BINARY, "--mapper bogus", &output), 2);
  EXPECT_NE(output.find("blossom|greedy|hierarchical"), std::string::npos)
      << output;
}

TEST(CliExitCodeTest, BadScaleExitsTwo) {
  for (const char* scale : kBadScales) {
    EXPECT_EQ(exit_code_of(std::string("--scale ") + scale), 2) << scale;
  }
}

TEST(CliExitCodeTest, BadLogLevelWarns) {
  std::string output;
  EXPECT_EQ(exit_code_of("SPCD_LOG=bogus " SPCDSIM_BINARY, "--help", &output),
            0);
  EXPECT_NE(output.find("SPCD_LOG=\"bogus\""), std::string::npos) << output;
  EXPECT_NE(output.find("error|warn|info|debug"), std::string::npos)
      << output;
}

TEST(CliExitCodeTest, BadTraceValueWarns) {
  // SPCD_TRACE is 0 or 1; anything else must say so rather than run
  // silently untraced.
  std::string output;
  EXPECT_EQ(exit_code_of("SPCD_TRACE=yes " SPCDSIM_BINARY,
                         "--bench cg --reps 1 --scale 0.01", &output),
            0);
  EXPECT_NE(output.find("SPCD_TRACE"), std::string::npos) << output;
}

// A count operand of the examples is a whole number in [1, 2^32 - 1]: an
// empty, non-numeric, negative, zero or too large one exits 2 instead of
// running 0 (or 2^32 - 1) repetitions or tripping a contract abort.
constexpr const char* kBadCounts[] = {"abc", "''", "0", "-1", "4294967296"};

TEST(CliExitCodeTest, QuickstartBadRepetitionsExitsTwo) {
  for (const std::string reps : kBadCounts) {
    EXPECT_EQ(exit_code_of(QUICKSTART_BINARY, "sp " + reps), 2) << reps;
  }
  EXPECT_EQ(exit_code_of(QUICKSTART_BINARY, "sp 1 2"), 2);  // extra operand
}

TEST(CliExitCodeTest, ProdConsPhasesBadOperandExitsTwo) {
  for (const std::string count : kBadCounts) {
    EXPECT_EQ(exit_code_of(PRODCONS_PHASES_BINARY, count), 2) << count;
    EXPECT_EQ(exit_code_of(PRODCONS_PHASES_BINARY, "30 " + count), 2) << count;
  }
}

#ifdef SPCD_PIPELINE_BINARY
TEST(CliExitCodeTest, PipelineBadScaleExitsTwo) {
  for (const char* scale : kBadScales) {
    const std::string args = std::string("--scale ") + scale;
    EXPECT_EQ(exit_code_of(SPCD_PIPELINE_BINARY, args), 2) << scale;
  }
}
#endif

}  // namespace
