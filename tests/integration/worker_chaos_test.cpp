// Worker-level chaos through the supervised pipeline: a sweep whose workers
// crash, or hang until the cell watchdog cancels them, must recover — via
// retry or journal resume — to bytes identical to an unperturbed sweep.
#include "bench/pipeline.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

namespace spcd {
namespace {

constexpr std::uint32_t kReps = 1;
constexpr double kScale = 0.02;

bench::PipelineOptions small_grid(const std::string& journal_path,
                                  bool resume) {
  bench::PipelineOptions options;
  options.repetitions = kReps;
  options.scale = kScale;
  options.jobs = 2;
  options.progress = false;
  options.journal_path = journal_path;
  options.resume = resume;
  return options;
}

std::string sweep_with_env(const std::string& journal_path, bool resume,
                           const char* crash, const char* hang,
                           bench::PipelineOutcome* outcome_out = nullptr) {
  if (crash != nullptr) ::setenv("SPCD_CHAOS_WORKER_CRASH", crash, 1);
  if (hang != nullptr) {
    ::setenv("SPCD_CHAOS_WORKER_HANG", hang, 1);
    ::setenv("SPCD_CHAOS_WORKER_HANG_MS", "20", 1);
    ::setenv("SPCD_CELL_TIMEOUT_MS", "8", 1);  // watchdog cancels the hang
  }
  ::setenv("SPCD_CELL_RETRIES", "2", 1);
  ::setenv("SPCD_CELL_BACKOFF_MS", "1", 1);
  const bench::PipelineOutcome outcome =
      bench::run_pipeline_supervised(small_grid(journal_path, resume));
  ::unsetenv("SPCD_CHAOS_WORKER_CRASH");
  ::unsetenv("SPCD_CHAOS_WORKER_HANG");
  ::unsetenv("SPCD_CHAOS_WORKER_HANG_MS");
  ::unsetenv("SPCD_CELL_TIMEOUT_MS");
  ::unsetenv("SPCD_CELL_RETRIES");
  ::unsetenv("SPCD_CELL_BACKOFF_MS");
  if (outcome_out != nullptr) *outcome_out = outcome;
  return outcome.complete() ? bench::serialize_cache(outcome.results)
                            : std::string();
}

std::string temp_journal(const char* tag) {
  return testing::TempDir() + "worker_chaos_" + tag + ".journal";
}

/// The unperturbed reference bytes, computed once.
const std::string& reference_bytes() {
  static const std::string bytes = [] {
    const std::string path = temp_journal("reference");
    const std::string b = sweep_with_env(path, false, nullptr, nullptr);
    EXPECT_FALSE(b.empty());
    std::remove(path.c_str());
    return b;
  }();
  return bytes;
}

TEST(WorkerChaosTest, CrashedWorkersRecoverIdentically) {
  // Crashes retry under supervision; a successful attempt is bit-identical
  // to an undisturbed run.
  const std::string path = temp_journal("crash");
  bench::PipelineOutcome outcome;
  const std::string bytes =
      sweep_with_env(path, false, "0.5", nullptr, &outcome);
  if (bytes.empty()) {
    // Past the retry budget some cells quarantined: clear the chaos and
    // resume from the journal.
    ASSERT_FALSE(outcome.supervision.quarantined.empty());
    const std::string resumed = sweep_with_env(path, true, nullptr, nullptr);
    EXPECT_EQ(resumed, reference_bytes());
  } else {
    EXPECT_GT(outcome.supervision.retried, 0u);
    EXPECT_EQ(bytes, reference_bytes());
  }
  std::remove(path.c_str());
}

TEST(WorkerChaosTest, HangingWorkersRecoverIdentically) {
  // Hangs are cancelled by the cell watchdog and retried; the rerun must
  // land on the reference bytes too.
  const std::string path = temp_journal("hang");
  bench::PipelineOutcome outcome;
  const std::string bytes =
      sweep_with_env(path, false, nullptr, "0.5", &outcome);
  if (bytes.empty()) {
    ASSERT_FALSE(outcome.supervision.quarantined.empty());
    const std::string resumed = sweep_with_env(path, true, nullptr, nullptr);
    EXPECT_EQ(resumed, reference_bytes());
  } else {
    EXPECT_GT(outcome.supervision.watchdog_fires +
                  outcome.supervision.retried,
              0u);
    EXPECT_EQ(bytes, reference_bytes());
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace spcd
