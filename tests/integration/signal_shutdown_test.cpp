// Graceful-shutdown contract of the spcd_pipeline binary, end to end in a
// real subprocess: SIGTERM mid-sweep exits 130 and leaves a journal;
// --resume finishes the grid and writes a cache byte-identical to an
// uninterrupted run.
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/pipeline.hpp"
#include "util/journal.hpp"

namespace spcd {
namespace {

constexpr const char* kReps = "1";
constexpr const char* kScale = "0.02";

std::string tmp_path(const char* name) { return testing::TempDir() + name; }

bool file_exists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

/// Intact records in the journal at `path` (0 before it exists).
std::size_t journaled_records(const std::string& path) {
  return util::Journal::load(path).records.size();
}

/// Launch `spcd_pipeline --reps 1 --scale 0.02 --jobs 1 --cache <cache>`
/// (plus `--resume` when asked) and return the child pid.
pid_t spawn_pipeline(const std::string& cache, bool resume) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  // Child. Serial worker keeps the journal growing steadily so the test
  // can interrupt between cells.
  std::vector<const char*> argv;
  for (const char* arg : {SPCD_PIPELINE_BINARY, "--reps", kReps, "--scale",
                          kScale, "--jobs", "1", "--cache", cache.c_str(),
                          "--no-progress"}) {
    argv.push_back(arg);
  }
  if (resume) argv.push_back("--resume");
  argv.push_back(nullptr);
  ::execv(SPCD_PIPELINE_BINARY, const_cast<char* const*>(argv.data()));
  std::perror("execv spcd_pipeline");
  std::_Exit(127);
}

int wait_for_exit(pid_t pid) {
  int status = 0;
  EXPECT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status)) << "child did not exit normally";
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(SignalShutdownTest, SigtermMidSweepThenResumeIsByteIdentical) {
  const std::string cache = tmp_path("signal_shutdown.cache");
  const std::string journal = cache + ".journal";
  std::remove(cache.c_str());
  std::remove(journal.c_str());

  // Phase 1: start the sweep and SIGTERM it once the journal shows real
  // progress (at least one completed cell, flushed).
  const pid_t pid = spawn_pipeline(cache, false);
  ASSERT_GT(pid, 0);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (journaled_records(journal) < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_GE(journaled_records(journal), 1u)
      << "pipeline never journaled a cell";
  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  EXPECT_EQ(wait_for_exit(pid), 130);

  // The interrupted sweep leaves its journal for resumption and no cache.
  EXPECT_TRUE(file_exists(journal));
  EXPECT_FALSE(file_exists(cache));

  // Phase 2: --resume completes the grid and removes the merged journal.
  const pid_t resumed = spawn_pipeline(cache, true);
  ASSERT_GT(resumed, 0);
  EXPECT_EQ(wait_for_exit(resumed), 0);
  EXPECT_TRUE(file_exists(cache));
  EXPECT_FALSE(file_exists(journal));

  // Phase 3: the resumed cache carries the exact bytes of an
  // uninterrupted sweep (computed in-process with the same grid shape).
  bench::PipelineResults loaded;
  loaded.repetitions = 1;
  loaded.scale = 0.02;
  ASSERT_TRUE(bench::load_cache_file(cache, loaded));

  bench::PipelineOptions options;
  options.repetitions = 1;
  options.scale = 0.02;
  options.jobs = 2;
  options.progress = false;
  const bench::PipelineOutcome reference =
      bench::run_pipeline_supervised(options);
  ASSERT_TRUE(reference.complete());
  EXPECT_EQ(bench::serialize_cache(loaded),
            bench::serialize_cache(reference.results));
  std::remove(cache.c_str());
}

}  // namespace
}  // namespace spcd
