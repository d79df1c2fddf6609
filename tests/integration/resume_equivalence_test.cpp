// The crash-recovery contract of the pipeline: a sweep that dies at ANY
// point — mid-grid kill, failed cells — and is resumed from its journal
// must merge to a cache that is byte-identical to an uninterrupted run,
// for any worker count.
#include "bench/pipeline.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "util/journal.hpp"
#include "workloads/npb.hpp"

namespace spcd {
namespace {

constexpr std::uint32_t kReps = 1;
constexpr double kScale = 0.02;

std::string temp_journal(const char* tag) {
  // Pid-unique: ctest runs each TEST as its own process, and concurrent
  // processes each build the shared full-sweep reference — same-path
  // journals would clobber each other under `ctest -j`.
  return testing::TempDir() + "resume_eq_" + tag + "_" +
         std::to_string(::getpid()) + ".journal";
}

bench::PipelineOptions small_grid(const std::string& journal_path,
                                  bool resume, std::uint32_t jobs) {
  bench::PipelineOptions options;
  options.repetitions = kReps;
  options.scale = kScale;
  options.jobs = jobs;
  options.progress = false;
  options.journal_path = journal_path;
  options.resume = resume;
  return options;
}

/// One uninterrupted journaled sweep, computed once and shared by every
/// test in this binary: the reference bytes plus the full journal records.
struct FullSweep {
  std::string cache_bytes;
  std::string meta;
  std::vector<std::string> records;
};

const FullSweep& full_sweep() {
  static const FullSweep sweep = [] {
    const std::string path = temp_journal("full");
    const bench::PipelineOutcome outcome =
        bench::run_pipeline_supervised(small_grid(path, false, 2));
    EXPECT_TRUE(outcome.complete());
    EXPECT_EQ(outcome.cells_resumed, 0u);
    EXPECT_EQ(outcome.journal_records, outcome.cells_total);
    const util::Journal::LoadResult journal = util::Journal::load(path);
    EXPECT_TRUE(journal.valid);
    FullSweep s;
    s.cache_bytes = bench::serialize_cache(outcome.results);
    s.meta = journal.meta;
    s.records = journal.records;
    std::remove(path.c_str());
    return s;
  }();
  return sweep;
}

TEST(ResumeEquivalenceTest, JournalRecordsRoundTripThroughTheParser) {
  const FullSweep& full = full_sweep();
  ASSERT_FALSE(full.records.empty());
  EXPECT_EQ(full.meta, bench::journal_meta(kReps, kScale));
  for (const auto& row : full.records) {
    std::string bench_name;
    core::MappingPolicy policy;
    std::uint32_t rep = 0;
    core::RunMetrics m;
    ASSERT_TRUE(bench::parse_metrics_row(row, bench_name, policy, rep, m))
        << row;
    // Reserialization is the identity: parse loses nothing.
    EXPECT_EQ(bench::serialize_metrics_row(bench_name, policy, rep, m), row);
  }
}

TEST(ResumeEquivalenceTest, ResumeFromAnyPrefixMergesToIdenticalBytes) {
  const FullSweep& full = full_sweep();
  const std::size_t total = full.records.size();
  ASSERT_GE(total, 3u);
  // A crash leaves the journal holding some prefix of the grid. Resume
  // from a mid-sweep crash (jobs=3) and an almost-done crash (jobs=1):
  // different worker counts, same bytes.
  const struct {
    std::size_t keep;
    std::uint32_t jobs;
  } cases[] = {{total / 2, 3}, {total - 1, 1}};
  for (const auto& c : cases) {
    const std::string path = temp_journal("prefix");
    const std::vector<std::string> prefix(full.records.begin(),
                                          full.records.begin() +
                                              static_cast<long>(c.keep));
    { util::Journal::rotate(path, full.meta, prefix); }
    const bench::PipelineOutcome outcome =
        bench::run_pipeline_supervised(small_grid(path, true, c.jobs));
    EXPECT_TRUE(outcome.complete());
    EXPECT_EQ(outcome.cells_resumed, c.keep);
    EXPECT_EQ(outcome.journal_records, total);
    EXPECT_EQ(bench::serialize_cache(outcome.results), full.cache_bytes)
        << "resume with " << c.keep << " journaled cells diverged";
    std::remove(path.c_str());
  }
}

TEST(ResumeEquivalenceTest, MismatchedJournalMetaIsDiscardedNotMerged) {
  // A journal from a different experiment shape (other reps/scale) must
  // not poison the merge: every record in a wrong-meta journal is
  // discarded and the whole grid recomputes from scratch.
  const FullSweep& full = full_sweep();
  const std::string path = temp_journal("stale_meta");
  {
    util::Journal::rotate(path, bench::journal_meta(kReps + 1, kScale),
                          full.records);
  }
  const bench::PipelineOutcome outcome =
      bench::run_pipeline_supervised(small_grid(path, true, 4));
  EXPECT_TRUE(outcome.complete());
  EXPECT_EQ(outcome.cells_resumed, 0u);  // nothing trusted from the journal
  EXPECT_EQ(outcome.journal_records, full.records.size());
  EXPECT_EQ(bench::serialize_cache(outcome.results), full.cache_bytes);
  std::remove(path.c_str());
}

TEST(ResumeEquivalenceTest, FailedCellsRunOnceAndResumeMergesIdentically) {
  const FullSweep& full = full_sweep();
  // refine_passes > 64 makes every cell that maps (oracle and spcd) throw
  // ConfigError; os and random never map. journal_meta binds only the
  // strategy name, so a resume under the default mapping adopts the
  // journaled os and random cells.
  std::vector<std::string> mapped;
  for (const auto& info : workloads::nas_benchmarks()) {
    for (const auto policy :
         {core::MappingPolicy::kOracle, core::MappingPolicy::kSpcd}) {
      for (std::uint32_t rep = 0; rep < kReps; ++rep) {
        mapped.push_back(core::Runner::cell_name(info.name, policy, rep));
      }
    }
  }
  std::sort(mapped.begin(), mapped.end());
  ASSERT_EQ(mapped.size(), 20u);

  // At two jobs, then at one: the serial sweep's journal is resumed below.
  const std::string path = temp_journal("failed");
  for (const std::uint32_t jobs : {2u, 1u}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    bench::PipelineOptions broken = small_grid(path, false, jobs);
    broken.mapping.refine_passes = 65;
    const bench::PipelineOutcome failed =
        bench::run_pipeline_supervised(broken);
    EXPECT_FALSE(failed.complete());
    EXPECT_FALSE(failed.interrupted);
    // One entry per failed cell: each ran once and was reported by name.
    std::vector<std::string> names;
    for (const util::JobErrors::Entry& cell : failed.failed) {
      names.push_back(cell.context);
      EXPECT_NE(cell.message.find("refine_passes"), std::string::npos)
          << cell.context << ": " << cell.message;
    }
    EXPECT_EQ(names, mapped);

    // The rest of the grid completed and is journaled.
    EXPECT_EQ(failed.journal_records, failed.cells_total - mapped.size());
    const util::Journal::LoadResult journal = util::Journal::load(path);
    ASSERT_TRUE(journal.valid);
    EXPECT_EQ(journal.records.size(), failed.cells_total - mapped.size());
    for (const std::string& record : journal.records) {
      std::string bench_name;
      core::MappingPolicy policy;
      std::uint32_t rep = 0;
      core::RunMetrics m;
      ASSERT_TRUE(bench::parse_metrics_row(record, bench_name, policy, rep, m));
      EXPECT_TRUE(policy == core::MappingPolicy::kOs ||
                  policy == core::MappingPolicy::kRandom)
          << record;
    }
  }

  const bench::PipelineOutcome resumed =
      bench::run_pipeline_supervised(small_grid(path, true, 2));
  EXPECT_TRUE(resumed.complete());
  EXPECT_EQ(resumed.cells_resumed, resumed.cells_total - mapped.size());
  EXPECT_EQ(bench::serialize_cache(resumed.results), full.cache_bytes);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace spcd
