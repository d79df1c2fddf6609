// spcd_pipeline — run the full experiment grid from the shell, with the
// crash-safety features exposed as flags: every completed cell is
// journaled and fsync'd, SIGINT/SIGTERM shut down gracefully (exit 130
// with a resume hint), and --resume replays the journal so only missing
// cells are recomputed. The final cache is byte-identical whether the
// sweep ran uninterrupted or was killed and resumed at any point, for any
// SPCD_JOBS value.
//
// Exit codes:
//   0    sweep complete, cache written
//   2    malformed command line
//   3    sweep finished but cells were quarantined (journal kept)
//   130  interrupted by SIGINT/SIGTERM (journal kept; rerun with --resume)
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench/pipeline.hpp"
#include "core/mapping_strategy.hpp"
#include "util/cli.hpp"

namespace {

const char* kUsage =
    "usage: spcd_pipeline [--resume] [--reps N] [--scale F] [--jobs N]\n"
    "                     [--mapper blossom|greedy|hierarchical]\n"
    "                     [--cache FILE] [--no-progress]\n"
    "\n"
    "Runs the 10x4xN experiment grid under supervision and writes the\n"
    "results cache. Completed cells are journaled to <cache>.journal as\n"
    "they finish; --resume replays that journal and recomputes only the\n"
    "missing cells. Supervision knobs: SPCD_CELL_RETRIES,\n"
    "SPCD_CELL_TIMEOUT_MS, SPCD_CELL_BACKOFF_MS, SPCD_DRAIN_MS.\n";

}  // namespace

int main(int argc, char** argv) {
  using namespace spcd;

  bench::PipelineOptions options;
  options.repetitions = bench::configured_reps();
  options.scale = bench::configured_scale();
  options.handle_signals = true;
  std::string cache = bench::configured_cache();

  util::CliArgs args(argc, argv, kUsage);
  while (args.next()) {
    if (args.is("--resume")) {
      options.resume = true;
    } else if (args.is("--reps")) {
      options.repetitions = args.u32();
      if (options.repetitions == 0) {
        args.fail("%s\n", "--reps must be at least 1");
      }
    } else if (args.is("--scale")) {
      options.scale = args.positive_real();
    } else if (args.is("--jobs")) {
      options.jobs = args.u32();
    } else if (args.is("--mapper")) {
      options.mapping.strategy = args.value();
      if (!core::parse_mapping_strategy(options.mapping.strategy)) {
        const std::string what = options.mapping.strategy +
                                 " (choose from " +
                                 core::mapping_strategy_list() + ")";
        args.fail("unknown mapper %s\n", what.c_str());
      }
    } else if (args.is("--cache")) {
      cache = args.value();
    } else if (args.is("--no-progress")) {
      options.progress = false;
    } else if (args.help()) {
      return 0;
    } else {
      args.unknown();
    }
  }
  options.journal_path = cache + ".journal";

  const bench::PipelineOutcome outcome =
      bench::run_pipeline_supervised(options);
  const core::SupervisionCounters c = outcome.counters();
  std::fprintf(stderr,
               "[pipeline] cells=%zu resumed=%" PRIu64 " retried=%" PRIu64
               " quarantined=%" PRIu64 " watchdog=%" PRIu64
               " journal_records=%" PRIu64 "\n",
               outcome.cells_total, c.cells_resumed, c.cells_retried,
               c.cells_quarantined, c.watchdog_fires, c.journal_records);

  if (outcome.interrupted) {
    std::fprintf(stderr,
                 "[pipeline] interrupted; completed cells are journaled in "
                 "%s — rerun with --resume to continue\n",
                 options.journal_path.c_str());
    return 130;
  }
  if (!outcome.supervision.all_completed()) {
    for (const util::QuarantinedJob& job : outcome.supervision.quarantined) {
      std::fprintf(stderr,
                   "[pipeline] quarantined: %s after %u attempt(s): %s\n",
                   job.name.c_str(), job.attempts, job.error.c_str());
    }
    std::fprintf(stderr,
                 "[pipeline] sweep incomplete; rerun with --resume to retry "
                 "the quarantined cells\n");
    return 3;
  }
  if (!bench::save_cache_file(cache, outcome.results)) {
    std::fprintf(stderr, "[pipeline] cannot write cache %s\n", cache.c_str());
    return 1;
  }
  std::remove(options.journal_path.c_str());  // merged into the cache
  std::fprintf(stderr, "[pipeline] results cached to %s\n", cache.c_str());
  return 0;
}
