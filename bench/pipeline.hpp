// Shared experiment pipeline for the figure/table harnesses. Figures 8-15
// and Table II all report slices of the same experiment (10 NAS benchmarks
// x 4 mappings x N repetitions), so the pipeline runs it once and caches
// the per-run metrics in a text file next to the binaries; every bench
// binary then renders its own figure from the cache.
//
// The grid is computed in parallel: every (benchmark, policy, repetition)
// cell is an independent job on a util::ThreadPool. Each cell's RNG streams
// are derived from (benchmark, policy, repetition) alone (see
// core::Runner::cell_seed), and cells land in pre-sized slots serialized
// in canonical order, so the cache file is byte-identical for any job
// count — SPCD_JOBS=1 reproduces the serial path exactly. For the same
// reason a cell that throws runs once: a rerun would repeat the failure.
// It is reported by name and the rest of the grid still completes.
//
// Crash safety: when a journal path is configured, every completed cell is
// appended to a CRC-framed journal (util::Journal) and flushed as it
// finishes. A crashed, killed, or interrupted sweep resumes by replaying
// the journal's intact prefix and recomputing only the missing cells; the
// merged cache is byte-identical to an uninterrupted run. SIGINT/SIGTERM
// (when enabled) stop dispatching, let running cells finish, and leave the
// journal behind for resumption.
//
// Environment knobs:
//   SPCD_REPS            repetitions per configuration (default 10)
//   SPCD_SCALE           workload length multiplier    (default 1.0)
//   SPCD_CACHE           cache file path (default ./spcd_results.cache)
//   SPCD_JOBS            worker threads (default hw concurrency, 1=serial)
//   SPCD_TRACE           export pipeline_trace.json     (default 0)
#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/runner.hpp"
#include "util/thread_pool.hpp"

namespace spcd::bench {

struct PipelineResults {
  /// results[benchmark][policy] = per-repetition metrics.
  std::map<std::string, std::map<core::MappingPolicy,
                                 std::vector<core::RunMetrics>>>
      results;
  std::uint32_t repetitions = 0;
  double scale = 1.0;

  const std::vector<core::RunMetrics>& runs(const std::string& bench,
                                            core::MappingPolicy policy) const;
};

/// Number of repetitions from SPCD_REPS (default 10).
std::uint32_t configured_reps();
/// Workload scale from SPCD_SCALE (default 1.0).
double configured_scale();
/// Results cache path from SPCD_CACHE (default ./spcd_results.cache).
std::string configured_cache();

struct PipelineOptions {
  std::uint32_t repetitions = 10;
  double scale = 1.0;
  std::uint32_t jobs = 0;  ///< 0 = SPCD_JOBS / hardware concurrency
  bool progress = true;    ///< per-cell progress lines on stderr
  /// Mapping strategy every cell's SPCD kernel and oracle run through.
  /// A whole-run setting, not a grid axis: the cache format is unchanged
  /// and the default (blossom) keeps the cache byte-identical to prior
  /// releases. The strategy name is bound into the journal meta, so a
  /// resume under a different mapper recomputes instead of merging.
  core::MappingConfig mapping;

  // --- crash safety (run_pipeline_supervised) ---
  /// Journal file for completed cells; empty disables journaling.
  std::string journal_path;
  /// Replay an existing journal first and recompute only missing cells.
  bool resume = false;
  /// Install SIGINT/SIGTERM handlers for the duration of the sweep: a
  /// signal stops dispatching, lets running cells finish, and flushes the
  /// journal (the outcome reports interrupted = true).
  bool handle_signals = false;
};

/// What one sweep produced, beyond the results themselves.
struct PipelineOutcome {
  PipelineResults results;
  /// Cells that threw, sorted by name: context is the cell name
  /// (core::Runner::cell_name), message the error. Each ran once; its
  /// slot in `results` keeps a default RunMetrics.
  std::vector<util::JobErrors::Entry> failed;
  std::size_t cells_total = 0;     ///< grid size (benchmarks x 4 x reps)
  std::size_t cells_resumed = 0;   ///< cells replayed from the journal
  std::uint64_t journal_records = 0;  ///< records in the journal on exit
  bool interrupted = false;        ///< a signal ended the sweep early

  /// Every cell has a result (none failed, none left by a signal).
  bool complete() const { return !interrupted && failed.empty(); }
};

/// Run the experiment grid: optional journal + resume + signal handling,
/// and failed cells reported instead of aborting the sweep. Deterministic
/// in `jobs`: any worker count produces bit-identical results, and a
/// resumed sweep merges to the same bytes as an uninterrupted one. Reads
/// the SPCD_TRACE knob from the environment.
PipelineOutcome run_pipeline_supervised(const PipelineOptions& options);

/// Run the full experiment grid (no cache or journal involved). Throws
/// util::JobErrors listing every failed cell. Deterministic in `jobs`.
PipelineResults compute_pipeline(const PipelineOptions& options);

/// One cache/journal row for one run: "<bench> <policy> <rep>" followed by
/// every cache metric (core::cache_metric_descriptors() order; %.9e reals,
/// decimal integers), no trailing newline. The cache payload and the
/// crash-recovery journal share this exact serialization, which is what
/// makes resumed caches byte-identical.
std::string serialize_metrics_row(const std::string& bench,
                                  core::MappingPolicy policy,
                                  std::uint32_t rep,
                                  const core::RunMetrics& m);

/// Inverse of serialize_metrics_row (tolerates nothing: unknown policy,
/// missing fields, or trailing junk all reject the row).
bool parse_metrics_row(const std::string& row, std::string& bench,
                       core::MappingPolicy& policy, std::uint32_t& rep,
                       core::RunMetrics& m);

/// The journal header meta binding a journal to one experiment shape
/// (repetitions, scale, mapping strategy); a journal whose meta does not
/// match is discarded, never merged.
std::string journal_meta(std::uint32_t repetitions, double scale,
                         const std::string& mapper = "blossom");

/// Canonical v3 cache serialization (header + one line per run, benchmarks
/// and policies in sorted order, repetitions in order). Two PipelineResults
/// with equal metrics serialize to equal bytes.
std::string serialize_cache(const PipelineResults& results);

/// Write `results` to `path` crash-safely: the serialize_cache() payload
/// plus one trailing "#crc <hex> <payload-bytes>" integrity line is written
/// to "<path>.tmp" and atomically renamed over `path`, so a crash mid-write
/// never leaves a half-written cache behind. Returns false (with a logged
/// warning) when the file cannot be written.
bool save_cache_file(const std::string& path, const PipelineResults& results);

/// Load a cache written by save_cache_file(). `out.repetitions` and
/// `out.scale` must be pre-set (the header is checked against them). A
/// missing file fails silently; a corrupt one — missing/malformed trailer,
/// checksum or length mismatch (truncation, bit flips), malformed rows, an
/// incomplete grid — fails with a warning through util::log, never a
/// partial parse.
bool load_cache_file(const std::string& path, PipelineResults& out);

/// Load the pipeline results from cache, or compute and cache them —
/// journaled, resumable, and signal-aware: an interrupted sweep exits 130
/// with a resume hint, a sweep with failed cells exits 3 after listing
/// them. Prints progress to stderr while computing.
const PipelineResults& pipeline_results();

/// Render one normalized figure (paper Figures 8-15): for each benchmark a
/// row with OS (=1.00), random, oracle and SPCD values of `metric`,
/// mean ± 95% CI over the repetitions, normalized to the OS mean.
void print_normalized_figure(
    const std::string& title, const std::string& metric_name,
    double (*metric)(const core::RunMetrics&));

}  // namespace spcd::bench
