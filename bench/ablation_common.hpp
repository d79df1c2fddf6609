// Shared helper for the ablation harnesses (DESIGN.md S5): run one
// SPCD-instrumented execution of a benchmark with a given SPCD
// configuration and report detection accuracy (Pearson correlation of the
// detected matrix against the full-trace oracle), overhead, migrations and
// execution time.
#pragma once

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/runner.hpp"
#include "util/env.hpp"
#include "util/thread_pool.hpp"
#include "workloads/npb.hpp"

namespace spcd::bench {

/// Split a comma-separated list ("cg,mg,sp") into its non-empty items —
/// the parser behind SPCD_ADVERSARIAL_BENCHES.
inline std::vector<std::string> split_csv_list(const std::string& csv) {
  std::vector<std::string> items;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::string item =
        csv.substr(start, comma == std::string::npos ? std::string::npos
                                                     : comma - start);
    if (!item.empty()) items.push_back(item);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return items;
}

/// Write an ablation CSV and report where it landed (stderr warning on
/// failure, so a read-only output directory never aborts the sweep).
inline bool write_csv_file(const std::string& path,
                           const std::string& contents) {
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fwrite(contents.data(), 1, contents.size(), f);
    std::fclose(f);
    std::printf("\nCSV written to %s\n", path.c_str());
    return true;
  }
  std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
  return false;
}

struct AblationPoint {
  double exec_seconds = 0.0;
  double accuracy = 0.0;  ///< Pearson vs oracle matrix
  double detection_overhead = 0.0;
  double mapping_overhead = 0.0;
  std::uint32_t migration_events = 0;
  double injected_ratio = 0.0;
  std::uint64_t detected_events = 0;
};

inline double ablation_scale() {
  return util::env_double_clamped("SPCD_ABLATION_SCALE", 0.4, 1e-4, 1e3);
}

inline AblationPoint run_ablation_point(const std::string& bench_name,
                                        const core::SpcdConfig& spcd,
                                        std::uint32_t repetition = 0) {
  core::RunnerConfig config;
  config.repetitions = 1;
  config.spcd = spcd;
  core::Runner runner(config);
  const auto factory = workloads::nas_factory(bench_name, ablation_scale());

  const auto metrics = runner.run_once(bench_name, factory,
                                       core::MappingPolicy::kSpcd,
                                       repetition);
  (void)runner.oracle_placement(bench_name, factory);

  AblationPoint p;
  p.exec_seconds = metrics.exec_seconds;
  p.detection_overhead = metrics.detection_overhead;
  p.mapping_overhead = metrics.mapping_overhead;
  p.migration_events = metrics.migration_events;
  p.injected_ratio = metrics.injected_fault_ratio();
  if (const auto& detected = metrics.spcd_matrix) {
    p.detected_events = detected->total();
    if (const core::CommMatrix* oracle = runner.oracle_matrix(bench_name)) {
      p.accuracy = detected->correlation(*oracle);
    }
  }
  return p;
}

/// One cell of an ablation sweep: a benchmark name and the SPCD
/// configuration to evaluate it with.
using AblationCell = std::pair<std::string, core::SpcdConfig>;

/// Run a sweep of ablation cells on a SPCD_JOBS-sized thread pool and
/// return the points in input order. Each cell uses its own Runner, so
/// results are identical to running the cells one by one.
inline std::vector<AblationPoint> run_ablation_grid(
    const std::vector<AblationCell>& cells) {
  util::ThreadPool pool;
  return util::parallel_map(pool, cells, [](const AblationCell& cell) {
    return run_ablation_point(cell.first, cell.second);
  });
}

}  // namespace spcd::bench
