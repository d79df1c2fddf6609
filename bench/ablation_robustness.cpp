// Robustness ablation (DESIGN.md S8): sweep the chaos layer's perturbation
// intensity over several NAS benchmarks and report how SPCD degrades
// relative to the unperturbed OS baseline as faults are dropped, the
// sharing table is skewed, injector wake-ups jitter and migrations fail.
// The graceful-degradation counters (saturation resets, migration retries
// and give-ups, overrun skips) show which fallback paths absorbed the
// noise. Runs cg, mg and sp at SPCD_ABLATION_SCALE and writes
// ablation_robustness.csv into SPCD_OUT_DIR for plotting.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/ablation_common.hpp"
#include "chaos/perturbation.hpp"
#include "util/env.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {

constexpr double kIntensities[] = {0.0, 0.3, 0.6, 1.0};

struct Cell {
  std::string bench;
  double intensity = -1.0;  ///< < 0: unperturbed OS-baseline run
};

struct Point {
  spcd::core::RunMetrics metrics;
  double accuracy = 0.0;  ///< Pearson vs oracle matrix (SPCD cells only)
};

Point run_cell(const Cell& cell) {
  using namespace spcd;
  core::RunnerConfig config;
  config.repetitions = 1;
  const bool is_spcd = cell.intensity >= 0.0;
  if (is_spcd) {
    config.chaos = chaos::PerturbationConfig::at_intensity(cell.intensity);
  }
  core::Runner runner(config);
  const auto factory =
      workloads::nas_factory(cell.bench, bench::ablation_scale());

  Point p;
  p.metrics = runner.run_once(
      cell.bench, factory,
      is_spcd ? core::MappingPolicy::kSpcd : core::MappingPolicy::kOs, 0);
  if (is_spcd) {
    (void)runner.oracle_placement(cell.bench, factory);
    if (const auto& detected = p.metrics.spcd_matrix) {
      if (const core::CommMatrix* oracle =
              runner.oracle_matrix(cell.bench)) {
        p.accuracy = detected->correlation(*oracle);
      }
    }
  }
  return p;
}

}  // namespace

int main() {
  using namespace spcd;

  const std::vector<std::string> benches = {"cg", "mg", "sp"};
  std::printf("Ablation: perturbation intensity vs SPCD gain and "
              "degradation counters\n\n");

  // One OS-baseline cell per benchmark, then every (bench, intensity)
  // SPCD cell; all independent jobs on the shared pool.
  std::vector<Cell> cells;
  for (const auto& bench : benches) cells.push_back(Cell{bench, -1.0});
  for (const auto& bench : benches) {
    for (const double intensity : kIntensities) {
      cells.push_back(Cell{bench, intensity});
    }
  }
  util::ThreadPool pool;
  const std::vector<Point> points =
      util::parallel_map(pool, cells, run_cell);

  std::vector<double> os_ms(benches.size());
  for (std::size_t b = 0; b < benches.size(); ++b) {
    os_ms[b] = points[b].metrics.exec_seconds * 1e3;
  }

  util::TextTable table;
  table.header({"bench", "intensity", "OS [ms]", "SPCD [ms]", "gain%",
                "accuracy", "migr", "sat.rst", "retry", "giveup", "skip",
                "perturb"});
  const std::string csv_path = util::out_path("ablation_robustness.csv");
  std::string csv =
      "bench,intensity,os_ms,spcd_ms,gain_pct,accuracy,migration_events,"
      "saturation_resets,migration_retries,migration_giveups,overrun_skips,"
      "perturbations_injected\n";

  std::size_t cell_index = benches.size();
  for (std::size_t b = 0; b < benches.size(); ++b) {
    for (const double intensity : kIntensities) {
      const Point& p = points[cell_index++];
      const core::RunMetrics& m = p.metrics;
      const double spcd_ms = m.exec_seconds * 1e3;
      const double gain = (os_ms[b] - spcd_ms) / os_ms[b] * 100.0;
      table.row({benches[b], util::fmt_double(intensity, 1),
                 util::fmt_double(os_ms[b], 2), util::fmt_double(spcd_ms, 2),
                 util::fmt_double(gain, 1), util::fmt_double(p.accuracy, 3),
                 std::to_string(m.migration_events),
                 std::to_string(m.saturation_resets),
                 std::to_string(m.migration_retries),
                 std::to_string(m.migration_giveups),
                 std::to_string(m.overrun_skips),
                 std::to_string(m.perturbations_injected)});
      char line[256];
      std::snprintf(line, sizeof line,
                    "%s,%.2f,%.6f,%.6f,%.3f,%.6f,%u,%u,%u,%u,%u,%llu\n",
                    benches[b].c_str(), intensity, os_ms[b], spcd_ms, gain,
                    p.accuracy, m.migration_events, m.saturation_resets,
                    m.migration_retries, m.migration_giveups, m.overrun_skips,
                    static_cast<unsigned long long>(m.perturbations_injected));
      csv += line;
    }
  }
  std::fputs(table.render().c_str(), stdout);

  bench::write_csv_file(csv_path, csv);

  std::printf("\nExpectation: at intensity 0 the counters are all zero and "
              "SPCD keeps its full gain; as intensity grows the degradation "
              "paths fire (non-zero counters) while the gain shrinks "
              "gracefully instead of collapsing.\n");
  return 0;
}
