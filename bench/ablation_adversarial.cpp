// Adversarial ablation (DESIGN.md §13): sweep the adversary kind and
// intensity over NAS benchmarks, with the hardening defenses off and on,
// and report the mis-mapping penalty — the execution-time delta of each
// variant against its own no-adversary baseline. The defense counters
// (anomalies flagged, admissions refused, remaps deferred / rolled back)
// show which guard absorbed each attack. Emits a per-cell CSV plus a
// summary CSV aggregated per (kind, intensity); the summary's
// hardened_better column is the acceptance property: at every intensity
// >= 0.5 the hardened penalty must be strictly smaller.
//
// Environment knobs (on top of the usual SPCD_ABLATION_SCALE):
//   SPCD_ADVERSARIAL_BENCHES  comma-separated NAS benchmarks (default cg,sp)
// The CSVs are ablation_adversarial.csv and ablation_adversarial_summary.csv
// in SPCD_OUT_DIR.
#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/ablation_common.hpp"
#include "chaos/adversary.hpp"
#include "util/env.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {

using spcd::chaos::AdversaryKind;

constexpr AdversaryKind kKinds[] = {AdversaryKind::kCovert,
                                    AdversaryKind::kSkew,
                                    AdversaryKind::kPhaseFlip};
constexpr double kIntensities[] = {0.25, 0.5, 1.0, 2.0};

struct Cell {
  std::string bench;
  AdversaryKind kind = AdversaryKind::kNone;  ///< kNone: baseline run
  double intensity = 0.0;
  bool hardened = false;
};

spcd::core::RunMetrics run_cell(const Cell& cell) {
  using namespace spcd;
  core::RunnerConfig config;
  config.repetitions = 1;
  config.spcd.hardening.enabled = cell.hardened;
  config.adversary.kind = cell.kind;
  config.adversary.intensity = cell.intensity;
  core::Runner runner(config);
  const auto factory =
      workloads::nas_factory(cell.bench, bench::ablation_scale());
  return runner.run_once(cell.bench, factory, core::MappingPolicy::kSpcd, 0);
}

}  // namespace

int main() {
  using namespace spcd;

  const std::vector<std::string> benches = bench::split_csv_list(
      util::env_string("SPCD_ADVERSARIAL_BENCHES", "cg,sp"));
  const std::size_t num_kinds = std::size(kKinds);
  const std::size_t num_intensities = std::size(kIntensities);

  std::printf("Ablation: adversarial fault fabrication vs the hardening "
              "defenses\n\n");

  // Per bench: two no-adversary baselines (defenses off / on — the penalty
  // of each variant is measured against its own baseline, so the hardened
  // guards' standing cost never hides in the attack delta), then every
  // (kind, intensity, hardened) attack cell. All independent pool jobs.
  std::vector<Cell> cells;
  for (const auto& b : benches) {
    cells.push_back(Cell{b, AdversaryKind::kNone, 0.0, false});
    cells.push_back(Cell{b, AdversaryKind::kNone, 0.0, true});
  }
  for (const auto& b : benches) {
    for (const AdversaryKind kind : kKinds) {
      for (const double intensity : kIntensities) {
        cells.push_back(Cell{b, kind, intensity, false});
        cells.push_back(Cell{b, kind, intensity, true});
      }
    }
  }
  util::ThreadPool pool;
  const std::vector<core::RunMetrics> points =
      util::parallel_map(pool, cells, run_cell);

  // baseline_ms[bench_index][hardened]
  std::vector<std::array<double, 2>> baseline_ms(benches.size());
  for (std::size_t b = 0; b < benches.size(); ++b) {
    baseline_ms[b][0] = points[2 * b].exec_seconds * 1e3;
    baseline_ms[b][1] = points[2 * b + 1].exec_seconds * 1e3;
  }

  util::TextTable table;
  table.header({"bench", "adversary", "intens", "harden", "base [ms]",
                "attacked [ms]", "penalty%", "anom", "refuse", "defer",
                "rollback"});
  std::string csv =
      "bench,kind,intensity,hardened,base_ms,attacked_ms,penalty_pct,"
      "migration_events,anomalies_flagged,admissions_refused,"
      "remaps_deferred,remaps_rolled_back\n";

  // penalty_sum[kind][intensity][hardened], summed over benches.
  std::vector<std::array<std::array<double, 2>, 4>> penalty_sum(
      num_kinds, {{{0.0, 0.0}, {0.0, 0.0}, {0.0, 0.0}, {0.0, 0.0}}});

  std::size_t cell_index = 2 * benches.size();
  for (std::size_t b = 0; b < benches.size(); ++b) {
    for (std::size_t k = 0; k < num_kinds; ++k) {
      for (std::size_t i = 0; i < num_intensities; ++i) {
        for (std::size_t hardened = 0; hardened < 2; ++hardened) {
          const core::RunMetrics& m = points[cell_index++];
          const double base = baseline_ms[b][hardened];
          const double attacked = m.exec_seconds * 1e3;
          const double penalty = (attacked - base) / base * 100.0;
          penalty_sum[k][i][hardened] += penalty;
          table.row({benches[b], chaos::to_string(kKinds[k]),
                     util::fmt_double(kIntensities[i], 2),
                     hardened ? "on" : "off", util::fmt_double(base, 2),
                     util::fmt_double(attacked, 2),
                     util::fmt_double(penalty, 2),
                     std::to_string(m.anomalies_flagged),
                     std::to_string(m.admissions_refused),
                     std::to_string(m.remaps_deferred),
                     std::to_string(m.remaps_rolled_back)});
          char line[256];
          std::snprintf(
              line, sizeof line,
              "%s,%s,%.2f,%u,%.6f,%.6f,%.4f,%u,%u,%llu,%u,%u\n",
              benches[b].c_str(), chaos::to_string(kKinds[k]),
              kIntensities[i], static_cast<unsigned>(hardened), base,
              attacked, penalty, m.migration_events, m.anomalies_flagged,
              static_cast<unsigned long long>(m.admissions_refused),
              m.remaps_deferred, m.remaps_rolled_back);
          csv += line;
        }
      }
    }
  }
  std::fputs(table.render().c_str(), stdout);

  // Summary: mean penalty per (kind, intensity) across benchmarks, and the
  // acceptance property — defenses on must beat defenses off at every
  // intensity >= 0.5.
  std::string summary =
      "kind,intensity,unhardened_penalty_pct,hardened_penalty_pct,"
      "hardened_better\n";
  bool property_holds = true;
  for (std::size_t k = 0; k < num_kinds; ++k) {
    for (std::size_t i = 0; i < num_intensities; ++i) {
      const double n = static_cast<double>(benches.size());
      const double off = penalty_sum[k][i][0] / n;
      const double on = penalty_sum[k][i][1] / n;
      const bool better = on < off;
      if (kIntensities[i] >= 0.5 && !better) property_holds = false;
      char line[160];
      std::snprintf(line, sizeof line, "%s,%.2f,%.4f,%.4f,%d\n",
                    chaos::to_string(kKinds[k]), kIntensities[i], off, on,
                    better ? 1 : 0);
      summary += line;
    }
  }

  bench::write_csv_file(util::out_path("ablation_adversarial.csv"), csv);
  bench::write_csv_file(util::out_path("ablation_adversarial_summary.csv"),
                        summary);

  std::printf("\nExpectation: with the defenses off the attacks inflate "
              "execution time (mis-mapping penalty); with them on the "
              "anomaly scorer, admission guard and remap guards absorb the "
              "fabricated faults and the penalty shrinks. Property (checked "
              "over intensities >= 0.5): %s\n",
              property_holds ? "HOLDS — hardened penalty is smaller at every "
                               "kind and intensity"
                             : "VIOLATED — see the summary CSV");
  return property_holds ? 0 : 1;
}
