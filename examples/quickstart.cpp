// Quickstart: run one NPB-like benchmark (SP) under the four mappings the
// paper compares — OS scheduler, random, oracle, SPCD — and print the
// headline metrics. This exercises the whole public API in ~50 lines:
// machine specs, the runner pipeline, and the detected communication
// matrix.
#include <cstdio>
#include <string>

#include "core/runner.hpp"
#include "util/cli.hpp"
#include "util/heatmap.hpp"
#include "util/table.hpp"
#include "workloads/npb.hpp"

namespace {

const char* kUsage =
    "usage: quickstart [benchmark] [repetitions]\n"
    "  benchmark: bt cg dc ep ft is lu mg sp ua (default sp)\n"
    "  repetitions: at least 1, default 3 (the paper uses 10)\n";

int run(int argc, char** argv) {
  using namespace spcd;

  std::string bench = "sp";
  std::uint32_t reps = 3;
  util::CliArgs args(argc, argv, kUsage);
  for (int operand = 0; args.next(); ++operand) {
    if (args.help()) return 0;
    if (operand > 1) args.fail("unexpected operand %s\n", args.arg().c_str());
    if (operand == 0) bench = args.arg();
    if (operand == 1) reps = args.count_operand("repetitions");
  }

  // An unknown name throws std::invalid_argument here (exit 2), not
  // inside every repetition.
  (void)workloads::make_nas(bench, 0);

  core::RunnerConfig config;
  config.repetitions = reps;
  core::Runner runner(config);
  const auto factory = workloads::nas_factory(bench);

  std::printf("SPCD quickstart: %s on %s, %u repetition(s) per mapping\n\n",
              bench.c_str(), config.machine.name.c_str(), reps);

  util::TextTable table;
  table.header({"mapping", "time [ms]", "L2 MPKI", "L3 MPKI", "c2c [k]",
                "pkg [J]", "DRAM [J]", "migrations"});

  std::vector<core::RunMetrics> baseline;
  std::shared_ptr<const core::CommMatrix> spcd_matrix;
  for (const auto policy :
       {core::MappingPolicy::kOs, core::MappingPolicy::kRandom,
        core::MappingPolicy::kOracle, core::MappingPolicy::kSpcd}) {
    const auto runs = runner.run_policy(bench, factory, policy);
    if (policy == core::MappingPolicy::kOs) baseline = runs;
    if (policy == core::MappingPolicy::kSpcd && !runs.empty()) {
      spcd_matrix = runs.back().spcd_matrix;
    }

    const auto time = core::aggregate(
        runs, [](const core::RunMetrics& m) { return m.exec_seconds; });
    const auto l2 = core::aggregate(
        runs, [](const core::RunMetrics& m) { return m.l2_mpki; });
    const auto l3 = core::aggregate(
        runs, [](const core::RunMetrics& m) { return m.l3_mpki; });
    const auto c2c = core::aggregate(runs, [](const core::RunMetrics& m) {
      return static_cast<double>(m.c2c_transactions);
    });
    const auto pkg = core::aggregate(
        runs, [](const core::RunMetrics& m) { return m.package_joules; });
    const auto dram = core::aggregate(
        runs, [](const core::RunMetrics& m) { return m.dram_joules; });
    const auto mig = core::aggregate(runs, [](const core::RunMetrics& m) {
      return static_cast<double>(m.migration_events);
    });

    table.row({core::to_string(policy),
               util::fmt_mean_ci(time.mean * 1e3, time.ci95 * 1e3, 2),
               util::fmt_double(l2.mean, 2), util::fmt_double(l3.mean, 2),
               util::fmt_double(c2c.mean / 1e3, 0),
               util::fmt_double(pkg.mean, 3), util::fmt_double(dram.mean, 3),
               util::fmt_double(mig.mean, 1)});
  }
  std::fputs(table.render().c_str(), stdout);

  if (spcd_matrix) {
    std::printf("\nCommunication matrix detected by SPCD (last run):\n%s",
                util::render_heatmap(spcd_matrix->as_double(),
                                     spcd_matrix->size())
                    .c_str());
    if (const core::CommMatrix* oracle = runner.oracle_matrix(bench)) {
      std::printf("\nPattern accuracy vs. oracle (Pearson): %.3f\n",
                  spcd_matrix->correlation(*oracle));
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const spcd::core::ConfigError& e) {
    std::fprintf(stderr, "invalid configuration: %s\n", e.what());
    return 2;
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());  // e.g. unknown benchmark name
    return 2;
  }
}
