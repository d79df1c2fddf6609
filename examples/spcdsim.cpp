// spcdsim — command-line driver for the simulator: run any benchmark under
// any mapping with tweakable SPCD parameters, and print the full metric
// set. The "do one thing from the shell" entry point for exploring the
// system without writing code.
//
// Usage:
//   spcdsim [options]
//     --bench <bt|cg|dc|ep|ft|is|lu|mg|sp|ua|prodcons>   (default sp)
//     --policy <os|random|oracle|spcd>                   (default spcd)
//     --mapper <blossom|greedy|hierarchical>             (default blossom)
//     --reps <n>            repetitions                  (default 3)
//     --jobs <n>            worker threads, 1 = serial   (default SPCD_JOBS)
//     --scale <f>           workload length multiplier   (default 1.0)
//     --granularity <log2>  detection granularity shift  (default 12)
//     --fault-ratio <f>     extra-fault target ratio     (default 0.10)
//     --window <cycles>     temporal window, 0 = off     (default 0)
//     --no-migration        detect only, never migrate
//     --data-mapping        enable SPCD page migration
//     --chaos <intensity>   deterministic run-level perturbations
//                           (default off)
//     --adversary <kind>    adversarial faulter: covert|skew|phase_flip
//                           (default off)
//     --adv-intensity <f>   phantom faults per real fault  (default 1.0
//                           when --adversary is given)
//     --harden              enable the hardening defenses  (default off)
//     --matrix              print the detected matrix (spcd only)
//     --trace-out <file>    write a Chrome trace_event JSON (sim-time
//                           events; open in chrome://tracing or Perfetto)
//     --metrics-out <file>  write the machine-readable metrics JSON
//
// Environment: SPCD_JOBS (the --jobs default), SPCD_TRACE (capture without
// exporting), the supervision knobs SPCD_CELL_RETRIES /
// SPCD_CELL_TIMEOUT_MS / SPCD_CELL_BACKOFF_MS, and the worker hooks
// SPCD_CHAOS_WORKER_* (which --chaos leaves in place).
//
// Exit codes follow the SpcdConfig::validate() contract: any malformed
// command line — unknown flag, missing or non-numeric value, unknown
// bench/policy, invalid configuration — prints the offending input plus
// the usage text and exits 2; --help exits 0. Repetitions run under
// supervision: a repetition that exhausts its retries is quarantined and
// the run exits 1 after printing everything it has.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "chaos/adversary.hpp"
#include "chaos/perturbation.hpp"
#include "core/mapping_strategy.hpp"
#include "core/metrics_export.hpp"
#include "core/runner.hpp"
#include "obs/export.hpp"
#include "util/cli.hpp"
#include "util/heatmap.hpp"
#include "util/table.hpp"
#include "workloads/npb.hpp"

namespace {

const char* kUsage =
    "usage: spcdsim [--bench NAME] [--policy os|random|oracle|spcd]\n"
    "               [--mapper blossom|greedy|hierarchical]\n"
    "               [--reps N] [--jobs N] [--scale F]\n"
    "               [--granularity SHIFT] [--fault-ratio F]\n"
    "               [--window CYCLES] [--no-migration] [--data-mapping]\n"
    "               [--chaos INTENSITY] [--matrix]\n"
    "               [--adversary covert|skew|phase_flip]\n"
    "               [--adv-intensity F] [--harden]\n"
    "               [--trace-out FILE] [--metrics-out FILE]\n";

bool write_file(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << contents;
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace

int run(int argc, char** argv) {
  using namespace spcd;

  std::string bench = "sp";
  std::string policy_name = "spcd";
  std::uint32_t reps = 3;
  double scale = 1.0;
  bool show_matrix = false;
  std::string trace_out;
  std::string metrics_out;
  core::RunnerConfig config;
  config.trace = obs::TraceConfig::from_env();

  util::CliArgs args(argc, argv, kUsage);
  while (args.next()) {
    if (args.is("--bench")) {
      bench = args.value();
    } else if (args.is("--policy")) {
      policy_name = args.value();
    } else if (args.is("--mapper")) {
      config.spcd.mapping.strategy = args.value();
    } else if (args.is("--reps")) {
      reps = args.u32();
    } else if (args.is("--jobs")) {
      config.jobs = args.u32();
    } else if (args.is("--scale")) {
      scale = args.positive_real();
    } else if (args.is("--granularity")) {
      config.spcd.table.granularity_shift =
          static_cast<unsigned>(args.u64());
    } else if (args.is("--fault-ratio")) {
      config.spcd.extra_fault_ratio = args.real();
    } else if (args.is("--window")) {
      config.spcd.table.time_window = static_cast<util::Cycles>(args.u64());
    } else if (args.is("--no-migration")) {
      config.spcd.enable_migration = false;
    } else if (args.is("--data-mapping")) {
      config.spcd.enable_data_mapping = true;
    } else if (args.is("--chaos")) {
      config.chaos =
          chaos::PerturbationConfig::at_intensity(args.real());
    } else if (args.is("--adversary")) {
      const char* name = args.value();
      if (!chaos::parse_adversary_kind(name, &config.adversary.kind)) {
        args.fail("unknown adversary %s\n", name);
      }
      if (config.adversary.intensity <= 0.0) config.adversary.intensity = 1.0;
    } else if (args.is("--adv-intensity")) {
      config.adversary.intensity = args.real();
    } else if (args.is("--harden")) {
      config.spcd.hardening.enabled = true;
    } else if (args.is("--matrix")) {
      show_matrix = true;
    } else if (args.is("--trace-out")) {
      trace_out = args.value();
    } else if (args.is("--metrics-out")) {
      metrics_out = args.value();
    } else if (args.help()) {
      return 0;
    } else {
      args.unknown();
    }
  }

  // The worker hooks have no flag: SPCD_CHAOS_WORKER_* applies on top of
  // whatever --chaos set.
  config.chaos = chaos::worker_config_from_env(config.chaos);
  // Exporting implies capturing: the SPCD_TRACE knob need not be set too.
  if (!trace_out.empty() || !metrics_out.empty()) {
    config.trace.enabled = true;
  }

  const std::optional<core::MappingPolicy> parsed =
      core::parse_policy(policy_name);
  if (!parsed) {
    args.fail("unknown policy %s\n", policy_name.c_str());
  }
  const core::MappingPolicy policy = *parsed;

  if (!core::parse_mapping_strategy(config.spcd.mapping.strategy)) {
    const std::string what = config.spcd.mapping.strategy + " (choose from " +
                             core::mapping_strategy_list() + ")";
    args.fail("unknown mapper %s\n", what.c_str());
  }

  core::WorkloadFactory factory;
  if (bench == "prodcons") {
    factory = [scale](std::uint64_t seed) {
      return workloads::make_prodcons(seed, scale);
    };
  } else {
    try {
      (void)workloads::make_nas(bench, 0, scale);  // validate the name
    } catch (const std::exception& e) {
      args.fail("%s\n", e.what());
    }
    factory = workloads::nas_factory(bench, scale);
  }

  // Reject bad configurations here with a readable message instead of
  // letting the kernel constructor throw mid-run.
  if (const std::string error = config.spcd.validate(); !error.empty()) {
    std::fprintf(stderr, "invalid SPCD configuration: %s\n", error.c_str());
    return 2;
  }
  if (const std::string error = config.chaos.validate(); !error.empty()) {
    std::fprintf(stderr, "invalid chaos configuration: %s\n", error.c_str());
    return 2;
  }
  if (const std::string error = config.adversary.validate(); !error.empty()) {
    std::fprintf(stderr, "invalid adversary configuration: %s\n",
                 error.c_str());
    return 2;
  }

  config.repetitions = reps;
  core::Runner runner(config);

  std::printf("spcdsim: %s under %s, %u repetition(s), scale %.2f\n\n",
              bench.c_str(), policy_name.c_str(), reps, scale);
  // Supervised sweep: flaky repetitions (e.g. injected worker crashes via
  // SPCD_CHAOS_WORKER_*) are retried and, past the retry budget,
  // quarantined instead of aborting the whole run.
  util::SupervisorReport supervision;
  const auto runs = runner.run_policy_supervised(
      bench, factory, policy, util::SupervisorConfig::from_env(),
      &supervision);

  util::TextTable t;
  t.header({"metric", "mean", "±95% CI"});
  struct Row {
    const char* label;
    double (*metric)(const core::RunMetrics&);
    int precision;
  };
  const Row rows[] = {
      {"execution time [ms]",
       [](const core::RunMetrics& m) { return m.exec_seconds * 1e3; }, 3},
      {"instructions [M]",
       [](const core::RunMetrics& m) {
         return static_cast<double>(m.instructions) / 1e6;
       },
       1},
      {"L2 MPKI", [](const core::RunMetrics& m) { return m.l2_mpki; }, 2},
      {"L3 MPKI", [](const core::RunMetrics& m) { return m.l3_mpki; }, 2},
      {"cache-to-cache [k]",
       [](const core::RunMetrics& m) {
         return static_cast<double>(m.c2c_transactions) / 1e3;
       },
       1},
      {"DRAM accesses [k]",
       [](const core::RunMetrics& m) {
         return static_cast<double>(m.dram_accesses) / 1e3;
       },
       1},
      {"package energy [mJ]",
       [](const core::RunMetrics& m) { return m.package_joules * 1e3; }, 2},
      {"DRAM energy [mJ]",
       [](const core::RunMetrics& m) { return m.dram_joules * 1e3; }, 3},
      {"package EPI [nJ]",
       [](const core::RunMetrics& m) { return m.package_epi_nj; }, 2},
      {"DRAM EPI [nJ]",
       [](const core::RunMetrics& m) { return m.dram_epi_nj; }, 3},
      {"detection overhead [%]",
       [](const core::RunMetrics& m) { return m.detection_overhead * 100; },
       3},
      {"mapping overhead [%]",
       [](const core::RunMetrics& m) { return m.mapping_overhead * 100; }, 3},
      {"migration events",
       [](const core::RunMetrics& m) {
         return static_cast<double>(m.migration_events);
       },
       1},
      {"injected faults [%]",
       [](const core::RunMetrics& m) {
         return m.injected_fault_ratio() * 100;
       },
       1},
  };
  for (const auto& r : rows) {
    const auto ci = core::aggregate(runs, r.metric);
    t.row({r.label, util::fmt_double(ci.mean, r.precision),
           util::fmt_double(ci.ci95, r.precision)});
  }
  const bool perturbed = config.chaos.enabled() ||
                         config.adversary.enabled() ||
                         config.spcd.hardening.enabled;
  if (perturbed && policy == core::MappingPolicy::kSpcd) {
    // The degradation counters come from the shared descriptor table, so
    // this table, the robustness ablation and the JSON exporter can never
    // drift apart.
    for (const auto& d : core::degradation_metric_descriptors()) {
      const auto ci = core::aggregate(runs, d.get);
      t.row({d.name, util::fmt_double(ci.mean, 1),
             util::fmt_double(ci.ci95, 1)});
    }
  }
  std::fputs(t.render().c_str(), stdout);

  // Harness-health counters (only shown when supervision did something, so
  // clean runs keep their familiar output).
  core::SupervisionCounters sup_counters;
  sup_counters.cells_retried = supervision.retried;
  sup_counters.cells_quarantined = supervision.quarantined.size();
  sup_counters.watchdog_fires = supervision.watchdog_fires;
  const bool supervised =
      sup_counters.cells_retried != 0 || sup_counters.cells_quarantined != 0 ||
      sup_counters.watchdog_fires != 0 || config.chaos.worker_enabled();
  if (supervised) {
    std::printf("\nsupervision: retried=%llu quarantined=%llu "
                "watchdog_fires=%llu\n",
                static_cast<unsigned long long>(sup_counters.cells_retried),
                static_cast<unsigned long long>(
                    sup_counters.cells_quarantined),
                static_cast<unsigned long long>(
                    sup_counters.watchdog_fires));
    for (const auto& job : supervision.quarantined) {
      std::printf("  quarantined: %s after %u attempt(s): %s\n",
                  job.name.c_str(), job.attempts, job.error.c_str());
    }
  }

  if (!trace_out.empty()) {
    std::vector<obs::CaptureRef> captures;
    captures.reserve(runs.size());
    for (std::size_t rep = 0; rep < runs.size(); ++rep) {
      captures.push_back(obs::CaptureRef{
          bench + "/" + policy_name + " rep " + std::to_string(rep),
          runs[rep].obs.get()});
    }
    const std::string trace = obs::export_chrome_trace(captures);
    if (write_file(trace_out, trace)) {
      std::printf("\n(trace written to %s — open in chrome://tracing or "
                  "https://ui.perfetto.dev)\n",
                  trace_out.c_str());
    } else {
      std::fprintf(stderr, "cannot write trace to %s\n", trace_out.c_str());
      return 1;
    }
  }
  if (!metrics_out.empty()) {
    const std::string json = core::metrics_json(
        bench, policy_name, runs, supervised ? &sup_counters : nullptr);
    if (write_file(metrics_out, json)) {
      std::printf("(metrics written to %s)\n", metrics_out.c_str());
    } else {
      std::fprintf(stderr, "cannot write metrics to %s\n",
                   metrics_out.c_str());
      return 1;
    }
  }

  if (show_matrix && policy == core::MappingPolicy::kSpcd && !runs.empty()) {
    if (const auto& m = runs.back().spcd_matrix) {
      std::printf("\nDetected communication matrix (last run):\n%s",
                  util::render_heatmap(m->as_double(), m->size()).c_str());
    }
  }
  // Quarantined repetitions mean the sweep ran to the end but is
  // incomplete: report it in the exit code without aborting the output.
  return supervision.all_completed() ? 0 : 1;
}

int main(int argc, char** argv) {
  // Backstop for configuration errors that slip past the early validate()
  // checks (e.g. future config sources): same exit code as args.fail().
  try {
    return run(argc, argv);
  } catch (const spcd::core::ConfigError& e) {
    std::fprintf(stderr, "invalid configuration: %s\n", e.what());
    return 2;
  }
}
