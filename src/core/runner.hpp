// Experiment pipeline reproducing the paper's methodology (Section V-A):
// run each workload under the four mappings (OS / random / oracle / SPCD),
// repeat each configuration, and collect the metrics of Figures 8-16 and
// Table II. The Runner is workload-agnostic: concrete workloads are
// supplied through factories, so the core library does not depend on the
// benchmark suite.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "arch/machine_spec.hpp"
#include "chaos/adversary.hpp"
#include "chaos/perturbation.hpp"
#include "core/comm_matrix.hpp"
#include "core/os_scheduler.hpp"
#include "core/policy.hpp"
#include "core/spcd_config.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"
#include "sim/workload.hpp"
#include "util/stats.hpp"
#include "util/supervisor.hpp"

namespace spcd::core {

/// Everything the paper reports for one execution.
struct RunMetrics {
  double exec_seconds = 0.0;
  std::uint64_t instructions = 0;
  double l2_mpki = 0.0;
  double l3_mpki = 0.0;
  std::uint64_t c2c_transactions = 0;
  std::uint64_t invalidations = 0;
  std::uint64_t dram_accesses = 0;

  double package_joules = 0.0;
  double dram_joules = 0.0;
  double package_epi_nj = 0.0;
  double dram_epi_nj = 0.0;

  /// Fraction of total CPU time (finish time x threads) spent in SPCD.
  double detection_overhead = 0.0;
  double mapping_overhead = 0.0;

  std::uint32_t migration_events = 0;
  std::uint64_t minor_faults = 0;
  std::uint64_t injected_faults = 0;

  // --- graceful-degradation counters (all zero on unperturbed runs) ---
  /// Sharing-table saturation events handled by aging/reset.
  std::uint32_t saturation_resets = 0;
  /// Retry wake-ups taken for failed thread migrations.
  std::uint32_t migration_retries = 0;
  /// Migrations abandoned after the retry budget (old mapping kept).
  std::uint32_t migration_giveups = 0;
  /// Injector wake-ups that overran their deadline and skipped a batch.
  std::uint32_t overrun_skips = 0;
  /// Perturbations the chaos layer injected into this run.
  std::uint64_t perturbations_injected = 0;

  // --- adversarial-hardening counters (all zero unless hardened) ---
  /// Thread-window anomaly verdicts issued by the detector's scorer.
  std::uint32_t anomalies_flagged = 0;
  /// Sharing-table overwrites refused by the admission guard.
  std::uint64_t admissions_refused = 0;
  /// Remaps the guards deferred (hysteresis/rate limit/probation).
  std::uint32_t remaps_deferred = 0;
  /// Remaps undone by the probation monitor.
  std::uint32_t remaps_rolled_back = 0;

  double injected_fault_ratio() const {
    const auto total = minor_faults + injected_faults;
    return total == 0 ? 0.0
                      : static_cast<double>(injected_faults) /
                            static_cast<double>(total);
  }

  /// Observability capture of this run (trace events, metrics registry).
  /// Null unless the run executed with tracing enabled; never part of the
  /// cache serialization.
  std::shared_ptr<const obs::RunCapture> obs;

  /// Communication matrix the SPCD kernel detected during this run. Null
  /// for non-kSpcd policies; never part of the cache serialization.
  std::shared_ptr<const CommMatrix> spcd_matrix;
};

using WorkloadFactory =
    std::function<std::unique_ptr<sim::Workload>(std::uint64_t seed)>;

struct RunnerConfig {
  arch::MachineSpec machine = arch::dual_xeon_e5_2650();
  SpcdConfig spcd;
  OsBalancerConfig balancer;
  sim::EngineConfig engine;
  std::uint32_t repetitions = 10;  ///< the paper runs each experiment 10x
  std::uint64_t base_seed = 0xC0FFEE;
  /// Deterministic perturbations applied to kSpcd runs (inert by default;
  /// each cell's chaos streams are seeded from its cell seed, so runs stay
  /// bit-identical for any job count).
  chaos::PerturbationConfig chaos;
  /// Deterministic adversarial fault fabrication applied to kSpcd runs
  /// (inert by default). Seeded from the cell seed like the chaos streams.
  chaos::AdversaryConfig adversary;
  /// Worker threads for run_policy(): 0 = the SPCD_JOBS environment knob
  /// (default hardware concurrency), 1 = serial.
  std::uint32_t jobs = 0;
  /// Sim-time tracing (default off; the exporters that honor SPCD_TRACE
  /// set it from obs::TraceConfig::from_env()). When enabled, each run
  /// owns an obs::Session whose capture lands in RunMetrics::obs;
  /// captures are SPCD_JOBS-invariant.
  obs::TraceConfig trace;
};

/// Runs experiment cells. Thread-safe: concurrent run_once() calls from a
/// thread pool are supported — the oracle cache is computed once per
/// workload (concurrent requesters block until it is ready) and every RNG
/// stream in a cell is derived from cell_seed() plus a per-component salt,
/// so a cell's results depend only on (benchmark, policy, repetition),
/// never on scheduling order: parallel and serial runs are bit-identical.
class Runner {
 public:
  explicit Runner(RunnerConfig config = {});

  const RunnerConfig& config() const { return config_; }

  /// The seed from which every random stream of one experiment cell is
  /// derived. Intentionally policy-independent so the four policies run
  /// the same workload instance per repetition (paired comparison, like
  /// the paper); policy-specific streams add a per-policy salt on top.
  std::uint64_t cell_seed(const std::string& workload_name,
                          std::uint32_t repetition) const;

  /// One execution of `factory`'s workload under `policy`.
  RunMetrics run_once(const std::string& workload_name,
                      const WorkloadFactory& factory, MappingPolicy policy,
                      std::uint32_t repetition);

  /// All repetitions under one policy. Repetitions are dispatched to a
  /// thread pool of `config().jobs` workers (1 = serial); results are
  /// always in repetition order.
  std::vector<RunMetrics> run_policy(const std::string& workload_name,
                                     const WorkloadFactory& factory,
                                     MappingPolicy policy);

  /// run_policy() with per-repetition supervision: each repetition runs
  /// under a util::Supervisor (watchdog, retry with backoff, quarantine),
  /// and the config's chaos worker hooks (SPCD_CHAOS_WORKER_*) apply
  /// around — never inside — the repetition, so a successful attempt is
  /// bit-identical to an unsupervised run. Quarantined repetitions keep a
  /// default RunMetrics and are listed in `*report` (never null the sweep);
  /// check report->all_completed().
  std::vector<RunMetrics> run_policy_supervised(
      const std::string& workload_name, const WorkloadFactory& factory,
      MappingPolicy policy, const util::SupervisorConfig& supervision,
      util::SupervisorReport* report = nullptr);

  /// The oracle's static placement for a workload, computed once from a
  /// full-trace profiling run and cached by name.
  const sim::Placement& oracle_placement(const std::string& workload_name,
                                         const WorkloadFactory& factory);

  /// The oracle's exact communication matrix (available after
  /// oracle_placement() or any kOracle run).
  const CommMatrix* oracle_matrix(const std::string& workload_name) const;

 private:
  struct OracleEntry {
    sim::Placement placement;
    CommMatrix matrix{1};
    bool ready = false;  ///< profiling run finished, entry is immutable
  };

  RunnerConfig config_;
  // Guards oracle_cache_. Oracle entries are immutable once ready, and
  // std::map nodes are stable, so references handed out after that stay
  // valid without the lock.
  mutable std::mutex mu_;
  std::condition_variable oracle_ready_cv_;
  std::map<std::string, OracleEntry> oracle_cache_;
};

/// Aggregate one metric over repetitions into mean ± 95% CI.
template <typename Fn>
util::MeanCi aggregate(const std::vector<RunMetrics>& runs, Fn&& metric) {
  std::vector<double> samples;
  samples.reserve(runs.size());
  for (const auto& r : runs) samples.push_back(metric(r));
  return util::mean_ci95(samples);
}

}  // namespace spcd::core
