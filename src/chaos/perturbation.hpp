// Deterministic perturbation (chaos) layer for the SPCD stack. The paper's
// mechanism lives inside a noisy OS: page-fault notifications get coalesced
// or retried, the fixed-size sharing table saturates and overwrites on
// collision, the injector daemon can overrun its 10 ms period, and
// sched_setaffinity migrations can fail or land late. The reproduction's
// happy path models none of that, so this subsystem injects each failure
// mode *deterministically* (every stream is seeded from the experiment's
// cell seed) and the SPCD components respond with graceful-degradation
// logic instead of silently computing wrong answers. With every probability
// at zero the engine draws no random numbers and perturbs nothing — the
// default is bit-for-bit identical to an unperturbed run.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "util/rng.hpp"
#include "util/units.hpp"

namespace spcd::util {
class CancelToken;
}

namespace spcd::chaos {

/// Intensities of the individual perturbations. All probabilities are per
/// opportunity (per fault, per wake-up, per migration attempt).
struct PerturbationConfig {
  /// Drop a fault notification before it reaches the detector (models
  /// coalesced faults / a lost handler callback).
  double drop_fault = 0.0;
  /// Deliver a fault notification twice (models spurious re-faults after a
  /// racing TLB shootdown, which the real handler cannot distinguish).
  double duplicate_fault = 0.0;
  /// Redirect a sharing-table access into a small "hot" bucket range,
  /// forcing hash collisions and eventually table saturation (models hash
  /// skew and footprint pressure on the fixed 256,000-entry table).
  double forced_collision = 0.0;
  /// Size of the hot bucket range collided accesses are funneled into.
  std::uint64_t collision_buckets = 64;
  /// Jitter each injector wake-up by up to this fraction of the period
  /// (models scheduling latency of the kernel thread). Must stay below
  /// SpcdConfig::overrun_skip_factor - 1 or jitter would register as
  /// overruns.
  double wakeup_jitter = 0.0;
  /// Probability that a wake-up overruns: the next tick fires
  /// `overrun_factor` periods late (models the daemon missing its 10 ms
  /// deadline under load).
  double overrun = 0.0;
  double overrun_factor = 2.5;
  /// Probability that one thread-migration attempt fails (models
  /// sched_setaffinity failing under cpuset changes / CPU hotplug).
  double migration_fail = 0.0;
  /// Probability that a migration lands late by `migration_delay_cycles`
  /// instead of immediately (models the move completing on a later tick).
  double migration_delay = 0.0;
  util::Cycles migration_delay_cycles = 200'000;

  // --- worker hook family (harness-level, per experiment cell) ---
  /// Probability that one cell *attempt* crashes outright before the
  /// simulation starts (models a worker process dying mid-sweep). Decided
  /// per (cell seed, attempt) — see worker_plan() — so a retried cell
  /// redraws its fate and flaky cells eventually succeed.
  double worker_crash = 0.0;
  /// Probability that one cell attempt hangs instead of running (models a
  /// wedged worker). A hung attempt sleeps until the supervisor's
  /// watchdog cancels it, or until `worker_hang_ms` elapses as a backstop
  /// when no watchdog is armed; either way the attempt fails and is
  /// retried.
  double worker_hang = 0.0;
  std::uint64_t worker_hang_ms = 10'000;

  /// True if any run-level perturbation can fire (the detector/injector/
  /// migration hooks). Deliberately excludes the worker hooks: those act
  /// on whole cells in the harness, never inside a run, so they must not
  /// cause a PerturbationEngine to be created.
  bool enabled() const;

  /// True if the harness-level worker hooks can fire.
  bool worker_enabled() const;

  /// Empty string if the configuration is sane, else a one-line error.
  std::string validate() const;

  /// A scaled standard profile: intensity 0 is fully inert, 1.0 is the
  /// reference "noisy OS" used by bench/ablation_robustness.
  static PerturbationConfig at_intensity(double intensity);
};

/// `base` with its worker hooks read from SPCD_CHAOS_WORKER_CRASH,
/// _WORKER_HANG and _WORKER_HANG_MS (unset knobs keep base's values);
/// every run-level probability stays as in `base`. The only environment
/// route into chaos: the worker hooks perturb the harness, not the
/// algorithm under test, and no CLI has a flag for them.
PerturbationConfig worker_config_from_env(PerturbationConfig base = {});

/// Thrown by apply_worker_plan() for an injected cell crash.
struct WorkerCrash : std::runtime_error {
  using std::runtime_error::runtime_error;
};
/// Thrown by apply_worker_plan() when an injected hang ends (watchdog
/// cancellation or hang budget).
struct WorkerHang : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// The fate of one cell attempt under the worker hook family.
struct WorkerPlan {
  bool crash = false;
  bool hang = false;
};

/// Decide a cell attempt's fate deterministically from (config, cell
/// seed, attempt): bit-identical across runs and SPCD_JOBS values, and a
/// retry (attempt + 1) redraws, so crash/hang probabilities below 1.0
/// model flaky-but-recoverable workers.
WorkerPlan worker_plan(const PerturbationConfig& config,
                       std::uint64_t cell_seed, std::uint32_t attempt);

/// Execute a plan at the top of a cell attempt: a hang sleeps
/// cooperatively until `token` is cancelled (the watchdog path) or
/// config.worker_hang_ms elapses, then throws WorkerHang; a crash throws
/// WorkerCrash immediately. A no-op plan returns immediately — the cell
/// then computes exactly what an unperturbed run would.
void apply_worker_plan(const WorkerPlan& plan,
                       const PerturbationConfig& config,
                       const util::CancelToken& token);

/// The draw engine behind the hook points. Each hook family owns a private
/// RNG stream derived from the seed, so e.g. the number of faults seen can
/// never perturb which migration fails — runs stay comparable across
/// perturbation dimensions and bit-identical for a given (config, seed).
class PerturbationEngine {
 public:
  struct Counters {
    std::uint64_t faults_dropped = 0;
    std::uint64_t faults_duplicated = 0;
    std::uint64_t collisions_forced = 0;
    std::uint64_t wakeups_jittered = 0;
    std::uint64_t overruns_injected = 0;
    std::uint64_t migrations_failed = 0;
    std::uint64_t migrations_delayed = 0;

    std::uint64_t total() const {
      return faults_dropped + faults_duplicated + collisions_forced +
             wakeups_jittered + overruns_injected + migrations_failed +
             migrations_delayed;
    }
  };

  PerturbationEngine(const PerturbationConfig& config, std::uint64_t seed);

  const PerturbationConfig& config() const { return config_; }
  const Counters& counters() const { return counters_; }

  /// Detector hooks: should this fault notification be dropped /
  /// duplicated?
  bool drop_fault();
  bool duplicate_fault();

  /// Sharing-table hook: redirect this access into the hot bucket range?
  /// On true, *bucket is replaced with the colliding bucket.
  bool redirect_bucket(std::uint64_t num_buckets, std::uint64_t* bucket);

  /// Injector hook: the perturbed delay until the next wake-up (nominal
  /// `period` when no perturbation fires; never returns 0).
  util::Cycles perturb_period(util::Cycles period);

  /// Migration hooks: should this migration attempt fail outright, or land
  /// late? On true, delay_migration sets *delay to the extra cycles.
  bool fail_migration();
  bool delay_migration(util::Cycles* delay);

 private:
  PerturbationConfig config_;
  util::Xoshiro256 fault_rng_;
  util::Xoshiro256 table_rng_;
  util::Xoshiro256 injector_rng_;
  util::Xoshiro256 migration_rng_;
  Counters counters_;
};

}  // namespace spcd::chaos
