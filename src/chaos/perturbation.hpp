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
#include <string>

#include "util/rng.hpp"
#include "util/units.hpp"

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

  /// True if any perturbation can fire (the detector/injector/migration
  /// hooks); a disabled config creates no PerturbationEngine at all.
  bool enabled() const;

  /// Empty string if the configuration is sane, else a one-line error.
  std::string validate() const;

  /// A scaled standard profile: intensity 0 is fully inert, 1.0 is the
  /// reference "noisy OS" used by bench/ablation_robustness.
  static PerturbationConfig at_intensity(double intensity);
};

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
