#include "chaos/perturbation.hpp"

#include <algorithm>
#include <cmath>

namespace spcd::chaos {

namespace {

// Per-stream salts: each hook family draws from its own generator so the
// draw count of one perturbation dimension never shifts another.
constexpr std::uint64_t kFaultStream = 0xFA01;
constexpr std::uint64_t kTableStream = 0x7AB1;
constexpr std::uint64_t kInjectorStream = 0x121F;
constexpr std::uint64_t kMigrationStream = 0x316A;

bool probability_ok(double p) { return p >= 0.0 && p <= 1.0; }

}  // namespace

bool PerturbationConfig::enabled() const {
  return drop_fault > 0.0 || duplicate_fault > 0.0 || forced_collision > 0.0 ||
         wakeup_jitter > 0.0 || overrun > 0.0 || migration_fail > 0.0 ||
         migration_delay > 0.0;
}

std::string PerturbationConfig::validate() const {
  if (!probability_ok(drop_fault)) return "chaos: drop_fault not in [0, 1]";
  if (!probability_ok(duplicate_fault)) {
    return "chaos: duplicate_fault not in [0, 1]";
  }
  if (!probability_ok(forced_collision)) {
    return "chaos: forced_collision not in [0, 1]";
  }
  if (!probability_ok(overrun)) return "chaos: overrun not in [0, 1]";
  if (!probability_ok(migration_fail)) {
    return "chaos: migration_fail not in [0, 1]";
  }
  if (!probability_ok(migration_delay)) {
    return "chaos: migration_delay not in [0, 1]";
  }
  if (wakeup_jitter < 0.0 || wakeup_jitter > 0.45) {
    return "chaos: wakeup_jitter not in [0, 0.45] (larger jitter would "
           "register as injector overruns)";
  }
  if (overrun_factor <= 1.0) return "chaos: overrun_factor must be > 1";
  if (collision_buckets == 0) return "chaos: collision_buckets must be >= 1";
  if (migration_delay > 0.0 && migration_delay_cycles == 0) {
    return "chaos: migration_delay_cycles must be > 0 when migration_delay "
           "is set";
  }
  return {};
}

PerturbationConfig PerturbationConfig::at_intensity(double intensity) {
  const double x = std::clamp(intensity, 0.0, 4.0);
  PerturbationConfig c;
  c.drop_fault = std::min(1.0, 0.15 * x);
  c.duplicate_fault = std::min(1.0, 0.05 * x);
  c.forced_collision = std::min(1.0, 0.20 * x);
  c.wakeup_jitter = std::min(0.45, 0.25 * x);
  c.overrun = std::min(1.0, 0.15 * x);
  c.migration_fail = std::min(1.0, 0.35 * x);
  c.migration_delay = std::min(1.0, 0.20 * x);
  return c;
}

PerturbationEngine::PerturbationEngine(const PerturbationConfig& config,
                                       std::uint64_t seed)
    : config_(config),
      fault_rng_(util::derive_seed(seed, kFaultStream)),
      table_rng_(util::derive_seed(seed, kTableStream)),
      injector_rng_(util::derive_seed(seed, kInjectorStream)),
      migration_rng_(util::derive_seed(seed, kMigrationStream)) {}

bool PerturbationEngine::drop_fault() {
  if (config_.drop_fault <= 0.0 || !fault_rng_.chance(config_.drop_fault)) {
    return false;
  }
  ++counters_.faults_dropped;
  return true;
}

bool PerturbationEngine::duplicate_fault() {
  if (config_.duplicate_fault <= 0.0 ||
      !fault_rng_.chance(config_.duplicate_fault)) {
    return false;
  }
  ++counters_.faults_duplicated;
  return true;
}

bool PerturbationEngine::redirect_bucket(std::uint64_t num_buckets,
                                         std::uint64_t* bucket) {
  if (config_.forced_collision <= 0.0 ||
      !table_rng_.chance(config_.forced_collision)) {
    return false;
  }
  const std::uint64_t range =
      std::min<std::uint64_t>(config_.collision_buckets,
                              std::max<std::uint64_t>(1, num_buckets));
  *bucket = table_rng_.below(range);
  ++counters_.collisions_forced;
  return true;
}

util::Cycles PerturbationEngine::perturb_period(util::Cycles period) {
  double factor = 1.0;
  if (config_.overrun > 0.0 && injector_rng_.chance(config_.overrun)) {
    factor = config_.overrun_factor;
    ++counters_.overruns_injected;
  } else if (config_.wakeup_jitter > 0.0) {
    factor = 1.0 +
             config_.wakeup_jitter * (2.0 * injector_rng_.uniform() - 1.0);
    ++counters_.wakeups_jittered;
  }
  const double cycles = std::max(1.0, static_cast<double>(period) * factor);
  return static_cast<util::Cycles>(std::llround(cycles));
}

bool PerturbationEngine::fail_migration() {
  if (config_.migration_fail <= 0.0 ||
      !migration_rng_.chance(config_.migration_fail)) {
    return false;
  }
  ++counters_.migrations_failed;
  return true;
}

bool PerturbationEngine::delay_migration(util::Cycles* delay) {
  if (config_.migration_delay <= 0.0 ||
      !migration_rng_.chance(config_.migration_delay)) {
    return false;
  }
  *delay = config_.migration_delay_cycles;
  ++counters_.migrations_delayed;
  return true;
}

}  // namespace spcd::chaos
