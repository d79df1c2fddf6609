#include "core/spcd_config.hpp"

namespace spcd::core {

std::string HardeningConfig::validate() const {
  if (anomaly_window_faults == 0) {
    return "hardening.anomaly_window_faults must be >= 1";
  }
  if (anomaly_entropy_weight < 0.0 || anomaly_entropy_weight > 1.0) {
    return "hardening.anomaly_entropy_weight must be in [0, 1]";
  }
  if (anomaly_flag_threshold <= 0.0) {
    return "hardening.anomaly_flag_threshold must be > 0";
  }
  if (anomaly_discount == 0) {
    return "hardening.anomaly_discount must be >= 1 (1 = no discount)";
  }
  if (admission_max_refusals == 0) {
    return "hardening.admission_max_refusals must be >= 1";
  }
  if (remap_burst == 0) {
    return "hardening.remap_burst must be >= 1 (the limiter must admit "
           "some remaps)";
  }
  if (remap_refill_interval == 0) {
    return "hardening.remap_refill_interval must be > 0 cycles";
  }
  if (rollback_tolerance < 0.0) {
    return "hardening.rollback_tolerance must be >= 0";
  }
  return {};
}

std::string SpcdConfig::validate() const {
  if (!(extra_fault_ratio > 0.0 && extra_fault_ratio <= 1.0)) {
    return "extra_fault_ratio must be in (0, 1] (the injected-fault share "
           "of all faults)";
  }
  if (injector_period == 0) {
    return "injector_period must be > 0 cycles (a zero period would wake "
           "the injector in an infinite loop at one instant)";
  }
  if (mapping_interval == 0) {
    return "mapping_interval must be > 0 cycles";
  }
  if (table.num_entries == 0) {
    return "table.num_entries must be >= 1";
  }
  // The granularity is stored as a shift, so the region size is a power of
  // two by construction; reject shifts that degenerate to sub-byte or
  // address-space-sized regions.
  if (table.granularity_shift < 1 || table.granularity_shift > 36) {
    return "table.granularity_shift must be in [1, 36] (power-of-two "
           "region size between 2 B and 64 GiB)";
  }
  if (table.max_sharers < 2 || table.max_sharers > 8) {
    return "table.max_sharers must be in [2, 8]";
  }
  if (min_sample_frac < 0.0 || min_sample_frac > 1.0) {
    return "min_sample_frac must be in [0, 1]";
  }
  if (startup_boost < 0.0) {
    return "startup_boost must be >= 0";
  }
  if (!(mapping_gain_threshold > 0.0 && mapping_gain_threshold <= 1.0)) {
    return "mapping_gain_threshold must be in (0, 1]";
  }
  if (move_penalty_frac < 0.0) {
    return "move_penalty_frac must be >= 0";
  }
  if (filter_threshold == 0) {
    return "filter_threshold must be >= 1";
  }
  if (filter_margin < 1.0) {
    return "filter_margin must be >= 1 (a smaller margin would flap on "
           "equal partners)";
  }
  if (refine_growth < 0.0) {
    return "refine_growth must be >= 0 (0 disables refinement)";
  }
  if (!(saturation_collision_ratio > 0.0 &&
        saturation_collision_ratio <= 1.0)) {
    return "saturation_collision_ratio must be in (0, 1]";
  }
  if (overrun_skip_factor <= 1.0) {
    return "overrun_skip_factor must be > 1 (on-time wake-ups must not "
           "register as overruns)";
  }
  if (migration_max_retries > 32) {
    return "migration_max_retries must be <= 32";
  }
  if (migration_max_retries > 0 && migration_retry_backoff == 0) {
    return "migration_retry_backoff must be > 0 when retries are enabled";
  }
  if (std::string error = hardening.validate(); !error.empty()) {
    return error;
  }
  if (std::string error = mapping.validate(); !error.empty()) {
    return error;
  }
  return {};
}

}  // namespace spcd::core
