// A cross-commit pin for runs the reference cache does not cover: every
// integer field of every repetition's RunMetrics, folded into one FNV-1a
// digest. Integers only, so every compiler and build type agrees on it; a
// change that moves any counter of a perturbed run moves the digest.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/runner.hpp"
#include "util/journal.hpp"

namespace spcd {

inline std::uint64_t integer_metrics_digest(
    const std::vector<core::RunMetrics>& runs) {
  std::string text;
  for (const core::RunMetrics& m : runs) {
    for (const std::uint64_t v :
         {m.instructions, m.c2c_transactions, m.invalidations,
          m.dram_accesses, std::uint64_t{m.migration_events}, m.minor_faults,
          m.injected_faults, std::uint64_t{m.saturation_resets},
          std::uint64_t{m.migration_retries},
          std::uint64_t{m.migration_giveups}, std::uint64_t{m.overrun_skips},
          m.perturbations_injected, std::uint64_t{m.anomalies_flagged},
          m.admissions_refused, std::uint64_t{m.remaps_deferred},
          std::uint64_t{m.remaps_rolled_back}}) {
      text += std::to_string(v);
      text += ',';
    }
    text += '\n';
  }
  return util::fnv1a64(text);
}

}  // namespace spcd
