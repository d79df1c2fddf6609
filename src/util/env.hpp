// Environment-variable knobs for the benchmark harnesses (repetition counts,
// workload scale). Central parsing so every bench honors the same settings.
#pragma once

#include <cstdint>
#include <string>

namespace spcd::util {

/// Integer environment variable with a default. A malformed or negative
/// value falls back and an out-of-range value is clamped to [lo, hi] —
/// both with a one-line warning, never silently. The fallback itself is
/// returned untouched when the variable is unset (it may deliberately lie
/// outside [lo, hi] as a "not configured" sentinel).
std::uint64_t env_u64_clamped(const char* name, std::uint64_t fallback,
                              std::uint64_t lo, std::uint64_t hi);

/// Floating-point analogue of env_u64_clamped. NaN counts as malformed.
double env_double_clamped(const char* name, double fallback, double lo,
                          double hi);

/// String environment variable with a default.
std::string env_string(const char* name, const std::string& fallback);

/// Output directory for generated artifacts (figure CSVs, traces, metric
/// dumps): SPCD_OUT_DIR, default "." — created on first use. Falls back to
/// "." with a warning when the directory cannot be created.
std::string out_dir();

/// `out_dir() + "/" + filename` — the canonical place to write an
/// artifact. `filename` is used verbatim when it is already an absolute
/// path (explicit CLI paths win over the knob).
std::string out_path(const std::string& filename);

}  // namespace spcd::util
