#include "util/env.hpp"

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <system_error>

#include "util/log.hpp"

namespace spcd::util {

namespace {

/// Parse outcome for the hardened accessors: distinguishes "unset" (use the
/// fallback silently) from "malformed" (warn, then fall back).
enum class ParseState { kUnset, kMalformed, kOk };

ParseState parse_u64(const char* name, std::uint64_t* out) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return ParseState::kUnset;
  // strtoull silently wraps negative input ("-1" -> 2^64-1); reject it.
  if (*v == '-') return ParseState::kMalformed;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(v, &end, 10);
  if (end == v || *end != '\0') return ParseState::kMalformed;
  *out = static_cast<std::uint64_t>(parsed);
  return ParseState::kOk;
}

ParseState parse_double(const char* name, double* out) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return ParseState::kUnset;
  char* end = nullptr;
  const double parsed = std::strtod(v, &end);
  if (end == v || *end != '\0' || std::isnan(parsed)) {
    return ParseState::kMalformed;
  }
  *out = parsed;
  return ParseState::kOk;
}

}  // namespace

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  std::uint64_t value = 0;
  return parse_u64(name, &value) == ParseState::kOk ? value : fallback;
}

std::uint64_t env_u64_clamped(const char* name, std::uint64_t fallback,
                              std::uint64_t lo, std::uint64_t hi) {
  std::uint64_t value = 0;
  switch (parse_u64(name, &value)) {
    case ParseState::kUnset:
      return fallback;
    case ParseState::kMalformed:
      SPCD_LOG_WARN("%s=\"%s\" is not a non-negative integer; using %llu",
                    name, std::getenv(name),
                    static_cast<unsigned long long>(fallback));
      return fallback;
    case ParseState::kOk:
      break;
  }
  if (value < lo || value > hi) {
    const std::uint64_t clamped = value < lo ? lo : hi;
    SPCD_LOG_WARN("%s=%llu is outside [%llu, %llu]; clamping to %llu", name,
                  static_cast<unsigned long long>(value),
                  static_cast<unsigned long long>(lo),
                  static_cast<unsigned long long>(hi),
                  static_cast<unsigned long long>(clamped));
    return clamped;
  }
  return value;
}

double env_double_clamped(const char* name, double fallback, double lo,
                          double hi) {
  double value = 0.0;
  switch (parse_double(name, &value)) {
    case ParseState::kUnset:
      return fallback;
    case ParseState::kMalformed:
      SPCD_LOG_WARN("%s=\"%s\" is not a number; using %g", name,
                    std::getenv(name), fallback);
      return fallback;
    case ParseState::kOk:
      break;
  }
  if (value < lo || value > hi) {
    const double clamped = value < lo ? lo : hi;
    SPCD_LOG_WARN("%s=%g is outside [%g, %g]; clamping to %g", name, value,
                  lo, hi, clamped);
    return clamped;
  }
  return value;
}

std::string env_string(const char* name, const std::string& fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return v;
}

std::string out_dir() {
  const std::string dir = env_string("SPCD_OUT_DIR", ".");
  if (dir == ".") return dir;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    SPCD_LOG_WARN("SPCD_OUT_DIR=%s cannot be created (%s); writing to .",
                  dir.c_str(), ec.message().c_str());
    return ".";
  }
  return dir;
}

std::string out_path(const std::string& filename) {
  if (!filename.empty() && filename.front() == '/') return filename;
  return out_dir() + "/" + filename;
}

}  // namespace spcd::util
