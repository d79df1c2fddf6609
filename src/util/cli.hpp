// Strict command-line flag parsing shared by the CLIs (spcdsim,
// spcd_pipeline, spcdd). The contract every binary honors:
//
//   * an unknown flag, a flag missing its value, or a malformed numeric
//     value prints the offending input plus the usage text to stderr and
//     exits 2 (the usage-error exit code, same as ConfigError),
//   * numeric values parse strictly: "--reps x" or "--reps -3" is rejected
//     instead of silently running with atoi's 0,
//   * --help / -h prints the usage text to stdout and the caller exits 0.
//
// Header-only so the examples and bench binaries share one definition
// without a new library. Typical loop:
//
//   util::CliArgs args(argc, argv, kUsage);
//   while (args.next()) {
//     if (args.is("--reps")) reps = args.u32();
//     else if (args.is("--scale")) scale = args.positive_real();
//     else if (args.help()) return 0;
//     else args.unknown();
//   }
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

namespace spcd::util {

class CliArgs {
 public:
  CliArgs(int argc, char** argv, const char* usage)
      : argc_(argc), argv_(argv), usage_(usage) {}

  /// Advance to the next argument; false when the command line is
  /// exhausted. Call before the first arg() access.
  bool next() {
    if (index_ + 1 >= argc_) return false;
    arg_ = argv_[++index_];
    return true;
  }

  /// The argument next() stopped on.
  const std::string& arg() const { return arg_; }
  bool is(const char* flag) const { return arg_ == flag; }

  /// The current flag's value operand; a flag at the end of the command
  /// line fails with "missing value" (usage + exit 2).
  const char* value() {
    if (index_ + 1 >= argc_) fail("missing value for %s\n", arg_.c_str());
    return argv_[++index_];
  }

  /// Strict non-negative integer value: rejects empty, negative, and
  /// trailing garbage instead of truncating.
  std::uint64_t u64() {
    const char* text = value();
    char* end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (*text == '\0' || *text == '-' || end == text || *end != '\0') {
      fail("%s is not a non-negative integer\n",
           (arg_ + "=" + text).c_str());
    }
    return static_cast<std::uint64_t>(v);
  }
  /// u64() that must also fit 32 bits: "--reps 4294967297" exits 2
  /// instead of wrapping to 1.
  std::uint32_t u32() {
    const std::uint64_t v = u64();
    if (v > UINT32_MAX) {
      fail("%s is out of range\n", (arg_ + "=" + std::to_string(v)).c_str());
    }
    return static_cast<std::uint32_t>(v);
  }

  /// Strict floating-point value.
  double real() {
    const char* text = value();
    char* end = nullptr;
    const double v = std::strtod(text, &end);
    if (*text == '\0' || end == text || *end != '\0') {
      fail("%s is not a number\n", (arg_ + "=" + text).c_str());
    }
    return v;
  }

  /// Strict floating-point value that must also be finite and positive
  /// (a workload scale): "--scale 0", "-1", "nan" and "inf" exit 2.
  double positive_real() {
    const double v = real();
    if (!(v > 0.0) || !std::isfinite(v)) {
      fail("%s must be a finite positive number\n", arg_.c_str());
    }
    return v;
  }

  /// True for --help / -h, after printing the usage text to stdout; the
  /// caller returns 0.
  bool help() const {
    if (arg_ != "--help" && arg_ != "-h") return false;
    std::fputs(usage_, stdout);
    return true;
  }

  /// Report the current argument as an unknown option (usage + exit 2).
  [[noreturn]] void unknown() const {
    fail("unknown option %s\n", arg_.c_str());
  }

  /// Print `fmt` (with one %s argument) and the usage text to stderr,
  /// exit 2. Public so callers can reject flag *combinations* with the
  /// same contract (e.g. "--reps must be at least 1").
  [[noreturn]] void fail(const char* fmt, const char* what) const {
    // The format string is one of this header's literals or a caller
    // literal with a single %s — never user input.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wformat-nonliteral"
    std::fprintf(stderr, fmt, what);
#pragma GCC diagnostic pop
    std::fputs(usage_, stderr);
    std::exit(2);
  }

 private:
  int argc_;
  char** argv_;
  const char* usage_;
  int index_ = 0;
  std::string arg_;
};

}  // namespace spcd::util
