// Minimal leveled logger. Level is read from SPCD_LOG (error|warn|info|debug)
// once at startup; default is warn so benchmark output stays clean, and an
// unknown value warns once on stderr and keeps warn.
// Messages use printf-style formatting (GCC 12 has no <format>).
#pragma once

#include <string_view>

namespace spcd::util {

enum class LogLevel { kError = 0, kWarn = 1, kInfo = 2, kDebug = 3 };

/// The process-wide log level (from SPCD_LOG, default warn).
LogLevel log_level();

/// Override the level programmatically (mainly for tests).
void set_log_level(LogLevel level);

/// Optional secondary sink: every emitted line (already level-filtered and
/// formatted, without the "[spcd LEVEL]" prefix) is also forwarded here.
/// The observability layer installs a sink that records log lines into the
/// current run's trace; stderr output is unchanged. The sink may be called
/// concurrently from pipeline worker threads and must be thread-safe.
using LogSink = void (*)(const char* level, const char* text);
void set_log_sink(LogSink sink);

namespace detail {
void log_line(LogLevel level, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));
}

#define SPCD_LOG_AT(level, ...)                                   \
  do {                                                            \
    if ((level) <= ::spcd::util::log_level()) {                   \
      ::spcd::util::detail::log_line((level), __VA_ARGS__);       \
    }                                                             \
  } while (0)

#define SPCD_LOG_ERROR(...) SPCD_LOG_AT(::spcd::util::LogLevel::kError, __VA_ARGS__)
#define SPCD_LOG_WARN(...) SPCD_LOG_AT(::spcd::util::LogLevel::kWarn, __VA_ARGS__)
#define SPCD_LOG_INFO(...) SPCD_LOG_AT(::spcd::util::LogLevel::kInfo, __VA_ARGS__)
#define SPCD_LOG_DEBUG(...) SPCD_LOG_AT(::spcd::util::LogLevel::kDebug, __VA_ARGS__)

}  // namespace spcd::util
