#include "util/log.hpp"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace spcd::util {

namespace {

LogLevel initial_level() {
  const char* env = std::getenv("SPCD_LOG");
  if (env == nullptr || *env == '\0') return LogLevel::kWarn;
  if (std::strcmp(env, "error") == 0) return LogLevel::kError;
  if (std::strcmp(env, "warn") == 0) return LogLevel::kWarn;
  if (std::strcmp(env, "info") == 0) return LogLevel::kInfo;
  if (std::strcmp(env, "debug") == 0) return LogLevel::kDebug;
  // Plain fprintf: this runs while g_level itself is being initialized.
  std::fprintf(stderr,
               "[spcd WARN ] SPCD_LOG=\"%s\" is not a level "
               "(error|warn|info|debug); using warn\n",
               env);
  return LogLevel::kWarn;
}

LogLevel g_level = initial_level();
LogSink g_sink = nullptr;

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kError: return "ERROR";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kDebug: return "DEBUG";
  }
  return "?";
}

}  // namespace

LogLevel log_level() { return g_level; }

void set_log_level(LogLevel level) { g_level = level; }

void set_log_sink(LogSink sink) { g_sink = sink; }

namespace detail {

void log_line(LogLevel level, const char* fmt, ...) {
  char buf[1024];
  std::va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  std::fprintf(stderr, "[spcd %-5s] %s\n", level_name(level), buf);
  if (g_sink != nullptr) g_sink(level_name(level), buf);
}

}  // namespace detail

}  // namespace spcd::util
