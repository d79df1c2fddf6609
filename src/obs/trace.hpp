// Deterministic sim-time event tracing (the observability tentpole).
//
// Every run of the simulator may own one obs::Session: a bounded ring
// buffer of trace events stamped with *simulated cycles* plus a
// MetricsRegistry. A session is bound to the worker thread executing the
// run via ScopedSession (a thread-local pointer, so concurrent pipeline
// cells never contend and never see each other's events); instrumentation
// sites call the free functions trace_instant()/trace_counter(), which are
// no-ops when no session is bound — and compile to nothing when the
// library is built with SPCD_OBS_DISABLED.
//
// Because events are stamped with the engine's simulated clock and every
// per-run random stream is derived from the cell seed, a run's capture is
// bit-reproducible and invariant under SPCD_JOBS: the exported traces of a
// serial and a parallel pipeline are byte-identical.
//
// Knobs (read by TraceConfig::from_env):
//   SPCD_TRACE      1/0 — enable tracing (default 0)
//   SPCD_TRACE_BUF  ring capacity in events (default 65536)
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "util/units.hpp"

namespace spcd::obs {

enum class EventKind : std::uint8_t {
  kInstant,  ///< a point-in-time occurrence (Chrome "ph":"i")
  kCounter,  ///< a sampled series value     (Chrome "ph":"C")
};

/// Optional event payload. `name` must be a string literal (or otherwise
/// outlive every export of the capture); events are POD so the ring buffer
/// never allocates.
struct TraceArg {
  const char* name = nullptr;
  std::uint64_t value = 0;
};

struct TraceEvent {
  util::Cycles time = 0;        ///< simulated cycles, never wall clock
  const char* cat = nullptr;    ///< subsystem: detector/injector/...
  const char* name = nullptr;   ///< event name, a string literal
  EventKind kind = EventKind::kInstant;
  TraceArg arg0;
  TraceArg arg1;
};

/// A log line routed through the obs sink (see util/log.hpp). Stamped with
/// the session's last event time — the closest simulated-time anchor the
/// logger has.
struct LogRecord {
  util::Cycles time = 0;
  std::string level;
  std::string text;
};

/// Bounded ring: when full, the oldest event is overwritten so the capture
/// always holds the newest `capacity` events; dropped() reports how many
/// fell off the front.
class TraceBuffer {
 public:
  explicit TraceBuffer(std::size_t capacity);

  void record(const TraceEvent& ev);

  std::size_t capacity() const { return capacity_; }
  /// Events currently held (<= capacity).
  std::size_t size() const;
  /// Events ever recorded, including overwritten ones.
  std::uint64_t recorded() const { return recorded_; }
  /// Events lost to wrap-around: recorded() - size().
  std::uint64_t dropped() const { return recorded_ - size(); }

  /// The held events, oldest first.
  std::vector<TraceEvent> snapshot() const;

 private:
  std::vector<TraceEvent> ring_;
  std::size_t capacity_;
  std::uint64_t recorded_ = 0;
};

struct TraceConfig {
  bool enabled = false;
  std::size_t buffer_events = 1 << 16;

  /// SPCD_TRACE (0/1) and SPCD_TRACE_BUF (clamped to [64, 2^24]).
  static TraceConfig from_env();
};

/// Everything a finished run exported from its session: the event
/// snapshot, overflow accounting, captured log lines, and the final
/// metrics registry.
struct RunCapture {
  std::vector<TraceEvent> events;
  std::uint64_t recorded = 0;
  std::uint64_t dropped = 0;
  std::vector<LogRecord> logs;
  std::uint64_t logs_dropped = 0;
  MetricsRegistry metrics;
};

/// record()/log()/capture() serialize on an internal mutex, so a session
/// bound (ScopedSession) on more than one thread records and captures
/// consistently. metrics() is exempt: the registry is only touched from
/// the thread running the simulation.
class Session {
 public:
  explicit Session(const TraceConfig& config);

  void record(EventKind kind, const char* cat, const char* name,
              util::Cycles time, TraceArg a0, TraceArg a1);
  void log(const char* level, const char* text);

  MetricsRegistry& metrics() { return metrics_; }
  /// Simulated time of the most recent event (log-line anchor).
  util::Cycles last_time() const;

  RunCapture capture() const;

 private:
  mutable std::mutex mu_;
  TraceBuffer buffer_;
  std::vector<LogRecord> logs_;
  std::size_t log_capacity_;
  std::uint64_t logs_recorded_ = 0;
  MetricsRegistry metrics_;
  util::Cycles last_time_ = 0;
};

/// The session bound to this thread, or nullptr. Sessions are bound for
/// the duration of one run, on the thread executing it; the binding is
/// thread-local, so the lookup takes no lock.
Session* current_session();

/// RAII thread binding. Binding nullptr is valid and explicitly silences
/// capture within the scope (used around the shared oracle profiling run,
/// whose executing thread is scheduling-dependent).
class ScopedSession {
 public:
  explicit ScopedSession(Session* session);
  ~ScopedSession();
  ScopedSession(const ScopedSession&) = delete;
  ScopedSession& operator=(const ScopedSession&) = delete;

 private:
  Session* prev_;
};

#ifdef SPCD_OBS_DISABLED
inline void trace_instant(const char*, const char*, util::Cycles,
                          TraceArg = {}, TraceArg = {}) {}
inline void trace_counter(const char*, const char*, util::Cycles,
                          std::uint64_t) {}
#else
inline void trace_instant(const char* cat, const char* name,
                          util::Cycles time, TraceArg a0 = {},
                          TraceArg a1 = {}) {
  if (Session* s = current_session()) {
    s->record(EventKind::kInstant, cat, name, time, a0, a1);
  }
}
inline void trace_counter(const char* cat, const char* name,
                          util::Cycles time, std::uint64_t value) {
  if (Session* s = current_session()) {
    s->record(EventKind::kCounter, cat, name, time, {"value", value}, {});
  }
}
#endif

}  // namespace spcd::obs
