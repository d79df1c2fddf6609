#include "obs/trace.hpp"

#include <algorithm>
#include <mutex>

#include "util/contracts.hpp"
#include "util/env.hpp"
#include "util/log.hpp"

namespace spcd::obs {

namespace {

thread_local Session* t_session = nullptr;

/// Forward log lines into the current thread's session (if any). Installed
/// once, process-wide, by the first Session constructed; reads only
/// thread-local state, so it is safe under concurrent pipeline cells.
void obs_log_sink(const char* level, const char* text) {
  if (Session* s = t_session) s->log(level, text);
}

std::once_flag g_log_bridge_once;

}  // namespace

TraceBuffer::TraceBuffer(std::size_t capacity) : capacity_(capacity) {
  SPCD_EXPECTS(capacity >= 1);
  ring_.reserve(std::min<std::size_t>(capacity, 1024));
}

void TraceBuffer::record(const TraceEvent& ev) {
  if (ring_.size() < capacity_) {
    ring_.push_back(ev);
  } else {
    ring_[recorded_ % capacity_] = ev;  // overwrite the oldest
  }
  ++recorded_;
}

std::size_t TraceBuffer::size() const { return ring_.size(); }

std::vector<TraceEvent> TraceBuffer::snapshot() const {
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  if (recorded_ <= capacity_) {
    out = ring_;
  } else {
    const std::size_t head = recorded_ % capacity_;  // oldest live slot
    out.insert(out.end(), ring_.begin() + static_cast<std::ptrdiff_t>(head),
               ring_.end());
    out.insert(out.end(), ring_.begin(),
               ring_.begin() + static_cast<std::ptrdiff_t>(head));
  }
  return out;
}

TraceConfig TraceConfig::from_env() {
  TraceConfig config;
  config.enabled = util::env_u64_clamped("SPCD_TRACE", 0, 0, 1) != 0;
  return config;
}

Session::Session(const TraceConfig& config)
    : buffer_(config.buffer_events),
      log_capacity_(std::min<std::size_t>(config.buffer_events, 4096)) {
  std::call_once(g_log_bridge_once,
                 [] { util::set_log_sink(&obs_log_sink); });
}

void Session::record(EventKind kind, const char* cat, const char* name,
                     util::Cycles time, TraceArg a0, TraceArg a1) {
  std::lock_guard<std::mutex> lock(mu_);
  buffer_.record(TraceEvent{time, cat, name, kind, a0, a1});
  last_time_ = std::max(last_time_, time);
}

util::Cycles Session::last_time() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_time_;
}

void Session::log(const char* level, const char* text) {
  std::lock_guard<std::mutex> lock(mu_);
  if (logs_.size() < log_capacity_) {
    logs_.push_back(LogRecord{last_time_, level, text});
  } else {
    logs_[logs_recorded_ % log_capacity_] = LogRecord{last_time_, level,
                                                      text};
  }
  ++logs_recorded_;
}

RunCapture Session::capture() const {
  std::lock_guard<std::mutex> lock(mu_);
  RunCapture out;
  out.events = buffer_.snapshot();
  out.recorded = buffer_.recorded();
  out.dropped = buffer_.dropped();
  if (logs_recorded_ <= log_capacity_) {
    out.logs = logs_;
  } else {
    const std::size_t head = logs_recorded_ % log_capacity_;
    out.logs.assign(logs_.begin() + static_cast<std::ptrdiff_t>(head),
                    logs_.end());
    out.logs.insert(out.logs.end(), logs_.begin(),
                    logs_.begin() + static_cast<std::ptrdiff_t>(head));
  }
  out.logs_dropped = logs_recorded_ - out.logs.size();
  out.metrics = metrics_;
  return out;
}

Session* current_session() { return t_session; }

ScopedSession::ScopedSession(Session* session) : prev_(t_session) {
  t_session = session;
}

ScopedSession::~ScopedSession() { t_session = prev_; }

}  // namespace spcd::obs
