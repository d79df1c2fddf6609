// The daemon's session layer: one pool job per tenant connection. Each
// accepted transport runs a session loop on a util::ThreadPool; a graceful
// shutdown (request_stop, or the accept loop's stop predicate) ends every
// session at its next recv poll, and drain() waits for them. Session
// errors are contained: a malformed frame or dead peer closes that
// session, and an exception is logged and closes it too.
//
// The server also runs the service's liveness sweep (accept_loop calls
// check_liveness each poll) and enforces admission control: when more
// than max_pending_commits batches are in flight (on the commit lock or
// awaiting their group fsync), new batches get a kRetry reply — the
// request is NOT committed, so replay determinism is untouched — while a
// re-send of a committed request still gets its cached reply. The
// health counters in ServerStats (heartbeats, retries, suppressed
// duplicates, resumed sessions) are transport-side observations; they
// are deliberately NOT part of the service's journaled state.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>

#include "svc/service.hpp"
#include "svc/transport.hpp"
#include "util/thread_pool.hpp"

namespace spcd::svc {

struct ServerConfig {
  /// Session pool size. Sessions are blocking-I/O jobs that live for the
  /// whole connection, so the pool bounds *concurrent tenants*, not CPU
  /// parallelism — the default admits well past the 100-tenant mark
  /// instead of inheriting the CPU-count default a compute pool wants.
  unsigned threads = 160;
  /// Session recv and accept poll period: the latency of noticing a stop
  /// request.
  int recv_timeout_ms = 50;
  /// Backpressure: batches/re-registers in flight (commit lock or group
  /// fsync) beyond this get a kRetry reply instead of committing
  /// (0 = unlimited).
  std::uint32_t max_pending_commits = 64;
  /// The delay a kRetry reply asks the client to back off for.
  std::uint32_t retry_delay_ms = 5;
};

/// Transport-side health counters (never journaled, not deterministic).
struct ServerStats {
  std::uint64_t heartbeats = 0;             ///< kHeartbeat frames served
  std::uint64_t retries_sent = 0;           ///< kRetry replies (overload)
  std::uint64_t duplicates_suppressed = 0;  ///< cached replies re-sent
  std::uint64_t sessions_resumed = 0;       ///< kResume reattachments
};

class ServiceServer {
 public:
  ServiceServer(SpcdService& service, const ServerConfig& config);

  /// Run an accepted connection as a session job on the pool.
  void serve(std::unique_ptr<Transport> transport);

  /// Accept connections until request_stop(), or until `stop_poll` (when
  /// given) returns true, which then requests the stop; runs on the
  /// calling thread and checks both on each poll. spcdd points
  /// `stop_poll` at its signal flag. Each accept poll also sweeps tenant
  /// liveness (service.check_liveness), so suspect/reap deadlines are
  /// enforced even when every session is idle.
  void accept_loop(Listener& listener,
                   const std::function<bool()>& stop_poll = {});

  /// Stop accepting and end sessions: every session loop notices the
  /// stop flag at its next poll, sends kShutdown, and exits.
  void request_stop() { stop_.store(true, std::memory_order_relaxed); }
  bool stop_requested() const { return stop_.load(std::memory_order_relaxed); }

  /// Block until every session has ended.
  void drain() { pool_.wait(); }

  std::uint64_t sessions_started() const {
    return sessions_.load(std::memory_order_relaxed);
  }
  ServerStats stats() const;

  /// Steady-clock milliseconds (the liveness time base; monotonic).
  static std::uint64_t now_ms();

 private:
  void session_loop(Transport& transport);
  /// Admission control for a sequenced request: false when the commit
  /// queue is full; otherwise true, and the request counts as pending
  /// until the caller releases it.
  bool admit();
  /// Send a sequenced request's reply, kRetry or error.
  void answer(Transport& transport, std::uint64_t client_seq,
              const SessionReply& reply);

  SpcdService& service_;
  ServerConfig config_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> sessions_{0};
  std::atomic<std::uint32_t> pending_commits_{0};
  std::atomic<std::uint64_t> heartbeats_{0};
  std::atomic<std::uint64_t> retries_sent_{0};
  std::atomic<std::uint64_t> duplicates_suppressed_{0};
  std::atomic<std::uint64_t> sessions_resumed_{0};
  // Last: its session threads use every member above, so it joins them
  // before any of those is destroyed.
  util::ThreadPool pool_;
};

}  // namespace spcd::svc
