// SPCD's communication detection: the page-fault hook of the paper's
// Figure 2. Every fault on the monitored application records (thread,
// region) in the sharing table; faults on regions other threads touched
// recently increment the communication matrix.
//
// Hot-path batching: on_fault() no longer walks the sharing table inline.
// It only draws the chaos decisions, charges the handler cost, and appends
// the event to a small fixed ring; the table/matrix work is applied when
// the ring fills, at the kernel's quantum boundary, or lazily by any state
// accessor. Events drain strictly in arrival order and every chaos RNG
// stream is per hook family, so the detector state after a drain is
// bit-identical to unbatched delivery — the batching is observable only as
// wall-clock time (one cache-warm pass over the table per quantum instead
// of a dispatch + cold walk per fault).
//
// Robustness: an optional chaos::PerturbationEngine can drop or duplicate
// fault notifications and force table collisions. The detector degrades
// gracefully under collision storms — when the table's collision rate over
// a window of faults exceeds a threshold, it ages stale entries out (or
// resets the table wholesale) instead of silently letting overwrites
// corrupt the matrix; each such event is counted as a saturation reset.
//
// Adversarial hardening (DESIGN.md §13): an optional chaos::AdversaryEngine
// fabricates phantom faults riding on each delivered real fault (inside the
// serial drain loop, so the attack is bit-identical across job counts),
// and — when SpcdConfig::hardening is enabled — the detector scores
// per-thread fault-rate anomalies per window (rate spike x edge entropy),
// discounts matrix increments from flagged sources, and feeds the flags to
// the sharing table's admission guard.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "chaos/adversary.hpp"
#include "chaos/perturbation.hpp"
#include "core/comm_matrix.hpp"
#include "core/spcd_config.hpp"
#include "mem/address_space.hpp"
#include "mem/sharing_table.hpp"

namespace spcd::core {

class SpcdDetector final : public mem::FaultObserver {
 public:
  SpcdDetector(const SpcdConfig& config, std::uint32_t num_threads,
               chaos::PerturbationEngine* chaos = nullptr,
               chaos::AdversaryEngine* adversary = nullptr);

  /// FaultObserver: charge the handler's extra cycles and enqueue the
  /// access for batched detection (see header comment).
  util::Cycles on_fault(const mem::FaultEvent& event) override;

  /// Apply all pending (ring-buffered) fault events now. Called at quantum
  /// boundaries by SpcdKernel, at every engine epoch (the engine's sim-time
  /// heartbeat — see DESIGN.md §12), and implicitly by every accessor
  /// below, so observers can never see pre-drain state.
  /// Drain frequency is free to vary: events apply strictly in arrival
  /// order with costs already charged, so any flush schedule yields
  /// bit-identical detector state. Logically const: the observable state
  /// of the detector is defined as the post-drain state.
  void flush() const;

  const CommMatrix& matrix() const {
    flush();
    return matrix_;
  }
  CommMatrix& matrix() {
    flush();
    return matrix_;
  }
  const mem::SharingTable& table() const {
    flush();
    return table_;
  }

  std::uint64_t faults_seen() const {
    flush();
    return faults_seen_;
  }
  std::uint64_t communication_events() const {
    flush();
    return comm_events_;
  }

  /// Times the saturation monitor aged or reset the table.
  std::uint32_t saturation_resets() const {
    flush();
    return saturation_resets_;
  }

  /// Thread-window anomaly verdicts issued (one per flagged thread per
  /// scoring window; 0 unless hardening is enabled).
  std::uint32_t anomalies_flagged() const {
    flush();
    return anomalies_flagged_;
  }

  /// Table overwrites refused by the admission guard (0 unless hardened).
  std::uint64_t admissions_refused() const {
    flush();
    return table_.admissions_refused();
  }

 private:
  /// One undelivered fault. The chaos duplicate decision is drawn at
  /// arrival (its RNG stream must advance in fault order); the delivery
  /// itself is deferred.
  struct PendingFault {
    std::uint64_t vaddr = 0;
    mem::ThreadId tid = 0;
    util::Cycles time = 0;
    bool duplicated = false;
  };
  static constexpr std::size_t kRingCapacity = 64;

  void drain();
  /// Fully process one fault (real or phantom): stat/window accounting,
  /// table/matrix walk, trace event, anomaly + saturation checks.
  void deliver(const PendingFault& fault);
  void record(const PendingFault& fault);
  void maybe_handle_saturation(util::Cycles now);
  void maybe_score_anomalies(util::Cycles now);

  bool hardened() const { return !flagged_.empty(); }

  SpcdConfig config_;
  mem::SharingTable table_;
  CommMatrix matrix_;
  chaos::PerturbationEngine* chaos_;
  chaos::AdversaryEngine* adversary_;
  std::array<PendingFault, kRingCapacity> ring_;
  std::size_t ring_size_ = 0;
  std::uint64_t faults_seen_ = 0;
  std::uint64_t comm_events_ = 0;
  std::uint32_t saturation_resets_ = 0;
  std::uint64_t last_check_faults_ = 0;
  std::uint64_t last_check_accesses_ = 0;
  std::uint64_t last_check_collisions_ = 0;

  // --- hardening state (all vectors empty unless hardening.enabled) ---
  std::vector<std::uint32_t> window_faults_;  ///< faults per tid, window
  std::vector<std::uint8_t> flagged_;         ///< last window's verdicts
  std::vector<std::uint32_t> discount_ctr_;   ///< per-tid discount phase
  std::uint64_t window_total_ = 0;
  CommMatrix::Snapshot window_snap_;
  std::uint32_t anomalies_flagged_ = 0;
};

}  // namespace spcd::core
