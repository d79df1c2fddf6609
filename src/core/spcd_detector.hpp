// SPCD's communication detection: the page-fault hook of the paper's
// Figure 2. Every fault on the monitored application records (thread,
// region) in the sharing table; faults on regions other threads touched
// recently increment the communication matrix.
//
// Delivery is inline, as in the paper's handler (§III-B): on_fault() draws
// the chaos decisions, charges the handler cost and then walks the table
// and matrix on the spot, so every accessor reads current state.
//
// Robustness: an optional chaos::PerturbationEngine can drop or duplicate
// fault notifications and force table collisions. The detector degrades
// gracefully under collision storms — when the table's collision rate over
// a window of faults exceeds a threshold, it ages stale entries out (or
// resets the table wholesale) instead of silently letting overwrites
// corrupt the matrix; each such event is counted as a saturation reset.
//
// Adversarial hardening (DESIGN.md §13): an optional chaos::AdversaryEngine
// fabricates phantom faults riding on each delivered real fault (a pure
// function of the fault stream, so the attack is bit-identical across job
// counts), and — when SpcdConfig::hardening is enabled — the detector
// scores per-thread fault-rate anomalies per window (rate spike x edge
// entropy), discounts matrix increments from flagged sources, and feeds
// the flags to the sharing table's admission guard.
#pragma once

#include <cstdint>
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

  /// FaultObserver: charge the handler's extra cycles and deliver the
  /// fault, plus any adversary phantoms riding on it.
  util::Cycles on_fault(const mem::FaultEvent& event) override;

  /// A no-op (delivery is inline); bench/e2e's detector census calls it.
  void flush() const {}

  const CommMatrix& matrix() const { return matrix_; }
  const mem::SharingTable& table() const { return table_; }

  std::uint64_t faults_seen() const { return faults_seen_; }
  std::uint64_t communication_events() const { return comm_events_; }

  /// Times the saturation monitor aged or reset the table.
  std::uint32_t saturation_resets() const { return saturation_resets_; }

  /// Thread-window anomaly verdicts issued (one per flagged thread per
  /// scoring window; 0 unless hardening is enabled).
  std::uint32_t anomalies_flagged() const { return anomalies_flagged_; }

  /// Table overwrites refused by the admission guard (0 unless hardened).
  std::uint64_t admissions_refused() const {
    return table_.admissions_refused();
  }

 private:
  /// Fully process one fault (real or phantom): stat/window accounting,
  /// table/matrix walk (twice for a chaos duplicate), trace event,
  /// anomaly + saturation checks.
  void deliver(std::uint64_t vaddr, mem::ThreadId tid, util::Cycles time,
               bool duplicated);
  void record(std::uint64_t vaddr, mem::ThreadId tid, util::Cycles time);
  void maybe_handle_saturation(util::Cycles now);
  void maybe_score_anomalies(util::Cycles now);

  bool hardened() const { return !flagged_.empty(); }

  SpcdConfig config_;
  mem::SharingTable table_;
  CommMatrix matrix_;
  chaos::PerturbationEngine* chaos_;
  chaos::AdversaryEngine* adversary_;
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
