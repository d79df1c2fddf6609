// Configuration of the SPCD mechanism. Defaults follow the paper's Table I
// where a value exists there (granularity 4 KiB, ~10% additional page
// faults, 256,000-entry hash table); timing parameters are expressed in
// simulated cycles.
//
// Time scaling: the paper's injector wakes every 10 ms on runs lasting
// seconds (hundreds of wake-ups per run). Simulated runs last a few tens
// of milliseconds, so the default period here is 0.25 ms of simulated time
// (at 2 GHz) to preserve the wake-ups-per-run ratio; the injected-fault
// *ratio* (10%) is dimensionless and matches the paper exactly. See
// DESIGN.md ("Simulator fidelity notes").
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "mem/sharing_table.hpp"
#include "util/units.hpp"

namespace spcd::core {

/// Thrown for an invalid experiment configuration (SpcdConfig and friends)
/// by constructors that cannot return an error string. Derives from
/// std::invalid_argument so existing catch sites keep working; CLIs catch
/// it at top level and exit 2 (the usage-error exit code).
class ConfigError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Adversarial-input hardening (DESIGN.md §13). Everything here defaults to
/// *off*: with `enabled == false` the pipeline computes bit-for-bit what a
/// build without the hardening layer would — the defenses are opt-in
/// (`spcdsim --harden`, or these fields in code) because the byte-identity
/// CI gates pin the default path's results.
struct HardeningConfig {
  /// Master switch for all detection/filter/mapper defenses below.
  bool enabled = false;

  // --- detection: per-thread fault-rate anomaly scoring ---
  /// Evaluate anomaly scores every this many delivered faults (the scoring
  /// window). Per window, a thread's score is its share of the window's
  /// faults (relative to a uniform share) boosted by the entropy of its
  /// new communication edges: floods and fabricated-sharing sources fault
  /// far above their share and/or spray edges across many partners.
  std::uint64_t anomaly_window_faults = 512;
  /// Weight of the edge-entropy boost in the score (0 = pure rate spike).
  double anomaly_entropy_weight = 0.5;
  /// Threads scoring at or above this are flagged anomalous for the next
  /// window (score 1.0 = exactly the uniform share, no entropy boost).
  double anomaly_flag_threshold = 2.5;
  /// Confidence weighting: matrix increments whose source (or partner) is
  /// flagged count only once every `anomaly_discount` events.
  std::uint32_t anomaly_discount = 8;

  // --- sharing table: saturation-aware admission ---
  /// Guard established entries against flooding: a colliding region must
  /// knock `admission_max_refusals` times before it may overwrite an entry
  /// that already holds >= 2 sharers, and accesses by currently-flagged
  /// threads are always refused. See SharingTableConfig::guard_admission.
  std::uint32_t admission_max_refusals = 3;

  // --- filter/mapper: guarded remaps ---
  /// A thread's partner change must persist across this many consecutive
  /// filter evaluations before it counts (0 or 1 = paper behavior).
  std::uint32_t filter_hysteresis = 3;
  /// Token-bucket remap rate limiter: at most `remap_burst` remaps
  /// back-to-back, refilling one token per `remap_refill_interval` cycles.
  std::uint32_t remap_burst = 2;
  util::Cycles remap_refill_interval = 4'000'000;
  /// Probation: after a remap, watch the remote-traffic rate (cross-socket
  /// cache-to-cache + remote DRAM) for this many cycles; if it exceeds
  /// `rollback_tolerance` times the pre-remap rate, restore the previous
  /// placement (via the migration retry/fallback machinery) and hold off
  /// further remaps for one probation window. 0 disables probation.
  util::Cycles probation_window = 2'000'000;
  double rollback_tolerance = 1.15;

  /// Empty string when valid, else a one-line error (see
  /// SpcdConfig::validate, which includes this check).
  std::string validate() const;
};

/// Selection and knobs of the mapping algorithm (core/mapping_strategy.hpp).
/// `strategy` is a registry name — "blossom" (the paper's exact Edmonds
/// grouping, the default), "greedy", or "hierarchical" (the multilevel
/// mapper for large machines, DESIGN.md §15). Validated by
/// SpcdConfig::validate(): an unknown name or an out-of-range knob is a
/// ConfigError, never a silent fallback.
struct MappingConfig {
  std::string strategy = "blossom";

  // --- hierarchical knobs (ignored by the exact strategies) ---
  /// Group count at or below which the multilevel mapper stops coarsening
  /// and switches to exact Blossom rounds. Smaller = faster, coarser.
  std::uint32_t blossom_cutoff = 32;
  /// Local-refinement sweeps over the final placement (0 disables).
  std::uint32_t refine_passes = 2;
  /// Worker threads for refinement gain evaluation; 0 follows SPCD_JOBS.
  /// Results are byte-identical at any worker count.
  std::uint32_t refine_jobs = 0;

  /// Empty string when valid, else a one-line error (folded into
  /// SpcdConfig::validate()).
  std::string validate() const;
};

struct SpcdConfig {
  /// The sharing hash table (granularity, size, collision policy, window).
  mem::SharingTableConfig table;

  /// Target ratio of injected faults to total faults (Table I: ~10%).
  double extra_fault_ratio = 0.10;

  /// Sustained sampling floor: every wake-up clears at least this fraction
  /// of the resident pages (and at least `min_pages_floor`), even when the
  /// ratio target is already met. Without a floor, an application that
  /// stops taking minor faults after startup would never be sampled again
  /// and dynamic pattern changes (the producer/consumer phases of Section
  /// V-B) could not be detected.
  /// (The paper's fault counts are ~100x ours because its runs last
  /// seconds; a higher sustained duty compensates for the compressed
  /// simulated timescale while the *overhead*, the binding constraint,
  /// stays below the paper's 1.5%.)
  double min_sample_frac = 0.04;
  std::uint32_t min_pages_floor = 4;
  /// Absolute cap on the sustained floor, so large-footprint applications
  /// (DC) are not sampled proportionally harder than small ones.
  std::uint32_t max_floor_pages = 200;

  /// Startup burst: multiply the sampling floor by this factor for the
  /// first `startup_wakeups` injector wake-ups, so the communication
  /// matrix matures before much of the run has executed on the initial
  /// (communication-oblivious) placement.
  double startup_boost = 3.0;
  std::uint32_t startup_wakeups = 8;

  /// Do not run the filter/mapping until the matrix holds at least this
  /// many communication events — remapping on a near-empty matrix would
  /// migrate threads on noise.
  std::uint64_t min_matrix_total = 200;

  /// Injector kernel-thread period in cycles (default 0.25 ms @ 2 GHz).
  util::Cycles injector_period = 500'000;

  /// Upper bound on present-bit clears per wake-up (safety valve for the
  /// feedback controller).
  std::uint32_t max_pages_per_wakeup = 4096;

  /// How often the communication filter inspects the matrix.
  util::Cycles mapping_interval = 2'000'000;

  /// Threads that must change partner before remapping (Section IV-A).
  std::uint32_t filter_threshold = 2;

  /// Partner hysteresis (see CommFilter): a new partner must exceed the
  /// stored one's communication by this factor to count as a change.
  double filter_margin = 1.8;

  /// Evidence-driven refinement: re-run the mapping when the matrix total
  /// has grown by this factor since the last mapping, even if no partner
  /// changed. The filter only sees first-order (strongest-partner)
  /// changes; group-level assignments keep improving as the matrix
  /// densifies, and placement-stable remapping makes refinements cheap.
  /// 0 disables refinement.
  double refine_growth = 2.0;

  /// Migrate only when the new placement's communication cost (under the
  /// detected matrix) is at most this fraction of the current placement's
  /// cost. Gates out remappings that shuffle threads between equivalent
  /// layouts — the migrations would cost cache refills for no gain.
  double mapping_gain_threshold = 0.9;

  /// Estimated cost of migrating one thread, expressed as a fraction of
  /// the matrix total in placement-cost units. The remap is applied only
  /// when (new cost + penalty * total * moved) <= threshold * current
  /// cost, so fleets are not moved for gains that the cache-refill cost of
  /// the migration would eat.
  double move_penalty_frac = 0.04;

  /// Perform migrations (false = detection-only, for accuracy studies).
  bool enable_migration = true;

  /// Also migrate misplaced pages to the node using them (the paper's
  /// "data mapping" extension; see core/data_mapper.hpp). Off by default
  /// to match the paper's evaluation.
  bool enable_data_mapping = false;

  // --- graceful degradation (see DESIGN.md "Perturbation layer") ---
  /// Failed thread migrations are retried with exponential backoff up to
  /// this many times, then the old mapping is kept for the failed threads.
  std::uint32_t migration_max_retries = 3;
  /// Backoff before the first retry; doubles per attempt.
  util::Cycles migration_retry_backoff = 250'000;
  /// Every `saturation_check_faults` detector faults, compare the sharing
  /// table's collision delta against its access delta; above
  /// `saturation_collision_ratio` the table is considered saturated and is
  /// aged (stale entries evicted) or, if nothing is stale, reset. 0
  /// disables the check. The default ratio never triggers on healthy runs
  /// (the 256,000-entry table collides on ~0% of accesses).
  std::uint64_t saturation_check_faults = 256;
  double saturation_collision_ratio = 0.5;
  /// Entries whose newest access is older than this are evicted by aging.
  util::Cycles saturation_age_window = 4'000'000;
  /// An injector wake-up arriving later than this factor times the period
  /// since the previous one overran its deadline: it skips its injection
  /// batch instead of piling a late batch onto the next one.
  double overrun_skip_factor = 1.5;

  // --- overhead cost model (cycles charged to the application) ---
  /// Hash-table update in the fault handler.
  util::Cycles fault_hook_cost = 150;
  /// Fixed kernel-thread wake-up cost.
  util::Cycles injector_wakeup_cost = 500;
  /// Page-table walk + present-bit clear + TLB shootdown, per page.
  util::Cycles per_page_injection_cost = 40;
  /// Filter evaluation: Theta(N^2) with this constant.
  util::Cycles filter_cost_per_thread_sq = 2;
  /// Mapping: Edmonds is polynomial; modelled as base + c*N^3.
  util::Cycles matching_base_cost = 20'000;
  util::Cycles matching_cost_per_thread_cubed = 8;
  /// Re-attempting the failed subset of a migration batch.
  util::Cycles migration_retry_cost = 5'000;

  /// Adversarial-input hardening (default: fully disabled; see
  /// HardeningConfig and DESIGN.md §13).
  HardeningConfig hardening;

  /// Mapping-strategy selection (default: the paper's exact Blossom
  /// grouping). The SPCD kernel and the oracle both honor it.
  MappingConfig mapping;

  /// Check the configuration for contradictory settings (injection ratio
  /// outside (0, 1], a zero injector period, a degenerate granularity,
  /// ...). Returns an empty string when valid, else a one-line error — a
  /// recoverable condition for callers like spcdsim, unlike the
  /// SPCD_EXPECTS contract aborts. SpcdKernel's constructor throws
  /// ConfigError with this message on an invalid configuration.
  std::string validate() const;
};

}  // namespace spcd::core
