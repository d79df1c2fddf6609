// The paper's central data structure (Figure 4): a fixed-size hash table,
// outside the page table, that maps a memory *region* (virtual address
// shifted by a configurable granularity — decoupled from the hardware page
// size, SIII-C1) to the list of threads that faulted on it, with a timestamp
// of each thread's last access.
//
// Faithful to the paper:
//   * fixed size, default 256,000 entries (~1 GiB of coverage at 4 KiB
//     granularity; ~18 MiB of kernel memory),
//   * hash collisions overwrite the previous entry ("to reduce the
//     overhead", SIII-B1),
//   * a subsequent access counts as communication only with sharers whose
//     last access fell inside a time window (temporal false communication,
//     SIII-C2),
//   * the hash function follows the Linux kernel's hash_64 (golden-ratio
//     multiplicative hash).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "mem/address_space.hpp"
#include "util/units.hpp"

namespace spcd::mem {

struct SharingTableConfig {
  std::uint64_t num_entries = 256000;
  /// log2 of the detection granularity in bytes (default 4 KiB like the
  /// paper, independent of the machine's page size).
  unsigned granularity_shift = 12;
  /// Accesses farther apart than this window are not communication.
  /// 0 disables the temporal filter.
  util::Cycles time_window = 0;
  /// Sharers remembered per region; the kernel module bounds this so an
  /// entry stays ~72 bytes. The oldest sharer is evicted when full.
  std::uint32_t max_sharers = 8;

  // --- adversarial hardening: saturation-aware admission (default off) ---
  /// Guard established entries (>= 2 sharers) against flooding: a colliding
  /// region must knock `admission_max_refusals` times before it may
  /// overwrite one, and accesses by threads marked suspect (see
  /// set_suspects) are refused outright. Off by default — the paper's
  /// overwrite-on-collision behavior is byte-identical when disabled.
  bool guard_admission = false;
  std::uint32_t admission_max_refusals = 3;
};

/// Result of recording one access: the other threads this access
/// communicated with (sharers of the region inside the time window).
struct CommunicationEvent {
  /// Partner thread ids; parallel to `partner_count`.
  std::uint32_t partners[8];
  std::uint32_t partner_count = 0;
};

class SharingTable {
 public:
  explicit SharingTable(const SharingTableConfig& config);

  /// Record that `tid` touched `vaddr` at time `now`; reports which threads
  /// it communicated with (previous sharers within the time window).
  CommunicationEvent record_access(std::uint64_t vaddr, ThreadId tid,
                                   util::Cycles now);

  /// Region key for an address at the configured granularity.
  std::uint64_t region_of(std::uint64_t vaddr) const {
    return vaddr >> config_.granularity_shift;
  }

  /// Hint that `vaddr`'s bucket will be accessed soon. Purely a cache
  /// prefetch — no architectural effect. The detector issues these for
  /// ring-buffered faults a few events ahead of their delivery, hiding the
  /// table's (deliberately paper-sized, memory-resident) probe latency.
  void prefetch(std::uint64_t vaddr) const {
    __builtin_prefetch(&table_[bucket_of(region_of(vaddr))]);
  }

  const SharingTableConfig& config() const { return config_; }

  /// Approximate memory footprint of the table in bytes.
  std::uint64_t memory_bytes() const;

  /// Optional perturbation hook: may replace an access's bucket before the
  /// lookup (the chaos layer uses this to force collisions and saturation
  /// deterministically). Returns true when *bucket was replaced. An unset
  /// hook costs one branch per access.
  using BucketHook =
      std::function<bool(std::uint64_t num_buckets, std::uint64_t* bucket)>;
  void set_bucket_hook(BucketHook hook) { bucket_hook_ = std::move(hook); }

  /// Optional eviction observer: called whenever a collision overwrites an
  /// established entry, with the evicted and the incoming region key. The
  /// multi-tenant service keys regions by tenant and uses this to count
  /// cross-tenant evictions — capacity interference between tenants that
  /// never share an entry. An unset hook costs one branch per collision.
  using EvictionHook =
      std::function<void(std::uint64_t evicted_region, std::uint64_t region)>;
  void set_eviction_hook(EvictionHook hook) {
    eviction_hook_ = std::move(hook);
  }

  /// Graceful degradation for a saturated table: evict entries whose most
  /// recent access is older than `now - window`. Returns the number of
  /// entries evicted.
  std::uint64_t age(util::Cycles now, util::Cycles window);

  /// Drop every entry but keep the cumulative statistics (unlike clear()),
  /// so collision-rate monitoring across the reset stays monotonic.
  void reset_entries();

  /// Hardening: per-thread suspect flags consulted by the admission guard
  /// (non-owning; `flags[tid] != 0` marks tid suspect). The detector points
  /// this at its anomaly-flag array so freshly flagged flooders are locked
  /// out of evictions immediately. Ignored unless guard_admission is set.
  void set_suspects(const std::uint8_t* flags, std::uint32_t count) {
    suspect_flags_ = flags;
    suspect_count_ = count;
  }

  // --- statistics ---
  std::uint64_t collisions() const { return collisions_; }
  std::uint64_t occupied() const { return occupied_; }
  std::uint64_t accesses() const { return accesses_; }
  /// Accesses suppressed by the temporal window.
  std::uint64_t window_rejects() const { return window_rejects_; }
  /// Overwrites refused by the admission guard (0 unless guarding).
  std::uint64_t admissions_refused() const { return admissions_refused_; }

  void clear();

 private:
  struct Sharer {
    ThreadId tid = 0;
    util::Cycles last_access = 0;
  };
  struct Entry {
    static constexpr std::uint64_t kEmpty = ~0ULL;
    std::uint64_t region = kEmpty;
    std::uint32_t sharer_count = 0;
    /// Admission-guard knocks absorbed since the last touch of this
    /// entry's own region (only maintained under guard_admission).
    std::uint32_t refusals = 0;
    Sharer sharers[8];
  };

  std::uint64_t bucket_of(std::uint64_t region) const;
  CommunicationEvent touch_entry(Entry& entry, std::uint64_t region,
                                 ThreadId tid, util::Cycles now);

  SharingTableConfig config_;
  /// ceil(2^64 / num_entries), for divide-free modulo in bucket_of.
  std::uint64_t bucket_magic_ = 0;
  std::vector<Entry> table_;
  BucketHook bucket_hook_;
  EvictionHook eviction_hook_;

  const std::uint8_t* suspect_flags_ = nullptr;
  std::uint32_t suspect_count_ = 0;

  std::uint64_t collisions_ = 0;
  std::uint64_t occupied_ = 0;
  std::uint64_t accesses_ = 0;
  std::uint64_t window_rejects_ = 0;
  std::uint64_t admissions_refused_ = 0;
};

}  // namespace spcd::mem
