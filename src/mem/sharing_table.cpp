#include "mem/sharing_table.hpp"

#include <algorithm>

#include "util/contracts.hpp"

namespace spcd::mem {

namespace {
// Linux kernel hash_64: multiply by the 64-bit golden ratio prime. We map to
// an arbitrary (not necessarily power-of-two) table size by taking the high
// 32 bits and reducing them modulo the size, which preserves the avalanche
// behaviour of the multiplicative hash.
constexpr std::uint64_t kGoldenRatio64 = 0x61c8864680b583ebULL;

std::uint64_t hash_64(std::uint64_t val) { return val * kGoldenRatio64; }
}  // namespace

SharingTable::SharingTable(const SharingTableConfig& config)
    : config_(config) {
  SPCD_EXPECTS(config.num_entries >= 1);
  SPCD_EXPECTS(config.max_sharers >= 2 && config.max_sharers <= 8);
  // Lemire's fastmod: for a 32-bit dividend x and divisor N,
  //   x % N == (uint128(uint64(M * x)) * N) >> 64   with M = 2^64 / N + 1.
  // bucket_of feeds it the high 32 bits of the hash, so the identity is
  // exact and the hot path drops its hardware divide.
  SPCD_EXPECTS(config.num_entries <= (1ULL << 32));
  bucket_magic_ = ~0ULL / config.num_entries + 1;
  table_.resize(config.num_entries);
}

std::uint64_t SharingTable::bucket_of(std::uint64_t region) const {
  const std::uint64_t lowbits = bucket_magic_ * (hash_64(region) >> 32);
  // High 64 bits of lowbits * num_entries via 32-bit limbs (num_entries
  // fits 32 bits, so neither partial product nor their sum can overflow).
  const std::uint64_t n = table_.size();
  const std::uint64_t hi = lowbits >> 32;
  const std::uint64_t lo = lowbits & 0xffffffffULL;
  return (hi * n + ((lo * n) >> 32)) >> 32;
}

CommunicationEvent SharingTable::touch_entry(Entry& entry,
                                             std::uint64_t region,
                                             ThreadId tid, util::Cycles now) {
  CommunicationEvent event;

  if (entry.region != region) {
    // Empty slot or collision: (re)initialize for this region.
    if (entry.region == Entry::kEmpty) {
      ++occupied_;
    } else {
      ++collisions_;
      if (eviction_hook_) eviction_hook_(entry.region, region);
    }
    entry.region = region;
    entry.sharer_count = 0;
  }
  // An access to the entry's own region re-arms the admission guard: as
  // long as a region is actively shared its entry stays protected.
  entry.refusals = 0;

  // Collect communication partners and update / insert this thread's stamp.
  std::uint32_t self_idx = entry.sharer_count;  // sentinel: not found
  std::uint32_t oldest_idx = 0;
  for (std::uint32_t i = 0; i < entry.sharer_count; ++i) {
    Sharer& s = entry.sharers[i];
    if (s.tid == tid) {
      self_idx = i;
      continue;
    }
    if (s.last_access < entry.sharers[oldest_idx].last_access) oldest_idx = i;
    const bool in_window =
        config_.time_window == 0 || now - s.last_access <= config_.time_window;
    if (in_window) {
      if (event.partner_count < 8) {
        event.partners[event.partner_count++] = s.tid;
      }
    } else {
      ++window_rejects_;
    }
  }

  if (self_idx < entry.sharer_count) {
    entry.sharers[self_idx].last_access = now;
  } else if (entry.sharer_count < config_.max_sharers) {
    entry.sharers[entry.sharer_count++] = Sharer{tid, now};
  } else {
    // Sharer list full: evict the least recently active sharer.
    entry.sharers[oldest_idx] = Sharer{tid, now};
  }
  return event;
}

CommunicationEvent SharingTable::record_access(std::uint64_t vaddr,
                                               ThreadId tid,
                                               util::Cycles now) {
  ++accesses_;
  const std::uint64_t region = region_of(vaddr);
  std::uint64_t bucket = bucket_of(region);
  if (bucket_hook_) (void)bucket_hook_(table_.size(), &bucket);
  Entry& head = table_[bucket];

  // Saturation-aware admission (hardening, default off): an established
  // sharer list may only be overwritten after absorbing
  // admission_max_refusals collision knocks, and knocks from threads the
  // anomaly scorer flagged never wear the guard down — a flood evicts
  // nothing it did not build itself. Refused accesses detect no
  // communication (the honest path pays nothing: its own region's entry is
  // exactly the one being protected).
  if (config_.guard_admission && head.region != region &&
      head.region != Entry::kEmpty && head.sharer_count >= 2) {
    const bool suspect =
        suspect_flags_ != nullptr && tid < suspect_count_ &&
        suspect_flags_[tid] != 0;
    if (suspect || head.refusals < config_.admission_max_refusals) {
      if (!suspect) ++head.refusals;
      ++admissions_refused_;
      return CommunicationEvent{};
    }
  }

  return touch_entry(head, region, tid, now);
}

std::uint64_t SharingTable::memory_bytes() const {
  return table_.size() * sizeof(Entry);
}

std::uint64_t SharingTable::age(util::Cycles now, util::Cycles window) {
  const util::Cycles cutoff = now > window ? now - window : 0;
  std::uint64_t evicted = 0;
  for (Entry& e : table_) {
    if (e.region == Entry::kEmpty) continue;
    util::Cycles newest = 0;
    for (std::uint32_t i = 0; i < e.sharer_count; ++i) {
      newest = std::max(newest, e.sharers[i].last_access);
    }
    if (newest < cutoff) {
      e = Entry{};
      ++evicted;
    }
  }
  occupied_ -= evicted;
  return evicted;
}

void SharingTable::reset_entries() {
  for (auto& e : table_) e = Entry{};
  occupied_ = 0;
}

void SharingTable::clear() {
  for (auto& e : table_) e = Entry{};
  collisions_ = occupied_ = accesses_ = window_rejects_ = 0;
  admissions_refused_ = 0;
}

}  // namespace spcd::mem
