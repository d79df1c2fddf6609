// Open-addressed hash map keyed by cache-line address, used for the
// coherence directory. std::unordered_map spent most of the simulator's
// directory time on its prime-modulo bucket divide, per-node allocation,
// and pointer chasing; this flat table probes linearly from a Fibonacci
// hash and allocates only on rehash.
//
// Slot occupancy is encoded in the stored key (biased by 2, with 0 =
// empty and 1 = tombstone) so a probe walks a single array. Line
// addresses are vaddr >> 6 and never approach 2^64 - 2, so the bias
// cannot wrap.
//
// Deletion uses tombstones, NOT backward shifting: callers hold references
// to mapped values across erases of *other* keys (MemoryHierarchy::access
// keeps the accessed line's state live while evicting victims), so slots
// must never move outside operator[], the only call that can rehash.
#pragma once

#include <cstdint>
#include <vector>

#include "util/contracts.hpp"

namespace spcd::sim {

template <typename Value>
class LineMap {
 public:
  LineMap() { rehash(capacity_for(0)); }

  std::size_t size() const { return size_; }

  /// Prefetch the slot `key` hashes to (cache hint, no state change).
  void prefetch(std::uint64_t key) const {
    __builtin_prefetch(&slots_[index_of(key)]);
  }

  Value* find(std::uint64_t key) {
    const std::uint64_t stored = key + kBias;
    for (std::size_t i = index_of(key);; i = (i + 1) & mask_) {
      if (slots_[i].key == kEmpty) return nullptr;
      if (slots_[i].key == stored) return &slots_[i].value;
    }
  }
  const Value* find(std::uint64_t key) const {
    return const_cast<LineMap*>(this)->find(key);
  }

  /// The mapped value, default-constructed on first use. May rehash (the
  /// only operation that moves slots).
  Value& operator[](std::uint64_t key) {
    if ((size_ + tombs_ + 1) * 4 >= slots_.size() * 3) {
      rehash(capacity_for(size_ + 1));
    }
    const std::uint64_t stored = key + kBias;
    std::size_t insert_at = kNoSlot;
    for (std::size_t i = index_of(key);; i = (i + 1) & mask_) {
      if (slots_[i].key == kEmpty) {
        if (insert_at == kNoSlot) insert_at = i;
        if (slots_[insert_at].key == kTomb) --tombs_;
        slots_[insert_at].key = stored;
        slots_[insert_at].value = Value{};
        ++size_;
        return slots_[insert_at].value;
      }
      if (slots_[i].key == kTomb) {
        if (insert_at == kNoSlot) insert_at = i;
      } else if (slots_[i].key == stored) {
        return slots_[i].value;
      }
    }
  }

  void erase(std::uint64_t key) {
    const std::uint64_t stored = key + kBias;
    for (std::size_t i = index_of(key);; i = (i + 1) & mask_) {
      if (slots_[i].key == kEmpty) return;
      if (slots_[i].key == stored) {
        bury(i);
        return;
      }
    }
  }

  /// Erase the entry whose value `find` or `operator[]` returned, without
  /// probing for its key again.
  void erase(Value* value) {
    const auto offset = reinterpret_cast<const char*>(value) -
                        reinterpret_cast<const char*>(slots_.data());
    const auto i = static_cast<std::size_t>(offset) / sizeof(Slot);
    SPCD_EXPECTS(i < slots_.size() && &slots_[i].value == value &&
                 slots_[i].key >= kBias);
    bury(i);
  }

  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.key >= kBias) fn(s.key - kBias, s.value);
    }
  }

 private:
  struct Slot {
    std::uint64_t key = 0;  // 0 empty, 1 tombstone, else line + kBias
    Value value{};
  };

  static constexpr std::uint64_t kEmpty = 0;
  static constexpr std::uint64_t kTomb = 1;
  static constexpr std::uint64_t kBias = 2;
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

  /// Smallest power-of-two capacity keeping load under 1/2 at `expected`
  /// live entries (so probes stay short even with tombstone churn).
  static std::size_t capacity_for(std::size_t expected) {
    std::size_t cap = 1024;
    while (cap < expected * 2) cap *= 2;
    return cap;
  }

  void bury(std::size_t i) {
    slots_[i].key = kTomb;
    ++tombs_;
    --size_;
  }

  std::size_t index_of(std::uint64_t key) const {
    return static_cast<std::size_t>(key * 0x9E3779B97F4A7C15ULL) & mask_;
  }

  void rehash(std::size_t new_capacity) {
    SPCD_ASSERT((new_capacity & (new_capacity - 1)) == 0);
    std::vector<Slot> old_slots;
    old_slots.swap(slots_);
    slots_.resize(new_capacity);
    mask_ = new_capacity - 1;
    tombs_ = 0;
    for (const Slot& s : old_slots) {
      if (s.key < kBias) continue;
      std::size_t j = index_of(s.key - kBias);
      while (slots_[j].key != kEmpty) j = (j + 1) & mask_;
      slots_[j] = s;
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
  std::size_t tombs_ = 0;
};

}  // namespace spcd::sim
