#include "sim/cache.hpp"

#include "util/contracts.hpp"
#include "util/units.hpp"

namespace spcd::sim {

Cache::Cache(const arch::CacheGeometry& geometry)
    : num_sets_(geometry.num_sets()), ways_(geometry.associativity) {
  SPCD_EXPECTS(geometry.line_bytes > 0);
  SPCD_EXPECTS(geometry.associativity > 0);
  SPCD_EXPECTS(geometry.associativity <= 32);  // valid_ is a 32-bit mask
  SPCD_EXPECTS(geometry.size_bytes % (geometry.line_bytes *
                                      geometry.associativity) == 0);
  SPCD_EXPECTS(num_sets_ >= 1);
  if ((num_sets_ & (num_sets_ - 1)) == 0) sets_mask_ = num_sets_ - 1;
  tags_.assign(num_sets_ * ways_, 0);
  ticks_.assign(num_sets_ * ways_, 0);
  valid_.assign(num_sets_, 0);
}

bool Cache::probe(std::uint64_t line) {
  const std::size_t set = set_index(line);
  const std::uint64_t* tags = &tags_[set * ways_];
  const std::uint32_t valid = valid_[set];
  for (std::uint32_t w = 0; w < ways_; ++w) {
    if ((valid & (1u << w)) != 0 && tags[w] == line) {
      ticks_[set * ways_ + w] = ++tick_;
      return true;
    }
  }
  return false;
}

bool Cache::contains(std::uint64_t line) const {
  const std::size_t set = set_index(line);
  const std::uint64_t* tags = &tags_[set * ways_];
  const std::uint32_t valid = valid_[set];
  for (std::uint32_t w = 0; w < ways_; ++w) {
    if ((valid & (1u << w)) != 0 && tags[w] == line) return true;
  }
  return false;
}

Cache::InsertResult Cache::insert(std::uint64_t line) {
  const std::size_t set = set_index(line);
  std::uint64_t* tags = &tags_[set * ways_];
  std::uint64_t* ticks = &ticks_[set * ways_];
  const std::uint32_t valid = valid_[set];
  // The first free way, else the least recently used one. Every valid way
  // is checked for a duplicate: an invalidation can leave a free way in
  // front of a live copy of `line`.
  std::uint32_t victim = ways_;
  std::uint32_t lru = 0;
  for (std::uint32_t w = 0; w < ways_; ++w) {
    if ((valid & (1u << w)) == 0) {
      if (victim == ways_) victim = w;
      continue;
    }
    SPCD_ASSERT(tags[w] != line);  // caller must probe first
    if (ticks[w] < ticks[lru]) lru = w;
  }
  if (victim == ways_) victim = lru;
  InsertResult result;
  if ((valid & (1u << victim)) != 0) {
    result.evicted = true;
    result.victim = tags[victim];
  }
  tags[victim] = line;
  valid_[set] = valid | (1u << victim);
  ticks[victim] = ++tick_;
  return result;
}

bool Cache::invalidate(std::uint64_t line) {
  const std::size_t set = set_index(line);
  const std::uint64_t* tags = &tags_[set * ways_];
  const std::uint32_t valid = valid_[set];
  for (std::uint32_t w = 0; w < ways_; ++w) {
    if ((valid & (1u << w)) != 0 && tags[w] == line) {
      valid_[set] = valid & ~(1u << w);
      return true;
    }
  }
  return false;
}

void Cache::flush() {
  for (auto& v : valid_) v = 0;
}

}  // namespace spcd::sim
