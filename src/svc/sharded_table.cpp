#include "svc/sharded_table.hpp"

#include <algorithm>

#include "util/contracts.hpp"

namespace spcd::svc {

namespace {

/// Virtual-address bit where the tenant salt starts: above any vaddr the
/// drivers or workloads generate (16 TiB), below the region key's width.
constexpr unsigned kTenantVaddrShift = 44;
constexpr std::uint64_t kVaddrMask = (1ULL << kTenantVaddrShift) - 1;

/// splitmix64 finalizer: full-avalanche mix for shard selection, so shard
/// choice is independent of the inner table's golden-ratio bucket hash.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

ShardedSharingTable::ShardedSharingTable(const ShardedTableConfig& config)
    : config_(config),
      tenant_region_shift_(kTenantVaddrShift -
                           config.table.granularity_shift) {
  SPCD_EXPECTS(config.table.granularity_shift < kTenantVaddrShift);
  const std::uint32_t n = std::clamp(config.shards, 1u, 256u);
  config_.shards = n;
  mem::SharingTableConfig shard_cfg = config.table;
  shard_cfg.num_entries = std::max<std::uint64_t>(
      64, config.table.num_entries / n);
  shards_.reserve(n);
  for (std::uint32_t s = 0; s < n; ++s) {
    shards_.push_back(std::make_unique<mem::SharingTable>(shard_cfg));
    // Victim and incoming region both carry their tenant in the high
    // bits; differing high bits = one tenant evicted another's entry.
    shards_.back()->set_eviction_hook(
        [this](std::uint64_t evicted, std::uint64_t incoming) {
          if ((evicted >> tenant_region_shift_) !=
              (incoming >> tenant_region_shift_)) {
            ++cross_tenant_evictions_;
          }
        });
  }
}

std::uint64_t ShardedSharingTable::region_key(std::uint32_t tenant,
                                              std::uint64_t vaddr) const {
  const std::uint64_t salted =
      (static_cast<std::uint64_t>(tenant) + 1) << kTenantVaddrShift |
      (vaddr & kVaddrMask);
  return salted >> config_.table.granularity_shift;
}

std::uint32_t ShardedSharingTable::shard_of(std::uint64_t region) const {
  // Lemire map of the mixed hash's high 32 bits onto [0, shards).
  const std::uint64_t h = mix64(region) >> 32;
  return static_cast<std::uint32_t>((h * shards_.size()) >> 32);
}

std::uint32_t ShardedSharingTable::tenant_of_region(
    std::uint64_t region, unsigned granularity_shift) {
  return static_cast<std::uint32_t>(
      (region >> (kTenantVaddrShift - granularity_shift)) - 1);
}

mem::CommunicationEvent ShardedSharingTable::record(std::uint32_t tenant,
                                                    std::uint64_t vaddr,
                                                    mem::ThreadId tid,
                                                    util::Cycles now) {
  const std::uint64_t salted =
      (static_cast<std::uint64_t>(tenant) + 1) << kTenantVaddrShift |
      (vaddr & kVaddrMask);
  mem::SharingTable& shard =
      *shards_[shard_of(salted >> config_.table.granularity_shift)];
  return shard.record_access(salted, tid, now);
}

std::uint64_t ShardedSharingTable::accesses() const {
  std::uint64_t total = 0;
  for (const auto& s : shards_) total += s->accesses();
  return total;
}

std::uint64_t ShardedSharingTable::collisions() const {
  std::uint64_t total = 0;
  for (const auto& s : shards_) total += s->collisions();
  return total;
}

std::uint64_t ShardedSharingTable::occupied() const {
  std::uint64_t total = 0;
  for (const auto& s : shards_) total += s->occupied();
  return total;
}

std::uint64_t ShardedSharingTable::window_rejects() const {
  std::uint64_t total = 0;
  for (const auto& s : shards_) total += s->window_rejects();
  return total;
}

std::uint64_t ShardedSharingTable::memory_bytes() const {
  std::uint64_t total = 0;
  for (const auto& s : shards_) total += s->memory_bytes();
  return total;
}

void ShardedSharingTable::clear() {
  for (const auto& s : shards_) s->clear();
  cross_tenant_evictions_ = 0;
}

}  // namespace spcd::svc
