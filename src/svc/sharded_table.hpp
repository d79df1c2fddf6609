// The multi-tenant detection substrate: one logical sharing table whose
// entry capacity is partitioned across N mem::SharingTable shards.
//
// Tenant namespacing: region keys are salted with the tenant id in the
// high virtual-address bits, so two tenants touching the same vaddr never
// share an entry — detected communication is strictly intra-tenant, like
// separate address spaces under one kernel. Tenants still compete for
// *capacity*: a collision that overwrites another tenant's entry is
// counted as a cross-tenant eviction (the sharing-table face of
// inter-app interference, surfaced through the arbiter's counters).
//
// Sharding is layout-only: shard_of(region) is a pure hash, and within a
// shard the inner table behaves exactly like the paper's. The table is
// not thread-safe: callers serialize every call (SpcdService only
// touches it under its commit lock, whose order the journal records).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "mem/sharing_table.hpp"
#include "util/units.hpp"

namespace spcd::svc {

struct ShardedTableConfig {
  /// Shard count, clamped to [1, 256].
  std::uint32_t shards = 8;
  /// Inner table configuration; `table.num_entries` is the TOTAL entry
  /// budget, split evenly across shards (each shard gets at least 64).
  mem::SharingTableConfig table;
};

class ShardedSharingTable {
 public:
  explicit ShardedSharingTable(const ShardedTableConfig& config);

  /// Record that global thread `tid` of `tenant` touched `vaddr` at time
  /// `now`. Partners in the returned event are global tids of the same
  /// tenant.
  mem::CommunicationEvent record(std::uint32_t tenant, std::uint64_t vaddr,
                                 mem::ThreadId tid, util::Cycles now);

  std::uint32_t shards() const {
    return static_cast<std::uint32_t>(shards_.size());
  }
  const ShardedTableConfig& config() const { return config_; }

  /// Tenant-salted region key for (tenant, vaddr) — exposed for tests.
  std::uint64_t region_key(std::uint32_t tenant, std::uint64_t vaddr) const;
  /// Which shard a region key lands on.
  std::uint32_t shard_of(std::uint64_t region) const;
  /// The tenant id encoded in a region key.
  static std::uint32_t tenant_of_region(std::uint64_t region,
                                        unsigned granularity_shift);

  // --- aggregated statistics (summed over the shards) ---
  std::uint64_t accesses() const;
  std::uint64_t collisions() const;
  std::uint64_t occupied() const;
  std::uint64_t window_rejects() const;
  /// Collisions whose victim entry belonged to a different tenant.
  std::uint64_t cross_tenant_evictions() const {
    return cross_tenant_evictions_;
  }
  std::uint64_t memory_bytes() const;

  void clear();

 private:
  ShardedTableConfig config_;
  /// Salt shift: tenant id lives at region bits >= this.
  unsigned tenant_region_shift_;
  std::vector<std::unique_ptr<mem::SharingTable>> shards_;
  std::uint64_t cross_tenant_evictions_ = 0;
};

}  // namespace spcd::svc
