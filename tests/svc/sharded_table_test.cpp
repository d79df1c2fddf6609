// Sharded sharing table: tenant salting isolates address spaces, shard
// layout is a pure function of the region key, and cross-tenant capacity
// evictions are counted. Concurrent use goes through SpcdService's commit
// lock (group_commit_test).
#include <gtest/gtest.h>

#include <cstdint>

#include "svc/sharded_table.hpp"

namespace spcd::svc {
namespace {

TEST(SvcShardedTableTest, SameVaddrDifferentTenantsNeverCommunicate) {
  ShardedSharingTable table((ShardedTableConfig()));
  // Tenant 0 thread 0 and tenant 1 thread 5 touch the same vaddr; the
  // tenant salt keeps the regions distinct, so no partners ever appear.
  for (std::uint64_t now = 1; now <= 64; ++now) {
    const auto ev0 = table.record(0, 0x4000, 0, now);
    const auto ev1 = table.record(1, 0x4000, 5, now);
    EXPECT_EQ(ev0.partner_count, 0u);
    EXPECT_EQ(ev1.partner_count, 0u);
  }
  EXPECT_NE(table.region_key(0, 0x4000), table.region_key(1, 0x4000));
}

TEST(SvcShardedTableTest, SameTenantSharersArePartners) {
  ShardedSharingTable table((ShardedTableConfig()));
  table.record(2, 0x8000, 100, 1);
  const auto ev = table.record(2, 0x8000, 101, 2);
  ASSERT_EQ(ev.partner_count, 1u);
  EXPECT_EQ(ev.partners[0], 100u);  // partners carry global tids
}

TEST(SvcShardedTableTest, ShardOfIsStableAndInRange) {
  ShardedTableConfig config;
  config.shards = 8;
  ShardedSharingTable table(config);
  ASSERT_EQ(table.shards(), 8u);
  for (std::uint32_t tenant = 0; tenant < 4; ++tenant) {
    for (std::uint64_t page = 0; page < 256; ++page) {
      const std::uint64_t region = table.region_key(tenant, page << 12);
      const std::uint32_t shard = table.shard_of(region);
      EXPECT_LT(shard, 8u);
      EXPECT_EQ(shard, table.shard_of(region));  // pure function
    }
  }
}

TEST(SvcShardedTableTest, TenantOfRegionRecoversTheSalt) {
  ShardedSharingTable table((ShardedTableConfig()));
  const unsigned shift = table.config().table.granularity_shift;
  for (std::uint32_t tenant = 0; tenant < 7; ++tenant) {
    const std::uint64_t region = table.region_key(tenant, 0xabc000);
    EXPECT_EQ(ShardedSharingTable::tenant_of_region(region, shift), tenant);
  }
}

TEST(SvcShardedTableTest, CrossTenantEvictionsAreCounted) {
  // One shard, minimum capacity: two tenants hammering disjoint region
  // sets must steal entries from each other.
  ShardedTableConfig config;
  config.shards = 1;
  config.table.num_entries = 64;
  ShardedSharingTable table(config);
  for (std::uint64_t round = 0; round < 64; ++round) {
    for (std::uint64_t page = 0; page < 256; ++page) {
      table.record(0, page << 12, 0, round * 1024 + page);
      table.record(1, page << 12, 1, round * 1024 + page + 512);
    }
  }
  EXPECT_GT(table.cross_tenant_evictions(), 0u);
  EXPECT_GT(table.collisions(), 0u);
}

TEST(SvcShardedTableTest, ClearResetsStatistics) {
  ShardedSharingTable table((ShardedTableConfig()));
  table.record(0, 0x1000, 0, 1);
  table.record(0, 0x1000, 1, 2);
  EXPECT_GT(table.accesses(), 0u);
  EXPECT_GT(table.occupied(), 0u);
  table.clear();
  EXPECT_EQ(table.accesses(), 0u);
  EXPECT_EQ(table.occupied(), 0u);
  EXPECT_EQ(table.cross_tenant_evictions(), 0u);
}

}  // namespace
}  // namespace spcd::svc
