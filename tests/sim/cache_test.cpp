#include "sim/cache.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace spcd::sim {
namespace {

arch::CacheGeometry tiny() {
  // 2 sets x 2 ways, 64-byte lines.
  return arch::CacheGeometry{.size_bytes = 256, .associativity = 2,
                             .line_bytes = 64};
}

TEST(CacheTest, MissOnEmpty) {
  Cache c(tiny());
  EXPECT_FALSE(c.probe(0));
  EXPECT_FALSE(c.contains(0));
}

TEST(CacheTest, InsertThenHit) {
  Cache c(tiny());
  const auto r = c.insert(0);
  EXPECT_FALSE(r.evicted);
  EXPECT_TRUE(c.probe(0));
  EXPECT_TRUE(c.contains(0));
}

TEST(CacheTest, SetMappingSeparatesLines) {
  Cache c(tiny());
  c.insert(0);  // set 0
  c.insert(1);  // set 1
  c.insert(2);  // set 0
  EXPECT_TRUE(c.contains(0));
  EXPECT_TRUE(c.contains(1));
  EXPECT_TRUE(c.contains(2));
}

TEST(CacheTest, LruEviction) {
  Cache c(tiny());
  c.insert(0);  // set 0
  c.insert(2);  // set 0 (full now)
  EXPECT_TRUE(c.probe(0));  // 0 is MRU
  const auto r = c.insert(4);  // set 0 -> evict 2
  EXPECT_TRUE(r.evicted);
  EXPECT_EQ(r.victim, 2u);
  EXPECT_TRUE(c.contains(0));
  EXPECT_FALSE(c.contains(2));
  EXPECT_TRUE(c.contains(4));
}

TEST(CacheTest, ContainsDoesNotTouchLru) {
  Cache c(tiny());
  c.insert(0);
  c.insert(2);
  // contains() must not refresh 0, so 0 stays LRU and gets evicted.
  EXPECT_TRUE(c.contains(0));
  const auto r = c.insert(4);
  EXPECT_TRUE(r.evicted);
  EXPECT_EQ(r.victim, 0u);
}

TEST(CacheTest, InvalidateFreesWay) {
  Cache c(tiny());
  c.insert(0);
  c.insert(2);
  EXPECT_TRUE(c.invalidate(0));
  EXPECT_FALSE(c.contains(0));
  const auto r = c.insert(4);  // goes into the freed way
  EXPECT_FALSE(r.evicted);
  EXPECT_TRUE(c.contains(2));
}

TEST(CacheTest, InvalidateMissingReturnsFalse) {
  Cache c(tiny());
  EXPECT_FALSE(c.invalidate(123));
}

TEST(CacheTest, FlushEmptiesEverything) {
  Cache c(tiny());
  for (std::uint64_t l = 0; l < 4; ++l) c.insert(l);
  c.flush();
  for (std::uint64_t l = 0; l < 4; ++l) EXPECT_FALSE(c.contains(l));
}

TEST(CacheTest, GeometryDerivation) {
  Cache c(arch::CacheGeometry{.size_bytes = 32 * 1024, .associativity = 8,
                              .line_bytes = 64});
  EXPECT_EQ(c.num_sets(), 64u);
  EXPECT_EQ(c.ways(), 8u);
}

TEST(CacheTest, WorkingSetSmallerThanCacheAlwaysHitsAfterWarmup) {
  Cache c(arch::CacheGeometry{.size_bytes = 4096, .associativity = 4,
                              .line_bytes = 64});  // 64 lines
  util::Xoshiro256 rng(42);
  // 32 distinct lines mapped over 16 sets x 4 ways: fits.
  for (std::uint64_t l = 0; l < 32; ++l) {
    if (!c.probe(l)) c.insert(l);
  }
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t l = rng.below(32);
    EXPECT_TRUE(c.probe(l)) << "line " << l;
  }
}

TEST(CacheTest, CyclicSweepLargerThanCacheAlwaysMisses) {
  Cache c(tiny());  // 4 lines capacity
  // Sweep 8 lines cyclically with LRU: every access misses.
  int misses = 0;
  for (int round = 0; round < 10; ++round) {
    for (std::uint64_t l = 0; l < 8; ++l) {
      if (!c.probe(l)) {
        ++misses;
        c.insert(l);
      }
    }
  }
  EXPECT_EQ(misses, 80);
}

TEST(CacheDeathTest, DoubleInsertAborts) {
  Cache c(tiny());
  c.insert(5);
  EXPECT_DEATH(c.insert(5), "Invariant");
}

TEST(CacheDeathTest, DoubleInsertBehindAnInvalidatedWayAborts) {
  Cache c(tiny());
  c.insert(1);  // set 1, way 0
  c.insert(3);  // set 1, way 1
  ASSERT_TRUE(c.invalidate(1));
  // Way 0 is free now, but 3 is still valid in way 1: the duplicate check
  // must look past the first free way.
  EXPECT_DEATH(c.insert(3), "Invariant");
}

TEST(CacheDeathTest, BadGeometryAborts) {
  EXPECT_DEATH(Cache(arch::CacheGeometry{.size_bytes = 100,
                                         .associativity = 3,
                                         .line_bytes = 64}),
               "Precondition");
}

}  // namespace
}  // namespace spcd::sim
