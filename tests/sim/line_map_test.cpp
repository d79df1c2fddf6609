// LineMap, the coherence directory's open-addressed table, checked against
// std::unordered_map as a reference model.
#include "sim/line_directory.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "util/rng.hpp"

namespace spcd::sim {
namespace {

using Map = LineMap<std::uint64_t>;
using Reference = std::unordered_map<std::uint64_t, std::uint64_t>;

std::map<std::uint64_t, std::uint64_t> contents(const Map& map) {
  std::map<std::uint64_t, std::uint64_t> out;
  map.for_each([&out](std::uint64_t key, const std::uint64_t& value) {
    EXPECT_TRUE(out.emplace(key, value).second) << "key visited twice " << key;
  });
  return out;
}

TEST(LineMapTest, RandomWalkMatchesUnorderedMap) {
  // Three phases over one table:
  //   fill  — inserts, updates and finds only, so the table grows through
  //           load-triggered (growth) rehashes;
  //   drain — mostly erases of live keys, down to a few dozen entries;
  //   churn — fresh inserts balanced by erases, so erased slots pile up as
  //           tombstones until they alone trigger a rehash.
  // Keys are drawn from a range far wider than the live set, so a fresh
  // key rarely lands on a tombstone it could reuse.
  constexpr int kFillOps = 6'000;
  constexpr int kDrainOps = 4'000;
  constexpr int kChurnOps = 12'000;
  constexpr std::uint64_t kKeySpace = 1ULL << 24;
  // The sentinel is never erased; its slot address changes exactly when
  // the table rehashes (slots move only then).
  constexpr std::uint64_t kSentinel = kKeySpace + 1;

  Map map;
  Reference ref;
  std::vector<std::uint64_t> live;  // keys in ref, except the sentinel
  util::Xoshiro256 rng(20240611);

  map[kSentinel] = 7;
  ref[kSentinel] = 7;
  const std::uint64_t* sentinel_slot = map.find(kSentinel);
  int growth_rehashes = 0;
  int tombstone_rehashes = 0;

  auto check_find = [&](std::uint64_t key) {
    const std::uint64_t* got = map.find(key);
    const auto it = ref.find(key);
    ASSERT_EQ(got != nullptr, it != ref.end()) << "key " << key;
    if (got != nullptr) {
      EXPECT_EQ(*got, it->second) << "key " << key;
    }
  };
  auto insert_or_update = [&](std::uint64_t key, std::uint64_t value,
                              bool may_grow) {
    const std::size_t size_before = map.size();
    const bool fresh = ref.find(key) == ref.end();
    map[key] = value;
    ref[key] = value;
    if (fresh) live.push_back(key);
    const std::uint64_t* slot = map.find(kSentinel);
    if (slot == sentinel_slot) return;
    sentinel_slot = slot;
    // The table never shrinks below 1024 slots and rehashes at 3/4
    // occupancy, so below 383 live entries only tombstones can fill it.
    if (size_before < 383) {
      ++tombstone_rehashes;
    } else if (may_grow) {
      ++growth_rehashes;
    }
  };
  // Even keys are erased through the pointer `find` returns, the way the
  // directory drops a victim it already looked up; odd keys by key.
  int pointer_erases = 0;
  auto erase_live = [&](std::size_t index) {
    const std::uint64_t key = live[index];
    live[index] = live.back();
    live.pop_back();
    if (key % 2 == 0) {
      std::uint64_t* value = map.find(key);
      ASSERT_NE(value, nullptr) << "key " << key;
      map.erase(value);
      ++pointer_erases;
    } else {
      map.erase(key);
    }
    ref.erase(key);
    EXPECT_EQ(map.find(key), nullptr);
  };
  auto random_live = [&] {
    return static_cast<std::size_t>(rng.below(live.size()));
  };

  for (int i = 0; i < kFillOps + kDrainOps + kChurnOps; ++i) {
    const std::uint64_t value = static_cast<std::uint64_t>(i);
    const std::uint64_t roll = rng.below(100);
    if (i < kFillOps) {
      if (roll < 50 || live.empty()) {
        insert_or_update(rng.below(kKeySpace), value, /*may_grow=*/true);
      } else if (roll < 75) {
        insert_or_update(live[random_live()], value, /*may_grow=*/true);
      } else if (roll < 88) {
        check_find(live[random_live()]);
      } else {
        check_find(rng.below(kKeySpace));
      }
    } else if (i < kFillOps + kDrainOps) {
      if (roll < 75 && live.size() > 50) {
        erase_live(random_live());
      } else if (roll < 85) {
        const std::uint64_t key = rng.below(kKeySpace);  // usually absent
        map.erase(key);
        ref.erase(key);
        check_find(key);
      } else {
        check_find(live[random_live()]);
      }
    } else {
      if ((roll < 40 && live.size() < 200) || live.empty()) {
        insert_or_update(rng.below(kKeySpace), value, /*may_grow=*/false);
      } else if (roll < 80) {
        erase_live(random_live());
      } else if (roll < 90) {
        check_find(live[random_live()]);
      } else {
        check_find(rng.below(kKeySpace));
      }
    }
    if (i % 1'000 == 0) {
      ASSERT_EQ(map.size(), ref.size()) << "op " << i;
    }
  }

  EXPECT_EQ(map.size(), ref.size());
  const std::map<std::uint64_t, std::uint64_t> expected(ref.begin(),
                                                        ref.end());
  EXPECT_EQ(contents(map), expected);
  EXPECT_GT(growth_rehashes, 0);
  EXPECT_GT(tombstone_rehashes, 0);
  EXPECT_GT(pointer_erases, 1'000);
}

TEST(LineMapTest, HeldReferenceSurvivesErasesOfOtherKeys) {
  // MemoryHierarchy::access keeps the accessed line's state by reference
  // while evicting victims: neither erase may move another key's slot.
  Map map;
  constexpr std::uint64_t kHeld = 300;
  for (std::uint64_t key = 0; key < 600; ++key) map[key] = key;
  std::uint64_t& held = map[kHeld];
  for (std::uint64_t key = 0; key < 600; ++key) {
    if (key == kHeld) continue;
    if (key % 2 == 0) {
      map.erase(map.find(key));
    } else {
      map.erase(key);
    }
    ASSERT_EQ(map.find(kHeld), &held) << "after erasing " << key;
  }
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(held, kHeld);
  EXPECT_EQ(map.find(kHeld), &held);
  held = 42;
  EXPECT_EQ(*map.find(kHeld), 42u);
}

TEST(LineMapTest, PrefetchCreatesNoEntries) {
  Map map;
  for (std::uint64_t key = 0; key < 5'000; ++key) map.prefetch(key);
  EXPECT_EQ(map.size(), 0u);
  for (std::uint64_t key = 0; key < 5'000; ++key) {
    EXPECT_EQ(map.find(key), nullptr);
  }
  map[17] = 1;
  map.prefetch(17);
  map.prefetch(18);
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(map.find(18), nullptr);
}

}  // namespace
}  // namespace spcd::sim
