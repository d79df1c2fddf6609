// Property-based, parameterized sweeps across module configurations:
// invariants that must hold for *every* topology shape, cache geometry,
// sharing-table configuration, and workload mix — not just the defaults.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "arch/topology.hpp"
#include "core/mapper.hpp"
#include "core/mapping_strategy.hpp"
#include "core/policy.hpp"
#include "mem/sharing_table.hpp"
#include "sim/cache.hpp"
#include "sim/engine.hpp"
#include "sim/machine.hpp"
#include "util/journal.hpp"
#include "util/rng.hpp"

namespace spcd {
namespace {

// ---------------------------------------------------------------------------
// Topology properties over many shapes.
// ---------------------------------------------------------------------------

class TopologyProperty
    : public ::testing::TestWithParam<arch::TopologySpec> {};

TEST_P(TopologyProperty, CoordinatesRoundTripAndPartition) {
  const arch::Topology topo(GetParam());
  std::set<std::pair<arch::CoreId, std::uint32_t>> seen;
  for (arch::ContextId ctx = 0; ctx < topo.num_contexts(); ++ctx) {
    const auto core = topo.core_of(ctx);
    const auto socket = topo.socket_of(ctx);
    const auto slot = topo.smt_slot_of(ctx);
    EXPECT_EQ(topo.socket_of_core(core), socket);
    EXPECT_LT(slot, GetParam().smt_per_core);
    EXPECT_TRUE(seen.insert({core, slot}).second);
    // The context appears in its core's sibling list.
    const auto sibs = topo.contexts_of_core(core);
    EXPECT_NE(std::find(sibs.begin(), sibs.end(), ctx), sibs.end());
  }
  EXPECT_EQ(seen.size(), topo.num_contexts());
}

TEST_P(TopologyProperty, ProximityIsConsistentWithCoordinates) {
  const arch::Topology topo(GetParam());
  for (arch::ContextId a = 0; a < topo.num_contexts(); ++a) {
    for (arch::ContextId b = 0; b < topo.num_contexts(); ++b) {
      const auto prox = topo.proximity(a, b);
      if (a == b) {
        EXPECT_EQ(prox, arch::Proximity::kSameContext);
      } else if (topo.core_of(a) == topo.core_of(b)) {
        EXPECT_EQ(prox, arch::Proximity::kSameCore);
      } else if (topo.socket_of(a) == topo.socket_of(b)) {
        EXPECT_EQ(prox, arch::Proximity::kSameSocket);
      } else {
        EXPECT_EQ(prox, arch::Proximity::kCrossSocket);
      }
    }
  }
}

TEST_P(TopologyProperty, ArityPathProductEqualsContexts) {
  const arch::Topology topo(GetParam());
  std::uint64_t product = 1;
  for (const auto a : topo.arity_path()) product *= a;
  EXPECT_EQ(product, topo.num_contexts());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TopologyProperty,
    ::testing::Values(
        arch::TopologySpec{1, 1, 1}, arch::TopologySpec{1, 4, 1},
        arch::TopologySpec{1, 1, 4}, arch::TopologySpec{2, 8, 2},
        arch::TopologySpec{4, 4, 2}, arch::TopologySpec{8, 2, 1},
        arch::TopologySpec{2, 6, 4}, arch::TopologySpec{3, 5, 2}));

// ---------------------------------------------------------------------------
// Cache properties over geometries: an LRU set-associative cache never
// exceeds capacity, and a working set that fits is never evicted.
// ---------------------------------------------------------------------------

class CacheProperty : public ::testing::TestWithParam<arch::CacheGeometry> {};

TEST_P(CacheProperty, ResidencyNeverExceedsCapacity) {
  sim::Cache cache(GetParam());
  util::Xoshiro256 rng(99);
  std::set<std::uint64_t> resident;
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t line = rng.below(4096);
    if (!cache.probe(line)) {
      const auto r = cache.insert(line);
      if (r.evicted) {
        EXPECT_TRUE(resident.erase(r.victim)) << "evicted non-resident line";
      }
      resident.insert(line);
    } else {
      EXPECT_TRUE(resident.count(line));
    }
    ASSERT_LE(resident.size(), GetParam().num_lines());
  }
  // Shadow model agrees with the cache on every resident line.
  for (const auto line : resident) {
    EXPECT_TRUE(cache.contains(line));
  }
}

TEST_P(CacheProperty, FittingWorkingSetStaysResident) {
  sim::Cache cache(GetParam());
  // One line per set fits trivially regardless of associativity.
  const std::uint64_t sets = cache.num_sets();
  for (std::uint64_t s = 0; s < sets; ++s) cache.insert(s);
  util::Xoshiro256 rng(5);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_TRUE(cache.probe(rng.below(sets)));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheProperty,
    ::testing::Values(
        arch::CacheGeometry{256, 1, 64},        // direct mapped, 4 lines
        arch::CacheGeometry{512, 2, 64},        // 4 sets x 2
        arch::CacheGeometry{1024, 16, 64},      // fully associative
        arch::CacheGeometry{32 * 1024, 8, 64},  // L1-like
        arch::CacheGeometry{256 * 1024, 8, 64}));

// ---------------------------------------------------------------------------
// Sharing-table properties over configurations.
// ---------------------------------------------------------------------------

struct SharingCase {
  std::uint64_t entries;
  unsigned shift;
  std::uint32_t max_sharers;
  mem::CollisionPolicy policy;
};

class SharingTableProperty : public ::testing::TestWithParam<SharingCase> {};

TEST_P(SharingTableProperty, NeverReportsSelfOrOutOfWindowPartners) {
  const auto& param = GetParam();
  mem::SharingTableConfig config;
  config.num_entries = param.entries;
  config.granularity_shift = param.shift;
  config.max_sharers = param.max_sharers;
  config.collision_policy = param.policy;
  config.time_window = 10'000;
  mem::SharingTable table(config);

  util::Xoshiro256 rng(42);
  std::uint64_t now = 0;
  for (int i = 0; i < 30000; ++i) {
    const auto tid = static_cast<std::uint32_t>(rng.below(16));
    const std::uint64_t vaddr = rng.below(64) << param.shift;
    now += rng.below(200);
    const auto event = table.record_access(vaddr, tid, now);
    ASSERT_LE(event.partner_count, 8u);
    for (std::uint32_t k = 0; k < event.partner_count; ++k) {
      EXPECT_NE(event.partners[k], tid);   // never self
      EXPECT_LT(event.partners[k], 16u);   // a thread that actually exists
    }
  }
}

TEST_P(SharingTableProperty, DeterministicReplay) {
  const auto& param = GetParam();
  mem::SharingTableConfig config;
  config.num_entries = param.entries;
  config.granularity_shift = param.shift;
  config.max_sharers = param.max_sharers;
  config.collision_policy = param.policy;

  auto run = [&config] {
    mem::SharingTable table(config);
    util::Xoshiro256 rng(7);
    std::uint64_t partner_hash = 0;
    for (int i = 0; i < 20000; ++i) {
      const auto event = table.record_access(
          rng.below(1000) << 12, static_cast<std::uint32_t>(rng.below(8)),
          static_cast<std::uint64_t>(i));
      for (std::uint32_t k = 0; k < event.partner_count; ++k) {
        partner_hash = partner_hash * 31 + event.partners[k] + 1;
      }
    }
    return std::make_pair(partner_hash, table.collisions());
  };
  EXPECT_EQ(run(), run());
}

INSTANTIATE_TEST_SUITE_P(
    Configs, SharingTableProperty,
    ::testing::Values(
        SharingCase{16, 12, 8, mem::CollisionPolicy::kOverwrite},
        SharingCase{16, 12, 8, mem::CollisionPolicy::kChain},
        SharingCase{4096, 6, 2, mem::CollisionPolicy::kOverwrite},
        SharingCase{4096, 16, 4, mem::CollisionPolicy::kOverwrite},
        SharingCase{256000, 12, 8, mem::CollisionPolicy::kOverwrite}));

// ---------------------------------------------------------------------------
// Mapper properties over random communication matrices and topologies:
// the computed placement is always a valid injection, and never worse than
// the communication-oblivious spread.
// ---------------------------------------------------------------------------

struct MapperCase {
  arch::TopologySpec topo;
  std::uint64_t seed;
  double density;
};

class MapperProperty : public ::testing::TestWithParam<MapperCase> {};

TEST_P(MapperProperty, MappedCostNeverWorseThanSpread) {
  const auto& param = GetParam();
  const arch::Topology topo(param.topo);
  const auto n = topo.num_contexts();
  util::Xoshiro256 rng(param.seed);
  core::CommMatrix matrix(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = i + 1; j < n; ++j) {
      if (rng.uniform() < param.density) {
        matrix.add(i, j, 1 + rng.below(1000));
      }
    }
  }
  const auto mapped =
      core::make_mapping_strategy({})->map(matrix, topo).placement;
  std::set<arch::ContextId> used(mapped.begin(), mapped.end());
  ASSERT_EQ(used.size(), mapped.size());

  const double mapped_cost =
      core::placement_comm_cost(matrix, topo, mapped);
  const double spread_cost = core::placement_comm_cost(
      matrix, topo, core::os_spread_placement(topo, n));
  EXPECT_LE(mapped_cost, spread_cost * 1.0001)
      << "mapping must not be worse than the oblivious spread";
}

TEST_P(MapperProperty, AlignedRemapOfSameMatrixIsIdempotent) {
  const auto& param = GetParam();
  const arch::Topology topo(param.topo);
  const auto n = topo.num_contexts();
  util::Xoshiro256 rng(param.seed ^ 0x5a5a);
  core::CommMatrix matrix(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = i + 1; j < n; ++j) {
      if (rng.uniform() < param.density) {
        matrix.add(i, j, 1 + rng.below(1000));
      }
    }
  }
  const auto blossom = core::make_mapping_strategy({});
  const auto first = blossom->map(matrix, topo).placement;
  const auto second = blossom->map(matrix, topo, first).placement;
  EXPECT_EQ(first, second);
}

INSTANTIATE_TEST_SUITE_P(
    Matrices, MapperProperty,
    ::testing::Values(
        MapperCase{{2, 8, 2}, 1, 0.1}, MapperCase{{2, 8, 2}, 2, 0.5},
        MapperCase{{2, 8, 2}, 3, 1.0}, MapperCase{{2, 2, 2}, 4, 0.5},
        MapperCase{{4, 4, 2}, 5, 0.3}, MapperCase{{1, 8, 2}, 6, 0.7},
        MapperCase{{2, 4, 1}, 7, 0.4}, MapperCase{{2, 8, 2}, 8, 0.02}));

// ---------------------------------------------------------------------------
// Engine conservation properties over machine specs and random workloads:
// counter identities hold and runs are deterministic.
// ---------------------------------------------------------------------------

class RandomWorkload final : public sim::Workload {
 public:
  RandomWorkload(std::uint32_t threads, std::uint64_t seed)
      : threads_(threads), seed_(seed) {}
  std::string name() const override { return "random"; }
  std::uint32_t num_threads() const override { return threads_; }
  std::unique_ptr<sim::ThreadProgram> make_thread(std::uint32_t tid,
                                                  std::uint64_t) override {
    class P final : public sim::ThreadProgram {
     public:
      P(std::uint64_t seed) : rng_(seed) {}
      sim::Op next() override {
        if (n_ >= 3000) return sim::Op::finish();
        ++n_;
        if (n_ % 500 == 0) return sim::Op::barrier();
        if (rng_.chance(0.1)) return sim::Op::compute(3, 100);
        return sim::Op::access(0x10000 + rng_.below(1 << 18),
                               rng_.chance(0.3), 2, 30);
      }

     private:
      util::Xoshiro256 rng_;
      std::uint32_t n_ = 0;
    };
    return std::make_unique<P>(util::derive_seed(seed_, tid));
  }

 private:
  std::uint32_t threads_;
  std::uint64_t seed_;
};

class EngineProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineProperty, CounterIdentitiesAndHierarchyInvariants) {
  sim::Machine machine(arch::tiny_test_machine());
  auto as = machine.make_address_space();
  RandomWorkload wl(8, GetParam());
  sim::Engine engine(machine, as, wl,
                     core::os_spread_placement(machine.topology(), 8));
  engine.run();

  const auto& c = engine.counters();
  EXPECT_EQ(c.l1_hits + c.l1_misses, c.accesses());
  EXPECT_EQ(c.l2_hits + c.l2_misses, c.l1_misses);
  EXPECT_EQ(c.l3_hits + c.l3_misses, c.l2_misses);
  EXPECT_EQ(c.c2c_cross_socket + c.dram_total(), c.l3_misses);
  EXPECT_EQ(c.tlb_hits + c.tlb_misses, c.accesses());
  EXPECT_GE(c.tlb_misses, c.minor_faults + c.injected_faults);
  EXPECT_EQ(machine.hierarchy().check_invariants(), 0u);
  EXPECT_GE(engine.finish_time(), 1u);
}

TEST_P(EngineProperty, MigrationMidRunPreservesInvariants) {
  sim::Machine machine(arch::tiny_test_machine());
  auto as = machine.make_address_space();
  RandomWorkload wl(8, GetParam());
  sim::Engine engine(machine, as, wl,
                     core::os_spread_placement(machine.topology(), 8));
  util::Xoshiro256 rng(GetParam());
  std::function<void(sim::Engine&)> shuffle = [&](sim::Engine& e) {
    e.migrate(static_cast<sim::ThreadId>(rng.below(8)),
              static_cast<arch::ContextId>(rng.below(8)));
    if (e.active_threads() > 0) e.schedule(e.now() + 20000, shuffle);
  };
  engine.schedule(20000, shuffle);
  // Placement must stay injective among *running* threads through an
  // arbitrary migration storm (finished threads keep historical entries).
  std::function<void(sim::Engine&)> check = [&](sim::Engine& e) {
    std::set<arch::ContextId> used;
    for (sim::ThreadId t = 0; t < e.num_threads(); ++t) {
      if (e.thread_finished(t)) continue;
      EXPECT_TRUE(used.insert(e.placement()[t]).second)
          << "duplicate context at cycle " << e.now();
      EXPECT_EQ(e.thread_on(e.placement()[t]), t);
    }
    if (e.active_threads() > 0) e.schedule(e.now() + 15000, check);
  };
  engine.schedule(15000, check);
  engine.run();

  EXPECT_EQ(machine.hierarchy().check_invariants(), 0u);
  EXPECT_FALSE(engine.timed_out());
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineProperty,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

// ---------------------------------------------------------------------------
// Journal properties over random record sets and random corruption: the
// loader must never crash, must recover exactly an intact prefix of what
// was written, and rotation must be byte-stable.
// ---------------------------------------------------------------------------

class JournalProperty : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void TearDown() override {
    for (const auto& p : cleanup_) std::remove(p.c_str());
  }
  std::string scratch(const char* tag) {
    cleanup_.push_back("journal_prop_" + std::string(tag) + "_" +
                       std::to_string(GetParam()));
    return cleanup_.back();
  }
  /// Random printable-ish records, a few containing newlines and frame
  /// look-alikes to stress the length-delimited framing.
  std::vector<std::string> random_records(util::Xoshiro256& rng) {
    std::vector<std::string> records(2 + rng.below(14));
    for (auto& r : records) {
      const std::uint64_t len = rng.below(120);
      r.reserve(len);
      for (std::uint64_t i = 0; i < len; ++i) {
        r.push_back(static_cast<char>(' ' + rng.below(95)));
      }
      if (rng.chance(0.2)) r += "\n#rec 3 0000000000000000\nxyz";
    }
    return records;
  }
  static std::string read_file(const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    std::string out;
    if (f == nullptr) return out;
    char buf[4096];
    for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, f)) > 0;) {
      out.append(buf, n);
    }
    std::fclose(f);
    return out;
  }
  static void write_file(const std::string& path,
                         const std::string& contents) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(contents.data(), 1, contents.size(), f);
    std::fclose(f);
  }
  /// True when `got` is a prefix of `want`.
  static bool is_prefix(const std::vector<std::string>& got,
                        const std::vector<std::string>& want) {
    if (got.size() > want.size()) return false;
    return std::equal(got.begin(), got.end(), want.begin());
  }
  std::vector<std::string> cleanup_;
};

TEST_P(JournalProperty, RandomTruncationRecoversAnIntactPrefix) {
  util::Xoshiro256 rng(GetParam());
  const std::string path = scratch("trunc");
  const auto records = random_records(rng);
  {
    util::Journal j = util::Journal::create(path, "prop-meta");
    for (const auto& r : records) ASSERT_TRUE(j.append(r));
  }
  const std::string full = read_file(path);
  ASSERT_FALSE(full.empty());
  // Full file: everything comes back.
  const auto intact = util::Journal::load(path);
  ASSERT_TRUE(intact.valid);
  EXPECT_EQ(intact.records, records);
  EXPECT_FALSE(intact.torn_tail);
  // 64 random truncation points (plus the empty file): never crash,
  // always an intact prefix.
  for (int i = 0; i < 64; ++i) {
    const std::size_t keep = rng.below(full.size());
    write_file(path, full.substr(0, keep));
    const auto r = util::Journal::load(path);
    EXPECT_TRUE(is_prefix(r.records, records)) << "cut at " << keep;
  }
}

TEST_P(JournalProperty, RandomBitFlipsRecoverAnIntactPrefix) {
  util::Xoshiro256 rng(GetParam());
  const std::string path = scratch("flip");
  const auto records = random_records(rng);
  {
    util::Journal j = util::Journal::create(path, "prop-meta");
    for (const auto& r : records) ASSERT_TRUE(j.append(r));
  }
  const std::string full = read_file(path);
  for (int i = 0; i < 64; ++i) {
    std::string mutated = full;
    // Flip one random bit (occasionally several) anywhere in the file.
    const int flips = 1 + static_cast<int>(rng.below(3));
    for (int f = 0; f < flips; ++f) {
      const std::size_t at = rng.below(mutated.size());
      mutated[at] = static_cast<char>(
          mutated[at] ^ static_cast<char>(1u << rng.below(8)));
    }
    write_file(path, mutated);
    const auto r = util::Journal::load(path);  // must never throw
    // A flip in the header invalidates the whole journal; any other flip
    // truncates recovery to the records before the damage. Either way,
    // every recovered record is one we wrote, in order.
    EXPECT_TRUE(is_prefix(r.records, records)) << "iteration " << i;
  }
}

TEST_P(JournalProperty, RotationIsByteStableAndLossless) {
  util::Xoshiro256 rng(GetParam());
  const std::string path = scratch("rotate");
  const auto records = random_records(rng);
  { util::Journal::rotate(path, "prop-meta", records); }
  const std::string first = read_file(path);
  const auto loaded = util::Journal::load(path);
  ASSERT_TRUE(loaded.valid);
  EXPECT_EQ(loaded.meta, "prop-meta");
  EXPECT_EQ(loaded.records, records);
  EXPECT_FALSE(loaded.torn_tail);
  // Rotating the loaded records reproduces the file byte for byte: the
  // serialization has one canonical form.
  { util::Journal::rotate(path, loaded.meta, loaded.records); }
  EXPECT_EQ(read_file(path), first);
}

INSTANTIATE_TEST_SUITE_P(Seeds, JournalProperty,
                         ::testing::Values(101, 202, 303, 404));

}  // namespace
}  // namespace spcd
