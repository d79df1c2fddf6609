// MemoryHierarchy checked against a naive reference model: per-set LRU
// lists, a std::map directory, and the latency and queueing rules that
// memory_hierarchy.hpp documents, written out directly. Seeded random
// streams on tiny caches make L1, L2 and L3 evictions and inclusive-L3
// back-invalidations frequent; every access's latency must agree, and at
// the end every counter and both queue totals.
#include "sim/memory_hierarchy.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <list>
#include <map>
#include <set>
#include <vector>

#include "util/rng.hpp"

namespace spcd::sim {
namespace {

/// One cache: each set is a list of lines, most recently used first.
class RefCache {
 public:
  explicit RefCache(const arch::CacheGeometry& g)
      : sets_(g.num_sets()), ways_(g.associativity) {}

  bool probe(std::uint64_t line) {
    auto& set = set_of(line);
    const auto it = std::find(set.begin(), set.end(), line);
    if (it == set.end()) return false;
    set.splice(set.begin(), set, it);
    return true;
  }

  /// Insert a missing line; returns true and the LRU victim on overflow.
  bool insert(std::uint64_t line, std::uint64_t& victim) {
    auto& set = set_of(line);
    set.push_front(line);
    if (set.size() <= ways_) return false;
    victim = set.back();
    set.pop_back();
    ++evictions;
    return true;
  }

  void invalidate(std::uint64_t line) { set_of(line).remove(line); }

  std::uint64_t evictions = 0;

 private:
  std::list<std::uint64_t>& set_of(std::uint64_t line) {
    return sets_[line % sets_.size()];
  }

  std::vector<std::list<std::uint64_t>> sets_;
  std::size_t ways_;
};

class RefHierarchy {
 public:
  explicit RefHierarchy(const arch::MachineSpec& spec)
      : spec_(spec), dram_free_at_(spec.topology.sockets, 0) {
    const std::uint32_t cores =
        spec.topology.sockets * spec.topology.cores_per_socket;
    for (std::uint32_t c = 0; c < cores; ++c) {
      l1_.emplace_back(spec.l1);
      l2_.emplace_back(spec.l2);
    }
    for (std::uint32_t s = 0; s < spec.topology.sockets; ++s) {
      l3_.emplace_back(spec.l3);
    }
  }

  std::uint32_t access(arch::ContextId ctx, std::uint64_t line, bool write,
                       std::uint32_t home, std::uint64_t now) {
    const arch::LatencySpec& lat = spec_.latency;
    const std::uint32_t core = ctx / spec_.topology.smt_per_core;
    const std::uint32_t socket = socket_of_core(core);
    ++(write ? counters.writes : counters.reads);

    if (l1_[core].probe(line)) {
      ++counters.l1_hits;
      return private_hit(core, line, write, lat.l1_hit);
    }
    ++counters.l1_misses;
    std::uint64_t victim = 0;
    if (l2_[core].probe(line)) {
      ++counters.l2_hits;
      l1_[core].insert(line, victim);  // the L1 victim stays in L2
      return private_hit(core, line, write, lat.l2_hit);
    }
    ++counters.l2_misses;

    Entry& e = directory_[line];
    std::uint32_t latency = 0;
    if (l3_[socket].probe(line)) {
      ++counters.l3_hits;
      latency = lat.l3_hit;
      if (e.dirty >= 0 && e.dirty != static_cast<int>(core)) {
        ++counters.c2c_same_socket;  // the owner is on this socket
        latency = lat.c2c_same_socket;
        e.dirty = -1;
      }
    } else {
      ++counters.l3_misses;
      std::uint32_t nearest = spec_.topology.sockets;
      for (const std::uint32_t holder : e.sockets) {
        if (holder != socket) nearest = std::min(nearest, hops(socket, holder));
      }
      if (nearest < spec_.topology.sockets) {
        ++counters.c2c_cross_socket;
        latency = lat.c2c_cross_socket + lat.c2c_hop_extra * (nearest - 1) +
                  serve(link_free_at_, now, lat.qpi_occupancy,
                        link_queue_cycles);
        if (nearest > 1) ++multi_hop;
        e.dirty = -1;
      } else {
        latency = serve(dram_free_at_[home], now, lat.dram_occupancy,
                        dram_queue_cycles);
        if (home == socket) {
          ++counters.dram_local;
          latency += lat.dram_local;
        } else {
          ++counters.dram_remote;
          const std::uint32_t h = hops(socket, home);
          latency += lat.dram_remote + lat.dram_hop_extra * (h - 1) +
                     serve(link_free_at_, now, lat.qpi_occupancy,
                           link_queue_cycles);
          if (h > 1) ++multi_hop;
        }
      }
      e.sockets.insert(socket);
      if (l3_[socket].insert(line, victim)) evict_from_l3(socket, victim);
    }

    if (l2_[core].insert(line, victim)) evict_from_core(core, victim);
    l1_[core].insert(line, victim);  // the L1 victim stays in L2
    e.cores.insert(core);
    if (write) latency = std::max(latency, upgrade(core, line, e));
    return latency;
  }

  std::uint64_t l1_evictions() const { return sum_evictions(l1_); }
  std::uint64_t l2_evictions() const { return sum_evictions(l2_); }
  std::uint64_t l3_evictions() const { return sum_evictions(l3_); }
  std::size_t directory_size() const { return directory_.size(); }

  bool core_holds(std::uint32_t core, std::uint64_t line) const {
    const auto it = directory_.find(line);
    return it != directory_.end() && it->second.cores.count(core) != 0;
  }
  bool l3_holds(std::uint32_t socket, std::uint64_t line) const {
    const auto it = directory_.find(line);
    return it != directory_.end() && it->second.sockets.count(socket) != 0;
  }
  int dirty_owner_of(std::uint64_t line) const {
    const auto it = directory_.find(line);
    return it == directory_.end() ? -1 : it->second.dirty;
  }

  PerfCounters counters;
  std::uint64_t link_queue_cycles = 0;
  std::uint64_t dram_queue_cycles = 0;
  std::uint64_t multi_hop = 0;  ///< transfers that crossed more than one hop

 private:
  struct Entry {
    std::set<std::uint32_t> cores;    ///< holding the line in L1/L2
    std::set<std::uint32_t> sockets;  ///< holding the line in L3
    int dirty = -1;                   ///< core with the modified copy
  };

  std::uint32_t socket_of_core(std::uint32_t core) const {
    return core / spec_.topology.cores_per_socket;
  }

  /// Ring distance between sockets.
  std::uint32_t hops(std::uint32_t a, std::uint32_t b) const {
    const std::uint32_t d = a > b ? a - b : b - a;
    return std::min(d, spec_.topology.sockets - d);
  }

  /// A serial server: the request waits until the server is free.
  static std::uint32_t serve(std::uint64_t& free_at, std::uint64_t now,
                             std::uint32_t occupancy, std::uint64_t& total) {
    const std::uint64_t start = std::max(free_at, now);
    free_at = start + occupancy;
    total += start - now;
    return static_cast<std::uint32_t>(start - now);
  }

  std::uint32_t private_hit(std::uint32_t core, std::uint64_t line, bool write,
                            std::uint32_t latency) {
    Entry& e = directory_.at(line);
    if (write && e.dirty != static_cast<int>(core)) {
      latency = std::max(latency, upgrade(core, line, e));
    }
    return latency;
  }

  /// Invalidate every other copy; the cost is that of the farthest copy.
  std::uint32_t upgrade(std::uint32_t core, std::uint64_t line, Entry& e) {
    const std::uint32_t socket = socket_of_core(core);
    std::uint32_t cost = 0;
    for (auto it = e.cores.begin(); it != e.cores.end();) {
      const std::uint32_t other = *it;
      if (other == core) {
        ++it;
        continue;
      }
      l1_[other].invalidate(line);
      l2_[other].invalidate(line);
      ++counters.invalidations;
      cost = std::max(cost, socket_of_core(other) == socket
                                ? spec_.latency.c2c_same_socket
                                : spec_.latency.c2c_cross_socket);
      it = e.cores.erase(it);
    }
    for (auto it = e.sockets.begin(); it != e.sockets.end();) {
      const std::uint32_t other = *it;
      if (other == socket) {
        ++it;
        continue;
      }
      l3_[other].invalidate(line);
      ++counters.invalidations;
      cost = spec_.latency.c2c_cross_socket;
      it = e.sockets.erase(it);
    }
    e.dirty = static_cast<int>(core);
    return cost;
  }

  void evict_from_core(std::uint32_t core, std::uint64_t victim) {
    l1_[core].invalidate(victim);
    Entry& e = directory_.at(victim);
    e.cores.erase(core);
    if (e.dirty == static_cast<int>(core)) e.dirty = -1;
    erase_if_empty(victim);
  }

  void evict_from_l3(std::uint32_t socket, std::uint64_t victim) {
    Entry& e = directory_.at(victim);
    for (auto it = e.cores.begin(); it != e.cores.end();) {
      const std::uint32_t core = *it;
      if (socket_of_core(core) != socket) {
        ++it;
        continue;
      }
      l1_[core].invalidate(victim);
      l2_[core].invalidate(victim);
      ++counters.back_invalidations;
      if (e.dirty == static_cast<int>(core)) e.dirty = -1;
      it = e.cores.erase(it);
    }
    e.sockets.erase(socket);
    erase_if_empty(victim);
  }

  void erase_if_empty(std::uint64_t line) {
    const auto it = directory_.find(line);
    if (it->second.cores.empty() && it->second.sockets.empty()) {
      directory_.erase(it);
    }
  }

  static std::uint64_t sum_evictions(const std::vector<RefCache>& caches) {
    std::uint64_t n = 0;
    for (const RefCache& c : caches) n += c.evictions;
    return n;
  }

  const arch::MachineSpec& spec_;
  std::vector<RefCache> l1_, l2_, l3_;
  std::map<std::uint64_t, Entry> directory_;
  std::uint64_t link_free_at_ = 0;
  std::vector<std::uint64_t> dram_free_at_;
};

void expect_same_counters(const PerfCounters& got, const PerfCounters& want) {
#define SPCD_EXPECT_FIELD(f) EXPECT_EQ(got.f, want.f) << #f
  SPCD_EXPECT_FIELD(instructions);
  SPCD_EXPECT_FIELD(reads);
  SPCD_EXPECT_FIELD(writes);
  SPCD_EXPECT_FIELD(l1_hits);
  SPCD_EXPECT_FIELD(l1_misses);
  SPCD_EXPECT_FIELD(l2_hits);
  SPCD_EXPECT_FIELD(l2_misses);
  SPCD_EXPECT_FIELD(l3_hits);
  SPCD_EXPECT_FIELD(l3_misses);
  SPCD_EXPECT_FIELD(c2c_same_socket);
  SPCD_EXPECT_FIELD(c2c_cross_socket);
  SPCD_EXPECT_FIELD(invalidations);
  SPCD_EXPECT_FIELD(back_invalidations);
  SPCD_EXPECT_FIELD(dram_local);
  SPCD_EXPECT_FIELD(dram_remote);
  SPCD_EXPECT_FIELD(tlb_hits);
  SPCD_EXPECT_FIELD(tlb_misses);
  SPCD_EXPECT_FIELD(minor_faults);
  SPCD_EXPECT_FIELD(injected_faults);
  SPCD_EXPECT_FIELD(tlb_shootdowns);
  SPCD_EXPECT_FIELD(busy_cycles);
  SPCD_EXPECT_FIELD(barrier_wait_cycles);
  SPCD_EXPECT_FIELD(thread_migrations);
  SPCD_EXPECT_FIELD(page_migrations);
  SPCD_EXPECT_FIELD(spcd_detection_cycles);
  SPCD_EXPECT_FIELD(mapping_cycles);
#undef SPCD_EXPECT_FIELD
}

/// Drive both models with one seeded stream. Most accesses go to a hot set
/// that several cores share (coherence traffic); the rest sweep a range
/// far larger than every cache (capacity evictions at all three levels).
void run_differential(const arch::MachineSpec& spec, std::uint64_t seed,
                      int accesses, bool multi_hop) {
  const arch::Topology topo(spec.topology);
  MemoryHierarchy mh(spec, topo);
  RefHierarchy ref(spec);
  util::Xoshiro256 rng(seed);
  std::uint64_t now = 0;

  for (int i = 0; i < accesses; ++i) {
    const auto ctx =
        static_cast<arch::ContextId>(rng.below(topo.num_contexts()));
    const std::uint64_t line =
        rng.chance(0.7) ? rng.below(48) : rng.below(1024);
    const bool write = rng.chance(0.3);
    // Lines live on their page's home node, 8 lines to a page.
    const auto home =
        static_cast<std::uint32_t>((line / 8) % topo.num_sockets());
    now += rng.below(48);  // often closer than a transfer's occupancy

    const std::uint32_t want = ref.access(ctx, line, write, home, now);
    ASSERT_EQ(mh.access(ctx, line, write, home, now), want)
        << "access " << i << ": ctx " << ctx << " line " << line
        << (write ? " write" : " read");
    for (arch::CoreId core = 0; core < topo.num_cores(); ++core) {
      ASSERT_EQ(mh.core_holds(core, line), ref.core_holds(core, line))
          << "access " << i << " core " << core;
    }
    for (arch::SocketId sk = 0; sk < topo.num_sockets(); ++sk) {
      ASSERT_EQ(mh.l3_holds(sk, line), ref.l3_holds(sk, line))
          << "access " << i << " socket " << sk;
    }
    ASSERT_EQ(mh.dirty_owner_of(line), ref.dirty_owner_of(line))
        << "access " << i;
    if (i % 64 == 0) {
      ASSERT_EQ(mh.check_invariants(), 0u) << "access " << i;
      ASSERT_EQ(mh.directory_size(), ref.directory_size()) << "access " << i;
    }
  }

  expect_same_counters(mh.counters(), ref.counters);
  EXPECT_EQ(mh.link_queue_cycles(), ref.link_queue_cycles);
  EXPECT_EQ(mh.dram_queue_cycles(), ref.dram_queue_cycles);
  EXPECT_EQ(mh.directory_size(), ref.directory_size());
  EXPECT_EQ(mh.check_invariants(), 0u);

  // The stream reached every path the comparison is meant to cover.
  const PerfCounters& c = ref.counters;
  EXPECT_GT(ref.l1_evictions(), 0u);
  EXPECT_GT(ref.l2_evictions(), 0u);
  EXPECT_GT(ref.l3_evictions(), 0u);
  EXPECT_GT(c.back_invalidations, 0u);
  EXPECT_GT(c.invalidations, 0u);
  EXPECT_GT(c.l1_hits, 0u);
  EXPECT_GT(c.l2_hits, 0u);
  EXPECT_GT(c.l3_hits, 0u);
  EXPECT_GT(c.c2c_same_socket, 0u);
  EXPECT_GT(c.c2c_cross_socket, 0u);
  EXPECT_GT(c.dram_local, 0u);
  EXPECT_GT(c.dram_remote, 0u);
  EXPECT_GT(ref.link_queue_cycles, 0u);
  EXPECT_GT(ref.dram_queue_cycles, 0u);
  EXPECT_EQ(ref.multi_hop > 0, multi_hop);
}

/// Caches of a few lines each: 2-set L1, 4-set L2 and a 6-set L3 (not a
/// power of two, so the set index takes the modulo path).
void use_tiny_caches(arch::MachineSpec& m) {
  m.l1 = arch::CacheGeometry{.size_bytes = 256, .associativity = 2,
                             .line_bytes = 64};
  m.l2 = arch::CacheGeometry{.size_bytes = 512, .associativity = 2,
                             .line_bytes = 64};
  m.l3 = arch::CacheGeometry{.size_bytes = 1536, .associativity = 4,
                             .line_bytes = 64};
}

TEST(HierarchyReferenceTest, TwoSocketMachineMatchesReferenceModel) {
  arch::MachineSpec m = arch::tiny_test_machine();  // 2 x 2 cores x 2 SMT
  use_tiny_caches(m);
  run_differential(m, 2013, 60'000, /*multi_hop=*/false);
}

TEST(HierarchyReferenceTest, FourSocketRingMatchesReferenceModel) {
  // The quad-socket preset's latencies, with their per-hop extras, on a
  // machine small enough for the directory's 32-core mask. The sockets
  // form a ring, so the far corner is two hops away.
  arch::MachineSpec m = arch::quad_socket_numa();
  m.topology = arch::TopologySpec{.sockets = 4, .cores_per_socket = 2,
                                  .smt_per_core = 2};
  use_tiny_caches(m);
  run_differential(m, 7, 60'000, /*multi_hop=*/true);
}

}  // namespace
}  // namespace spcd::sim
