// Timing and coherence model of the machine's cache hierarchy:
//   * L1 + L2 private per core (shared by its SMT contexts),
//   * L3 inclusive, shared per socket,
//   * a MESI-flavoured line directory that tracks which cores hold each line
//     in their private caches, which sockets hold it in L3, and which core
//     (if any) has it modified.
//
// The directory lets the model count exactly the quantities the paper
// measures with VTune and PAPI: cache misses per level, cache-to-cache
// transactions (on-chip and off-chip), and invalidations. It also reproduces
// the three miss classes the paper attributes mapping gains to:
// invalidation misses (write upgrades kill remote copies), capacity misses
// (set-associative LRU arrays), and replication pressure (the same line
// occupying multiple L3s).
#pragma once

#include <cstdint>
#include <vector>

#include "arch/machine_spec.hpp"
#include "arch/topology.hpp"
#include "sim/cache.hpp"
#include "sim/perf_counters.hpp"
#include "sim/line_directory.hpp"

namespace spcd::sim {

class MemoryHierarchy {
 public:
  MemoryHierarchy(const arch::MachineSpec& spec, const arch::Topology& topo);

  /// Perform one memory access at simulated time `now` (the accessing
  /// thread's clock — used by the bandwidth model to queue transfers).
  /// `line` is the physical line address (physical address >> log2(line
  /// size)); `home_node` is the NUMA node the backing frame lives on.
  /// Returns the access latency in cycles and updates all counters.
  std::uint32_t access(arch::ContextId ctx, std::uint64_t line, bool write,
                       std::uint32_t home_node, std::uint64_t now);

  /// Queueing delay accumulated at the inter-socket link / DRAM channels
  /// (already included in returned latencies; exposed for analysis).
  std::uint64_t link_queue_cycles() const { return link_queue_cycles_; }
  std::uint64_t dram_queue_cycles() const { return dram_queue_cycles_; }

  const PerfCounters& counters() const { return counters_; }
  PerfCounters& counters() { return counters_; }

  // --- inspection (tests, invariant checks) ---
  bool core_holds(arch::CoreId core, std::uint64_t line) const;
  bool l3_holds(arch::SocketId socket, std::uint64_t line) const;
  std::int32_t dirty_owner_of(std::uint64_t line) const;

  /// Verify directory/cache consistency for every tracked line. Returns the
  /// number of violations (0 means the invariants hold):
  ///   core bit set   <=> the core's L2 contains the line,
  ///   L1 containment  => L2 containment (inclusion),
  ///   core bit set    => the core's socket L3 bit set (inclusive L3),
  ///   dirty owner set => owner's core bit set.
  std::uint64_t check_invariants() const;

  std::size_t directory_size() const { return directory_.size(); }

 private:
  struct LineState {
    std::uint32_t core_mask = 0;  ///< cores holding the line in L1/L2
    std::uint8_t l3_mask = 0;     ///< sockets holding the line in L3
    std::int16_t dirty_core = -1; ///< core with the modified copy, or -1
  };

  /// Invalidate every copy except `keep_core`'s, counting invalidations.
  /// Returns the proximity of the farthest invalidated copy for latency.
  arch::Proximity write_upgrade(arch::CoreId keep_core, std::uint64_t line,
                                LineState& state);

  /// Drop a victim line from a core's private caches (inclusion).
  void evict_from_core(arch::CoreId core, std::uint64_t victim);

  /// Drop a victim line from a socket's L3, back-invalidating that socket's
  /// private caches (inclusive L3), and stop tracking it once no cache
  /// holds it.
  void evict_from_l3(arch::SocketId socket, std::uint64_t victim);

  /// Serial-server queue: request at `now`, service takes `occupancy`.
  /// Returns the queueing delay and advances the server.
  static std::uint64_t queue_delay(std::uint64_t& free_at, std::uint64_t now,
                                   std::uint32_t occupancy) {
    const std::uint64_t start = free_at > now ? free_at : now;
    free_at = start + occupancy;
    return start - now;
  }

  const arch::MachineSpec& spec_;
  const arch::Topology& topo_;
  std::vector<Cache> l1_;  ///< per core
  std::vector<Cache> l2_;  ///< per core
  std::vector<Cache> l3_;  ///< per socket
  LineMap<LineState> directory_;
  PerfCounters counters_;

  std::uint64_t link_free_at_ = 0;           ///< inter-socket link server
  std::vector<std::uint64_t> dram_free_at_;  ///< per-node memory channels
  std::uint64_t link_queue_cycles_ = 0;
  std::uint64_t dram_queue_cycles_ = 0;
};

}  // namespace spcd::sim
