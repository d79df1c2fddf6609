// Machine topology model: a tree of NUMA sockets, cores, and SMT hardware
// contexts. This is the structure the mapping algorithm exploits (threads
// mapped to the same core share L1/L2; same socket shares L3; crossing
// sockets uses the off-chip interconnect — cases a/b/c of the paper's Fig. 1).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/contracts.hpp"

namespace spcd::arch {

/// A hardware context (logical CPU) id. With SMT, a core hosts several.
using ContextId = std::uint32_t;
/// Global core id (socket-major order).
using CoreId = std::uint32_t;
/// Socket id; sockets coincide with NUMA nodes in this model.
using SocketId = std::uint32_t;

/// Shape of the machine: sockets x cores-per-socket x SMT-per-core.
struct TopologySpec {
  std::uint32_t sockets = 2;
  std::uint32_t cores_per_socket = 8;
  std::uint32_t smt_per_core = 2;
};

/// Proximity of two hardware contexts, ordered from closest to farthest.
/// Mirrors the three communication possibilities in the paper's Figure 1.
enum class Proximity : std::uint8_t {
  kSameContext = 0,  ///< the very same logical CPU
  kSameCore = 1,     ///< SMT siblings: share L1 and L2 (case a)
  kSameSocket = 2,   ///< same chip: share L3 (case b)
  kCrossSocket = 3,  ///< different chips: off-chip interconnect (case c)
};

/// Immutable topology derived from a TopologySpec. Context ids are laid out
/// socket-major, then core, then SMT slot:
///   ctx = (socket * cores_per_socket + core_in_socket) * smt + smt_slot.
/// The simulator asks for a context's core and socket on every access, so
/// the constructor tabulates them: a lookup is one load, not a division.
class Topology {
 public:
  explicit Topology(const TopologySpec& spec);

  const TopologySpec& spec() const { return spec_; }

  std::uint32_t num_sockets() const { return spec_.sockets; }
  std::uint32_t num_cores() const {
    return spec_.sockets * spec_.cores_per_socket;
  }
  std::uint32_t num_contexts() const {
    return num_cores() * spec_.smt_per_core;
  }

  SocketId socket_of(ContextId ctx) const {
    SPCD_EXPECTS(ctx < socket_of_ctx_.size());
    return socket_of_ctx_[ctx];
  }
  CoreId core_of(ContextId ctx) const {
    SPCD_EXPECTS(ctx < core_of_ctx_.size());
    return core_of_ctx_[ctx];
  }
  std::uint32_t smt_slot_of(ContextId ctx) const;
  SocketId socket_of_core(CoreId core) const {
    SPCD_EXPECTS(core < socket_of_core_.size());
    return socket_of_core_[core];
  }

  /// All contexts belonging to a core (SMT siblings), in slot order.
  std::vector<ContextId> contexts_of_core(CoreId core) const;
  /// All cores belonging to a socket.
  std::vector<CoreId> cores_of_socket(SocketId socket) const;

  /// Proximity classification between two contexts.
  Proximity proximity(ContextId a, ContextId b) const;

  /// NUMA distance between two sockets in interconnect hops, with the
  /// sockets arranged on a ring (the usual 4-/8-socket board layout:
  /// adjacent sockets are directly linked, others route through
  /// neighbors). 0 for the same socket, 1 for adjacent — so every pair on
  /// a 2-socket machine is at most one hop and the deep-NUMA latency
  /// extras (LatencySpec::c2c_hop_extra / dram_hop_extra) never apply
  /// there. Maximum is num_sockets() / 2.
  std::uint32_t numa_hops(SocketId a, SocketId b) const;

  /// Group arities from the leaf upward, e.g. {2, 8, 2} for
  /// 2-way SMT cores, 8 cores per socket, 2 sockets. The hierarchical mapper
  /// folds the grouping tree along this path.
  std::vector<std::uint32_t> arity_path() const;

  /// Human-readable name like "ctx 17 (socket 1, core 8, smt 1)".
  std::string describe(ContextId ctx) const;

 private:
  TopologySpec spec_;
  std::vector<CoreId> core_of_ctx_;       ///< ctx -> core
  std::vector<SocketId> socket_of_ctx_;   ///< ctx -> socket
  std::vector<SocketId> socket_of_core_;  ///< core -> socket
};

}  // namespace spcd::arch
