// Deterministic synthetic mapping problems for the mapper-scale surfaces
// (fig17_mapper_scale, PinnedKernelsTest.MapperScale and the 64.3 ms
// RemapBoundTest). All need the same inputs so the figure's quality
// numbers, the pinned placements and the timed remap describe one
// workload: clustered communication (the structure SPCD detects in real
// applications — tight groups with a thin ring of neighbor traffic and
// sparse noise) on topologies whose context count equals the thread count
// at every sweep point.
//
// Everything here is a pure function of (n, seed): the figure CSV and the
// pinned digest are reproducible byte for byte on any host.
#pragma once

#include <cstdint>

#include "arch/machine_spec.hpp"
#include "core/comm_matrix.hpp"
#include "util/rng.hpp"

namespace spcd::bench {

/// Topology sized for an n-thread mapping problem (contexts == n for the
/// sweep points 32, 64, 128, 256, 512, 1024). Socket count grows with n
/// the way real parts do: 2-socket up to 64 contexts, quad at 128-256,
/// octo beyond — so the deep-NUMA presets anchor the large end.
inline arch::TopologySpec mapper_scale_topology(std::uint32_t n) {
  if (n <= 32) {
    return {.sockets = 2, .cores_per_socket = 8, .smt_per_core = 2};
  }
  if (n <= 64) {
    return {.sockets = 2, .cores_per_socket = 16, .smt_per_core = 2};
  }
  if (n <= 128) {
    return {.sockets = 4, .cores_per_socket = 16, .smt_per_core = 2};
  }
  if (n <= 256) return arch::quad_socket_numa().topology;
  if (n <= 512) {
    return {.sockets = 8, .cores_per_socket = 32, .smt_per_core = 2};
  }
  return arch::octo_socket_numa().topology;
}

/// Clustered communication matrix over n threads: all-pairs heavy traffic
/// inside clusters of 8 (one SMT-core-pair neighborhood worth of threads),
/// a thin ring linking adjacent clusters, and sparse random background.
/// A good mapping keeps each cluster on one socket and adjacent clusters
/// near each other; a bad one pays cross-socket cost on the heavy edges.
inline core::CommMatrix mapper_scale_matrix(std::uint32_t n,
                                            std::uint64_t seed = 17) {
  constexpr std::uint32_t kCluster = 8;
  core::CommMatrix m(n);
  util::Xoshiro256 rng(seed ^ (static_cast<std::uint64_t>(n) << 32));
  for (std::uint32_t a = 0; a < n; ++a) {
    for (std::uint32_t b = a + 1; b < n && b / kCluster == a / kCluster;
         ++b) {
      m.add(a, b, 600 + rng.below(400));
    }
  }
  for (std::uint32_t a = kCluster; a < n; a += kCluster) {
    m.add(a - 1, a, 120 + rng.below(60));
  }
  for (std::uint32_t i = 0; i < 2 * n; ++i) {
    const auto a = static_cast<std::uint32_t>(rng.below(n));
    auto b = static_cast<std::uint32_t>(rng.below(n));
    if (a == b) b = (b + 1) % n;
    m.add(a, b, 1 + rng.below(20));
  }
  return m;
}

}  // namespace spcd::bench
