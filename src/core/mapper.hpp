// The thread mapping algorithm of Section IV-B: model the communication
// matrix as a complete weighted graph, pair threads with Edmonds' maximum
// weight perfect matching, then repeatedly pair the resulting groups using
// the heuristic of Eq. (1) (group-to-group weight = sum of member-pairwise
// communication), building a binary grouping tree. Leaves of that tree, in
// tree order, are assigned to hardware contexts in topology order — so the
// tightest pairs land on SMT siblings, the next level shares L2/L3, and the
// loosest split crosses sockets.
//
// The algorithm runs as the "blossom" strategy of core/mapping_strategy.hpp,
// on the grouping-tree code in core/mapper_detail.hpp. This header holds
// the result type and the placement helpers every strategy shares.
#pragma once

#include <cstdint>
#include <vector>

#include "arch/topology.hpp"
#include "core/comm_matrix.hpp"
#include "sim/engine.hpp"

namespace spcd::core {

struct MappingResult {
  sim::Placement placement;  ///< tid -> context
  std::uint32_t rounds = 0;  ///< matching rounds performed
};

/// Number of threads whose context differs between two placements (the
/// migrations applying `target` over `current` would perform).
std::uint32_t count_moves(const sim::Placement& current,
                          const sim::Placement& target);

/// Relative cost of one unit of communication at each proximity — the
/// weights placement_comm_cost integrates: same core 1.0, same socket 2.5,
/// cross-socket 7.0, same context 0 (co-scheduled threads communicate
/// through L1). Exposed so the refinement pass scores swap gains with
/// exactly the weights the cost function will measure them by.
double proximity_weight(arch::Proximity p);

/// Communication cost of a placement under a matrix: each pair's
/// communication is weighted by the distance of their contexts (same core
/// 1x, same socket ~L3/L1 ratio, cross-socket ~interconnect ratio). Lower
/// is better; used to decide whether a remapping is worth the migrations.
double placement_comm_cost(const CommMatrix& matrix,
                           const arch::Topology& topology,
                           const sim::Placement& placement);

}  // namespace spcd::core
