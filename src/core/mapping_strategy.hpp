// The mapping-algorithm seam: every consumer of a thread mapping — the SPCD
// kernel's periodic remap, the oracle, the service arbiter, the ablations
// and the CLI tools — selects the algorithm through this interface by
// registry name, the same way `parse_policy` selects placement policies.
// Strategies registered today:
//   * blossom      — the paper's exact Edmonds grouping (the default),
//   * greedy       — the greedy pairing baseline of the ablation study,
//   * hierarchical — the multilevel mapper for large machines (coarsen by
//                    heavy-edge matching, exact Blossom at small levels,
//                    parallel local refinement; DESIGN.md §15).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "core/mapper.hpp"
#include "core/spcd_config.hpp"

namespace spcd::core {

/// A thread-mapping algorithm. Implementations are immutable after
/// construction and safe to share across sequential decisions; map() is a
/// pure function of its arguments (plus construction-time knobs), which is
/// what keeps every strategy byte-deterministic.
class MappingStrategy {
 public:
  virtual ~MappingStrategy() = default;

  /// The registry name this strategy was created under.
  virtual std::string_view name() const = 0;

  /// Compute a placement for `matrix.size()` threads on the topology.
  /// Requires matrix.size() <= topology.num_contexts(). A non-empty
  /// `current` placement lets placement-stable strategies minimize churn;
  /// strategies that cannot use it ignore it.
  virtual MappingResult map(const CommMatrix& matrix,
                            const arch::Topology& topology,
                            const sim::Placement& current) const = 0;

  /// Convenience overload without a current placement.
  MappingResult map(const CommMatrix& matrix,
                    const arch::Topology& topology) const {
    return map(matrix, topology, sim::Placement{});
  }

  /// Simulated cycles to charge the application for one mapping decision
  /// over `num_threads` threads (the overhead model of SpcdConfig). The
  /// default is the Edmonds polynomial model (base + c*N^3) the kernel has
  /// always charged; cheaper strategies override it.
  virtual std::uint64_t decision_cost(std::uint32_t num_threads,
                                      const SpcdConfig& config) const;
};

/// Factory signature: builds a strategy from the (validated) mapping knobs.
using MappingStrategyFactory =
    std::unique_ptr<MappingStrategy> (*)(const MappingConfig&);

struct MappingRegistryEntry {
  std::string_view name;
  std::string_view summary;  ///< one-liner for --help / error messages
  MappingStrategyFactory make;
};

/// The accepted strategy names, in registry order (so
/// `mapping_strategy_names()[i] == mapping_registry()[i].name`). Mirrors
/// policy_names().
constexpr std::array<std::string_view, 3> mapping_strategy_names() {
  return {"blossom", "greedy", "hierarchical"};
}

/// The registered strategies, in mapping_strategy_names() order.
std::span<const MappingRegistryEntry> mapping_registry();

/// Parse a strategy name into its registry entry. Returns std::nullopt for
/// anything else (CLIs turn that into a usage error listing the registry,
/// SpcdConfig::validate into a ConfigError). Mirrors parse_policy().
std::optional<MappingRegistryEntry> parse_mapping_strategy(
    std::string_view name);

/// "blossom|greedy|hierarchical" — the registry names joined for usage and
/// error messages.
std::string mapping_strategy_list();

/// Build the strategy selected by `config.strategy`. Throws ConfigError
/// when config.validate() fails (unknown name, out-of-range knob) — the
/// same contract as SpcdKernel's constructor.
std::unique_ptr<MappingStrategy> make_mapping_strategy(
    const MappingConfig& config);

}  // namespace spcd::core
