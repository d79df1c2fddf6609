// The single source of truth for RunMetrics field names, shared by every
// consumer that renders or serializes run metrics: spcdsim's tables, the
// robustness ablation, and the machine-readable JSON dump. Adding a field
// to RunMetrics means adding exactly one descriptor here; the graceful-
// degradation counters in particular are defined once in this table
// instead of being re-listed by each harness.
#pragma once

#include <string>
#include <vector>

#include "core/runner.hpp"

namespace spcd::core {

struct MetricDescriptor {
  const char* name;     ///< stable machine-readable key
  bool integer;         ///< true: serialize as an integer count
  double (*get)(const RunMetrics&);
  /// Inverse of `get`, used by deserializers (cache rows, journal
  /// records). Exactly one is non-null, matching `integer`; integer
  /// fields round-trip through their native width, never a double.
  void (*set_int)(RunMetrics&, std::uint64_t) = nullptr;
  void (*set_real)(RunMetrics&, double) = nullptr;
};

/// Every RunMetrics field, in serialization order (degradation counters
/// last, mirroring the struct).
const std::vector<MetricDescriptor>& run_metric_descriptors();

/// The graceful-degradation subset (saturation resets, migration
/// retries/give-ups, overrun skips, perturbations injected).
const std::vector<MetricDescriptor>& degradation_metric_descriptors();

/// The v3 results-cache row: every run metric except the degradation
/// counters, in cache column order. The single definition of what one
/// pipeline cell serializes — the cache payload and the crash-recovery
/// journal both format and parse rows through this table.
const std::vector<MetricDescriptor>& cache_metric_descriptors();

/// Inter-application interference counters of the multi-tenant service
/// (spcdd's RunMetrics analogue): how much the tenants sharing one
/// topology cost each other. Defined here, next to the run-metric
/// descriptor tables, so the service JSON, the spcdd status table, and
/// the tests all render the same fields from one definition.
struct InterferenceCounters {
  /// Global placement decisions the arbiter took.
  std::uint64_t arbitrations = 0;
  /// Threads that shared a hardware context with another tenant's thread
  /// at decision time (overcommit: stolen contexts), summed over
  /// decisions.
  std::uint64_t contexts_stolen = 0;
  /// Cores whose SMT contexts hosted threads of >= 2 tenants (shared
  /// L1/L2), summed over decisions.
  std::uint64_t cross_tenant_core_shares = 0;
  /// Tenants whose threads spanned more than one socket (forced remote
  /// accesses within the application), summed over decisions.
  std::uint64_t tenant_socket_splits = 0;
  /// Sharing-table entries one tenant's collisions evicted from another
  /// tenant (capacity interference in the detection substrate).
  std::uint64_t cross_tenant_evictions = 0;
  /// Thread placements changed between consecutive arbitrations.
  std::uint64_t thread_migrations = 0;
};

/// Field descriptor for InterferenceCounters (all integral).
struct InterferenceDescriptor {
  const char* name;  ///< stable machine-readable key
  std::uint64_t (*get)(const InterferenceCounters&);
  void (*set)(InterferenceCounters&, std::uint64_t);
};

/// Every InterferenceCounters field, in declaration order.
const std::vector<InterferenceDescriptor>& interference_metric_descriptors();

/// Machine-readable JSON dump of one policy's repetitions: per-run metric
/// objects via run_metric_descriptors(), plus — when the run carried an
/// observability session — its metrics registry and trace accounting.
/// Deterministic: byte-identical for any SPCD_JOBS value.
std::string metrics_json(const std::string& benchmark,
                         const std::string& policy,
                         const std::vector<RunMetrics>& runs);

}  // namespace spcd::core
