#include "core/metrics_export.hpp"

#include "obs/json.hpp"

namespace spcd::core {

namespace {

double as_double(std::uint64_t v) { return static_cast<double>(v); }

// One entry per RunMetrics field: the getter feeds serializers, the typed
// setter feeds the cache/journal loaders (integers round-trip through
// their native width, so counts above 2^53 survive).
#define SPCD_INT_METRIC(key, field)                                      \
  MetricDescriptor {                                                     \
    key, true, [](const RunMetrics& m) { return as_double(m.field); },   \
        [](RunMetrics& m, std::uint64_t v) {                             \
          m.field = static_cast<decltype(m.field)>(v);                   \
        },                                                               \
        nullptr                                                          \
  }
#define SPCD_REAL_METRIC(key, field)                                     \
  MetricDescriptor {                                                     \
    key, false, [](const RunMetrics& m) { return m.field; }, nullptr,    \
        [](RunMetrics& m, double v) { m.field = v; }                     \
  }

const std::vector<MetricDescriptor> kDegradation = {
    SPCD_INT_METRIC("saturation_resets", saturation_resets),
    SPCD_INT_METRIC("migration_retries", migration_retries),
    SPCD_INT_METRIC("migration_giveups", migration_giveups),
    SPCD_INT_METRIC("overrun_skips", overrun_skips),
    SPCD_INT_METRIC("perturbations_injected", perturbations_injected),
    SPCD_INT_METRIC("anomalies_flagged", anomalies_flagged),
    SPCD_INT_METRIC("admissions_refused", admissions_refused),
    SPCD_INT_METRIC("remaps_deferred", remaps_deferred),
    SPCD_INT_METRIC("remaps_rolled_back", remaps_rolled_back),
};

std::vector<MetricDescriptor> make_cache() {
  return {
      SPCD_REAL_METRIC("exec_seconds", exec_seconds),
      SPCD_INT_METRIC("instructions", instructions),
      SPCD_REAL_METRIC("l2_mpki", l2_mpki),
      SPCD_REAL_METRIC("l3_mpki", l3_mpki),
      SPCD_INT_METRIC("c2c_transactions", c2c_transactions),
      SPCD_INT_METRIC("invalidations", invalidations),
      SPCD_INT_METRIC("dram_accesses", dram_accesses),
      SPCD_REAL_METRIC("package_joules", package_joules),
      SPCD_REAL_METRIC("dram_joules", dram_joules),
      SPCD_REAL_METRIC("package_epi_nj", package_epi_nj),
      SPCD_REAL_METRIC("dram_epi_nj", dram_epi_nj),
      SPCD_REAL_METRIC("detection_overhead", detection_overhead),
      SPCD_REAL_METRIC("mapping_overhead", mapping_overhead),
      SPCD_INT_METRIC("migration_events", migration_events),
      SPCD_INT_METRIC("minor_faults", minor_faults),
      SPCD_INT_METRIC("injected_faults", injected_faults),
  };
}

#undef SPCD_INT_METRIC
#undef SPCD_REAL_METRIC

std::vector<MetricDescriptor> make_all() {
  std::vector<MetricDescriptor> all = make_cache();
  all.insert(all.end(), kDegradation.begin(), kDegradation.end());
  return all;
}

}  // namespace

const std::vector<MetricDescriptor>& run_metric_descriptors() {
  static const std::vector<MetricDescriptor> all = make_all();
  return all;
}

const std::vector<MetricDescriptor>& degradation_metric_descriptors() {
  return kDegradation;
}

const std::vector<MetricDescriptor>& cache_metric_descriptors() {
  static const std::vector<MetricDescriptor> cache = make_cache();
  return cache;
}

#define SPCD_INTERFERENCE_METRIC(key, field)                          \
  InterferenceDescriptor {                                            \
    key, [](const InterferenceCounters& c) { return c.field; },       \
        [](InterferenceCounters& c, std::uint64_t v) { c.field = v; } \
  }

const std::vector<InterferenceDescriptor>& interference_metric_descriptors() {
  static const std::vector<InterferenceDescriptor> all = {
      SPCD_INTERFERENCE_METRIC("arbitrations", arbitrations),
      SPCD_INTERFERENCE_METRIC("contexts_stolen", contexts_stolen),
      SPCD_INTERFERENCE_METRIC("cross_tenant_core_shares",
                               cross_tenant_core_shares),
      SPCD_INTERFERENCE_METRIC("tenant_socket_splits", tenant_socket_splits),
      SPCD_INTERFERENCE_METRIC("cross_tenant_evictions",
                               cross_tenant_evictions),
      SPCD_INTERFERENCE_METRIC("thread_migrations", thread_migrations),
  };
  return all;
}

#undef SPCD_INTERFERENCE_METRIC

std::string metrics_json(const std::string& benchmark,
                         const std::string& policy,
                         const std::vector<RunMetrics>& runs) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("schema").value("spcd-metrics-v1");
  w.key("benchmark").value(benchmark);
  w.key("policy").value(policy);
  w.key("repetitions").value(static_cast<std::uint64_t>(runs.size()));
  w.key("runs").begin_array();
  for (const RunMetrics& m : runs) {
    w.begin_object();
    w.key("metrics").begin_object();
    for (const MetricDescriptor& d : run_metric_descriptors()) {
      if (d.integer) {
        w.key(d.name).value(static_cast<std::uint64_t>(d.get(m)));
      } else {
        w.key(d.name).value(d.get(m));
      }
    }
    w.end_object();
    if (m.obs != nullptr) {
      w.key("registry");
      m.obs->metrics.write_json(w);
      w.key("trace").begin_object();
      w.key("events").value(
          static_cast<std::uint64_t>(m.obs->events.size()));
      w.key("recorded").value(m.obs->recorded);
      w.key("dropped").value(m.obs->dropped);
      w.end_object();
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

}  // namespace spcd::core
