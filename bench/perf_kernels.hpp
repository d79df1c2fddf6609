// Shared declarations of the perf_regress harness: the deterministic
// result fold, the per-kernel result record, and the best-of timing
// loop. Split out of perf_regress.cpp so kernels can live in their own
// translation units (micro_service_throughput.cpp) without duplicating
// the checksum/result plumbing.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace spcd::bench {

/// FNV-1a fold of 64-bit results: the harness's correctness gate. Any
/// hot-path change that alters a kernel's output flips the checksum.
struct Checksum {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void fold(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  }
};

struct KernelResult {
  std::string name;
  std::uint64_t items = 0;     ///< operations per timed pass
  double ns_per_op = 0.0;      ///< best-of-repeats wall time per op
  std::uint64_t checksum = 0;  ///< deterministic result fold
  std::uint64_t reference = 0; ///< expected checksum
  /// Kernel-specific auxiliary measurements, carried into the JSON
  /// verbatim (e.g. the mapper-scale kernel's 1024-thread remap time).
  std::vector<std::pair<std::string, double>> extras;
  bool checksum_ok() const { return checksum == reference; }
};

inline double time_best_of(int repeats, std::uint64_t items,
                           const std::function<void()>& pass) {
  double best = 1e300;
  for (int r = 0; r < repeats; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    pass();
    const auto t1 = std::chrono::steady_clock::now();
    const double ns =
        std::chrono::duration<double, std::nano>(t1 - t0).count();
    best = std::min(best, ns / static_cast<double>(items));
  }
  return best;
}

/// Kernel 5 (micro_service_throughput.cpp): sustained fault-event ingest
/// through the multi-tenant service at 1, 16, and 100 tenants.
KernelResult run_service_throughput(int repeats);

/// Kernel 6 (micro_mapper_scale.cpp): one hierarchical remap decision for
/// 1024 threads on the 8-socket deep-NUMA topology plus one Blossom
/// decision for 256 threads; extras carry the per-decision milliseconds
/// CI gates on.
KernelResult run_mapper_scale(int repeats);

}  // namespace spcd::bench
