// Registry of the ten NPB-like benchmarks (paper Section V: NPB-OMP 3.3.1,
// class A, 32 threads) and the producer/consumer microbenchmark. Each
// preset fixes the kernel type and parameters so that the benchmark's
// communication pattern matches the classification in the paper's Figure 7
// and Table II, and relative run lengths roughly follow Table II.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/runner.hpp"
#include "sim/workload.hpp"

namespace spcd::workloads {

enum class PatternClass : std::uint8_t { kHeterogeneous, kHomogeneous };

const char* to_string(PatternClass pattern);

struct BenchmarkInfo {
  std::string name;        ///< lowercase NPB name: bt, cg, ...
  PatternClass pattern;    ///< the paper's Table II classification
};

/// The ten NAS benchmarks in the paper's order: BT CG DC EP FT IS LU MG SP UA.
const std::vector<BenchmarkInfo>& nas_benchmarks();

/// Instantiate a benchmark by name. `scale` multiplies the iteration count
/// (1.0 = default length) and must be finite and positive; throws
/// std::invalid_argument on unknown names.
std::unique_ptr<sim::Workload> make_nas(const std::string& name,
                                        std::uint64_t seed,
                                        double scale = 1.0);

/// The producer/consumer microbenchmark (Section V-B).
std::unique_ptr<sim::Workload> make_prodcons(std::uint64_t seed,
                                             double scale = 1.0);

/// Factory adapter for core::Runner.
core::WorkloadFactory nas_factory(const std::string& name, double scale = 1.0);

}  // namespace spcd::workloads
