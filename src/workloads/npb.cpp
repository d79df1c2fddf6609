#include "workloads/npb.hpp"

#include <cmath>
#include <stdexcept>

#include "util/contracts.hpp"
#include "workloads/alltoall_kernel.hpp"
#include "workloads/datacube_kernel.hpp"
#include "workloads/domain_kernel.hpp"
#include "workloads/private_kernel.hpp"
#include "workloads/prodcons.hpp"

namespace spcd::workloads {

const char* to_string(PatternClass pattern) {
  return pattern == PatternClass::kHeterogeneous ? "heterogeneous"
                                                 : "homogeneous";
}

const std::vector<BenchmarkInfo>& nas_benchmarks() {
  static const std::vector<BenchmarkInfo> kList = {
      {"bt", PatternClass::kHeterogeneous},
      {"cg", PatternClass::kHeterogeneous},
      {"dc", PatternClass::kHeterogeneous},
      {"ep", PatternClass::kHomogeneous},
      {"ft", PatternClass::kHomogeneous},
      {"is", PatternClass::kHomogeneous},
      {"lu", PatternClass::kHeterogeneous},
      {"mg", PatternClass::kHeterogeneous},
      {"sp", PatternClass::kHeterogeneous},
      {"ua", PatternClass::kHeterogeneous},
  };
  return kList;
}

namespace {

std::uint32_t scaled(std::uint32_t iterations, double scale) {
  const auto v = static_cast<std::uint32_t>(iterations * scale);
  return v == 0 ? 1 : v;
}

}  // namespace

std::unique_ptr<sim::Workload> make_nas(const std::string& name,
                                        std::uint64_t seed, double scale) {
  // scaled() casts iterations * scale to an integer, which a negative or
  // NaN scale would make undefined.
  SPCD_EXPECTS(scale > 0 && std::isfinite(scale));
  // Block-tridiagonal solver: strong +-1 neighbor communication, balanced
  // compute; one of the big winners in the paper (-8.8% time).
  if (name == "bt") {
    DomainParams p;
    p.name = "bt";
    p.iterations = scaled(140, scale);
    p.chunk_bytes = 512 * util::kKiB;
    p.halo_bytes = 48 * util::kKiB;
    p.halo_frac = 0.14;
    p.write_frac = 0.30;
    p.locality = {.stream_frac = 0.35, .hot_frac = 0.60, .stream_step = 8,
                  .hot_bytes = 32 * 1024};
    p.compute_cycles = 110;
    return std::make_unique<DomainKernel>(p, seed);
  }
  // Conjugate gradient: narrow neighbor band, very short runtime — small
  // gains in the paper (-7.8% on a 0.22 s run).
  if (name == "cg") {
    DomainParams p;
    p.name = "cg";
    p.iterations = scaled(26, scale);
    p.chunk_bytes = 384 * util::kKiB;
    p.halo_bytes = 48 * util::kKiB;
    p.halo_frac = 0.14;
    p.write_frac = 0.25;
    p.locality = {.stream_frac = 0.45, .hot_frac = 0.38, .stream_step = 16,
                  .hot_bytes = 32 * 1024};
    p.compute_cycles = 70;
    return std::make_unique<DomainKernel>(p, seed);
  }
  // Data cube: long, DRAM-bound, mildly heterogeneous (-3.6%).
  if (name == "dc") {
    DataCubeParams p;
    p.name = "dc";
    p.iterations = scaled(160, scale);
    return std::make_unique<DataCubeKernel>(p, seed);
  }
  // Embarrassingly parallel: almost no communication (+4.6% = small loss).
  if (name == "ep") {
    PrivateParams p;
    p.name = "ep";
    p.iterations = scaled(18, scale);
    return std::make_unique<PrivateKernel>(p, seed);
  }
  // Fourier transform: all-to-all transpose reads, homogeneous (+2.4%).
  if (name == "ft") {
    AllToAllParams p;
    p.name = "ft";
    p.iterations = scaled(50, scale);
    p.chunk_bytes = 512 * util::kKiB;
    p.remote_frac = 0.18;
    p.remote_writes = false;
    p.locality = {.stream_frac = 0.45, .hot_frac = 0.50, .stream_step = 8,
                  .hot_bytes = 32 * 1024};
    p.compute_cycles = 80;
    return std::make_unique<AllToAllKernel>(p, seed);
  }
  // Integer sort: scattered bucket writes, homogeneous, short (+2.6%).
  if (name == "is") {
    AllToAllParams p;
    p.name = "is";
    p.iterations = scaled(24, scale);
    p.chunk_bytes = 384 * util::kKiB;
    p.remote_frac = 0.03;
    p.remote_writes = true;
    p.write_frac = 0.5;
    p.locality = {.stream_frac = 0.50, .hot_frac = 0.47, .stream_step = 8,
                  .hot_bytes = 32 * 1024};
    p.compute_cycles = 55;
    p.insns_per_ref = 8;
    return std::make_unique<AllToAllKernel>(p, seed);
  }
  // LU decomposition: neighbor pipeline with many halo writes (-8.1%).
  if (name == "lu") {
    DomainParams p;
    p.name = "lu";
    p.iterations = scaled(120, scale);
    p.chunk_bytes = 384 * util::kKiB;
    p.halo_bytes = 48 * util::kKiB;
    p.halo_frac = 0.18;
    p.neighbor_read_frac = 0.5;
    p.write_frac = 0.40;
    p.locality = {.stream_frac = 0.35, .hot_frac = 0.61, .stream_step = 8,
                  .hot_bytes = 32 * 1024};
    p.compute_cycles = 90;
    return std::make_unique<DomainKernel>(p, seed);
  }
  // Multigrid: neighbor communication at multiple power-of-two distances —
  // heterogeneous pattern, but no single mapping can make all the strides
  // local, so the paper sees no gain (+0.3%).
  if (name == "mg") {
    DomainParams p;
    p.name = "mg";
    p.iterations = scaled(50, scale);
    p.chunk_bytes = 512 * util::kKiB;
    p.halo_bytes = 64 * util::kKiB;
    p.halo_frac = 0.10;
    p.neighbor_strides = {{1, 0.20}, {-1, 0.20}, {2, 0.125}, {-2, 0.125},
                          {4, 0.10}, {-4, 0.10}, {8, 0.05},  {-8, 0.05},
                          {16, 0.05}};
    p.locality = {.stream_frac = 0.40, .hot_frac = 0.50, .stream_step = 16,
                  .hot_bytes = 32 * 1024};
    p.compute_cycles = 100;
    return std::make_unique<DomainKernel>(p, seed);
  }
  // Scalar pentadiagonal: the heaviest halo traffic and a memory-bound
  // profile — the paper's best case (-16.7% time, -63% L3 MPKI).
  if (name == "sp") {
    DomainParams p;
    p.name = "sp";
    p.iterations = scaled(150, scale);
    p.chunk_bytes = 384 * util::kKiB;
    p.halo_bytes = 64 * util::kKiB;
    p.halo_frac = 0.22;
    p.neighbor_read_frac = 0.55;
    p.write_frac = 0.35;
    p.locality = {.stream_frac = 0.30, .hot_frac = 0.64, .stream_step = 8,
                  .hot_bytes = 32 * 1024};
    p.compute_cycles = 55;
    return std::make_unique<DomainKernel>(p, seed);
  }
  // Unstructured adaptive: neighbor band plus irregular remote accesses;
  // big DRAM-energy winner in the paper (-28.5% DRAM energy).
  if (name == "ua") {
    DomainParams p;
    p.name = "ua";
    p.iterations = scaled(130, scale);
    p.chunk_bytes = 512 * util::kKiB;
    p.halo_bytes = 48 * util::kKiB;
    p.halo_frac = 0.18;
    p.neighbor_strides = {{1, 0.35}, {-1, 0.35}, {2, 0.1}, {-2, 0.1},
                          {0, 0.1}};
    p.locality = {.stream_frac = 0.35, .hot_frac = 0.59, .stream_step = 8,
                  .hot_bytes = 48 * 1024};
    p.compute_cycles = 95;
    return std::make_unique<DomainKernel>(p, seed);
  }
  throw std::invalid_argument("unknown NAS benchmark: " + name);
}

std::unique_ptr<sim::Workload> make_prodcons(std::uint64_t seed,
                                             double scale) {
  SPCD_EXPECTS(scale > 0 && std::isfinite(scale));
  ProdConsParams p;
  p.iterations_per_phase = scaled(30, scale);
  return std::make_unique<ProducerConsumer>(p, seed);
}

core::WorkloadFactory nas_factory(const std::string& name, double scale) {
  return [name, scale](std::uint64_t seed) {
    return make_nas(name, seed, scale);
  };
}

}  // namespace spcd::workloads
