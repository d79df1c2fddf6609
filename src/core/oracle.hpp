// The oracle mapping (paper Section V-D): "we generated traces of all
// memory accesses for each application and perform an analysis of the
// communication pattern". Here the tracer observes *every* access through
// the engine's access hook (not just the fault-sampled subset SPCD sees),
// builds an exact communication matrix, and derives a static placement
// with the same mapping algorithm.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "core/comm_matrix.hpp"
#include "core/mapper.hpp"
#include "sim/engine.hpp"

namespace spcd::core {

class OracleTracer {
 public:
  /// granularity_shift: region size used for the trace analysis (default
  /// 64-byte cache lines — the oracle is not limited to page granularity).
  /// time_window: same temporal filter semantics as the sharing table
  /// (0 = disabled).
  OracleTracer(std::uint32_t num_threads, unsigned granularity_shift = 6,
               util::Cycles time_window = 0);

  /// Hook this tracer into an engine (profiling run).
  void install(sim::Engine& engine);

  /// Feed one access (also usable directly, without an engine).
  void observe(std::uint32_t tid, std::uint64_t vaddr, bool write,
               util::Cycles now);

  const CommMatrix& matrix() const { return matrix_; }
  std::uint64_t accesses_seen() const { return accesses_; }

 private:
  struct Region {
    static constexpr std::uint32_t kMaxSharers = 8;
    std::uint32_t tids[kMaxSharers];
    util::Cycles stamps[kMaxSharers];
    std::uint32_t count = 0;
  };

  unsigned granularity_shift_;
  util::Cycles time_window_;
  CommMatrix matrix_;
  std::unordered_map<std::uint64_t, Region> regions_;
  std::uint64_t accesses_ = 0;
};

}  // namespace spcd::core
