// Helper base for thread programs: concrete workloads generate one outer
// iteration (typically ending in a barrier) at a time into a buffer; the
// engine consumes it op by op. Keeps per-thread memory bounded while
// letting kernels be written as straightforward loops.
#pragma once

#include <vector>

#include "sim/workload.hpp"

namespace spcd::workloads {

class BlockProgram : public sim::ThreadProgram {
 public:
  sim::Op next() final {
    while (pos_ >= block_.size()) {
      block_.clear();
      pos_ = 0;
      if (!fill(block_)) return sim::Op::finish();
    }
    // A block (thousands of ops) leaves the host's caches while the other
    // threads take their turns, so each op read would be a cache miss:
    // request the one a few slots ahead now.
    if (pos_ + kLookahead < block_.size()) {
      __builtin_prefetch(&block_[pos_ + kLookahead]);
    }
    return block_[pos_++];
  }

 protected:
  /// Emit the next batch of ops. Return false when the thread is done
  /// (`out` must then be left empty).
  virtual bool fill(std::vector<sim::Op>& out) = 0;

 private:
  static constexpr std::size_t kLookahead = 8;

  std::vector<sim::Op> block_;
  std::size_t pos_ = 0;
};

}  // namespace spcd::workloads
