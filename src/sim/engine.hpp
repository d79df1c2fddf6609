// Execution engine: interleaves the workload's threads over the machine's
// hardware contexts, advancing per-thread cycle clocks by the latency of
// each operation. Threads are executed in smallest-local-time order
// (min-heap), which yields realistic interleavings for the coherence model
// without a global lock-step. The running thread stays at the heap's root
// and is re-keyed in place when it yields (see run()).
//
// The engine also hosts "kernel" activity on the same clock:
//   * scheduled events (the SPCD injector's periodic wake-ups, the mapping
//     analysis, the OS load balancer) run when simulated time reaches them,
//   * thread migration reassigns a thread to a different hardware context
//     (swapping with the current occupant) and charges the migration cost,
//   * detection/mapping overhead cycles are accounted separately so the
//     harness can reproduce the paper's Figure 16.
//
// Kernel modules act only through scheduled events and fault observers
// (the SPCD detector does its work inside each fault).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "mem/address_space.hpp"
#include "sim/machine.hpp"
#include "sim/perf_counters.hpp"
#include "sim/workload.hpp"
#include "util/units.hpp"

namespace spcd::sim {

using ThreadId = std::uint32_t;
/// Placement of software threads onto hardware contexts (tid -> ctx).
/// Must be injective.
using Placement = std::vector<arch::ContextId>;

struct EngineConfig {
  /// Safety stop: abort the run if simulated time passes this.
  util::Cycles max_cycles = 1ULL << 40;
  /// Cost of a barrier episode, added after the last arrival.
  std::uint32_t barrier_cost = 300;
};

class Engine {
 public:
  Engine(Machine& machine, mem::AddressSpace& address_space,
         Workload& workload, Placement placement, EngineConfig config = {});

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Schedule a kernel event at absolute simulated time `when` (events in
  /// the past run immediately at the current time). Events may reschedule
  /// themselves to build periodic activity.
  void schedule(util::Cycles when, std::function<void(Engine&)> fn);

  /// Run the workload to completion (all threads finished).
  void run();

  // --- results ---
  /// Completion time of the last thread, in cycles.
  util::Cycles finish_time() const { return finish_time_; }
  double exec_seconds() const {
    return util::cycles_to_seconds(finish_time_, machine_.spec().freq_hz);
  }
  PerfCounters& counters() { return machine_.hierarchy().counters(); }
  const PerfCounters& counters() const {
    return machine_.hierarchy().counters();
  }
  bool timed_out() const { return timed_out_; }

  // --- services for kernel modules (SPCD, schedulers) ---
  Machine& machine() { return machine_; }
  mem::AddressSpace& address_space() { return as_; }
  const Placement& placement() const { return placement_; }
  std::uint32_t num_threads() const {
    return static_cast<std::uint32_t>(threads_.size());
  }
  std::uint32_t active_threads() const { return active_threads_; }
  util::Cycles now() const { return now_; }

  /// Move a thread to a context; if occupied, the occupant is swapped onto
  /// the thread's old context. Both movers pay the migration latency.
  void migrate(ThreadId tid, arch::ContextId new_ctx);

  /// Charge extra cycles to a thread (kernel preemption, IPIs, ...).
  void charge_thread(ThreadId tid, util::Cycles cycles);

  /// Account cycles as SPCD communication-detection overhead. If
  /// `victim_tid` is valid the cycles also stall that thread.
  void charge_detection(util::Cycles cycles, ThreadId victim_tid);

  /// Account cycles as mapping overhead (filter + matching + migration).
  void charge_mapping(util::Cycles cycles, ThreadId victim_tid);

  static constexpr ThreadId kNoThread = ~0u;
  ThreadId thread_on(arch::ContextId ctx) const { return ctx_thread_[ctx]; }

  /// True once the thread has executed its finish op. A finished thread's
  /// placement entry is historical: its context may be reused by
  /// migrations of still-running threads.
  bool thread_finished(ThreadId tid) const;

  /// Observe every memory access (tid, virtual address, is-write, thread
  /// clock). Used by the oracle tracer, which — like the paper's
  /// Simics-based oracle — sees the full access stream rather than the
  /// fault-sampled subset SPCD sees. Costs nothing in simulated time.
  using AccessHook =
      std::function<void(ThreadId, std::uint64_t, bool, util::Cycles)>;
  void set_access_hook(AccessHook hook) { access_hook_ = std::move(hook); }

 private:
  enum class ThreadState : std::uint8_t { kRunnable, kAtBarrier, kFinished };

  struct Thread {
    std::unique_ptr<ThreadProgram> program;
    util::Cycles time = 0;
    util::Cycles pending_charge = 0;
    ThreadState state = ThreadState::kRunnable;
  };

  /// Keys are unique (one entry per thread), so the pop order is the same
  /// for any valid heap layout.
  struct HeapEntry {
    util::Cycles time;
    ThreadId tid;
    bool operator>(const HeapEntry& o) const {
      return time != o.time ? time > o.time : tid > o.tid;
    }
  };

  struct Event {
    util::Cycles time;
    std::uint64_t seq;
    std::function<void(Engine&)> fn;
  };
  struct EventLater {
    bool operator()(const Event& a, const Event& b) const {
      return a.time != b.time ? a.time > b.time : a.seq > b.seq;
    }
  };

  void execute_op(ThreadId tid, const Op& op);

  // Min-heap of runnable threads in heap_ (std::greater order).
  void heap_push(HeapEntry entry);
  void heap_pop_root();
  /// Give the root a later time and sift it down to its place.
  void heap_rekey_root(util::Cycles time);
  /// Earliest time of any runnable thread but the root's (its smaller
  /// child), or ~0 when the root is alone.
  util::Cycles heap_runner_up_time() const;

  void arrive_at_barrier(ThreadId tid);
  void finish_thread(ThreadId tid);
  void maybe_release_barrier();
  bool smt_sibling_busy(arch::ContextId ctx) const;

  Machine& machine_;
  mem::AddressSpace& as_;
  EngineConfig config_;
  Placement placement_;
  std::vector<ThreadId> ctx_thread_;       // ctx -> tid (kNoThread if idle)
  std::vector<std::uint32_t> core_active_; // running threads per core

  std::vector<Thread> threads_;
  std::vector<HeapEntry> heap_;
  std::priority_queue<Event, std::vector<Event>, EventLater> events_;
  std::uint64_t event_seq_ = 0;

  std::uint32_t active_threads_ = 0;
  std::uint32_t barrier_waiting_ = 0;
  std::vector<util::Cycles> barrier_arrival_;

  AccessHook access_hook_;
  util::Cycles now_ = 0;
  util::Cycles finish_time_ = 0;
  bool timed_out_ = false;
  // Fixed-point SMT penalty (x256) to avoid per-op float math.
  std::uint32_t smt_penalty_x256_;
};

}  // namespace spcd::sim
