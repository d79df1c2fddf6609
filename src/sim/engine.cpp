#include "sim/engine.hpp"

#include <algorithm>

#include "obs/trace.hpp"
#include "util/contracts.hpp"

namespace spcd::sim {

Engine::Engine(Machine& machine, mem::AddressSpace& address_space,
               Workload& workload, Placement placement, EngineConfig config)
    : machine_(machine),
      as_(address_space),
      config_(config),
      placement_(std::move(placement)),
      smt_penalty_x256_(
          static_cast<std::uint32_t>(machine.spec().smt_penalty * 256.0)) {
  const std::uint32_t n = workload.num_threads();
  SPCD_EXPECTS(placement_.size() == n);
  SPCD_EXPECTS(n >= 1);
  SPCD_EXPECTS(n <= machine_.topology().num_contexts());

  ctx_thread_.assign(machine_.topology().num_contexts(), kNoThread);
  core_active_.assign(machine_.topology().num_cores(), 0);
  barrier_arrival_.assign(n, 0);

  threads_.resize(n);
  for (ThreadId tid = 0; tid < n; ++tid) {
    const arch::ContextId ctx = placement_[tid];
    SPCD_EXPECTS(ctx < machine_.topology().num_contexts());
    SPCD_EXPECTS(ctx_thread_[ctx] == kNoThread);  // injective placement
    ctx_thread_[ctx] = tid;
    ++core_active_[machine_.topology().core_of(ctx)];
    threads_[tid].program = workload.make_thread(tid, /*seed=*/tid);
    SPCD_EXPECTS(threads_[tid].program != nullptr);
    heap_push(HeapEntry{0, tid});
  }
  active_threads_ = n;
}

void Engine::heap_push(HeapEntry entry) {
  heap_.push_back(entry);
  std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
}

void Engine::heap_pop_root() {
  std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
  heap_.pop_back();
}

void Engine::heap_rekey_root(util::Cycles time) {
  const HeapEntry entry{time, heap_.front().tid};
  const std::size_t n = heap_.size();
  std::size_t hole = 0;
  for (std::size_t child = 1; child < n; child = 2 * hole + 1) {
    if (child + 1 < n && heap_[child] > heap_[child + 1]) ++child;
    if (!(entry > heap_[child])) break;
    heap_[hole] = heap_[child];
    hole = child;
  }
  heap_[hole] = entry;
}

util::Cycles Engine::heap_runner_up_time() const {
  if (heap_.size() < 2) return ~0ULL;
  if (heap_.size() == 2) return heap_[1].time;
  return std::min(heap_[1].time, heap_[2].time);
}

void Engine::schedule(util::Cycles when, std::function<void(Engine&)> fn) {
  events_.push(Event{std::max(when, now_), event_seq_++, std::move(fn)});
}

bool Engine::smt_sibling_busy(arch::ContextId ctx) const {
  return core_active_[machine_.topology().core_of(ctx)] > 1;
}

void Engine::execute_op(ThreadId tid, const Op& op) {
  Thread& t = threads_[tid];
  const arch::ContextId ctx = placement_[tid];

  util::Cycles cost = 0;
  if (op.kind == OpKind::kAccess) {
    const std::uint64_t vpn = as_.vpn_of(op.vaddr);
    PerfCounters& c = counters();
    std::uint64_t frame;
    if (machine_.tlb(ctx).probe(vpn)) {
      ++c.tlb_hits;
      const mem::Pte* entry = as_.page_table().walk(vpn);
      SPCD_ASSERT(entry != nullptr && mem::pte::is_present(*entry));
      frame = mem::pte::frame_of(*entry);
    } else {
      ++c.tlb_misses;
      cost += machine_.spec().latency.tlb_walk;
      const auto socket = machine_.topology().socket_of(ctx);
      const auto tr = as_.translate(op.vaddr, tid, ctx, socket, t.time);
      frame = tr.frame;
      if (tr.fault.has_value()) {
        if (*tr.fault == mem::FaultKind::kInjected) {
          ++c.injected_faults;
          const util::Cycles fault_cost =
              machine_.spec().latency.injected_fault + tr.observer_cycles;
          cost += fault_cost;
          // Injected faults exist only because of SPCD: their entire cost is
          // detection overhead.
          c.spcd_detection_cycles += fault_cost;
        } else {
          ++c.minor_faults;
          cost += machine_.spec().latency.minor_fault + tr.observer_cycles;
          // The base fault would happen anyway; only the hook is overhead.
          c.spcd_detection_cycles += tr.observer_cycles;
        }
      }
      machine_.tlb(ctx).insert(vpn);
    }
    const std::uint64_t line = machine_.line_of(frame, op.vaddr);
    const std::uint32_t home = mem::FrameAllocator::node_of(frame);
    cost += machine_.hierarchy().access(ctx, line, op.write, home, t.time);
    if (access_hook_) access_hook_(tid, op.vaddr, op.write, t.time);
  }

  std::uint64_t compute = op.cycles;
  if (compute != 0 && smt_sibling_busy(ctx)) {
    compute = (compute * smt_penalty_x256_) >> 8;
  }
  cost += compute;

  t.time += cost;
  PerfCounters& c = counters();
  c.busy_cycles += cost;
  c.instructions += op.insns;
}

void Engine::arrive_at_barrier(ThreadId tid) {
  Thread& t = threads_[tid];
  t.state = ThreadState::kAtBarrier;
  barrier_arrival_[tid] = t.time;
  ++barrier_waiting_;
  maybe_release_barrier();
}

void Engine::finish_thread(ThreadId tid) {
  Thread& t = threads_[tid];
  t.state = ThreadState::kFinished;
  finish_time_ = std::max(finish_time_, t.time);
  obs::trace_instant("engine", "thread_finish", t.time, {"tid", tid});
  const arch::ContextId ctx = placement_[tid];
  ctx_thread_[ctx] = kNoThread;
  --core_active_[machine_.topology().core_of(ctx)];
  --active_threads_;
  // A finished thread no longer participates in barriers; the remaining
  // waiters may now be complete.
  maybe_release_barrier();
}

void Engine::maybe_release_barrier() {
  if (barrier_waiting_ == 0 || barrier_waiting_ != active_threads_) return;
  util::Cycles release = 0;
  for (ThreadId tid = 0; tid < threads_.size(); ++tid) {
    if (threads_[tid].state == ThreadState::kAtBarrier) {
      release = std::max(release, barrier_arrival_[tid]);
    }
  }
  release += config_.barrier_cost;
  // A barrier release is the engine-level phase boundary: every runnable
  // thread synchronizes here, so per-phase behavior changes show up as
  // between-release deltas in the trace.
  obs::trace_instant("engine", "barrier_release", release,
                     {"waiting", barrier_waiting_});
  PerfCounters& c = counters();
  for (ThreadId tid = 0; tid < threads_.size(); ++tid) {
    Thread& t = threads_[tid];
    if (t.state != ThreadState::kAtBarrier) continue;
    c.barrier_wait_cycles += release - barrier_arrival_[tid];
    t.time = release;
    t.state = ThreadState::kRunnable;
    heap_push(HeapEntry{t.time, tid});
  }
  barrier_waiting_ = 0;
}

void Engine::migrate(ThreadId tid, arch::ContextId new_ctx) {
  SPCD_EXPECTS(tid < threads_.size());
  SPCD_EXPECTS(new_ctx < machine_.topology().num_contexts());
  const arch::ContextId old_ctx = placement_[tid];
  if (old_ctx == new_ctx) return;
  if (threads_[tid].state == ThreadState::kFinished) return;

  const auto& topo = machine_.topology();
  const ThreadId occupant = ctx_thread_[new_ctx];
  const std::uint32_t cost = machine_.spec().latency.migration;
  PerfCounters& c = counters();

  if (occupant != kNoThread) {
    // Swap: the occupant moves to the vacated context.
    placement_[occupant] = old_ctx;
    ctx_thread_[old_ctx] = occupant;
    charge_thread(occupant, cost);
    ++c.thread_migrations;
  } else {
    ctx_thread_[old_ctx] = kNoThread;
    --core_active_[topo.core_of(old_ctx)];
    ++core_active_[topo.core_of(new_ctx)];
  }
  placement_[tid] = new_ctx;
  ctx_thread_[new_ctx] = tid;
  charge_thread(tid, cost);
  ++c.thread_migrations;
  obs::trace_instant("engine", "migrate", now_, {"tid", tid},
                     {"ctx", new_ctx});
}

bool Engine::thread_finished(ThreadId tid) const {
  SPCD_EXPECTS(tid < threads_.size());
  return threads_[tid].state == ThreadState::kFinished;
}

void Engine::charge_thread(ThreadId tid, util::Cycles cycles) {
  SPCD_EXPECTS(tid < threads_.size());
  Thread& t = threads_[tid];
  if (t.state == ThreadState::kFinished) return;
  t.pending_charge += cycles;
  counters().busy_cycles += cycles;
}

void Engine::charge_detection(util::Cycles cycles, ThreadId victim_tid) {
  counters().spcd_detection_cycles += cycles;
  if (victim_tid < threads_.size()) charge_thread(victim_tid, cycles);
}

void Engine::charge_mapping(util::Cycles cycles, ThreadId victim_tid) {
  counters().mapping_cycles += cycles;
  if (victim_tid < threads_.size()) charge_thread(victim_tid, cycles);
}

void Engine::run() {
  // The earliest thread runs from the heap's root without leaving it. While
  // it runs, the root's key is stale (nothing reads it); when the thread
  // yields, the root is re-keyed with one sift-down instead of a pop and a
  // push. The thread leaves the heap only at a barrier or its finish.
  while (!heap_.empty()) {
    // Kernel events due before the next thread step run first.
    if (!events_.empty() && events_.top().time <= heap_.front().time) {
      // The queue is not stable under in-callback scheduling; copy out.
      Event ev = events_.top();
      events_.pop();
      now_ = std::max(now_, ev.time);
      ev.fn(*this);
      continue;
    }

    const ThreadId tid = heap_.front().tid;
    Thread& t = threads_[tid];
    SPCD_ASSERT(t.state == ThreadState::kRunnable);
    now_ = std::max(now_, t.time);

    if (t.pending_charge != 0) {
      t.time += t.pending_charge;
      t.pending_charge = 0;
      // Re-sort if the thread is no longer the minimum.
      if (t.time > heap_runner_up_time()) {
        heap_rekey_root(t.time);
        continue;
      }
    }

    if (t.time > config_.max_cycles) {
      timed_out_ = true;
      finish_time_ = std::max(finish_time_, t.time);
      break;
    }

    // Execute ops while this thread remains the globally earliest and no
    // kernel event is due, bounded to keep event latency low.
    const util::Cycles event_limit =
        events_.empty() ? ~0ULL : events_.top().time;
    const util::Cycles limit = std::min(heap_runner_up_time(), event_limit);

    for (int batch = 0; batch < 64; ++batch) {
      const Op op = t.program->next();
      if (op.kind == OpKind::kBarrier) {
        heap_pop_root();
        arrive_at_barrier(tid);
        break;
      }
      if (op.kind == OpKind::kFinish) {
        heap_pop_root();
        finish_thread(tid);
        break;
      }
      execute_op(tid, op);
      if (t.time > limit || t.pending_charge != 0 || batch == 63) {
        heap_rekey_root(t.time);
        break;
      }
    }
  }
  obs::trace_instant("engine", "run_end", finish_time_,
                     {"timed_out", timed_out_ ? 1u : 0u});
}

}  // namespace spcd::sim
