#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sim/workload.hpp"

namespace spcd::sim {
namespace {

/// Scripted workload: every thread executes a fixed op list.
class ScriptedWorkload final : public Workload {
 public:
  explicit ScriptedWorkload(std::vector<std::vector<Op>> scripts)
      : scripts_(std::move(scripts)) {}

  std::string name() const override { return "scripted"; }
  std::uint32_t num_threads() const override {
    return static_cast<std::uint32_t>(scripts_.size());
  }
  std::unique_ptr<ThreadProgram> make_thread(std::uint32_t tid,
                                             std::uint64_t) override {
    class Program final : public ThreadProgram {
     public:
      explicit Program(const std::vector<Op>& ops) : ops_(ops) {}
      Op next() override {
        return pos_ < ops_.size() ? ops_[pos_++] : Op::finish();
      }

     private:
      const std::vector<Op>& ops_;
      std::size_t pos_ = 0;
    };
    return std::make_unique<Program>(scripts_[tid]);
  }

 private:
  std::vector<std::vector<Op>> scripts_;
};

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() : machine_(arch::tiny_test_machine()) {}

  Machine machine_;
};

TEST_F(EngineTest, PureComputeAdvancesClock) {
  ScriptedWorkload wl({{Op::compute(10, 1000)}});
  auto as = machine_.make_address_space();
  Engine engine(machine_, as, wl, {0});
  engine.run();
  EXPECT_EQ(engine.finish_time(), 1000u);
  EXPECT_EQ(engine.counters().instructions, 10u);
}

TEST_F(EngineTest, SmtPenaltyAppliesWhenSiblingBusy) {
  // Two threads on SMT siblings of core 0 vs. two on separate cores.
  ScriptedWorkload wl({{Op::compute(1, 1000)}, {Op::compute(1, 1000)}});
  {
    auto as = machine_.make_address_space();
    Engine siblings(machine_, as, wl, {0, 1});
    siblings.run();
    const auto penalty = machine_.spec().smt_penalty;
    EXPECT_EQ(siblings.finish_time(),
              static_cast<util::Cycles>(1000 * penalty));
  }
  {
    Machine fresh(arch::tiny_test_machine());
    auto as = fresh.make_address_space();
    Engine separate(fresh, as, wl, {0, 2});
    separate.run();
    EXPECT_EQ(separate.finish_time(), 1000u);
  }
}

TEST_F(EngineTest, AccessTakesFaultAndCachePath) {
  ScriptedWorkload wl({{Op::access(0x1000, false, 5, 0)}});
  auto as = machine_.make_address_space();
  Engine engine(machine_, as, wl, {0});
  engine.run();
  const auto& c = engine.counters();
  EXPECT_EQ(c.minor_faults, 1u);
  EXPECT_EQ(c.tlb_misses, 1u);
  EXPECT_EQ(c.dram_local + c.dram_remote, 1u);
  // Fault cost dominates the first access.
  EXPECT_GE(engine.finish_time(), machine_.spec().latency.minor_fault);
}

TEST_F(EngineTest, RepeatedAccessHitsTlbAndCache) {
  ScriptedWorkload wl({{Op::access(0x1000, false, 1, 0),
                        Op::access(0x1000, false, 1, 0),
                        Op::access(0x1000, false, 1, 0)}});
  auto as = machine_.make_address_space();
  Engine engine(machine_, as, wl, {0});
  engine.run();
  EXPECT_EQ(engine.counters().tlb_hits, 2u);
  EXPECT_EQ(engine.counters().l1_hits, 2u);
}

TEST_F(EngineTest, BarrierSynchronizesClocks) {
  // Thread 0 computes 100 cycles, thread 1 computes 5000; both then do one
  // more op. The barrier aligns them at max + barrier_cost.
  EngineConfig cfg;
  cfg.barrier_cost = 300;
  ScriptedWorkload wl({{Op::compute(1, 100), Op::barrier(),
                        Op::compute(1, 10)},
                       {Op::compute(1, 5000), Op::barrier(),
                        Op::compute(1, 10)}});
  auto as = machine_.make_address_space();
  Engine engine(machine_, as, wl, {0, 2}, cfg);
  engine.run();
  EXPECT_EQ(engine.finish_time(), 5000u + 300u + 10u);
  EXPECT_EQ(engine.counters().barrier_wait_cycles, (5000u - 100u) + 300u * 2);
}

TEST_F(EngineTest, FinishedThreadDoesNotBlockBarrier) {
  // Thread 0 finishes immediately; threads 1 and 2 use a barrier.
  ScriptedWorkload wl({{},
                       {Op::compute(1, 50), Op::barrier(), Op::compute(1, 1)},
                       {Op::compute(1, 70), Op::barrier(), Op::compute(1, 1)}});
  auto as = machine_.make_address_space();
  Engine engine(machine_, as, wl, {0, 2, 4});
  engine.run();
  EXPECT_FALSE(engine.timed_out());
  EXPECT_GT(engine.finish_time(), 70u);
}

TEST_F(EngineTest, ScheduledEventsRunInOrder) {
  ScriptedWorkload wl({{Op::compute(1, 10000)}});
  auto as = machine_.make_address_space();
  Engine engine(machine_, as, wl, {0});
  std::vector<int> order;
  engine.schedule(5000, [&order](Engine&) { order.push_back(2); });
  engine.schedule(1000, [&order](Engine&) { order.push_back(1); });
  engine.schedule(9000, [&order](Engine&) { order.push_back(3); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST_F(EngineTest, EventsCanReschedule) {
  ScriptedWorkload wl({{Op::compute(1, 100000)}});
  auto as = machine_.make_address_space();
  Engine engine(machine_, as, wl, {0});
  int ticks = 0;
  std::function<void(Engine&)> periodic = [&](Engine& e) {
    ++ticks;
    if (ticks < 5) e.schedule(e.now() + 10000, periodic);
  };
  engine.schedule(10000, periodic);
  engine.run();
  EXPECT_EQ(ticks, 5);
}

TEST_F(EngineTest, MigrationSwapsOccupants) {
  ScriptedWorkload wl({{Op::compute(1, 100000)}, {Op::compute(1, 100000)}});
  auto as = machine_.make_address_space();
  Engine engine(machine_, as, wl, {0, 2});
  engine.schedule(1000, [](Engine& e) { e.migrate(0, 2); });
  engine.run();
  EXPECT_EQ(engine.placement()[0], 2u);
  EXPECT_EQ(engine.placement()[1], 0u);
  EXPECT_EQ(engine.counters().thread_migrations, 2u);
  // Both threads paid the migration cost on top of their compute.
  EXPECT_GT(engine.finish_time(),
            100000u + machine_.spec().latency.migration / 2);
}

TEST_F(EngineTest, MigrationToFreeContextMovesOnly) {
  ScriptedWorkload wl({{Op::compute(1, 100000)}});
  auto as = machine_.make_address_space();
  Engine engine(machine_, as, wl, {0});
  engine.schedule(1000, [](Engine& e) { e.migrate(0, 5); });
  engine.run();
  EXPECT_EQ(engine.placement()[0], 5u);
  EXPECT_EQ(engine.counters().thread_migrations, 1u);
  // After the run every context is free again (the thread finished on 5).
  EXPECT_EQ(engine.thread_on(0), Engine::kNoThread);
  EXPECT_EQ(engine.thread_on(5), Engine::kNoThread);
}

TEST_F(EngineTest, ChargeDetectionAndMappingAreAccounted) {
  ScriptedWorkload wl({{Op::compute(1, 100000)}});
  auto as = machine_.make_address_space();
  Engine engine(machine_, as, wl, {0});
  engine.schedule(100, [](Engine& e) {
    e.charge_detection(500, 0);
    e.charge_mapping(200, 0);
  });
  engine.run();
  EXPECT_EQ(engine.counters().spcd_detection_cycles, 500u);
  EXPECT_EQ(engine.counters().mapping_cycles, 200u);
  EXPECT_EQ(engine.finish_time(), 100000u + 700u);
}

TEST_F(EngineTest, AccessHookSeesEveryAccess) {
  ScriptedWorkload wl({{Op::access(0x1000, true, 1, 0),
                        Op::access(0x2040, false, 1, 0)}});
  auto as = machine_.make_address_space();
  Engine engine(machine_, as, wl, {0});
  std::vector<std::uint64_t> seen;
  std::vector<bool> writes;
  engine.set_access_hook([&](ThreadId, std::uint64_t vaddr, bool w,
                             util::Cycles) {
    seen.push_back(vaddr);
    writes.push_back(w);
  });
  engine.run();
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{0x1000, 0x2040}));
  EXPECT_EQ(writes, (std::vector<bool>{true, false}));
}

TEST_F(EngineTest, TimeoutStopsRunawayWorkload) {
  // A program that never finishes.
  class Endless final : public Workload {
   public:
    std::string name() const override { return "endless"; }
    std::uint32_t num_threads() const override { return 1; }
    std::unique_ptr<ThreadProgram> make_thread(std::uint32_t,
                                               std::uint64_t) override {
      class P final : public ThreadProgram {
       public:
        Op next() override { return Op::compute(1, 100); }
      };
      return std::make_unique<P>();
    }
  };
  Endless wl;
  auto as = machine_.make_address_space();
  EngineConfig cfg;
  cfg.max_cycles = 50000;
  Engine engine(machine_, as, wl, {0}, cfg);
  engine.run();
  EXPECT_TRUE(engine.timed_out());
}

TEST_F(EngineTest, DeterministicAcrossRuns) {
  auto make_wl = [] {
    std::vector<std::vector<Op>> scripts(4);
    for (std::uint32_t t = 0; t < 4; ++t) {
      for (int i = 0; i < 200; ++i) {
        scripts[t].push_back(
            Op::access(0x1000 * (t + 1) + static_cast<std::uint64_t>(i) * 64,
                       i % 3 == 0, 2, 20));
      }
      scripts[t].push_back(Op::barrier());
      scripts[t].push_back(Op::compute(1, 10));
    }
    return ScriptedWorkload(std::move(scripts));
  };
  util::Cycles t1, t2;
  std::uint64_t i1, i2;
  {
    Machine m(arch::tiny_test_machine());
    auto as = m.make_address_space();
    auto wl = make_wl();
    Engine e(m, as, wl, {0, 2, 4, 6});
    e.run();
    t1 = e.finish_time();
    i1 = e.counters().l2_misses;
  }
  {
    Machine m(arch::tiny_test_machine());
    auto as = m.make_address_space();
    auto wl = make_wl();
    Engine e(m, as, wl, {0, 2, 4, 6});
    e.run();
    t2 = e.finish_time();
    i2 = e.counters().l2_misses;
  }
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(i1, i2);
}

TEST_F(EngineTest, PlacementAffectsSharingLatency) {
  // Two threads ping-pong on one page: co-located on a core they share L1;
  // across sockets every exchange crosses the chip boundary.
  auto make_wl = [] {
    std::vector<std::vector<Op>> scripts(2);
    for (std::uint32_t t = 0; t < 2; ++t) {
      for (std::uint64_t i = 0; i < 500; ++i) {
        scripts[t].push_back(Op::access(0x5000 + (i % 8) * 64, t == 0, 1, 5));
      }
    }
    return ScriptedWorkload(std::move(scripts));
  };
  util::Cycles near_time, far_time;
  {
    Machine m(arch::tiny_test_machine());
    auto as = m.make_address_space();
    auto wl = make_wl();
    Engine e(m, as, wl, {0, 1});  // SMT siblings
    e.run();
    near_time = e.finish_time();
  }
  {
    Machine m(arch::tiny_test_machine());
    auto as = m.make_address_space();
    auto wl = make_wl();
    Engine e(m, as, wl, {0, 4});  // different sockets
    e.run();
    far_time = e.finish_time();
  }
  EXPECT_LT(near_time, far_time);
}

TEST_F(EngineTest, DeathOnNonInjectivePlacement) {
  ScriptedWorkload wl({{}, {}});
  auto as = machine_.make_address_space();
  EXPECT_DEATH(Engine(machine_, as, wl, {3, 3}), "Precondition");
}

}  // namespace
}  // namespace spcd::sim
