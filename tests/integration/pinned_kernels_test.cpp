// Six fixed-seed kernels pin the results of the hot paths: the detection
// mechanism's per-fault work (sharing table, detector), the mapping side
// (matching, small mappings, filter), the simulator substrate, the engine
// with the oracle tracer, the service's ingest, and the mapper at 1024
// threads. Each kernel runs once and folds its results, as little-endian
// bytes, into an FNV-1a digest that must equal the constant recorded from
// the oracle- and test-verified build that introduced it. A change that
// moves any partner, placement, counter or finish time flips a digest, in
// every build type.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "arch/topology.hpp"
#include "bench/mapper_workload.hpp"
#include "core/comm_filter.hpp"
#include "core/comm_matrix.hpp"
#include "core/mapper.hpp"
#include "core/mapping_strategy.hpp"
#include "core/matching.hpp"
#include "core/oracle.hpp"
#include "core/spcd_config.hpp"
#include "core/spcd_detector.hpp"
#include "mem/address_space.hpp"
#include "mem/sharing_table.hpp"
#include "sim/engine.hpp"
#include "sim/machine.hpp"
#include "svc/driver.hpp"
#include "svc/service.hpp"
#include "util/journal.hpp"
#include "util/rng.hpp"

namespace spcd {
namespace {

class Checksum {
 public:
  void fold(std::uint64_t v) {
    for (int shift = 0; shift < 64; shift += 8) {
      bytes_ += static_cast<char>((v >> shift) & 0xffu);
    }
  }
  std::uint64_t digest() const { return util::fnv1a64(bytes_); }

 private:
  std::string bytes_;
};

/// Eight threads, each issuing `ops` 4-byte accesses to uniform addresses
/// in [base, base + span), a `write_share` of them writes, `cycles` apart.
/// Thread t draws from Xoshiro256(t * seed_mul + seed_add): the write coin,
/// then the address. The digests were recorded in that order, so the two
/// draws stay separate statements.
class RandomAccessLoop final : public sim::Workload {
 public:
  struct Params {
    std::uint64_t ops, base, span, seed_mul, seed_add;
    double write_share;
    std::uint32_t cycles;
  };
  explicit RandomAccessLoop(const Params& p) : p_(p) {}
  std::string name() const override { return "loop"; }
  std::uint32_t num_threads() const override { return 8; }
  std::unique_ptr<sim::ThreadProgram> make_thread(std::uint32_t tid,
                                                  std::uint64_t) override {
    class Program final : public sim::ThreadProgram {
     public:
      Program(const Params& p, std::uint32_t tid)
          : p_(p), rng_(tid * p.seed_mul + p.seed_add) {}
      sim::Op next() override {
        if (n_++ >= p_.ops) return sim::Op::finish();
        const bool write = rng_.chance(p_.write_share);
        const std::uint64_t vaddr = p_.base + rng_.below(p_.span);
        return sim::Op::access(vaddr, write, 4, p_.cycles);
      }

     private:
      Params p_;
      util::Xoshiro256 rng_;
      std::uint64_t n_ = 0;
    };
    return std::make_unique<Program>(p_, tid);
  }

 private:
  Params p_;
};

// The per-fault work of the detection mechanism: record_access on a sparse
// (cache-resident) and a dense (cache-missing) region stream, the 7-sharer
// partner-extraction worst case, and the full SpcdDetector::on_fault path
// (table + communication matrix) the engine drives on every injected fault.
TEST(PinnedKernelsTest, SharingTable) {
  Checksum sum;
  // Sparse + dense region streams (overwrite policy, like the paper).
  for (const std::uint64_t regions : {10'000ull, 1'000'000ull}) {
    mem::SharingTable table((mem::SharingTableConfig()));
    util::Xoshiro256 rng(42);
    std::uint64_t now = 0;
    std::uint64_t partners = 0;
    for (std::uint64_t i = 0; i < 400'000; ++i) {
      const std::uint64_t vaddr = rng.below(regions) << 12;
      const auto tid = static_cast<std::uint32_t>(rng.below(32));
      const auto ev = table.record_access(vaddr, tid, ++now);
      for (std::uint32_t p = 0; p < ev.partner_count; ++p) {
        partners += ev.partners[p] + 1;
      }
    }
    sum.fold(partners);
    sum.fold(table.collisions());
    sum.fold(table.occupied());
  }
  // Partner-extraction worst case: every access finds 7 sharers.
  {
    mem::SharingTable table((mem::SharingTableConfig()));
    for (std::uint32_t t = 0; t < 8; ++t) table.record_access(0x1000, t, t);
    std::uint64_t now = 100, partners = 0;
    std::uint32_t tid = 0;
    for (std::uint64_t i = 0; i < 200'000; ++i) {
      const auto ev = table.record_access(0x1000, tid = (tid + 1) % 8, ++now);
      partners += ev.partner_count;
    }
    sum.fold(partners);
  }
  // Full detector fault path: table + communication matrix updates.
  {
    core::SpcdConfig config;
    config.table.time_window = 100'000;
    core::SpcdDetector detector(config, 32);
    util::Xoshiro256 rng(7);
    util::Cycles now = 0;
    for (std::uint64_t i = 0; i < 400'000; ++i) {
      mem::FaultEvent ev;
      ev.vaddr = rng.below(1 << 16) << 12;
      ev.vpn = ev.vaddr >> 12;
      ev.tid = static_cast<std::uint32_t>(rng.below(32));
      ev.time = now += 50;
      detector.on_fault(ev);
    }
    sum.fold(detector.matrix().total());
    sum.fold(detector.communication_events());
    sum.fold(detector.faults_seen());
  }
  EXPECT_EQ(sum.digest(), 0xf229a2e093e5b7b5ULL);
}

// The mapping side: Edmonds maximum-weight matching (dense random graphs at
// 32 and 64 vertices), the blossom and greedy mappings of a banded matrix
// (32 and 64 threads), and the filter's partner scan over a growing matrix.
TEST(PinnedKernelsTest, Matching) {
  core::MappingConfig greedy_config;
  greedy_config.strategy = "greedy";
  const auto blossom = core::make_mapping_strategy({});
  const auto greedy = core::make_mapping_strategy(greedy_config);

  Checksum sum;
  for (const int n : {32, 64}) {
    util::Xoshiro256 rng(static_cast<std::uint64_t>(n) * 7);
    std::vector<core::WeightedEdge> edges;
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        edges.push_back({i, j, static_cast<std::int64_t>(rng.below(1000))});
      }
    }
    std::uint64_t acc = 0;
    for (int round = 0; round < 30; ++round) {
      // Perturb one edge per round so no two solves see the same graph.
      edges[static_cast<std::size_t>(round) % edges.size()].weight =
          static_cast<std::int64_t>(rng.below(1000));
      const auto mate = core::max_weight_matching(n, edges, true);
      acc += static_cast<std::uint64_t>(core::matching_weight(mate, edges));
      for (const int partner : mate) {
        acc += static_cast<std::uint64_t>(partner + 1);
      }
    }
    sum.fold(acc);
  }
  for (const std::uint32_t n : {32u, 64u}) {
    // 2 sockets of n / 4 two-way SMT cores.
    const arch::Topology topo(arch::TopologySpec{2, n / 4, 2});
    util::Xoshiro256 rng(3);
    core::CommMatrix m(n);
    for (std::uint32_t t = 0; t + 1 < n; ++t) {
      m.add(t, t + 1, 500 + rng.below(500));
    }
    for (std::uint32_t t = 0; t + 2 < n; ++t) {
      const std::uint64_t amount = rng.below(100);
      if (amount != 0) m.add(t, t + 2, amount);
    }
    std::uint64_t acc = 0;
    for (std::uint32_t round = 0; round < 60; ++round) {
      m.add(round % (n - 1), round % (n - 1) + 1, 25);
      const auto exact = blossom->map(m, topo);
      const auto paired = greedy->map(m, topo);
      for (std::uint32_t t = 0; t < n; ++t) {
        acc += exact.placement[t] * 3 + paired.placement[t];
      }
    }
    sum.fold(acc);
  }
  {
    const std::uint32_t n = 64;
    core::CommMatrix m(n);
    core::CommFilter filter(n, 2, 1.5);
    util::Xoshiro256 rng(11);
    std::uint64_t acc = 0;
    for (int round = 0; round < 2'000; ++round) {
      for (int i = 0; i < 16; ++i) {
        const auto a = static_cast<std::uint32_t>(rng.below(n));
        auto b = static_cast<std::uint32_t>(rng.below(n));
        if (b == a) b = (b + 1) % n;
        m.add(a, b, 1 + rng.below(8));
      }
      acc += filter.should_remap(m) ? 3u : 1u;
      acc += filter.last_changes();
    }
    sum.fold(acc);
    sum.fold(filter.triggers());
    sum.fold(m.total());
  }
  EXPECT_EQ(sum.digest(), 0xf4f35063442d88acULL);
}

// The simulator substrate: page-table translation of resident pages (no
// TLB), then full engine op dispatch (caches, faults) on 8 threads.
TEST(PinnedKernelsTest, Simulator) {
  Checksum sum;
  {
    mem::FrameAllocator frames(2);
    mem::AddressSpace as(frames, 12);
    util::Xoshiro256 rng(5);
    for (std::uint64_t p = 0; p < 4096; ++p) {
      (void)as.translate(p << 12, 0, 0, 0, 0);
    }
    std::uint64_t acc = 0;
    for (std::uint64_t i = 0; i < 1'000'000; ++i) {
      acc += as.translate(rng.below(4096) << 12, 0, 0, 0, 0).frame;
    }
    sum.fold(acc);
    sum.fold(as.minor_faults());
  }
  sim::Machine machine(arch::dual_xeon_e5_2650());
  auto as = machine.make_address_space();
  // 60,000 accesses per thread over 1 MiB from 0x100000, 30% writes.
  RandomAccessLoop workload({60'000, 0x100000, 1 << 20, 77, 1, 0.3, 50});
  sim::Engine engine(machine, as, workload, {0, 1, 2, 3, 4, 5, 6, 7});
  engine.run();
  sum.fold(engine.finish_time());
  sum.fold(engine.counters().instructions);
  sum.fold(engine.counters().l2_misses);
  sum.fold(engine.counters().tlb_misses);
  sum.fold(engine.counters().minor_faults);
  EXPECT_EQ(sum.digest(), 0xa0f3aaa4219c0e3fULL);
}

// The heaviest per-op path a run uses, oracle profiling: engine op dispatch
// with OracleTracer on the access hook, so every access also updates the
// tracer's region sharer state and communication matrix.
TEST(PinnedKernelsTest, EngineOracle) {
  sim::Machine machine(arch::dual_xeon_e5_2650());
  auto as = machine.make_address_space();
  // 50,000 accesses per thread over 2 MiB from 0x200000, 25% writes.
  RandomAccessLoop workload({50'000, 0x200000, 1 << 21, 901, 13, 0.25, 40});
  sim::Engine engine(machine, as, workload, {0, 1, 2, 3, 4, 5, 6, 7});
  core::OracleTracer tracer(8, /*granularity_shift=*/6,
                            /*time_window=*/100'000);
  tracer.install(engine);
  engine.run();
  Checksum sum;
  sum.fold(engine.finish_time());
  sum.fold(engine.counters().instructions);
  sum.fold(engine.counters().l2_misses);
  sum.fold(engine.counters().invalidations);
  sum.fold(tracer.matrix().total());
  sum.fold(tracer.accesses_seen());
  EXPECT_EQ(sum.digest(), 0xa061dd130d873a8bULL);
}

// The service's ingest, journal-less and in-process, at 1, 16 and 100
// tenants of 2 threads (100 overcommits 32 contexts, so every arbitration
// pays the full interference accounting). Batches of the scripted driver
// workload go round-robin: batch 0 of every tenant, then batch 1, ...
TEST(PinnedKernelsTest, ServiceIngest) {
  Checksum sum;
  for (const auto& [tenants, batches] :
       {std::pair{1u, 64u}, std::pair{16u, 8u}, std::pair{100u, 2u}}) {
    svc::ServiceConfig config;
    config.table.num_entries = 4096;  // small: capacity interference is real
    config.arbitration_interval = 8192;
    svc::SpcdService service(config);

    svc::DriverConfig driver;
    driver.tenants = tenants;
    driver.threads_per_tenant = 2;
    driver.batches_per_tenant = batches;
    driver.events_per_batch = 512;

    std::vector<std::uint32_t> ids(tenants);
    for (std::uint32_t t = 0; t < tenants; ++t) {
      const std::string name = "bench-" + std::to_string(t);
      ids[t] = service.register_tenant(name, 2).tenant_id;
    }
    std::uint64_t events = 0;
    std::uint64_t comm = 0;
    for (std::uint32_t b = 0; b < batches; ++b) {
      for (std::uint32_t t = 0; t < tenants; ++t) {
        const auto batch = svc::scripted_batch(driver, t, b);
        comm += service.ingest(ids[t], batch).comm_events;
        events += batch.size();
      }
    }
    sum.fold(events);
    sum.fold(comm);
    const core::InterferenceCounters c = service.interference();
    sum.fold(c.arbitrations);
    sum.fold(c.contexts_stolen);
    sum.fold(c.cross_tenant_core_shares);
    sum.fold(c.tenant_socket_splits);
    sum.fold(c.cross_tenant_evictions);
    sum.fold(c.thread_migrations);
    const std::vector<svc::ArbiterDecision> decisions = service.decisions();
    sum.fold(decisions.size());
    if (!decisions.empty()) sum.fold(decisions.back().digest);
  }
  EXPECT_EQ(sum.digest(), 0x7b260de620d6e02dULL);
}

// The mapper at production scale, on the clustered workload fig17 sweeps:
// one hierarchical decision for 1024 threads on the 8-socket preset, then
// one blossom decision for 256 threads on the quad-socket preset. Each
// placement is folded with its communication cost.
TEST(PinnedKernelsTest, MapperScale) {
  Checksum sum;
  const auto fold_decision = [&sum](std::uint32_t n, const char* strategy) {
    core::MappingConfig config;
    config.strategy = strategy;
    const arch::Topology topo(bench::mapper_scale_topology(n));
    const core::CommMatrix m = bench::mapper_scale_matrix(n);
    const auto placement =
        core::make_mapping_strategy(config)->map(m, topo).placement;
    for (const arch::ContextId ctx : placement) sum.fold(ctx);
    sum.fold(static_cast<std::uint64_t>(
        std::llround(core::placement_comm_cost(m, topo, placement))));
  };
  fold_decision(1024, "hierarchical");
  fold_decision(256, "blossom");
  EXPECT_EQ(sum.digest(), 0x1fb6ec90a1a6a4deULL);
}

}  // namespace
}  // namespace spcd
