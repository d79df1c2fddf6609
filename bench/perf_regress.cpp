// perf_regress — the perf-regression harness: re-runs the micro benchmark
// kernels (sharing table, matching/mapping, simulator substrate, engine
// with the oracle tracer, multi-tenant service ingest, large-machine
// mapping) with fixed seeds, reports ns/op per kernel, and emits a
// machine-readable BENCH_*.json ("spcd-bench-v1" schema).
//
// The harness is a *correctness* gate: every kernel folds its results into
// a deterministic FNV-1a checksum which must match the reference value
// recorded from the oracle-checked pre-optimization build. Any hot-path
// "optimization" that changes a result — a different partner, a different
// placement, a different finish time — flips the checksum and the harness
// exits nonzero. Performance may drift with the host; results may not.
//
// Usage:
//   perf_regress [--out FILE] [--repeats N] [--print-checksums]
//     --out FILE         write the spcd-bench-v1 JSON (default: stdout
//                        summary only)
//     --repeats N        timing repetitions per kernel, best-of (default 5)
//     --print-checksums  print the measured checksums (to record a new
//                        reference after an intentional behavior change)
// A malformed command line (unknown flag, a non-numeric or zero --repeats)
// exits 2, as in the other CLIs (util::CliArgs).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "arch/topology.hpp"
#include "bench/perf_kernels.hpp"
#include "core/comm_filter.hpp"
#include "core/comm_matrix.hpp"
#include "core/mapping_strategy.hpp"
#include "core/matching.hpp"
#include "core/oracle.hpp"
#include "core/spcd_config.hpp"
#include "core/spcd_detector.hpp"
#include "mem/address_space.hpp"
#include "mem/sharing_table.hpp"
#include "obs/json.hpp"
#include "sim/engine.hpp"
#include "sim/machine.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace {

using namespace spcd;

// Checksum/KernelResult/time_best_of live in bench/perf_kernels.hpp so
// out-of-line kernels (micro_service_throughput.cpp) share them.
using bench::Checksum;
using bench::KernelResult;
using bench::time_best_of;

// Reference checksums, recorded from the pre-optimization build (whose
// matrices/placements/finish times were oracle- and test-verified). The
// optimized hot paths must reproduce them bit for bit.
constexpr std::uint64_t kRefSharingTable = 0xf229a2e093e5b7b5ULL;
constexpr std::uint64_t kRefMatching = 0xf4f35063442d88acULL;
constexpr std::uint64_t kRefSimulator = 0xa0f3aaa4219c0e3fULL;
constexpr std::uint64_t kRefEngineOracle = 0xa061dd130d873a8bULL;

// --- kernel 1: sharing table + detector fault path ------------------------
//
// The per-fault work of the detection mechanism: record_access on a sparse
// (cache-resident) and a dense (cache-missing) region stream, the 7-sharer
// partner-extraction worst case, and the full SpcdDetector::on_fault path
// (table + communication matrix) that the engine drives on every injected
// fault.
KernelResult run_sharing_table(int repeats) {
  constexpr std::uint64_t kSparseOps = 400'000;
  constexpr std::uint64_t kDenseOps = 400'000;
  constexpr std::uint64_t kSharedOps = 200'000;
  constexpr std::uint64_t kDetectorOps = 400'000;

  KernelResult res;
  res.name = "micro_sharing_table";
  res.items = kSparseOps + kDenseOps + kSharedOps + kDetectorOps;
  res.reference = kRefSharingTable;

  Checksum sum;
  bool first = true;
  res.ns_per_op = time_best_of(repeats, res.items, [&] {
    Checksum local;
    // Sparse + dense region streams (overwrite policy, like the paper).
    for (const std::uint64_t regions : {10'000ull, 1'000'000ull}) {
      mem::SharingTable table((mem::SharingTableConfig()));
      util::Xoshiro256 rng(42);
      std::uint64_t now = 0;
      std::uint64_t partners = 0;
      const std::uint64_t ops = regions == 10'000ull ? kSparseOps : kDenseOps;
      for (std::uint64_t i = 0; i < ops; ++i) {
        const std::uint64_t vaddr = rng.below(regions) << 12;
        const auto tid = static_cast<std::uint32_t>(rng.below(32));
        const auto ev = table.record_access(vaddr, tid, ++now);
        for (std::uint32_t p = 0; p < ev.partner_count; ++p) {
          partners += ev.partners[p] + 1;
        }
      }
      local.fold(partners);
      local.fold(table.collisions());
      local.fold(table.occupied());
    }
    // Partner-extraction worst case: every access finds 7 sharers.
    {
      mem::SharingTable table((mem::SharingTableConfig()));
      for (std::uint32_t t = 0; t < 8; ++t) table.record_access(0x1000, t, t);
      std::uint64_t now = 100, partners = 0;
      std::uint32_t tid = 0;
      for (std::uint64_t i = 0; i < kSharedOps; ++i) {
        const auto ev = table.record_access(0x1000, tid = (tid + 1) % 8, ++now);
        partners += ev.partner_count;
      }
      local.fold(partners);
    }
    // Full detector fault path: table + communication matrix updates.
    {
      core::SpcdConfig config;
      config.table.time_window = 100'000;
      core::SpcdDetector detector(config, 32);
      util::Xoshiro256 rng(7);
      util::Cycles now = 0;
      for (std::uint64_t i = 0; i < kDetectorOps; ++i) {
        mem::FaultEvent ev;
        ev.vaddr = rng.below(1 << 16) << 12;
        ev.vpn = ev.vaddr >> 12;
        ev.tid = static_cast<std::uint32_t>(rng.below(32));
        ev.time = now += 50;
        detector.on_fault(ev);
      }
      local.fold(detector.matrix().total());
      local.fold(detector.communication_events());
      local.fold(detector.faults_seen());
    }
    if (first) {
      sum = local;
      first = false;
    }
  });
  res.checksum = sum.h;
  return res;
}

// --- kernel 2: matching + hierarchical mapping + filter -------------------
//
// The mapping-side hot path: Edmonds maximum-weight matching (dense random
// graphs at 32 and 64 vertices), the full hierarchical mapping on a banded
// communication matrix (32 and 64 threads), and the communication filter's
// partner scan over a mutating matrix.
KernelResult run_matching(int repeats) {
  constexpr int kMatchRounds = 60;
  constexpr int kMapRounds = 120;
  constexpr int kFilterRounds = 2'000;

  KernelResult res;
  res.name = "micro_matching";
  res.items = kMatchRounds + kMapRounds + kFilterRounds;
  res.reference = kRefMatching;

  core::MappingConfig greedy_config;
  greedy_config.strategy = "greedy";
  const auto blossom = core::make_mapping_strategy({});
  const auto greedy = core::make_mapping_strategy(greedy_config);

  Checksum sum;
  bool first = true;
  res.ns_per_op = time_best_of(repeats, res.items, [&] {
    Checksum local;
    // Edmonds on dense random graphs.
    for (const int n : {32, 64}) {
      util::Xoshiro256 rng(static_cast<std::uint64_t>(n) * 7);
      std::vector<core::WeightedEdge> edges;
      for (int i = 0; i < n; ++i) {
        for (int j = i + 1; j < n; ++j) {
          edges.push_back({i, j, static_cast<std::int64_t>(rng.below(1000))});
        }
      }
      std::uint64_t acc = 0;
      for (int round = 0; round < kMatchRounds / 2; ++round) {
        // Perturb one edge per round so the solver cannot be memoized.
        edges[static_cast<std::size_t>(round) % edges.size()].weight =
            static_cast<std::int64_t>(rng.below(1000));
        const auto mate = core::max_weight_matching(n, edges, true);
        acc += static_cast<std::uint64_t>(
            core::matching_weight(mate, edges));
        for (int v = 0; v < n; ++v) {
          acc += static_cast<std::uint64_t>(mate[static_cast<std::size_t>(v)] +
                                            1);
        }
      }
      local.fold(acc);
    }
    // Hierarchical mapping on banded matrices.
    for (const std::uint32_t n : {32u, 64u}) {
      arch::Topology topo(arch::TopologySpec{
          .sockets = 2, .cores_per_socket = n / 4, .smt_per_core = 2});
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
      for (int round = 0; round < kMapRounds / 2; ++round) {
        m.add(static_cast<std::uint32_t>(round) % (n - 1),
              static_cast<std::uint32_t>(round) % (n - 1) + 1, 25);
        const auto exact = blossom->map(m, topo);
        const auto paired = greedy->map(m, topo);
        for (std::uint32_t t = 0; t < n; ++t) {
          acc += exact.placement[t] * 3 + paired.placement[t];
        }
      }
      local.fold(acc);
    }
    // Filter partner scan over a growing matrix.
    {
      const std::uint32_t n = 64;
      core::CommMatrix m(n);
      core::CommFilter filter(n, 2, 1.5);
      util::Xoshiro256 rng(11);
      std::uint64_t acc = 0;
      for (int round = 0; round < kFilterRounds; ++round) {
        for (int i = 0; i < 16; ++i) {
          const auto a = static_cast<std::uint32_t>(rng.below(n));
          auto b = static_cast<std::uint32_t>(rng.below(n));
          if (b == a) b = (b + 1) % n;
          m.add(a, b, 1 + rng.below(8));
        }
        acc += filter.should_remap(m) ? 3u : 1u;
        acc += filter.last_changes();
      }
      local.fold(acc);
      local.fold(filter.triggers());
      local.fold(m.total());
    }
    if (first) {
      sum = local;
      first = false;
    }
  });
  res.checksum = sum.h;
  return res;
}

// --- kernel 3: simulator substrate ----------------------------------------
//
// The engine-side hot path: TLB + page-table translation and full engine op
// dispatch (caches, faults, barriers) on an 8-thread synthetic workload.
KernelResult run_simulator(int repeats) {
  constexpr std::uint64_t kTranslateOps = 1'000'000;
  constexpr std::uint64_t kEngineOpsPerThread = 60'000;
  constexpr std::uint32_t kThreads = 8;

  class Loop final : public sim::Workload {
   public:
    explicit Loop(std::uint64_t ops) : ops_(ops) {}
    std::string name() const override { return "loop"; }
    std::uint32_t num_threads() const override { return kThreads; }
    std::unique_ptr<sim::ThreadProgram> make_thread(
        std::uint32_t tid, std::uint64_t) override {
      class P final : public sim::ThreadProgram {
       public:
        P(std::uint32_t tid, std::uint64_t ops)
            : rng_(tid * 77 + 1), ops_(ops) {}
        sim::Op next() override {
          if (n_++ >= ops_) return sim::Op::finish();
          return sim::Op::access(0x100000 + rng_.below(1 << 20),
                                 rng_.chance(0.3), 4, 50);
        }

       private:
        util::Xoshiro256 rng_;
        std::uint64_t ops_, n_ = 0;
      };
      return std::make_unique<P>(tid, ops_);
    }

   private:
    std::uint64_t ops_;
  };

  KernelResult res;
  res.name = "micro_simulator";
  res.items = kTranslateOps + kEngineOpsPerThread * kThreads;
  res.reference = kRefSimulator;

  Checksum sum;
  bool first = true;
  res.ns_per_op = time_best_of(repeats, res.items, [&] {
    Checksum local;
    // Warm translation path: TLB-less page-table walks on resident pages.
    {
      mem::FrameAllocator frames(2);
      mem::AddressSpace as(frames, 12);
      util::Xoshiro256 rng(5);
      for (std::uint64_t p = 0; p < 4096; ++p) {
        (void)as.translate(p << 12, 0, 0, 0, 0);
      }
      std::uint64_t acc = 0;
      for (std::uint64_t i = 0; i < kTranslateOps; ++i) {
        acc += as.translate(rng.below(4096) << 12, 0, 0, 0, 0).frame;
      }
      local.fold(acc);
      local.fold(as.minor_faults());
    }
    // Full engine op dispatch.
    {
      sim::Machine machine(arch::dual_xeon_e5_2650());
      auto as = machine.make_address_space();
      Loop wl(kEngineOpsPerThread);
      sim::Engine engine(machine, as, wl, {0, 1, 2, 3, 4, 5, 6, 7});
      engine.run();
      local.fold(engine.finish_time());
      local.fold(engine.counters().instructions);
      local.fold(engine.counters().l2_misses);
      local.fold(engine.counters().tlb_misses);
      local.fold(engine.counters().minor_faults);
    }
    if (first) {
      sum = local;
      first = false;
    }
  });
  res.checksum = sum.h;
  return res;
}

// --- kernel 4: engine + oracle tracer ------------------------------------
//
// The oracle-profiling configuration, the heaviest per-op path a run uses:
// the full engine op dispatch with OracleTracer on the access hook, so
// every access also updates the tracer's region sharer state and
// communication matrix. The checksum folds finish time, counters and the
// oracle matrix.
KernelResult run_engine_oracle(int repeats) {
  constexpr std::uint64_t kOpsPerThread = 50'000;
  constexpr std::uint32_t kThreads = 8;

  class Loop final : public sim::Workload {
   public:
    std::string name() const override { return "loop"; }
    std::uint32_t num_threads() const override { return kThreads; }
    std::unique_ptr<sim::ThreadProgram> make_thread(
        std::uint32_t tid, std::uint64_t) override {
      class P final : public sim::ThreadProgram {
       public:
        explicit P(std::uint32_t tid) : rng_(tid * 901 + 13) {}
        sim::Op next() override {
          if (n_++ >= kOpsPerThread) return sim::Op::finish();
          return sim::Op::access(0x200000 + rng_.below(1 << 21),
                                 rng_.chance(0.25), 4, 40);
        }

       private:
        util::Xoshiro256 rng_;
        std::uint64_t n_ = 0;
      };
      return std::make_unique<P>(tid);
    }
  };

  KernelResult res;
  res.name = "micro_engine_oracle";
  res.items = kOpsPerThread * kThreads;
  res.reference = kRefEngineOracle;

  Checksum sum;
  bool first = true;
  res.ns_per_op = time_best_of(repeats, res.items, [&] {
    sim::Machine machine(arch::dual_xeon_e5_2650());
    auto as = machine.make_address_space();
    Loop wl;
    sim::Engine engine(machine, as, wl, {0, 1, 2, 3, 4, 5, 6, 7});
    core::OracleTracer tracer(kThreads, /*granularity_shift=*/6,
                              /*time_window=*/100'000);
    tracer.install(engine);
    engine.run();
    if (first) {
      first = false;
      sum.fold(engine.finish_time());
      sum.fold(engine.counters().instructions);
      sum.fold(engine.counters().l2_misses);
      sum.fold(engine.counters().invalidations);
      sum.fold(tracer.matrix().total());
      sum.fold(tracer.accesses_seen());
    }
  });
  res.checksum = sum.h;
  return res;
}

// --- output ---------------------------------------------------------------

std::string to_json(const std::vector<KernelResult>& results) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("schema").value("spcd-bench-v1");
  w.key("kernels").begin_array();
  for (const auto& r : results) {
    w.begin_object();
    w.key("name").value(r.name);
    w.key("items_per_pass").value(r.items);
    w.key("ns_per_op").value(r.ns_per_op);
    char hex[32];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(r.checksum));
    w.key("checksum").value(hex);
    w.key("checksum_ok").value(r.checksum_ok());
    for (const auto& [key, value] : r.extras) {
      w.key(key).value(value);
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str() + "\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  int repeats = 5;
  bool print_checksums = false;
  util::CliArgs args(argc, argv,
                     "usage: perf_regress [--out FILE] [--repeats N] "
                     "[--print-checksums]\n");
  while (args.next()) {
    if (args.is("--out")) {
      out_path = args.value();
    } else if (args.is("--repeats")) {
      repeats = static_cast<int>(args.u32());
      if (repeats < 1) args.fail("%s\n", "--repeats must be at least 1");
    } else if (args.is("--print-checksums")) {
      print_checksums = true;
    } else if (args.help()) {
      return 0;
    } else {
      args.unknown();
    }
  }

  std::vector<KernelResult> results;
  results.push_back(run_sharing_table(repeats));
  results.push_back(run_matching(repeats));
  results.push_back(run_simulator(repeats));
  results.push_back(run_engine_oracle(repeats));
  results.push_back(bench::run_service_throughput(repeats));
  results.push_back(bench::run_mapper_scale(repeats));

  bool ok = true;
  for (const auto& r : results) {
    std::printf("%-22s %10.2f ns/op  %s\n", r.name.c_str(), r.ns_per_op,
                r.checksum_ok() ? "ok" : "CHECKSUM MISMATCH");
    if (print_checksums) {
      std::printf("  checksum %s = 0x%016llx\n", r.name.c_str(),
                  static_cast<unsigned long long>(r.checksum));
    }
    ok = ok && r.checksum_ok();
  }

  if (!out_path.empty()) {
    std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
    if (!out || !(out << to_json(results)).flush()) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 1;
    }
    std::printf("(results written to %s)\n", out_path.c_str());
  }

  if (!ok) {
    std::fprintf(stderr,
                 "perf_regress: result drift detected — an optimization "
                 "changed a kernel's output; see CHECKSUM MISMATCH above\n");
    return 1;
  }
  return 0;
}
