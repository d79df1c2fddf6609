// Figures 5 & 6: the producer/consumer microbenchmark. The benchmark
// alternates two pairing phases (neighbors, then distant threads); this
// harness runs it under SPCD and prints the communication matrices SPCD
// detected during phase 1, during phase 2, at a phase transition, and
// accumulated over the whole run ("what a static detection would see") —
// the four panels of the paper's Figure 6.
#include <cstdio>
#include <optional>

#include "bench/pipeline.hpp"
#include "core/os_scheduler.hpp"
#include "core/policy.hpp"
#include "core/spcd_kernel.hpp"
#include "sim/machine.hpp"
#include "util/heatmap.hpp"
#include "workloads/prodcons.hpp"

int main() {
  using namespace spcd;

  const double scale = bench::configured_scale();
  workloads::ProdConsParams params;
  params.iterations_per_phase =
      static_cast<std::uint32_t>(30 * scale) ? static_cast<std::uint32_t>(
                                                   30 * scale)
                                             : 1u;
  workloads::ProducerConsumer workload(params, /*seed=*/0xFACE);
  const std::uint32_t n = workload.num_threads();

  sim::Machine machine(arch::dual_xeon_e5_2650());
  auto as = machine.make_address_space();
  sim::Engine engine(machine, as, workload,
                     core::os_spread_placement(machine.topology(), n));

  core::SpcdConfig config;  // detection only: keep every phase's placement
  config.enable_migration = false;
  core::SpcdKernel kernel(config, n, /*seed=*/1);
  kernel.install(engine);

  // Snapshot the matrix periodically (cheap triangle captures); phases are
  // later identified by the known iteration structure (equal-length phases).
  struct TimedSnapshot {
    util::Cycles time;
    core::CommMatrix::Snapshot matrix;
  };
  std::vector<TimedSnapshot> snapshots;
  const util::Cycles snap_period = 500'000;
  std::function<void(sim::Engine&)> snap = [&](sim::Engine& e) {
    snapshots.push_back(TimedSnapshot{e.now(), kernel.matrix().snapshot()});
    if (e.active_threads() > 0) e.schedule(e.now() + snap_period, snap);
  };
  engine.schedule(snap_period, snap);
  engine.run();

  if (snapshots.size() < 8) {
    std::fprintf(stderr, "run too short for phase analysis\n");
    return 1;
  }

  // The run holds `phases` equal phases; carve matrix diffs accordingly.
  const util::Cycles total = engine.finish_time();
  auto matrix_between = [&](double from_frac,
                            double to_frac) -> core::CommMatrix {
    const auto from_time = static_cast<util::Cycles>(
        from_frac * static_cast<double>(total));
    const auto to_time =
        static_cast<util::Cycles>(to_frac * static_cast<double>(total));
    std::optional<core::CommMatrix::Snapshot> from, to;
    for (const auto& s : snapshots) {
      if (s.time <= from_time) from = s.matrix;
      if (s.time <= to_time) to = s.matrix;
    }
    if (!to) to = kernel.matrix().snapshot();
    if (!from) from = core::CommMatrix(n).snapshot();
    return core::CommMatrix(*to).since(*from);
  };

  const double phase_frac = 1.0 / params.phases;
  util::HeatmapOptions opts;

  std::printf("Figure 6: communication matrices of the producer/consumer "
              "benchmark\n(darker = more communication; thread ids on both "
              "axes)\n");

  std::printf("\n(a) Phase 1 — neighboring threads communicate:\n%s",
              util::render_heatmap(
                  matrix_between(0.05, 0.9 * phase_frac).as_double(), n,
                  opts).c_str());

  std::printf("\n(b) Phase 2 — distant threads communicate:\n%s",
              util::render_heatmap(
                  matrix_between(1.1 * phase_frac, 1.9 * phase_frac)
                      .as_double(),
                  n, opts).c_str());

  std::printf("\n(c) Transition between the phases:\n%s",
              util::render_heatmap(
                  matrix_between(0.8 * phase_frac, 1.2 * phase_frac)
                      .as_double(),
                  n, opts).c_str());

  std::printf("\n(d) Overall pattern (what a static detection would see):\n%s",
              util::render_heatmap(kernel.matrix().as_double(), n,
                                   opts).c_str());

  // Quantitative check of the phase structure: in phase 1 the strongest
  // partners are neighbors; in phase 2 they are n/2 apart.
  const auto phase1 = matrix_between(0.05, 0.9 * phase_frac);
  const auto phase2 = matrix_between(1.1 * phase_frac, 1.9 * phase_frac);
  std::uint32_t phase1_ok = 0, phase2_ok = 0;
  for (std::uint32_t t = 0; t < n; ++t) {
    if (phase1.partner_of(t) == static_cast<std::int32_t>(t ^ 1u)) {
      ++phase1_ok;
    }
    if (phase2.partner_of(t) ==
        static_cast<std::int32_t>((t + n / 2) % n)) {
      ++phase2_ok;
    }
  }
  std::printf("\nDetected dynamic behaviour: phase-1 partners correct for "
              "%u/%u threads, phase-2 partners correct for %u/%u threads\n",
              phase1_ok, n, phase2_ok, n);
  return 0;
}
