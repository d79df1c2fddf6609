// Dynamic-behaviour demo (the paper's Section V-B experiment as an
// application): run the phase-switching producer/consumer benchmark under
// SPCD with migration enabled and watch the mechanism (a) detect the
// neighbor pairing of phase 1, (b) migrate pairs together, and (c) react
// when the pairing flips to distant threads in phase 2.
#include <cstdio>
#include <functional>

#include "core/policy.hpp"
#include "core/spcd_kernel.hpp"
#include "sim/machine.hpp"
#include "util/cli.hpp"
#include "util/heatmap.hpp"
#include "workloads/prodcons.hpp"

int main(int argc, char** argv) {
  using namespace spcd;

  workloads::ProdConsParams params;
  params.iterations_per_phase = 30;
  params.phases = 2;
  util::CliArgs args(argc, argv,
                     "usage: prodcons_phases [iterations_per_phase] [phases]\n"
                     "  each at least 1; defaults 30 and 2\n");
  for (int operand = 0; args.next(); ++operand) {
    if (args.help()) return 0;
    if (operand > 1) args.fail("unexpected operand %s\n", args.arg().c_str());
    if (operand == 0) {
      params.iterations_per_phase = args.count_operand("iterations_per_phase");
    }
    if (operand == 1) params.phases = args.count_operand("phases");
  }
  workloads::ProducerConsumer workload(params, /*seed=*/0xBEEF);
  const std::uint32_t n = workload.num_threads();

  sim::Machine machine(arch::dual_xeon_e5_2650());
  auto as = machine.make_address_space();
  sim::Engine engine(machine, as, workload,
                     core::os_spread_placement(machine.topology(), n));

  core::SpcdConfig config;
  core::SpcdKernel kernel(config, n, /*seed=*/7);
  kernel.install(engine);

  // Narrate: report pairs-colocated and detected events periodically.
  std::printf("time[ms]  events  migrations  pairs sharing a socket "
              "(phase-1 pairing / phase-2 pairing)\n");
  std::function<void(sim::Engine&)> report = [&](sim::Engine& e) {
    const auto& topo = machine.topology();
    std::uint32_t near_pairs = 0, far_pairs = 0;
    for (std::uint32_t t = 0; t < n; t += 2) {
      if (topo.socket_of(e.placement()[t]) ==
          topo.socket_of(e.placement()[t ^ 1])) {
        ++near_pairs;
      }
    }
    for (std::uint32_t t = 0; t < n / 2; ++t) {
      if (topo.socket_of(e.placement()[t]) ==
          topo.socket_of(e.placement()[t + n / 2])) {
        ++far_pairs;
      }
    }
    std::printf("%7.2f  %6llu  %10u  %2u / %u\n",
                static_cast<double>(e.now()) / 2e6,
                static_cast<unsigned long long>(kernel.matrix().total()),
                kernel.migration_events(), near_pairs, far_pairs);
    if (e.active_threads() > 0) e.schedule(e.now() + 2'000'000, report);
  };
  engine.schedule(2'000'000, report);

  engine.run();

  std::printf("\nFinal detected communication matrix:\n%s",
              util::render_heatmap(kernel.matrix().as_double(), n).c_str());
  std::printf("\nRun finished in %.2f ms with %u migration events.\n",
              engine.exec_seconds() * 1e3, kernel.migration_events());
  return 0;
}
