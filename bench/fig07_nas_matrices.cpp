// Figure 7: communication matrices of the NAS benchmarks as detected by
// SPCD, with the heterogeneous/homogeneous classification and the accuracy
// (Pearson correlation) against the full-trace oracle matrix.
#include <cstdio>

#include "bench/pipeline.hpp"
#include "core/runner.hpp"
#include "util/heatmap.hpp"
#include "workloads/npb.hpp"

int main(int argc, char** argv) {
  using namespace spcd;

  std::vector<std::string> names;
  for (int i = 1; i < argc; ++i) names.emplace_back(argv[i]);
  if (names.empty()) {
    for (const auto& info : workloads::nas_benchmarks()) {
      names.push_back(info.name);
    }
  }
  const double scale = bench::configured_scale();

  core::RunnerConfig config;
  config.repetitions = 1;
  core::Runner runner(config);

  std::printf("Figure 7: communication matrices of the NAS benchmarks "
              "(SPCD detection)\n");

  for (const auto& name : names) {
    const auto factory = workloads::nas_factory(name, scale);
    const auto metrics =
        runner.run_once(name, factory, core::MappingPolicy::kSpcd, 0);
    const std::shared_ptr<const core::CommMatrix> detected =
        metrics.spcd_matrix;
    if (detected == nullptr) continue;

    const char* pattern = "?";
    for (const auto& info : workloads::nas_benchmarks()) {
      if (info.name == name) pattern = workloads::to_string(info.pattern);
    }

    (void)runner.oracle_placement(name, factory);  // ensure oracle matrix
    const core::CommMatrix* oracle = runner.oracle_matrix(name);
    const double accuracy =
        oracle != nullptr ? detected->correlation(*oracle) : 0.0;

    std::printf("\n%s (%s) — detected events: %llu, accuracy vs oracle "
                "(Pearson): %.3f\n%s",
                name.c_str(), pattern,
                static_cast<unsigned long long>(detected->total()), accuracy,
                util::render_heatmap(detected->as_double(), detected->size())
                    .c_str());
  }
  return 0;
}
