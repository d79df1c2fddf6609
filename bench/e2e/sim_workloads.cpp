// The simulator half: `grid` (the Fig. 8 experiment grid, cell-parallel)
// and `cell_serial` (two single cells, one job), plus the runner and cell
// layer census of the traced run.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>

#include "bench/e2e/harness.hpp"
#include "bench/pipeline.hpp"
#include "core/mapping_strategy.hpp"
#include "core/policy.hpp"
#include "core/runner.hpp"
#include "core/spcd_kernel.hpp"
#include "sim/engine.hpp"
#include "sim/machine.hpp"
#include "util/journal.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workloads/npb.hpp"

namespace spcd::e2e {

namespace {

// The pipeline's dispatch order (bench, then policy, then repetition).
constexpr core::MappingPolicy kPolicies[] = {
    core::MappingPolicy::kOs, core::MappingPolicy::kRandom,
    core::MappingPolicy::kOracle, core::MappingPolicy::kSpcd};

// grid: the committed reference cache's shape (r2, s0.05).
constexpr std::uint32_t kGridReps = 2;
constexpr double kGridScale = 0.05;
// cell_serial: sp (neighbour sharing, remaps) and ft (all-to-all, little
// to remap) under SPCD at full scale, one repetition, one job.
const char* const kCellBenches[] = {"sp", "ft"};
constexpr double kCellScale = 1.0;

// Nominal pass length on the reference host (4 cores); with --seconds it
// fixes the number of passes, so a run measures the same work on every
// commit it is compared across.
constexpr double kSimPassSeconds = 5.0;
// The host-speed correction both simulator workloads apply (Calibration).
constexpr double kSimHostSensitivity = 0.5;
// Repeats of the isolated mapping call in the census (median taken).
constexpr int kMapRepeats = 3;
// The salt run_once adds to a cell's seed for its SPCD kernel (private
// to core/runner.cpp). The census mirrors it so that its SPCD run is the
// traced pass's cell, and checks that it is: a drift fails the census
// gate instead of skewing the decomposition.
constexpr std::uint64_t kRunOnceKernelSalt = 0x5bcd;

// cell_serial's folded RunMetrics digest (FNV-1a over the serialized
// rows of sp then ft) at the default seed and full scale, recorded from
// the build this benchmark was introduced in. Like perf_regress's
// checksums, it only changes when simulated behaviour does.
constexpr std::uint64_t kCellSerialDigest = 0x48b8d86719a9b347ULL;

int pass_count(const Options& opt) {
  if (opt.trace) return 1;
  if (opt.smoke) return 2;  // enough for the pass-identity gates
  return std::max(2, static_cast<int>(std::lround(opt.seconds /
                                                  kSimPassSeconds)));
}

double grid_scale(const Options& opt) {
  return opt.smoke ? kGridScale / kSmokeDivisor : kGridScale;
}

core::RunnerConfig runner_config(std::uint64_t seed, std::uint32_t reps) {
  core::RunnerConfig config;
  config.repetitions = reps;
  config.base_seed = seed;
  config.jobs = 1;
  config.trace = obs::TraceConfig{};  // sim-time tracing off
  return config;
}

std::string cell_name(const std::string& bench, core::MappingPolicy policy,
                      std::uint32_t rep) {
  return bench + "/" + core::to_string(policy) + "/rep" + std::to_string(rep);
}

void set_common_e2e(Outcome& out, const Calibration& cal,
                    const std::vector<double>& setup,
                    const std::vector<double>& wall,
                    const std::vector<double>& throughput,
                    const std::vector<double>& latency_s) {
  out.set_median("setup_s", cal.times(setup), "s");
  out.set_median("wall_s", cal.times(wall), "s");
  out.set_median("throughput_per_s", cal.rates(throughput), "1/s");
  out.set_latency(cal.times(latency_s));
  out.set("peak_rss_mb", self_peak_rss_mb(), "MB");
}

/// What a run constructs before its first cell (a Runner, the workload
/// factories, and a pool of `workers`): the set-up a user pays once.
struct CellSetup {
  CellSetup(const std::vector<std::string>& benches, std::uint32_t reps,
            double scale, std::uint64_t seed, unsigned workers)
      : runner(runner_config(seed, reps)), pool(workers) {
    for (const std::string& bench : benches) {
      factories.push_back(workloads::nas_factory(bench, scale));
    }
  }
  core::Runner runner;
  std::vector<core::WorkloadFactory> factories;
  util::ThreadPool pool;
};

/// kSetupSamples set-ups of what a run builds before its first simulated
/// op: the CellSetup plus the first cell's machine, address space,
/// workload and engine (thread programs). Built and dropped, unrun.
std::vector<double> sample_setups(const std::vector<std::string>& benches,
                                  std::uint32_t reps, double scale,
                                  std::uint64_t seed, unsigned workers) {
  std::vector<double> samples;
  for (int i = 0; i < kSetupSamples; ++i) {
    const auto t0 = Clock::now();
    const CellSetup setup(benches, reps, scale, seed, workers);
    sim::Machine machine(setup.runner.config().machine);
    mem::AddressSpace as = machine.make_address_space();
    auto workload = setup.factories.front()(
        setup.runner.cell_seed(benches.front(), 0));
    const sim::Engine engine(
        machine, as, *workload,
        core::os_spread_placement(machine.topology(),
                                  workload->num_threads()),
        setup.runner.config().engine);
    samples.push_back(seconds_since(t0));
  }
  return samples;
}

// --- grid --------------------------------------------------------------------

struct GridSpec {
  std::vector<std::string> benches;
  std::uint32_t reps;
  double scale;
  std::uint64_t seed;
};

struct GridPass {
  double wall_s = 0.0;
  bench::PipelineResults results;
  std::string payload;  ///< bench::serialize_cache of the pass
  std::uint64_t instructions = 0;
  std::uint64_t cells = 0;
  std::uint64_t failed = 0;
  std::vector<double> cell_s;  ///< every run_once, seconds
  std::map<core::MappingPolicy, std::vector<double>> by_policy;
  std::map<std::string, double> cell_by_name;  ///< "bench/policy/repN"
  std::map<std::string, double> oracle_s;      ///< traced: per benchmark
  double busy_s = 0.0;                         ///< summed job time
};

/// One pass over the grid: every (bench, policy, rep) cell through
/// Runner::run_once on a `workers`-wide pool. Traced, each cell gets a
/// span, and an oracle cell first times Runner::oracle_placement on its
/// own (the first requester profiles; the other waits for it).
GridPass run_grid_pass(const GridSpec& spec, unsigned workers,
                       Tracer& tracer) {
  GridPass pass;
  CellSetup setup(spec.benches, spec.reps, spec.scale, spec.seed, workers);

  bench::PipelineResults& results = pass.results;
  results.repetitions = spec.reps;
  results.scale = spec.scale;
  struct Job {
    std::size_t bench;
    core::MappingPolicy policy;
    std::uint32_t rep;
    core::RunMetrics* slot;
    double seconds = 0.0;
    double oracle_seconds = 0.0;
  };
  std::vector<Job> jobs;
  for (std::size_t b = 0; b < spec.benches.size(); ++b) {
    for (const core::MappingPolicy policy : kPolicies) {
      auto& slots = results.results[spec.benches[b]][policy];
      slots.assign(spec.reps, core::RunMetrics{});
      for (std::uint32_t rep = 0; rep < spec.reps; ++rep) {
        jobs.push_back(Job{b, policy, rep, &slots[rep]});
      }
    }
  }

  Tracer::Span root(tracer, "grid.pass");
  const std::int64_t root_id = root.id();
  const auto t_cells = Clock::now();
  for (Job& job : jobs) {
    setup.pool.submit([&spec, &setup, &tracer, &job, root_id] {
      const std::string& bench = spec.benches[job.bench];
      const core::WorkloadFactory& factory = setup.factories[job.bench];
      if (tracer.enabled() && job.policy == core::MappingPolicy::kOracle) {
        Tracer::Span span(tracer, "runner.oracle_placement", bench, root_id);
        const auto t = Clock::now();
        setup.runner.oracle_placement(bench, factory);
        job.oracle_seconds = seconds_since(t);
      }
      Tracer::Span span(tracer, "runner.run_once",
                        cell_name(bench, job.policy, job.rep), root_id);
      const auto t = Clock::now();
      *job.slot = setup.runner.run_once(bench, factory, job.policy, job.rep);
      job.seconds = seconds_since(t);
    });
  }
  try {
    setup.pool.wait();
  } catch (const util::JobErrors& errors) {
    pass.failed = errors.errors().size();
    std::fprintf(stderr, "spcd_bench: %s\n", errors.what());
  }
  pass.wall_s = seconds_since(t_cells);

  pass.payload = bench::serialize_cache(results);
  for (const Job& job : jobs) {
    const std::string& bench = spec.benches[job.bench];
    ++pass.cells;
    pass.instructions += job.slot->instructions;
    pass.cell_s.push_back(job.seconds);
    pass.by_policy[job.policy].push_back(job.seconds);
    pass.cell_by_name[cell_name(bench, job.policy, job.rep)] = job.seconds;
    pass.busy_s += job.seconds + job.oracle_seconds;
    if (job.policy == core::MappingPolicy::kOracle) {
      // The profiling requester's span is the longest of the bench's.
      pass.oracle_s[bench] = std::max(pass.oracle_s[bench],
                                      job.oracle_seconds);
    }
  }
  return pass;
}

void runner_metrics(const GridPass& pass, unsigned workers, Outcome& out) {
  for (const core::MappingPolicy policy : kPolicies) {
    const auto it = pass.by_policy.find(policy);
    out.set_median(std::string("runner.cell_s.") + core::to_string(policy) +
                       ".p50",
                   it == pass.by_policy.end() ? std::vector<double>{}
                                              : it->second,
                   "s");
  }
  std::vector<double> oracle;
  for (const auto& [bench, seconds] : pass.oracle_s) oracle.push_back(seconds);
  out.set_median("runner.oracle_profile_s", oracle, "s");
  out.set("runner.busy_frac",
          pass.busy_s / (static_cast<double>(workers) * pass.wall_s), "frac");
}

std::string reference_payload() {
  std::ifstream in(std::string(SPCD_E2E_ROOT) +
                       "/bench/reference/spcd_results_r2_s0.05.cache",
                   std::ios::binary);
  if (!in) return {};
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string contents = std::move(buf).str();
  const std::size_t trailer = contents.rfind("#crc ");
  return trailer == std::string::npos ? std::string{}
                                      : contents.substr(0, trailer);
}

// --- cell decomposition (traced runs) ----------------------------------------

struct CellRef {
  std::string bench;
  double scale;
  /// The same cell's run_once from the traced pass: its result (which the
  /// census must reproduce) and its time. Null for a probe cell.
  const core::RunMetrics* run_once = nullptr;
  double run_once_s = 0.0;
};

/// Records every fault the address space reports and charges nothing, so
/// the run it observes must stay cycle-identical.
class FaultRecorder final : public mem::FaultObserver {
 public:
  util::Cycles on_fault(const mem::FaultEvent& event) override {
    events.push_back(event);
    return 0;
  }
  std::vector<mem::FaultEvent> events;
};

struct EngineRun {
  double seconds = 0.0;  ///< Engine construction (thread programs) + run
  std::uint32_t threads = 0;
  sim::PerfCounters counters;
  util::Cycles finish = 0;
  std::uint32_t decisions = 0;
  std::optional<core::CommMatrix> matrix;
};

EngineRun run_engine(const core::RunnerConfig& config,
                     const core::WorkloadFactory& factory,
                     std::uint64_t cell_seed, bool with_kernel,
                     FaultRecorder* recorder) {
  sim::Machine machine(config.machine);
  mem::AddressSpace as = machine.make_address_space();
  auto workload = factory(cell_seed);
  EngineRun run;
  run.threads = workload->num_threads();
  std::unique_ptr<core::SpcdKernel> kernel;
  const auto t0 = Clock::now();
  sim::Engine engine(machine, as, *workload,
                     core::os_spread_placement(machine.topology(),
                                               run.threads),
                     config.engine);
  if (with_kernel) {
    kernel = std::make_unique<core::SpcdKernel>(
        config.spcd, run.threads,
        util::derive_seed(cell_seed, kRunOnceKernelSalt));
    kernel->install(engine);
  }
  if (recorder != nullptr) as.add_fault_observer(recorder);
  engine.run();
  run.seconds = seconds_since(t0);
  run.counters = engine.counters();
  run.finish = engine.finish_time();
  if (kernel) {
    run.decisions = kernel->migration_events();
    run.matrix = kernel->matrix();
  }
  return run;
}

bool same_counters(const EngineRun& a, const EngineRun& b) {
  const sim::PerfCounters& x = a.counters;
  const sim::PerfCounters& y = b.counters;
  return a.finish == b.finish && x.instructions == y.instructions &&
         x.l2_misses == y.l2_misses && x.l3_misses == y.l3_misses &&
         x.c2c_total() == y.c2c_total() && x.minor_faults == y.minor_faults &&
         x.injected_faults == y.injected_faults;
}

bool same_as_run_once(const EngineRun& run, const core::RunMetrics& m) {
  const sim::PerfCounters& c = run.counters;
  return c.instructions == m.instructions &&
         c.c2c_total() == m.c2c_transactions &&
         c.invalidations == m.invalidations &&
         c.dram_total() == m.dram_accesses &&
         c.minor_faults == m.minor_faults &&
         c.injected_faults == m.injected_faults &&
         run.decisions == m.migration_events;
}

/// The cell layers, each run alone on `cells`: (1) drain every thread
/// program standalone, (2) the engine with the OS spread placement and no
/// kernel, (3) the same with the SPCD kernel, (4) again with a zero-cost
/// recording observer (the counters must not move) whose faults are then
/// replayed into a fresh detector, and (5) one mapping decision on the
/// detected matrix. Cells from the traced pass also give
/// unattributed_frac: the share of their run_once time the SPCD run (3)
/// does not account for.
void sim_census(const Options& opt, const std::vector<CellRef>& cells,
                Tracer& tracer, Outcome& out) {
  Tracer::Span root(tracer, "census.sim");
  double t_gen = 0.0, t_engine = 0.0, t_kernel = 0.0, t_detector = 0.0;
  double map_ms = 0.0;
  std::uint64_t ops = 0, engine_insns = 0, faults = 0, decisions = 0;
  std::uint64_t insns = 0, l2 = 0, l3 = 0, c2c = 0, minor = 0, injected = 0;
  double run_once_s = 0.0, traced_spcd_s = 0.0;
  for (const CellRef& cell : cells) {
    const core::Runner runner(runner_config(opt.seed, 1));
    const core::RunnerConfig& config = runner.config();
    const std::uint64_t seed = runner.cell_seed(cell.bench, 0);
    const core::WorkloadFactory factory =
        workloads::nas_factory(cell.bench, cell.scale);
    {
      Tracer::Span span(tracer, "workloads.drain", cell.bench);
      auto workload = factory(seed);
      const auto t0 = Clock::now();
      for (std::uint32_t tid = 0; tid < workload->num_threads(); ++tid) {
        auto program = workload->make_thread(tid, tid);  // as the engine does
        while (true) {
          ++ops;
          if (program->next().kind == sim::OpKind::kFinish) break;
        }
      }
      t_gen += seconds_since(t0);
    }
    EngineRun plain;
    {
      Tracer::Span span(tracer, "sim.engine", cell.bench);
      plain = run_engine(config, factory, seed, false, nullptr);
    }
    EngineRun spcd;
    {
      Tracer::Span span(tracer, "core.spcd_engine", cell.bench);
      spcd = run_engine(config, factory, seed, true, nullptr);
    }
    if (cell.run_once != nullptr) {
      out.gate(same_as_run_once(spcd, *cell.run_once),
               "census: the SPCD run of " + cell.bench +
                   " does not reproduce the traced pass's run_once");
      run_once_s += cell.run_once_s;
      traced_spcd_s += spcd.seconds;
    }
    FaultRecorder recorder;
    {
      Tracer::Span span(tracer, "core.observed_engine", cell.bench);
      const EngineRun observed =
          run_engine(config, factory, seed, true, &recorder);
      out.gate(same_counters(spcd, observed),
               "census: a zero-cost fault observer changed " + cell.bench +
                   "'s counters");
    }
    {
      Tracer::Span span(tracer, "core.detector_replay", cell.bench);
      core::SpcdDetector detector(config.spcd, spcd.threads);
      const auto t0 = Clock::now();
      for (const mem::FaultEvent& event : recorder.events) {
        detector.on_fault(event);
      }
      detector.flush();
      t_detector += seconds_since(t0);
      faults += recorder.events.size();
    }
    {
      Tracer::Span span(tracer, "core.map", cell.bench);
      const sim::Machine machine(config.machine);
      const auto strategy = core::make_mapping_strategy(config.spcd.mapping);
      std::vector<double> samples;
      for (int i = 0; i < kMapRepeats; ++i) {
        const auto t0 = Clock::now();
        strategy->map(*spcd.matrix, machine.topology());
        samples.push_back(seconds_since(t0) * 1e3);
      }
      map_ms += percentile(samples, 50.0);
    }
    t_engine += plain.seconds;
    t_kernel += spcd.seconds;
    engine_insns += plain.counters.instructions;
    decisions += spcd.decisions;
    insns += spcd.counters.instructions;
    l2 += spcd.counters.l2_misses;
    l3 += spcd.counters.l3_misses;
    c2c += spcd.counters.c2c_total();
    minor += spcd.counters.minor_faults;
    injected += spcd.counters.injected_faults;
  }
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  out.set("workloads.gen_ns_per_op", t_gen / count(ops) * 1e9, "ns");
  out.set("sim.engine_ns_per_op", (t_engine - t_gen) / count(ops) * 1e9,
          "ns");
  out.set("sim.mips", count(engine_insns) / t_engine / 1e6, "MIPS");
  out.set("sim.instructions", count(insns), "count");
  out.set("sim.l2_misses", count(l2), "count");
  out.set("sim.l3_misses", count(l3), "count");
  out.set("sim.c2c", count(c2c), "count");
  out.set("sim.minor_faults", count(minor), "count");
  out.set("sim.injected_faults", count(injected), "count");
  out.set("core.kernel_frac", (t_kernel - t_engine) / t_kernel, "frac");
  out.set("core.detector_ns_per_fault", t_detector / count(faults) * 1e9,
          "ns");
  out.set("core.faults", count(faults), "count");
  out.set("core.mapper_ms_per_decision",
          map_ms / static_cast<double>(cells.size()), "ms");
  out.set("core.decisions", count(decisions), "count");
  if (run_once_s > 0.0) {
    out.set("unattributed_frac", 1.0 - traced_spcd_s / run_once_s, "frac");
  }
}

/// The runner layer on a probe grid of `benches` x 4 policies x 1 rep.
void runner_census(const Options& opt, const std::vector<std::string>& benches,
                   Tracer& tracer, Outcome& out) {
  Tracer::Span root(tracer, "census.runner");
  const GridPass pass = run_grid_pass(
      GridSpec{benches, 1, grid_scale(opt), opt.seed}, opt.nproc, tracer);
  out.attempted += pass.cells;
  out.failed += pass.failed;
  runner_metrics(pass, opt.nproc, out);
}

// --- cell_serial -------------------------------------------------------------

std::vector<std::string> cell_benches() {
  return {std::begin(kCellBenches), std::end(kCellBenches)};
}

struct CellPass {
  double wall_s = 0.0;
  std::uint64_t instructions = 0;
  std::uint64_t digest = 0;
  std::vector<double> cell_s;
  std::vector<core::RunMetrics> metrics;
};

CellPass run_cell_pass(const Options& opt, double scale, Tracer& tracer,
                       Outcome& out) {
  CellPass pass;
  CellSetup setup(cell_benches(), 1, scale, opt.seed, 1);

  Tracer::Span root(tracer, "cell_serial.pass");
  std::string rows;
  for (std::size_t i = 0; i < setup.factories.size(); ++i) {
    const std::string bench = kCellBenches[i];
    ++out.attempted;
    Tracer::Span span(tracer, "runner.run_once",
                      cell_name(bench, core::MappingPolicy::kSpcd, 0));
    const auto t = Clock::now();
    const core::RunMetrics m = setup.runner.run_once(
        bench, setup.factories[i], core::MappingPolicy::kSpcd, 0);
    pass.cell_s.push_back(seconds_since(t));
    pass.wall_s += pass.cell_s.back();
    pass.instructions += m.instructions;
    pass.metrics.push_back(m);
    rows += bench::serialize_metrics_row(bench, core::MappingPolicy::kSpcd,
                                         0, m);
    rows += '\n';
  }
  pass.digest = util::fnv1a64(rows);
  return pass;
}

}  // namespace

void sim_layers_from_probe(const Options& opt, Tracer& tracer, Outcome& out) {
  runner_census(opt, cell_benches(), tracer, out);
  sim_census(opt, {{"sp", grid_scale(opt)}}, tracer, out);
}

Outcome run_grid(const Options& opt) {
  Outcome out;
  std::vector<std::string> benches;
  for (const auto& info : workloads::nas_benchmarks()) {
    benches.push_back(info.name);
  }
  const GridSpec spec{benches, kGridReps, grid_scale(opt), opt.seed};
  Tracer untraced(false);
  Calibration cal(kSimHostSensitivity);
  cal.sample();
  std::vector<double> wall, throughput, latency;
  std::string first_payload;
  const int passes = pass_count(opt);
  for (int p = 0; p < passes; ++p) {
    const GridPass pass = run_grid_pass(spec, opt.nproc, untraced);
    cal.sample();
    out.attempted += pass.cells;
    out.failed += pass.failed;
    wall.push_back(pass.wall_s);
    throughput.push_back(static_cast<double>(pass.instructions) /
                         pass.wall_s);
    latency.insert(latency.end(), pass.cell_s.begin(), pass.cell_s.end());
    if (p == 0) {
      first_payload = pass.payload;
    } else {
      out.gate(pass.payload == first_payload,
               "grid: pass " + std::to_string(p + 1) +
                   " is not byte-identical to pass 1");
    }
  }
  if (opt.default_seed() && !opt.smoke) {
    out.gate(first_payload == reference_payload(),
             "grid: results differ from bench/reference/"
             "spcd_results_r2_s0.05.cache");
  }
  out.host_slowdown = cal.slowdown();
  if (!opt.trace) {
    set_common_e2e(out, cal,
                   sample_setups(spec.benches, spec.reps, spec.scale,
                                 spec.seed, opt.nproc),
                   wall, throughput, latency);
    return out;
  }

  Tracer tracer(true);
  const GridPass traced = run_grid_pass(spec, opt.nproc, tracer);
  out.attempted += traced.cells;
  out.failed += traced.failed;
  out.gate(traced.payload == first_payload,
           "grid: the traced pass is not byte-identical to pass 1");
  out.set("trace_overhead_frac", traced.wall_s / wall.front() - 1.0, "frac");
  runner_metrics(traced, opt.nproc, out);
  sim_census(opt,
             {{"sp", spec.scale,
               &traced.results.runs("sp", core::MappingPolicy::kSpcd)[0],
               traced.cell_by_name.at(
                   cell_name("sp", core::MappingPolicy::kSpcd, 0))}},
             tracer, out);
  svc_layers_from_probe(opt, tracer, out);
  out.self_time = tracer.write(opt.trace_dir, "grid");
  return out;
}

Outcome run_cell_serial(const Options& opt) {
  Outcome out;
  const double scale = opt.smoke ? kCellScale / kSmokeDivisor : kCellScale;
  Tracer untraced(false);
  Calibration cal(kSimHostSensitivity);
  cal.sample();
  std::vector<double> wall, throughput, latency;
  std::uint64_t digest = 0;
  const int passes = pass_count(opt);
  for (int p = 0; p < passes; ++p) {
    const CellPass pass = run_cell_pass(opt, scale, untraced, out);
    cal.sample();
    wall.push_back(pass.wall_s);
    throughput.push_back(static_cast<double>(pass.instructions) /
                         pass.wall_s);
    latency.insert(latency.end(), pass.cell_s.begin(), pass.cell_s.end());
    if (p == 0) {
      digest = pass.digest;
      std::fprintf(stderr, "spcd_bench: cell_serial digest %016" PRIx64 "\n",
                   digest);
    } else {
      out.gate(pass.digest == digest,
               "cell_serial: pass " + std::to_string(p + 1) +
                   " digest differs from pass 1");
    }
  }
  if (opt.default_seed() && !opt.smoke) {
    out.gate(digest == kCellSerialDigest,
             "cell_serial: digest differs from the recorded one");
  }
  out.host_slowdown = cal.slowdown();
  if (!opt.trace) {
    set_common_e2e(out, cal,
                   sample_setups(cell_benches(), 1, scale, opt.seed, 1),
                   wall, throughput, latency);
    return out;
  }

  Tracer tracer(true);
  const CellPass traced = run_cell_pass(opt, scale, tracer, out);
  out.gate(traced.digest == digest,
           "cell_serial: the traced pass digest differs from pass 1");
  out.set("trace_overhead_frac", traced.wall_s / wall.front() - 1.0, "frac");
  runner_census(opt, cell_benches(), tracer, out);
  sim_census(opt,
             {{kCellBenches[0], scale, &traced.metrics[0], traced.cell_s[0]},
              {kCellBenches[1], scale, &traced.metrics[1], traced.cell_s[1]}},
             tracer, out);
  svc_layers_from_probe(opt, tracer, out);
  out.self_time = tracer.write(opt.trace_dir, "cell_serial");
  return out;
}

}  // namespace spcd::e2e
