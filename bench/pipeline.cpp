#include "bench/pipeline.hpp"

#include <signal.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <optional>
#include <sstream>

#include "core/metrics_export.hpp"
#include "obs/export.hpp"
#include "util/env.hpp"
#include "util/journal.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "workloads/npb.hpp"

namespace spcd::bench {

namespace {

// Bump when the metric layout or the experiment definition changes, so
// stale caches are discarded.
constexpr int kCacheVersion = 3;

const core::MappingPolicy kPolicies[] = {
    core::MappingPolicy::kOs, core::MappingPolicy::kRandom,
    core::MappingPolicy::kOracle, core::MappingPolicy::kSpcd};

// FNV-1a, the integrity checksum of the cache trailer. Not cryptographic;
// it only needs to catch truncation and accidental corruption.
std::uint64_t fnv1a(const std::string& data) { return util::fnv1a64(data); }

bool parse_cache_payload(const std::string& payload, PipelineResults& out) {
  std::istringstream in(payload);
  int version = 0;
  std::uint32_t reps = 0;
  double scale = 0.0;
  std::string header;
  if (!std::getline(in, header)) return false;
  if (std::sscanf(header.c_str(), "spcd-cache v%d reps=%u scale=%lf",
                  &version, &reps, &scale) != 3 ||
      version != kCacheVersion || reps != out.repetitions ||
      scale != out.scale) {
    return false;
  }
  std::string line;
  while (std::getline(in, line)) {
    std::string bench;
    core::MappingPolicy policy;
    std::uint32_t rep = 0;
    core::RunMetrics m;
    if (!parse_metrics_row(line, bench, policy, rep, m)) return false;
    out.results[bench][policy].push_back(m);
  }
  // Sanity: every benchmark must have every policy with `reps` runs.
  if (out.results.size() != workloads::nas_benchmarks().size()) return false;
  for (const auto& [bench, by_policy] : out.results) {
    if (by_policy.size() != 4) return false;
    for (const auto& [policy, runs] : by_policy) {
      if (runs.size() != out.repetitions) return false;
    }
  }
  return true;
}

std::string cache_trailer(const std::string& payload) {
  char trailer[64];
  std::snprintf(trailer, sizeof trailer, "#crc %016llx %zu\n",
                static_cast<unsigned long long>(fnv1a(payload)),
                payload.size());
  return trailer;
}

// --- graceful shutdown -----------------------------------------------------
// SIGINT/SIGTERM set a flag; each cell reads it before it starts, so a stop
// leaves the unstarted cells for resume. The flag is written by the handler
// and read on worker threads: a lock-free atomic is both async-signal-safe
// and race-free.

std::atomic<int> g_stop_signal{0};
static_assert(std::atomic<int>::is_always_lock_free);

void stop_signal_handler(int sig) {
  g_stop_signal.store(sig, std::memory_order_relaxed);
}

/// Installs the graceful-stop handlers for the duration of a sweep and
/// restores whatever was there before (so library users and tests are not
/// left with our handlers).
class SignalGuard {
 public:
  explicit SignalGuard(bool install) : installed_(install) {
    if (!installed_) return;
    g_stop_signal.store(0, std::memory_order_relaxed);
    struct sigaction sa;
    std::memset(&sa, 0, sizeof sa);
    sa.sa_handler = stop_signal_handler;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGINT, &sa, &old_int_);
    sigaction(SIGTERM, &sa, &old_term_);
  }
  ~SignalGuard() {
    if (!installed_) return;
    sigaction(SIGINT, &old_int_, nullptr);
    sigaction(SIGTERM, &old_term_, nullptr);
  }
  SignalGuard(const SignalGuard&) = delete;
  SignalGuard& operator=(const SignalGuard&) = delete;

 private:
  bool installed_;
  struct sigaction old_int_ {};
  struct sigaction old_term_ {};
};

}  // namespace

const std::vector<core::RunMetrics>& PipelineResults::runs(
    const std::string& bench, core::MappingPolicy policy) const {
  return results.at(bench).at(policy);
}

std::uint32_t configured_reps() {
  // SPCD_REPS=0 would be a zero-sized experiment; clamp to at least 1.
  return static_cast<std::uint32_t>(
      util::env_u64_clamped("SPCD_REPS", 10, 1, 1'000'000));
}

double configured_scale() {
  // Zero or negative SPCD_SCALE would produce empty workloads.
  return util::env_double_clamped("SPCD_SCALE", 1.0, 1e-4, 1e3);
}

std::string configured_cache() {
  return util::env_string("SPCD_CACHE", "spcd_results.cache");
}

std::string serialize_metrics_row(const std::string& bench,
                                  core::MappingPolicy policy,
                                  std::uint32_t rep,
                                  const core::RunMetrics& m) {
  std::string row = bench;
  row += ' ';
  row += core::to_string(policy);
  row += ' ';
  row += std::to_string(rep);
  char buf[40];
  for (const core::MetricDescriptor& d : core::cache_metric_descriptors()) {
    if (d.integer) {
      // Counters round-trip exactly up to 2^53 (the double mantissa); the
      // simulator's counts are orders of magnitude below that.
      std::snprintf(buf, sizeof buf, " %" PRIu64,
                    static_cast<std::uint64_t>(d.get(m)));
    } else {
      std::snprintf(buf, sizeof buf, " %.9e", d.get(m));
    }
    row += buf;
  }
  return row;
}

bool parse_metrics_row(const std::string& row, std::string& bench,
                       core::MappingPolicy& policy, std::uint32_t& rep,
                       core::RunMetrics& m) {
  std::istringstream in(row);
  std::string policy_name;
  if (!(in >> bench >> policy_name >> rep)) return false;
  const std::optional<core::MappingPolicy> parsed =
      core::parse_policy(policy_name);
  if (!parsed) return false;
  policy = *parsed;
  m = core::RunMetrics{};
  for (const core::MetricDescriptor& d : core::cache_metric_descriptors()) {
    if (d.integer) {
      std::uint64_t v = 0;
      if (!(in >> v)) return false;
      d.set_int(m, v);
    } else {
      double v = 0.0;
      if (!(in >> v)) return false;
      d.set_real(m, v);
    }
  }
  std::string extra;
  if (in >> extra) return false;  // trailing junk: reject the row
  return true;
}

std::string journal_meta(std::uint32_t repetitions, double scale,
                         const std::string& mapper) {
  std::ostringstream out;
  out << "cache-v" << kCacheVersion << " reps=" << repetitions
      << " scale=" << scale << " mapper=" << mapper;
  return std::move(out).str();
}

std::string serialize_cache(const PipelineResults& results) {
  std::ostringstream out;
  out << "spcd-cache v" << kCacheVersion << " reps=" << results.repetitions
      << " scale=" << results.scale << "\n";
  for (const auto& [bench, by_policy] : results.results) {
    for (const auto& [policy, runs] : by_policy) {
      std::uint32_t rep = 0;
      for (const auto& m : runs) {
        out << serialize_metrics_row(bench, policy, rep++, m) << "\n";
      }
    }
  }
  return std::move(out).str();
}

bool save_cache_file(const std::string& path,
                     const PipelineResults& results) {
  const std::string payload = serialize_cache(results);
  const std::string tmp_path = path + ".tmp";
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      SPCD_LOG_WARN("pipeline: cannot open %s for writing",
                    tmp_path.c_str());
      return false;
    }
    out << payload << cache_trailer(payload);
    out.flush();
    if (!out) {
      SPCD_LOG_WARN("pipeline: short write to %s", tmp_path.c_str());
      std::remove(tmp_path.c_str());
      return false;
    }
  }
  // Atomic publish: readers see either the old cache or the complete new
  // one, never a half-written file.
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    SPCD_LOG_WARN("pipeline: cannot rename %s over %s", tmp_path.c_str(),
                  path.c_str());
    std::remove(tmp_path.c_str());
    return false;
  }
  return true;
}

bool load_cache_file(const std::string& path, PipelineResults& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;  // no cache yet: silent, caller computes
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string contents = std::move(buf).str();

  // The trailer is the final line; everything before it is the payload.
  const std::size_t marker = contents.rfind("#crc ");
  if (marker == std::string::npos ||
      (marker != 0 && contents[marker - 1] != '\n')) {
    SPCD_LOG_WARN("pipeline: cache %s has no integrity trailer; "
                  "discarding it and recomputing", path.c_str());
    return false;
  }
  unsigned long long crc = 0;
  std::size_t payload_bytes = 0;
  if (std::sscanf(contents.c_str() + marker, "#crc %llx %zu", &crc,
                  &payload_bytes) != 2) {
    SPCD_LOG_WARN("pipeline: cache %s has a malformed integrity trailer; "
                  "discarding it and recomputing", path.c_str());
    return false;
  }
  const std::string payload = contents.substr(0, marker);
  if (payload_bytes != payload.size() || crc != fnv1a(payload)) {
    SPCD_LOG_WARN("pipeline: cache %s failed its integrity check "
                  "(truncated or corrupt); discarding it and recomputing",
                  path.c_str());
    return false;
  }
  PipelineResults parsed;
  parsed.repetitions = out.repetitions;
  parsed.scale = out.scale;
  if (!parse_cache_payload(payload, parsed)) {
    SPCD_LOG_WARN("pipeline: cache %s does not match this experiment "
                  "(stale header, malformed rows, or an incomplete grid); "
                  "discarding it and recomputing", path.c_str());
    return false;
  }
  out = std::move(parsed);
  return true;
}

PipelineOutcome run_pipeline_supervised(const PipelineOptions& options) {
  PipelineOutcome outcome;
  PipelineResults& out = outcome.results;
  out.repetitions = options.repetitions;
  out.scale = options.scale;

  core::RunnerConfig config;
  config.repetitions = out.repetitions;
  config.spcd.mapping = options.mapping;
  config.trace = obs::TraceConfig::from_env();
  core::Runner runner(config);

  // One factory per benchmark; factories are stateless and shared across
  // cells. Pre-size every result slot so concurrent cells write disjoint
  // memory and serialization order never depends on completion order.
  struct Cell {
    std::string name;  ///< canonical "<bench>/<policy>/rep<N>" identity
    const std::string* bench;
    const core::WorkloadFactory* factory;
    core::MappingPolicy policy;
    std::uint32_t rep;
    core::RunMetrics* slot;
  };
  std::vector<core::WorkloadFactory> factories;
  const auto& benchmarks = workloads::nas_benchmarks();
  factories.reserve(benchmarks.size());
  std::vector<Cell> cells;
  cells.reserve(benchmarks.size() * 4 * out.repetitions);
  std::map<std::string, std::size_t> index;  // cell name -> cells[] index
  for (const auto& info : benchmarks) {
    factories.push_back(workloads::nas_factory(info.name, out.scale));
    for (const auto policy : kPolicies) {
      auto& slots = out.results[info.name][policy];
      slots.assign(out.repetitions, core::RunMetrics{});
      for (std::uint32_t rep = 0; rep < out.repetitions; ++rep) {
        cells.push_back(Cell{core::Runner::cell_name(info.name, policy, rep),
                             &info.name, &factories.back(), policy, rep,
                             &slots[rep]});
        index[cells.back().name] = cells.size() - 1;
      }
    }
  }
  outcome.cells_total = cells.size();

  // Journal replay: adopt every intact record that names a cell of this
  // grid, then rotate the journal down to exactly those records so stale
  // or duplicate tails never accumulate.
  std::vector<char> done(cells.size(), 0);
  util::Journal journal;
  const std::string meta = journal_meta(options.repetitions, options.scale,
                                        options.mapping.strategy);
  if (!options.journal_path.empty()) {
    std::vector<std::string> kept;
    bool fresh = true;
    if (options.resume) {
      util::Journal::LoadResult loaded =
          util::Journal::load(options.journal_path);
      if (loaded.valid && loaded.meta == meta) {
        for (const std::string& record : loaded.records) {
          std::string bench;
          core::MappingPolicy policy;
          std::uint32_t rep = 0;
          core::RunMetrics m;
          if (!parse_metrics_row(record, bench, policy, rep, m)) {
            SPCD_LOG_WARN("pipeline: journal %s has an unparsable record; "
                          "skipping it", options.journal_path.c_str());
            continue;
          }
          const auto it =
              index.find(core::Runner::cell_name(bench, policy, rep));
          if (it == index.end() || done[it->second]) continue;
          *cells[it->second].slot = m;
          done[it->second] = 1;
          kept.push_back(record);
        }
        if (loaded.torn_tail) {
          SPCD_LOG_WARN("pipeline: journal %s had a torn tail; recovered "
                        "%zu intact record(s)",
                        options.journal_path.c_str(), kept.size());
        }
        fresh = false;
      } else if (loaded.valid) {
        SPCD_LOG_WARN("pipeline: journal %s belongs to a different "
                      "experiment (\"%s\" != \"%s\"); starting fresh",
                      options.journal_path.c_str(), loaded.meta.c_str(),
                      meta.c_str());
      }
    }
    outcome.cells_resumed = kept.size();
    journal = fresh ? util::Journal::create(options.journal_path, meta)
                    : util::Journal::rotate(options.journal_path, meta,
                                            kept);
  }

  // Dispatch the missing cells. The journal mutex also orders the slot
  // write with the journal append, so a journaled record always describes
  // a fully published result; it guards outcome.failed too.
  SignalGuard signal_guard(options.handle_signals);
  const auto stop_requested = [&options] {
    return options.handle_signals &&
           g_stop_signal.load(std::memory_order_relaxed) != 0;
  };
  util::ThreadPool pool(options.jobs);
  std::mutex journal_mu;
  std::atomic<std::size_t> completed{outcome.cells_resumed};
  std::atomic<std::size_t> running{0};
  std::vector<double> cell_wall_seconds(cells.size(), 0.0);
  const auto t_start = std::chrono::steady_clock::now();
  for (std::size_t idx = 0; idx < cells.size(); ++idx) {
    if (done[idx]) continue;
    // The body catches its own failure: a serial pool's submit() would
    // rethrow it and end the sweep.
    pool.submit([&, idx] {
      const Cell& cell = cells[idx];
      if (stop_requested()) return;  // left unstarted for resume
      running.fetch_add(1, std::memory_order_relaxed);
      const auto t0 = std::chrono::steady_clock::now();
      core::RunMetrics m;
      try {
        m = runner.run_once(*cell.bench, *cell.factory, cell.policy, cell.rep);
      } catch (const std::exception& e) {
        running.fetch_sub(1, std::memory_order_relaxed);
        SPCD_LOG_WARN("pipeline: %s failed: %s", cell.name.c_str(), e.what());
        std::lock_guard<std::mutex> lock(journal_mu);
        outcome.failed.push_back(util::JobErrors::Entry{
            cell.name, e.what(), std::current_exception()});
        return;
      }
      const double cell_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      cell_wall_seconds[idx] = cell_seconds;
      {
        std::lock_guard<std::mutex> lock(journal_mu);
        *cell.slot = std::move(m);
        if (journal.is_open()) {
          journal.append(serialize_metrics_row(*cell.bench, cell.policy,
                                               cell.rep, *cell.slot));
        }
      }
      const std::size_t in_flight =
          running.fetch_sub(1, std::memory_order_relaxed);
      const std::size_t done_count =
          completed.fetch_add(1, std::memory_order_relaxed) + 1;
      if (options.progress) {
        std::fprintf(stderr,
                     "[pipeline] %3zu/%zu %s/%-6s rep %u  %6.2fs  "
                     "(jobs=%u, in-flight=%zu)\n",
                     done_count, cells.size(), cell.bench->c_str(),
                     core::to_string(cell.policy), cell.rep, cell_seconds,
                     pool.size(), in_flight);
      }
    });
  }
  pool.wait();
  outcome.interrupted = stop_requested();
  std::ranges::sort(outcome.failed, {}, &util::JobErrors::Entry::context);
  journal.sync();
  outcome.journal_records = journal.records_written();

  if (options.progress) {
    const double total_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t_start)
            .count();
    std::fprintf(stderr,
                 "[pipeline] %zu cells in %.2fs wall (jobs=%u, resumed=%zu, "
                 "failed=%zu)\n",
                 cells.size(), total_seconds, pool.size(),
                 outcome.cells_resumed, outcome.failed.size());
  }

  if (config.trace.enabled) {
    // SPCD_TRACE=1: publish the merged per-cell captures (deterministic,
    // sim-time) and the per-cell wall timings (explicitly wall-clock, so
    // *not* deterministic) into SPCD_OUT_DIR. The sweep adds a capture of
    // its own: counters plus one event per resumed or failed cell (cells
    // referenced by grid index).
    std::vector<obs::CaptureRef> captures;
    captures.reserve(cells.size() + 1);
    for (const Cell& cell : cells) {
      if (cell.slot->obs == nullptr) continue;
      captures.push_back(obs::CaptureRef{
          *cell.bench + "/" + core::to_string(cell.policy) + " rep " +
              std::to_string(cell.rep),
          cell.slot->obs.get()});
    }
    obs::RunCapture sweep_capture;
    sweep_capture.metrics.counter("pipeline.cells_failed")
        .add(outcome.failed.size());
    sweep_capture.metrics.counter("pipeline.cells_resumed")
        .add(outcome.cells_resumed);
    sweep_capture.metrics.counter("pipeline.journal_records")
        .add(outcome.journal_records);
    util::Cycles t = 0;
    for (std::size_t idx = 0; idx < cells.size(); ++idx) {
      if (!done[idx]) continue;
      sweep_capture.events.push_back(obs::TraceEvent{
          t++, "pipeline", "cell_resume", obs::EventKind::kInstant,
          obs::TraceArg{"cell", idx}, obs::TraceArg{}});
    }
    for (const util::JobErrors::Entry& failed : outcome.failed) {
      sweep_capture.events.push_back(obs::TraceEvent{
          t++, "pipeline", "cell_failed", obs::EventKind::kInstant,
          obs::TraceArg{"cell", index.at(failed.context)}, obs::TraceArg{}});
    }
    sweep_capture.recorded = sweep_capture.events.size();
    captures.push_back(obs::CaptureRef{"pipeline", &sweep_capture});
    const std::string trace_path = util::out_path("pipeline_trace.json");
    if (std::ofstream trace(trace_path, std::ios::binary | std::ios::trunc);
        trace && (trace << obs::export_chrome_trace(captures)).flush()) {
      std::fprintf(stderr, "[pipeline] trace written to %s\n",
                   trace_path.c_str());
    } else {
      SPCD_LOG_WARN("pipeline: cannot write trace to %s",
                    trace_path.c_str());
    }
    const std::string timing_path = util::out_path("pipeline_cells.csv");
    if (std::ofstream timing(timing_path,
                             std::ios::binary | std::ios::trunc);
        timing) {
      timing << "bench,policy,rep,wall_seconds\n";
      char buf[160];
      for (std::size_t idx = 0; idx < cells.size(); ++idx) {
        const Cell& cell = cells[idx];
        std::snprintf(buf, sizeof buf, "%s,%s,%u,%.6f\n",
                      cell.bench->c_str(), core::to_string(cell.policy),
                      cell.rep, cell_wall_seconds[idx]);
        timing << buf;
      }
      std::fprintf(stderr, "[pipeline] cell timings written to %s\n",
                   timing_path.c_str());
    } else {
      SPCD_LOG_WARN("pipeline: cannot write cell timings to %s",
                    timing_path.c_str());
    }
  }
  return outcome;
}

PipelineResults compute_pipeline(const PipelineOptions& options) {
  PipelineOptions opts = options;
  opts.journal_path.clear();
  opts.resume = false;
  opts.handle_signals = false;
  PipelineOutcome outcome = run_pipeline_supervised(opts);
  if (!outcome.failed.empty()) throw util::JobErrors(std::move(outcome.failed));
  return std::move(outcome.results);
}

const PipelineResults& pipeline_results() {
  static const PipelineResults results = [] {
    PipelineResults r;
    r.repetitions = configured_reps();
    r.scale = configured_scale();
    const std::string cache = configured_cache();
    if (load_cache_file(cache, r)) {
      std::fprintf(stderr, "[pipeline] loaded cached results from %s\n",
                   cache.c_str());
      return r;
    }
    PipelineOptions options;
    options.repetitions = r.repetitions;
    options.scale = r.scale;
    options.journal_path = cache + ".journal";
    options.resume = true;  // adopt whatever a crashed sweep left behind
    options.handle_signals = true;
    PipelineOutcome outcome = run_pipeline_supervised(options);
    if (outcome.interrupted) {
      std::fprintf(stderr,
                   "[pipeline] interrupted; %" PRIu64 " completed cell(s) "
                   "journaled to %s — rerun to resume\n",
                   outcome.journal_records,
                   options.journal_path.c_str());
      std::exit(130);
    }
    if (!outcome.failed.empty()) {
      for (const util::JobErrors::Entry& failed : outcome.failed) {
        std::fprintf(stderr, "[pipeline] failed: %s: %s\n",
                     failed.context.c_str(), failed.message.c_str());
      }
      std::fprintf(stderr,
                   "[pipeline] sweep incomplete; completed cells are "
                   "journaled in %s — rerun to recompute the rest\n",
                   options.journal_path.c_str());
      std::exit(3);
    }
    r = std::move(outcome.results);
    save_cache_file(cache, r);
    std::remove(options.journal_path.c_str());  // merged into the cache
    std::fprintf(stderr, "[pipeline] results cached to %s\n",
                 cache.c_str());
    return r;
  }();
  return results;
}

void print_normalized_figure(const std::string& title,
                             const std::string& metric_name,
                             double (*metric)(const core::RunMetrics&)) {
  const PipelineResults& pr = pipeline_results();

  std::printf("%s\n", title.c_str());
  std::printf("(%s, mean of %u runs, normalized to the OS mapping; "
              "± is the 95%% confidence half-width)\n\n",
              metric_name.c_str(), pr.repetitions);

  util::TextTable table;
  table.header({"bench", "os", "random", "", "oracle", "", "spcd", "",
                "spcd vs os"});
  for (const auto& info : workloads::nas_benchmarks()) {
    const double os_mean = core::aggregate(
        pr.runs(info.name, core::MappingPolicy::kOs), metric).mean;
    std::vector<std::string> row{info.name, "1.000"};
    double spcd_ratio = 1.0;
    for (const auto policy :
         {core::MappingPolicy::kRandom, core::MappingPolicy::kOracle,
          core::MappingPolicy::kSpcd}) {
      const auto ci = core::aggregate(pr.runs(info.name, policy), metric);
      const double ratio = os_mean > 0.0 ? ci.mean / os_mean : 0.0;
      const double ci_ratio = os_mean > 0.0 ? ci.ci95 / os_mean : 0.0;
      row.push_back(util::fmt_double(ratio, 3));
      row.push_back("±" + util::fmt_double(ci_ratio, 3));
      if (policy == core::MappingPolicy::kSpcd) spcd_ratio = ratio;
    }
    row.push_back(util::fmt_percent_delta(spcd_ratio));
    table.row(std::move(row));
  }
  std::fputs(table.render().c_str(), stdout);

  // Also export machine-readable data (figNN.csv) into SPCD_OUT_DIR
  // (default: the working directory) instead of littering the source tree.
  std::string csv_name = "fig.csv";
  if (title.size() >= 9 && title.rfind("Figure ", 0) == 0) {
    csv_name = "fig" + title.substr(7, title.find(':') - 7) + ".csv";
  }
  const std::string csv_path = util::out_path(csv_name);
  std::ofstream csv(csv_path);
  if (csv) {
    csv << table.to_csv();
    std::printf("\n(csv written to %s)\n", csv_path.c_str());
  }
}

}  // namespace spcd::bench
