// spcd_bench: the end-to-end benchmark of both halves of the system — the
// simulator pipeline (figure grid, one serial cell) and the spcdd daemon
// (journaled closed and open loop). This header holds what the workload
// files share: options, sample statistics, the span recorder behind
// --trace, and the per-run outcome that becomes the result JSON.
//
// Every number is host (wall-clock) time; simulated time never enters a
// metric. See README.md for the metric glossary.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace spcd::e2e {

// --- options -----------------------------------------------------------------

struct Options {
  /// Empty: every workload, one child process each.
  std::string workload;
  /// The pipeline's historical base seed, that of the reference cache.
  std::uint64_t seed = 0xC0FFEE;
  /// Measured length of one run; fixes the pass count.
  double seconds = 15.0;
  /// The per-layer run instead of the end-to-end one.
  bool trace = false;
  /// About 1/kSmokeDivisor of each workload, same gates.
  bool smoke = false;
  std::string trace_dir = ".bench_build/e2e-trace";
  std::string scratch = ".bench_build/e2e-scratch";
  /// The daemon binary.
  std::string spcdd;
  /// Cap on load threads and connections.
  unsigned nproc = 1;

  bool default_seed() const { return seed == 0xC0FFEE; }
};

/// --smoke runs each workload at about 1/this of its size.
inline constexpr double kSmokeDivisor = 20.0;
/// Set-up samples per run (median taken).
inline constexpr int kSetupSamples = 5;

// --- sample statistics -------------------------------------------------------

/// Linear-interpolation percentile (0..100) of `samples` (copied, sorted).
double percentile(std::vector<double> samples, double pct);

/// The highest of the conventional percentiles (99, 95, 90, 75, 50), at
/// most `cap`, that has at least ten samples beyond it; 100 (the maximum)
/// when none has.
double tail_percentile(std::size_t n, double cap = 99.0);

/// One metric's samples reduced to what the result JSON reports.
struct Summary {
  std::size_t n = 0;
  double p25 = 0.0;
  double p50 = 0.0;
  double p75 = 0.0;
  double tail = 0.0;      ///< value at tail_pct
  double tail_pct = 0.0;  ///< chosen by tail_percentile(n)
};
Summary summarize(const std::vector<double>& samples, double cap = 99.0);

/// True when the generator's lateness grows across a phase: the median
/// lateness of the last quarter of ops (in due order) exceeds that of the
/// first quarter by more than `limit`. A phase the system keeps up with
/// has flat lateness however large its one-off stalls are.
bool growing_backlog(const std::vector<double>& lateness, double limit);

// --- open-loop analysis ------------------------------------------------------

enum class OpKind : std::uint8_t { kBatch, kHeartbeat, kStats };

/// One open-loop op; times are seconds since the phase start.
struct OpSample {
  OpKind kind = OpKind::kBatch;
  bool ok = false;
  double due = 0.0;    ///< when the schedule says it is sent
  double start = 0.0;  ///< when the generator sent it
  double end = 0.0;    ///< when the reply arrived
};

/// One fixed-rate phase reduced to its latencies.
struct PhaseResult {
  double rate = 0.0;    ///< offered ops/s
  double span_s = 0.0;  ///< phase start to the last reply
  std::uint64_t events = 0;
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::vector<double> batch_s;      ///< batch ack latency from due time
  std::vector<double> batch_rtt_s;  ///< batch send-to-ack
  std::vector<double> heartbeat_rtt_s;
  std::vector<double> stats_rtt_s;
  std::vector<double> late_s;  ///< generator lateness, in due order
  bool met = false;            ///< see analyze_phase
  double events_per_s() const {
    return span_s > 0.0 ? static_cast<double>(events) / span_s : 0.0;
  }
};

/// Latencies count from each op's due time, so a stall is charged to
/// every op queued behind it; a phase meets `limit_s` when no op failed,
/// the batch latency at percentile `pct` is within it, and lateness does
/// not grow.
PhaseResult analyze_phase(std::vector<OpSample> samples, double rate,
                          std::uint32_t events_per_batch, double limit_s,
                          double pct);

/// max_rate_ok: the acked event rate at the highest phase that met its
/// limit; 0 when none did.
double max_rate_ok(const std::vector<PhaseResult>& phases);

// --- child processes ---------------------------------------------------------

/// fork + exec `args` (args[0] is the binary path) with stdout on
/// `stdout_fd` (-1: inherited). The child is killed if this thread dies,
/// so a crashed harness never leaves a daemon behind.
int spawn(const std::vector<std::string>& args, int stdout_fd);
/// Wait for `pid` up to `timeout_s`, then SIGKILL it; returns true when
/// it exited 0. `peak_rss_mb` (optional) receives the child's peak RSS.
bool reap(int pid, double timeout_s, double* peak_rss_mb = nullptr);

// --- timing ------------------------------------------------------------------

using Clock = std::chrono::steady_clock;
inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Host-speed calibration. A shared host drifts between speed regimes for
/// minutes at a time (the same cell takes 1.0 s or 1.8 s), which no
/// amount of work per run averages out. A fixed pointer-chase kernel,
/// timed between a run's passes, slows down with it, so end-to-end times
/// are reported at the reference host's speed: raw / slowdown^beta. The
/// kernel is harness code, so a change to the program cannot move it.
/// `beta` is a partial correction (README.md, "Host-speed calibration"):
/// how strongly a workload follows the kernel changes with what the rest
/// of the host is doing, and a full correction made runs noisier than no
/// correction in some periods.
class Calibration {
 public:
  explicit Calibration(double beta) : beta_(beta) {}
  /// Time the kernel once (about 0.1 s on the reference host), in a
  /// forked child so its 16 MiB never counts toward this run's peak RSS.
  /// Call only while this process runs no other thread.
  void sample();
  /// This run's kernel time over the reference host's: > 1 = slower host.
  double slowdown() const;
  /// Times measured in this run, at the reference host's speed.
  std::vector<double> times(std::vector<double> raw) const;
  /// Work rates measured in this run, at the reference host's speed.
  std::vector<double> rates(std::vector<double> raw) const;

 private:
  double beta_;
  std::vector<double> samples_;
};

/// This process's peak resident set, in MB.
double self_peak_rss_mb();

// --- tracing -----------------------------------------------------------------

/// In-memory span recorder. Spans are recorded by the harness around its
/// calls into public layer functions (no spans inside the program), kept
/// in memory, and written out as a Chrome trace plus a self-time table
/// when the run ends. A disabled tracer records nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  static constexpr std::int64_t kNoParent = -1;

  /// RAII span. The parent defaults to the innermost span open on this
  /// thread; work handed to another thread passes its parent explicitly.
  class Span {
   public:
    Span(Tracer& tracer, const char* name, std::string request = {},
         std::int64_t parent = kInherit);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    std::int64_t id() const { return id_; }

   private:
    static constexpr std::int64_t kInherit = -2;
    Tracer* tracer_;
    std::int64_t id_ = kNoParent;
  };

  /// Write "<dir>/<stem>.trace.json" (Chrome trace_event format) and
  /// "<dir>/<stem>.selftime.txt", and return the self-time table.
  std::string write(const std::string& dir, const std::string& stem) const;

 private:
  struct Record {
    const char* name;
    std::string request;
    std::int64_t parent;
    std::uint32_t thread;
    double start_us;
    double end_us;
  };

  std::int64_t open(const char* name, std::string request,
                    std::int64_t parent);
  void close(std::int64_t id);
  std::string self_time_table() const;

  bool enabled_;
  mutable std::mutex mu_;  // guards records_
  std::vector<Record> records_;
};

// --- results -----------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
  Summary spread;  ///< the samples `value` was reduced from (n = 0: none)
};

/// What one workload run produced: ops attempted/failed, correctness-gate
/// verdicts, and the metrics (end-to-end, or per-layer under --trace).
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double host_slowdown = 1.0;  ///< Calibration::slowdown() of the run
  /// Reported in the record but not a metric (no bound).
  std::map<std::string, double> info;
  std::vector<std::string> gate_failures;
  std::map<std::string, Metric> metrics;
  std::string self_time;  ///< traced runs: the self-time table

  /// Record a correctness gate; a failed gate counts as a failed op.
  void gate(bool ok, const std::string& what);
  void set(const std::string& name, double value, const std::string& unit,
           const Summary& spread = {});
  /// Median of `samples` with their spread.
  void set_median(const std::string& name, const std::vector<double>& samples,
                  const std::string& unit);
  /// latency_p50_ms and latency_tail_ms from latencies in seconds; the
  /// tail is the highest percentile up to `cap` with ten samples beyond.
  void set_latency(const std::vector<double>& seconds, double cap = 99.0);
};

/// The workload entry points (sim_workloads.cpp, svc_workloads.cpp).
Outcome run_grid(const Options& opt);
Outcome run_cell_serial(const Options& opt);
Outcome run_svc_closed(const Options& opt);
Outcome run_svc_open(const Options& opt);

/// Every traced run reports every layer. A layer the workload drives is
/// measured on the workload's own inputs; a layer it bypasses is measured
/// on a small seeded probe input, so its value is that layer's unit cost
/// (README.md, "Traced run"). These two fill in the half a workload
/// bypasses: the runner, workloads, sim and core layers over a probe grid
/// and cell, and the svc, journal and client layers over a probe stream
/// and a short live open loop.
void sim_layers_from_probe(const Options& opt, Tracer& tracer, Outcome& out);
void svc_layers_from_probe(const Options& opt, Tracer& tracer, Outcome& out);

}  // namespace spcd::e2e
