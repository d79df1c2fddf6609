// spcd_bench — one end-to-end benchmark for both halves of the system.
//
//   spcd_bench [--workload W] [--seed N] [--seconds S] [--trace 0|1]
//
// Without --workload every workload runs, each in its own child process
// (so peak_rss_mb is per workload). Each run prints a table on stderr,
// then two lines on stdout: the full record (host, every metric's median,
// quartiles, tail and sample count) and, last, the summary
// {"correct", "attempted", "failed", "metrics"}. Exit 0 only if every
// correctness gate passed and no operation failed; 2 on a usage error.
#include <sys/utsname.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/e2e/harness.hpp"
#include "obs/json.hpp"
#include "util/cli.hpp"

extern char** environ;

namespace {

using namespace spcd::e2e;

constexpr char kUsage[] =
    "usage: spcd_bench [--workload grid|cell_serial|svc_closed|svc_open]\n"
    "                  [--seed N] [--seconds S] [--trace 0|1] [--smoke]\n"
    "                  [--trace-dir DIR] [--scratch DIR] [--spcdd PATH]\n"
    "       spcd_bench --self-test\n"
    "\n"
    "  --workload W    run one workload in this process (default: all,\n"
    "                  one child process each)\n"
    "  --seed N        input seed (default 12648430 = 0xC0FFEE, the seed\n"
    "                  of the committed reference cache)\n"
    "  --seconds S     measured length of a run (default 15)\n"
    "  --trace 0|1     1: the traced per-layer run instead of the\n"
    "                  end-to-end one; writes <trace-dir>/<workload>\n"
    "                  .trace.json (Chrome) and .selftime.txt\n"
    "  --smoke         every workload at about 1/20 size, same gates\n"
    "  --self-test     check the harness's statistics on synthetic samples\n"
    "  --trace-dir DIR default .bench_build/e2e-trace\n"
    "  --scratch DIR   journals and sockets (default\n"
    "                  .bench_build/e2e-scratch; keep it short: socket\n"
    "                  paths are limited to 107 bytes)\n"
    "  --spcdd PATH    the daemon binary (default: the one built alongside)\n";

constexpr const char* kWorkloads[] = {"grid", "cell_serial", "svc_closed",
                                      "svc_open"};

/// Clear every SPCD_* knob so runs measure the programs' defaults (the
/// daemon children inherit the cleaned environment).
void clear_spcd_environment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "SPCD_", 5) == 0) {
      const char* eq = std::strchr(*e, '=');
      names.emplace_back(*e, eq == nullptr ? std::strlen(*e)
                                           : static_cast<std::size_t>(eq - *e));
    }
  }
  for (const std::string& name : names) unsetenv(name.c_str());
}

std::string first_line_with(const char* path, const char* key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      const std::size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// The filesystem type of the mount holding `path` (longest mount-point
/// prefix in /proc/self/mounts).
std::string filesystem_type(const std::string& path) {
  std::error_code ec;
  const std::string abs = std::filesystem::weakly_canonical(path, ec).string();
  std::ifstream mounts("/proc/self/mounts");
  std::string device, mount_point, type, rest;
  std::string best_type = "unknown";
  std::size_t best_len = 0;
  while (mounts >> device >> mount_point >> type &&
         std::getline(mounts, rest)) {
    const bool prefix =
        abs.rfind(mount_point, 0) == 0 &&
        (abs.size() == mount_point.size() || mount_point == "/" ||
         abs[mount_point.size()] == '/');
    if (prefix && mount_point.size() >= best_len) {
      best_len = mount_point.size();
      best_type = type;
    }
  }
  return best_type;
}

void write_host(spcd::obs::JsonWriter& w, const Options& opt) {
  utsname uts{};
  uname(&uts);
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#else
  const std::string compiler = std::string("gcc ") + __VERSION__;
#endif
  w.key("host").begin_object();
  w.key("nproc").value(static_cast<std::uint64_t>(opt.nproc));
  w.key("cpu").value(first_line_with("/proc/cpuinfo", "model name"));
  w.key("kernel").value(static_cast<const char*>(uts.release));
  w.key("scratch_fs").value(filesystem_type(opt.scratch));
  w.key("compiler").value(compiler);
  w.key("build_type").value(SPCD_E2E_BUILD_TYPE);
  w.key("git_rev").value(SPCD_E2E_GIT_REV);
  w.end_object();
}

Outcome run_workload(const Options& opt) {
  if (opt.workload == "grid") return run_grid(opt);
  if (opt.workload == "cell_serial") return run_cell_serial(opt);
  if (opt.workload == "svc_closed") return run_svc_closed(opt);
  return run_svc_open(opt);
}

int report(const Options& opt, Outcome& out) {
  for (auto& [name, metric] : out.metrics) {
    if (!std::isfinite(metric.value)) {
      out.gate(false, "metric " + name + " is not finite");
      metric.value = 0.0;
    }
  }
  const bool correct = out.failed == 0;

  std::fprintf(stderr,
               "\nspcd_bench %s (seed %llu, %s run, host slowdown %.3f)\n",
               opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
               opt.trace ? "traced per-layer" : "end-to-end",
               out.host_slowdown);
  std::fprintf(stderr, "%-32s %14s %-6s %6s %12s %12s %12s %12s\n", "metric",
               "value", "unit", "n", "p25", "p50", "p75", "tail@pct");
  for (const auto& [name, m] : out.metrics) {
    if (m.spread.n == 0) {
      std::fprintf(stderr, "%-32s %14.6g %-6s\n", name.c_str(), m.value,
                   m.unit.c_str());
      continue;
    }
    std::fprintf(stderr,
                 "%-32s %14.6g %-6s %6zu %12.6g %12.6g %12.6g %9.6g@%g\n",
                 name.c_str(), m.value, m.unit.c_str(), m.spread.n,
                 m.spread.p25, m.spread.p50, m.spread.p75, m.spread.tail,
                 m.spread.tail_pct);
  }
  for (const auto& [name, value] : out.info) {
    std::fprintf(stderr, "%-32s %14.6g (recorded, no bound)\n", name.c_str(),
                 value);
  }
  if (!out.self_time.empty()) {
    std::fprintf(stderr, "\nself time (traced run)\n%s",
                 out.self_time.c_str());
  }
  std::fprintf(stderr, "attempted %llu, failed %llu -> %s\n\n",
               static_cast<unsigned long long>(out.attempted),
               static_cast<unsigned long long>(out.failed),
               correct ? "correct" : "INCORRECT");

  spcd::obs::JsonWriter record;
  record.begin_object();
  record.key("schema").value("spcd-bench-e2e-v1");
  record.key("workload").value(opt.workload);
  record.key("seed").value(opt.seed);
  record.key("seconds").value(opt.seconds);
  record.key("trace").value(opt.trace);
  record.key("smoke").value(opt.smoke);
  write_host(record, opt);
  record.key("host_slowdown").value(out.host_slowdown);
  record.key("info").begin_object();
  for (const auto& [name, value] : out.info) record.key(name).value(value);
  record.end_object();
  record.key("gate_failures").begin_array();
  for (const std::string& g : out.gate_failures) record.value(g);
  record.end_array();
  record.key("metrics").begin_object();
  for (const auto& [name, m] : out.metrics) {
    record.key(name).begin_object();
    record.key("value").value(m.value).key("unit").value(m.unit);
    if (m.spread.n != 0) {
      record.key("n").value(static_cast<std::uint64_t>(m.spread.n));
      record.key("p25").value(m.spread.p25);
      record.key("p50").value(m.spread.p50);
      record.key("p75").value(m.spread.p75);
      record.key("tail").value(m.spread.tail);
      record.key("tail_pct").value(m.spread.tail_pct);
    }
    record.end_object();
  }
  record.end_object().end_object();

  spcd::obs::JsonWriter summary;
  summary.begin_object();
  summary.key("correct").value(correct);
  summary.key("attempted").value(std::max<std::uint64_t>(out.attempted, 1));
  summary.key("failed").value(out.failed);
  summary.key("metrics").begin_object();
  for (const auto& [name, m] : out.metrics) {
    summary.key(name).begin_object();
    summary.key("value").value(m.value).key("unit").value(m.unit);
    summary.end_object();
  }
  summary.end_object().end_object();
  std::printf("%s\n%s\n", record.str().c_str(), summary.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

/// Every workload, each in a child process running this binary.
int run_all(const std::vector<std::string>& passthrough) {
  int rc = 0;
  for (const char* workload : kWorkloads) {
    std::vector<std::string> args{"/proc/self/exe", "--workload", workload};
    args.insert(args.end(), passthrough.begin(), passthrough.end());
    std::fflush(stdout);
    const int pid = spawn(args, -1);
    if (pid <= 0 || !reap(pid, 900.0)) rc = 1;
  }
  return rc;
}

// --- self-test ---------------------------------------------------------------

int failures = 0;

void check(bool ok, const char* what) {
  std::fprintf(stderr, "  %s  %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

/// A single FIFO server fed on a fixed schedule: op i is due at i * gap,
/// starts when due or when the previous op ends, and takes `service`
/// (plus `stall` for op `stall_at`). The generator itself is never late.
std::vector<OpSample> fifo_schedule(int ops, double gap, double service,
                                    int stall_at, double stall) {
  std::vector<OpSample> samples;
  double free_at = 0.0;
  for (int i = 0; i < ops; ++i) {
    OpSample s;
    s.ok = true;
    s.due = i * gap;
    s.start = s.due;
    const double begin = std::max(s.due, free_at);
    s.end = begin + service + (i == stall_at ? stall : 0.0);
    free_at = s.end;
    samples.push_back(s);
  }
  return samples;
}

int self_test() {
  std::fprintf(stderr, "spcd_bench self-test\n");
  check(near(percentile({1, 2, 3, 4, 5}, 50), 3) &&
            near(percentile({1, 2, 3, 4, 5}, 25), 2) &&
            near(percentile({0, 10}, 90), 9),
        "percentile interpolates linearly between order statistics");
  check(tail_percentile(1000) == 99 && tail_percentile(999) == 95 &&
            tail_percentile(200) == 95 && tail_percentile(199) == 90 &&
            tail_percentile(100) == 90 && tail_percentile(40) == 75 &&
            tail_percentile(20) == 50 && tail_percentile(19) == 100 &&
            tail_percentile(5000, 90) == 90,
        "tail percentile: the highest with >= 10 samples beyond it");

  // 2 ms between ops, 0.5 ms service, one 20 ms stall at op 10: the ops
  // queued behind the stall wait, and latency from due time shows it.
  const PhaseResult stalled = analyze_phase(
      fifo_schedule(200, 2e-3, 0.5e-3, 10, 20e-3), 500, 64, 2e-3, 99);
  check(near(percentile(stalled.batch_rtt_s, 50), 0.5e-3),
        "open loop: the median op is served in its service time");
  check(percentile(stalled.batch_s, 99) > 5e-3,
        "open loop: latency counts from the due time, so the stall is "
        "charged to the ops queued behind it");
  check(!stalled.met, "open loop: the stalled phase misses a 2 ms p99");
  check(analyze_phase(fifo_schedule(200, 2e-3, 0.5e-3, 10, 20e-3), 500, 64,
                      2e-3, 90)
            .met,
        "open loop: one stall delaying 5% of ops still meets a 2 ms p90");
  check(stalled.events == 200 * 64 && near(stalled.span_s, 199 * 2e-3 + 0.5e-3),
        "open loop: acked events and phase span");

  std::vector<double> flat(400, 1e-4);
  std::vector<double> spike = flat;
  spike[200] = 50e-3;
  std::vector<double> growing;
  for (int i = 0; i < 400; ++i) growing.push_back(i * 1e-4);
  check(!growing_backlog(flat, 2e-3) && !growing_backlog(spike, 2e-3) &&
            growing_backlog(growing, 2e-3),
        "backlog: growing lateness is detected, a one-off stall is not");

  // Overloaded: ops due every 1 ms, 1.5 ms service: the queue grows.
  std::vector<OpSample> overloaded;
  double free_at = 0.0;
  for (int i = 0; i < 400; ++i) {
    OpSample s;
    s.ok = true;
    s.due = i * 1e-3;
    s.start = std::max(s.due, free_at);  // one synchronous connection
    s.end = s.start + 1.5e-3;
    free_at = s.end;
    overloaded.push_back(s);
  }
  const PhaseResult over = analyze_phase(overloaded, 1000, 64, 2e-3, 90);
  check(!over.met && growing_backlog(over.late_s, 2e-3),
        "open loop: an overloaded phase shows growing lateness and misses");

  const PhaseResult easy = analyze_phase(
      fifo_schedule(400, 2e-3, 0.5e-3, -1, 0.0), 500, 64, 2e-3, 99);
  const PhaseResult busier = analyze_phase(
      fifo_schedule(400, 1e-3, 0.5e-3, -1, 0.0), 1000, 64, 2e-3, 99);
  check(easy.met && busier.met, "open loop: unloaded phases meet the limit");
  check(near(max_rate_ok({easy, busier, over}), busier.events_per_s()) &&
            near(max_rate_ok({over}), 0.0) &&
            near(max_rate_ok({easy, over, busier}), busier.events_per_s()),
        "max_rate_ok: the acked rate at the highest rate met, 0 if none");
  std::fprintf(stderr, "%s\n", failures == 0 ? "self-test passed"
                                             : "self-test FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  clear_spcd_environment();
  Options opt;
  opt.nproc = std::max(1u, std::thread::hardware_concurrency());
  opt.spcdd = SPCD_E2E_SPCDD;
  spcd::util::CliArgs args(argc, argv, kUsage);
  while (args.next()) {
    if (args.is("--workload")) {
      opt.workload = args.value();
      bool known = false;
      for (const char* w : kWorkloads) known |= opt.workload == w;
      if (!known) args.fail("unknown workload %s\n", opt.workload.c_str());
    } else if (args.is("--self-test")) {
      return self_test();
    } else if (args.is("--smoke")) {
      opt.smoke = true;
    } else if (args.is("--seed")) {
      opt.seed = args.u64();
    } else if (args.is("--seconds")) {
      opt.seconds = args.real();
      if (!(opt.seconds > 0.0)) args.fail("%s must be positive\n", "--seconds");
    } else if (args.is("--trace")) {
      const std::uint64_t v = args.u64();
      if (v > 1) args.fail("%s takes 0 or 1\n", "--trace");
      opt.trace = v == 1;
    } else if (args.is("--trace-dir")) {
      opt.trace_dir = args.value();
    } else if (args.is("--scratch")) {
      opt.scratch = args.value();
    } else if (args.is("--spcdd")) {
      opt.spcdd = args.value();
    } else if (args.help()) {
      return 0;
    } else {
      args.unknown();
    }
  }
  if (opt.workload.empty()) return run_all({argv + 1, argv + argc});

  std::filesystem::create_directories(opt.scratch);
  Outcome out = run_workload(opt);
  return report(opt, out);
}
