#include "bench/e2e/harness.hpp"

#include <signal.h>
#include <sys/mman.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include "obs/json.hpp"

namespace spcd::e2e {

double percentile(std::vector<double> samples, double pct) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank =
      pct / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

double tail_percentile(std::size_t n, double cap) {
  for (const double pct : {99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (pct <= cap &&
        static_cast<double>(n) * (100.0 - pct) / 100.0 >= 10.0 - 1e-9) {
      return pct;
    }
  }
  return 100.0;
}

Summary summarize(const std::vector<double>& samples, double cap) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  s.p25 = percentile(samples, 25.0);
  s.p50 = percentile(samples, 50.0);
  s.p75 = percentile(samples, 75.0);
  s.tail_pct = tail_percentile(samples.size(), cap);
  s.tail = percentile(samples, s.tail_pct);
  return s;
}

bool growing_backlog(const std::vector<double>& lateness, double limit) {
  const std::size_t quarter = lateness.size() / 4;
  if (quarter == 0) return false;
  const std::vector<double> first(lateness.begin(),
                                  lateness.begin() +
                                      static_cast<std::ptrdiff_t>(quarter));
  const std::vector<double> last(
      lateness.end() - static_cast<std::ptrdiff_t>(quarter), lateness.end());
  return percentile(last, 50.0) - percentile(first, 50.0) > limit;
}

PhaseResult analyze_phase(std::vector<OpSample> samples, double rate,
                          std::uint32_t events_per_batch, double limit_s,
                          double pct) {
  PhaseResult result;
  result.rate = rate;
  std::sort(samples.begin(), samples.end(),
            [](const OpSample& a, const OpSample& b) { return a.due < b.due; });
  for (const OpSample& s : samples) {
    ++result.ops;
    result.span_s = std::max(result.span_s, s.end);
    result.late_s.push_back(std::max(0.0, s.start - s.due));
    if (!s.ok) {
      ++result.failed;
      continue;
    }
    switch (s.kind) {
      case OpKind::kBatch:
        result.events += events_per_batch;
        result.batch_s.push_back(s.end - s.due);
        result.batch_rtt_s.push_back(s.end - s.start);
        break;
      case OpKind::kHeartbeat:
        result.heartbeat_rtt_s.push_back(s.end - s.start);
        break;
      case OpKind::kStats:
        result.stats_rtt_s.push_back(s.end - s.start);
        break;
    }
  }
  result.met = result.failed == 0 && !result.batch_s.empty() &&
               percentile(result.batch_s, pct) <= limit_s &&
               !growing_backlog(result.late_s, limit_s);
  return result;
}

double max_rate_ok(const std::vector<PhaseResult>& phases) {
  double best_rate = 0.0;
  double best = 0.0;
  for (const PhaseResult& phase : phases) {
    if (phase.met && phase.rate > best_rate) {
      best_rate = phase.rate;
      best = phase.events_per_s();
    }
  }
  return best;
}

int spawn(const std::vector<std::string>& args, int stdout_fd) {
  std::vector<char*> argv;
  for (const std::string& a : args) {
    argv.push_back(const_cast<char*>(a.c_str()));
  }
  argv.push_back(nullptr);
  const pid_t pid = fork();
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (stdout_fd >= 0) dup2(stdout_fd, STDOUT_FILENO);
    execv(argv[0], argv.data());
    _exit(127);
  }
  return pid;
}

bool reap(int pid, double timeout_s, double* peak_rss_mb) {
  const auto t0 = Clock::now();
  int status = 0;
  rusage usage{};
  while (wait4(pid, &status, WNOHANG, &usage) == 0) {
    if (seconds_since(t0) > timeout_s) {
      kill(pid, SIGKILL);
      wait4(pid, &status, 0, &usage);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (peak_rss_mb != nullptr) {
    *peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  }
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

namespace {

constexpr std::uint32_t kCalibrationEntries = 1u << 22;  // 16 MiB
constexpr int kCalibrationSteps = 1'000'000;
// The kernel's time on the reference host (4 vCPUs, Xeon @ 2.1 GHz) in an
// average regime; it only scales the reported values.
constexpr double kCalibrationReferenceSeconds = 0.12;

/// The timed kernel: a dependent-load chase along i -> a*i + c (mod 2^22),
/// one full cycle (Hull-Dobell: c odd, a = 1 mod 4) whose successive
/// addresses no prefetcher can follow. The ring is held on 4 KiB pages:
/// whether a fresh 16 MiB mapping gets huge pages depends on the host's
/// memory fragmentation, which would add noise of its own.
double chase_seconds() {
  const std::size_t bytes = kCalibrationEntries * sizeof(std::uint32_t);
  void* mem = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) return -1.0;
  madvise(mem, bytes, MADV_NOHUGEPAGE);
  auto* ring = static_cast<std::uint32_t*>(mem);
  for (std::uint32_t i = 0; i < kCalibrationEntries; ++i) {
    ring[i] = (1664525u * i + 1013904223u) & (kCalibrationEntries - 1);
  }
  const auto t0 = Clock::now();
  std::uint32_t at = 0;
  for (int step = 0; step < kCalibrationSteps; ++step) at = ring[at];
  const double seconds = seconds_since(t0);
  munmap(mem, bytes);
  return at == kCalibrationEntries ? -1.0 : seconds;  // `at` stays observed
}

}  // namespace

void Calibration::sample() {
  int fds[2];
  if (pipe(fds) != 0) return;
  const pid_t pid = fork();
  if (pid == 0) {
    const double seconds = chase_seconds();
    const ssize_t wrote = write(fds[1], &seconds, sizeof seconds);
    _exit(wrote == sizeof seconds ? 0 : 1);
  }
  close(fds[1]);
  double seconds = 0.0;
  const bool got = pid > 0 && read(fds[0], &seconds, sizeof seconds) ==
                                  static_cast<ssize_t>(sizeof seconds);
  close(fds[0]);
  if (pid > 0) reap(pid, 30.0);
  if (got && seconds > 0.0) samples_.push_back(seconds);
}

double Calibration::slowdown() const {
  return samples_.empty()
             ? 1.0
             : percentile(samples_, 50.0) / kCalibrationReferenceSeconds;
}

std::vector<double> Calibration::times(std::vector<double> raw) const {
  const double factor = std::pow(slowdown(), beta_);
  for (double& v : raw) v /= factor;
  return raw;
}

std::vector<double> Calibration::rates(std::vector<double> raw) const {
  const double factor = std::pow(slowdown(), beta_);
  for (double& v : raw) v *= factor;
  return raw;
}

double self_peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --- tracing -----------------------------------------------------------------

namespace {

/// Microseconds since a process-wide epoch (span timestamps).
double now_us() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double, std::micro>(Clock::now() - epoch)
      .count();
}

thread_local std::vector<std::int64_t> t_open_spans;

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

}  // namespace

Tracer::Span::Span(Tracer& tracer, const char* name, std::string request,
                   std::int64_t parent)
    : tracer_(&tracer) {
  if (!tracer.enabled()) return;
  if (parent == kInherit) {
    parent = t_open_spans.empty() ? kNoParent : t_open_spans.back();
  }
  id_ = tracer.open(name, std::move(request), parent);
  t_open_spans.push_back(id_);
}

Tracer::Span::~Span() {
  if (id_ == kNoParent) return;
  tracer_->close(id_);
  t_open_spans.pop_back();
}

std::int64_t Tracer::open(const char* name, std::string request,
                          std::int64_t parent) {
  const double start = now_us();
  std::lock_guard<std::mutex> lock(mu_);
  records_.push_back(Record{name, std::move(request), parent, thread_index(),
                            start, start});
  return static_cast<std::int64_t>(records_.size() - 1);
}

void Tracer::close(std::int64_t id) {
  const double end = now_us();
  std::lock_guard<std::mutex> lock(mu_);
  records_[static_cast<std::size_t>(id)].end_us = end;
}

std::string Tracer::self_time_table() const {
  // A span's self time is its duration minus the part of it that its
  // children cover (children on other threads may overlap each other, so
  // take the union of their intervals).
  std::vector<std::vector<std::size_t>> children(records_.size());
  for (std::size_t i = 0; i < records_.size(); ++i) {
    if (records_[i].parent >= 0) {
      children[static_cast<std::size_t>(records_[i].parent)].push_back(i);
    }
  }
  struct Row {
    std::uint64_t count = 0;
    double total_us = 0.0;
    double self_us = 0.0;
  };
  std::map<std::string, Row> rows;
  double all_self = 0.0;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::vector<std::pair<double, double>> cover;
    for (const std::size_t c : children[i]) {
      const double a = std::max(records_[c].start_us, r.start_us);
      const double b = std::min(records_[c].end_us, r.end_us);
      if (b > a) cover.emplace_back(a, b);
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0.0;
    double reach = r.start_us;
    for (const auto& [a, b] : cover) {
      if (b <= reach) continue;
      covered += b - std::max(a, reach);
      reach = b;
    }
    Row& row = rows[r.name];
    ++row.count;
    row.total_us += r.end_us - r.start_us;
    row.self_us += (r.end_us - r.start_us) - covered;
    all_self += (r.end_us - r.start_us) - covered;
  }
  std::vector<std::pair<std::string, Row>> sorted(rows.begin(), rows.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.second.self_us > b.second.self_us;
  });
  std::string out = "span                              count     total_s"
                    "      self_s  self%\n";
  char line[160];
  for (const auto& [name, row] : sorted) {
    std::snprintf(line, sizeof line, "%-30s %8llu %11.4f %11.4f %6.2f\n",
                  name.c_str(), static_cast<unsigned long long>(row.count),
                  row.total_us / 1e6, row.self_us / 1e6,
                  all_self > 0.0 ? 100.0 * row.self_us / all_self : 0.0);
    out += line;
  }
  return out;
}

std::string Tracer::write(const std::string& dir,
                          const std::string& stem) const {
  std::lock_guard<std::mutex> lock(mu_);
  obs::JsonWriter w;
  w.begin_object().key("traceEvents").begin_array();
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    w.begin_object();
    w.key("name").value(r.name);
    w.key("ph").value("X");
    w.key("ts").value(r.start_us);
    w.key("dur").value(r.end_us - r.start_us);
    w.key("pid").value(std::uint64_t{1});
    w.key("tid").value(r.thread);
    w.key("args").begin_object();
    w.key("id").value(static_cast<std::uint64_t>(i));
    w.key("parent").value(r.parent);
    w.key("request").value(r.request);
    w.end_object().end_object();
  }
  w.end_array().end_object();
  const std::string table = self_time_table();
  std::filesystem::create_directories(dir);
  std::ofstream(dir + "/" + stem + ".trace.json", std::ios::binary) << w.str();
  std::ofstream(dir + "/" + stem + ".selftime.txt", std::ios::binary) << table;
  return table;
}

// --- results -----------------------------------------------------------------

void Outcome::gate(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  gate_failures.push_back(what);
  std::fprintf(stderr, "spcd_bench: GATE FAILED: %s\n", what.c_str());
}

void Outcome::set(const std::string& name, double value,
                  const std::string& unit, const Summary& spread) {
  metrics[name] = Metric{value, unit, spread};
}

void Outcome::set_median(const std::string& name,
                         const std::vector<double>& samples,
                         const std::string& unit) {
  const Summary s = summarize(samples);
  set(name, s.p50, unit, s);
}

void Outcome::set_latency(const std::vector<double>& seconds, double cap) {
  std::vector<double> ms;
  ms.reserve(seconds.size());
  for (const double s : seconds) ms.push_back(s * 1e3);
  const Summary lat = summarize(ms, cap);
  set("latency_p50_ms", lat.p50, "ms", lat);
  set("latency_tail_ms", lat.tail, "ms", lat);
}

}  // namespace spcd::e2e
