// The daemon half: `svc_closed` (journaled closed loop) and `svc_open`
// (fixed-rate open loop over the same daemon), plus the svc layer census
// and the live probe of the traced run. The daemon is the real `spcdd
// --serve` binary in a child process, journaled with fsync-before-ack;
// the harness talks to it through TenantClients over a Unix socket.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include "bench/e2e/harness.hpp"
#include "svc/client.hpp"
#include "svc/driver.hpp"
#include "svc/protocol.hpp"
#include "svc/service.hpp"
#include "svc/session_journal.hpp"
#include "svc/sharded_table.hpp"
#include "svc/transport.hpp"
#include "util/journal.hpp"

namespace spcd::e2e {

namespace {

// One connection (and tenant) per core, at most four.
constexpr std::uint32_t kConnections = 4;
constexpr std::uint32_t kThreadsPerTenant = 8;
// The sharing-table size both workloads run against.
constexpr std::uint64_t kTableEntries = 4096;

/// One traffic shape: batch size and the region pool per thread pair.
struct Shape {
  std::uint32_t events_per_batch;
  std::uint64_t regions_per_pair;
};
// svc_closed: 4 tenants x 4 pairs x 32 regions = 512 regions, so the
// table fits and the durable ingest path is what is measured.
constexpr Shape kClosedShape{256, 32};
constexpr std::uint32_t kClosedBatchesPerClient = 2048;
// Nominal pass length (loop + replay gate) on the reference host; with
// --seconds it fixes the number of passes.
constexpr double kClosedPassSeconds = 3.0;
// svc_open: 4 x 4 x 1024 = 16384 regions overflow the 4096-entry table,
// so every phase runs the eviction path.
constexpr Shape kOpenShape{64, 1024};

// svc_open's fixed offered rates (ops/s over all connections), pinned:
// doubling from about 1/4 to about 4x the capacity measured at the seed
// commit on the reference host (about 7000 ops/s, moving with the host's
// speed).
constexpr double kOpenRates[] = {2000, 4000, 8000, 16000, 32000};
// Op mix: 5% heartbeats, 5% stats reads, the rest fault batches.
constexpr std::uint64_t kHeartbeatPct = 5;
constexpr std::uint64_t kStatsPct = 5;
// A rate is met when batch acks stay within this limit from their due
// time at p90 and the generator's lateness does not grow. p90, not p99:
// one-off stalls of ~20 ms on the shared disk delay more than 1% of the
// acks at any rate, so p99 moved by 40% between runs of the same code.
constexpr double kLatencyLimitS = 2e-3;
constexpr double kMetPercentile = 90.0;
// The reported tails: p90 of svc_closed's acks (p99 moved by 40% between
// runs, as above), and p75 of svc_open's lowest-rate acks. At low load
// the daemon and clients idle between ops, and p90 and up follow the
// VM's wake-up latency, which moves with how busy the rest of the host is
// (p90 spread 0.35 over runs of the same code, p75 0.07).
constexpr double kClosedTailPercentile = 90.0;
constexpr double kOpenTailPercentile = 75.0;
// The host-speed corrections (Calibration). svc_open's is smaller: its
// time is mostly the drain at a capacity bounded by fsync, which follows
// the host's speed less than CPU work does.
constexpr double kClosedHostSensitivity = 0.5;
constexpr double kOpenHostSensitivity = 0.25;
// Each rate's schedule lasts run_seconds / 8; overloaded rates take
// longer to drain, so svc_open's wall_s and throughput track capacity.
constexpr double kPhaseFraction = 1.0 / 8.0;
constexpr double kPhaseGapSeconds = 0.1;
// The traced run's live probe: the lowest rate for this long.
constexpr double kProbeSeconds = 1.0;
// Census stream length per tenant (isolated layer passes).
constexpr std::uint32_t kCensusBatches = 256;
constexpr int kArbitrateRepeats = 5;

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint32_t connections(const Options& opt) {
  return std::min(kConnections, opt.nproc);
}

svc::DriverConfig driver_config(const Options& opt, const Shape& shape) {
  svc::DriverConfig config;
  config.tenants = connections(opt);
  config.threads_per_tenant = kThreadsPerTenant;
  config.events_per_batch = shape.events_per_batch;
  config.regions_per_pair = shape.regions_per_pair;
  config.seed = opt.seed;
  return config;
}

svc::ServiceConfig service_config() {
  svc::ServiceConfig config;
  config.table.num_entries = kTableEntries;
  return config;
}

/// The kB value of `key` in a /proc status file; 0 when absent.
std::uint64_t status_kib(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      return std::strtoull(line.c_str() + key.size(), nullptr, 10);
    }
  }
  return 0;
}

std::uint64_t json_u64(const std::string& json, const std::string& key) {
  const std::size_t at = json.find("\"" + key + "\":");
  if (at == std::string::npos) return 0;
  return std::strtoull(json.c_str() + at + key.size() + 3, nullptr, 10);
}

/// A scratch directory for one daemon or journal, removed with the object.
class ScratchDir {
 public:
  explicit ScratchDir(const Options& opt) {
    static int counter = 0;
    path_ = opt.scratch + "/" + std::to_string(getpid()) + "-" +
            std::to_string(++counter);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  std::string file(const char* name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

/// `spcdd --serve` in a child process, journaled, on a Unix socket.
class Daemon {
 public:
  Daemon(const Options& opt, const ScratchDir& dir)
      : socket_(dir.file("d.sock")),
        journal_(dir.file("d.journal")),
        metrics_(dir.file("d.metrics.json")) {
    int fds[2];
    if (pipe2(fds, O_CLOEXEC) != 0) return;
    out_fd_ = fds[0];
    pid_ = spawn({opt.spcdd, "--serve", "--socket", socket_, "--journal",
                  journal_, "--entries", std::to_string(kTableEntries),
                  "--quiet", "--metrics-out", metrics_},
                 fds[1]);
    close(fds[1]);
    ready_ = pid_ > 0 && await_listening();
  }
  ~Daemon() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      reap(pid_, 10.0);
    }
    if (out_fd_ >= 0) close(out_fd_);
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  bool ready() const { return ready_; }
  const std::string& socket() const { return socket_; }
  const std::string& journal() const { return journal_; }

  struct Exit {
    bool clean = false;
    double peak_rss_mb = 0.0;  ///< the daemon's own VmHWM before the drain
    std::uint64_t total_events = 0;
    std::uint64_t commits = 0;
  };

  /// SIGTERM (graceful drain), wait, and read the final metrics.
  Exit stop() {
    Exit exit;
    if (pid_ <= 0) return exit;
    // Not ru_maxrss: it counts the harness pages the child inherited
    // across fork. VmHWM belongs to the exec'd image alone.
    exit.peak_rss_mb =
        static_cast<double>(status_kib("/proc/" + std::to_string(pid_) +
                                       "/status", "VmHWM:")) / 1024.0;
    kill(pid_, SIGTERM);
    exit.clean = reap(pid_, 30.0);
    pid_ = -1;
    std::ifstream in(metrics_, std::ios::binary);
    std::ostringstream json;
    json << in.rdbuf();
    exit.total_events = json_u64(json.str(), "total_events");
    exit.commits = json_u64(json.str(), "commits");
    return exit;
  }

 private:
  bool await_listening() {
    std::string text;
    const auto t0 = Clock::now();
    while (seconds_since(t0) < 10.0) {
      pollfd p{out_fd_, POLLIN, 0};
      if (poll(&p, 1, 100) <= 0) continue;
      char buf[256];
      const ssize_t got = read(out_fd_, buf, sizeof buf);
      if (got <= 0) return false;
      text.append(buf, static_cast<std::size_t>(got));
      if (text.find("listening") != std::string::npos) return true;
    }
    return false;
  }

  std::string socket_;
  std::string journal_;
  std::string metrics_;
  int pid_ = -1;
  int out_fd_ = -1;
  bool ready_ = false;
};

/// SpcdService::replay of a live journal, in process: events per second.
double replay_rate(const std::string& journal, Tracer& tracer, Outcome& out) {
  Tracer::Span span(tracer, "svc.replay");
  const auto t0 = Clock::now();
  const svc::SpcdService::ReplayResult result =
      svc::SpcdService::replay(journal);
  const double seconds = seconds_since(t0);
  out.gate(result.ok && result.digest_mismatches == 0,
           "svc: in-process replay of the live journal failed");
  return result.service == nullptr
             ? 0.0
             : static_cast<double>(result.service->total_events()) / seconds;
}

/// A daemon plus one registered TenantClient per connection; set-up time
/// runs from spawn to the last hello.
struct Session {
  Session(const Options& opt, Tracer& tracer) : dir(opt) {
    Tracer::Span span(tracer, "svc.setup");
    const auto t0 = Clock::now();
    daemon = std::make_unique<Daemon>(opt, dir);
    ok = daemon->ready();
    for (std::uint32_t c = 0; ok && c < connections(opt); ++c) {
      svc::ClientConfig config;
      config.connect = [socket = daemon->socket()](std::uint32_t) {
        std::string error;
        return svc::connect_unix(socket, 5000, &error);
      };
      config.request_timeout_ms = 10000;
      config.backoff_seed = c + 1;
      clients.push_back(std::make_unique<svc::TenantClient>(
          config, "e2e-" + std::to_string(c), kThreadsPerTenant));
      ok = clients.back()->hello();
    }
    setup_s = seconds_since(t0);
  }

  /// Byes, then stop the daemon and apply the svc gates: a clean exit,
  /// every acked event committed, and `spcdd --replay` of the journal
  /// exiting 0 (zero digest mismatches). A non-null `replay_events_per_s`
  /// also times SpcdService::replay of the journal in process.
  Daemon::Exit finish(const Options& opt, std::uint64_t acked_events,
                      Tracer& tracer, Outcome& out,
                      double* replay_events_per_s = nullptr) {
    Tracer::Span span(tracer, "svc.finish");
    for (auto& client : clients) client->bye();
    const Daemon::Exit exit = daemon->stop();
    out.gate(exit.clean, "svc: the daemon did not exit cleanly");
    out.gate(exit.total_events == acked_events,
             "svc: acked events " + std::to_string(acked_events) +
                 " != the daemon's total_events " +
                 std::to_string(exit.total_events));
    {
      Tracer::Span replay(tracer, "spcdd.replay");
      const int pid =
          spawn({opt.spcdd, "--replay", daemon->journal(), "--quiet"}, -1);
      out.gate(pid > 0 && reap(pid, 120.0),
               "svc: spcdd --replay of the journal failed");
    }
    if (replay_events_per_s != nullptr) {
      *replay_events_per_s = replay_rate(daemon->journal(), tracer, out);
    }
    return exit;
  }

  svc::ClientStats client_totals() const {
    svc::ClientStats sum;
    for (const auto& client : clients) {
      sum.resends += client->stats().resends;
      sum.retries += client->stats().retries;
    }
    return sum;
  }

  ScratchDir dir;
  std::unique_ptr<Daemon> daemon;
  std::vector<std::unique_ptr<svc::TenantClient>> clients;
  double setup_s = 0.0;
  bool ok = false;
};

/// Pads `setup` to kSetupSamples with sessions that only register and
/// stop.
void sample_setups(const Options& opt, std::vector<double>& setup) {
  Tracer untraced(false);
  while (static_cast<int>(setup.size()) < kSetupSamples) {
    Session session(opt, untraced);
    setup.push_back(session.setup_s);
    for (auto& client : session.clients) client->bye();
    session.daemon->stop();
  }
}

// --- closed loop -------------------------------------------------------------

struct ClosedPass {
  double setup_s = 0.0;
  double wall_s = 0.0;
  std::uint64_t events = 0;
  std::vector<double> ack_s;
  Daemon::Exit exit;
  svc::ClientStats clients;
};

/// Every connection sends `batches` scripted batches back to back, each
/// after the previous one's ack.
ClosedPass run_closed_pass(const Options& opt, std::uint32_t batches,
                           Tracer& tracer, Outcome& out,
                           double* replay_events_per_s = nullptr) {
  ClosedPass pass;
  Session session(opt, tracer);
  pass.setup_s = session.setup_s;
  out.gate(session.ok, "svc_closed: the daemon or a hello failed");
  if (!session.ok) return pass;
  const svc::DriverConfig driver = driver_config(opt, kClosedShape);
  const std::size_t conns = session.clients.size();
  std::vector<std::vector<double>> acks(conns);
  std::vector<std::uint64_t> acked(conns, 0), failed(conns, 0);
  {
    Tracer::Span root(tracer, "svc_closed.pass");
    const std::int64_t root_id = root.id();
    const auto t0 = Clock::now();
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < conns; ++c) {
      threads.emplace_back([&, c] {
        const auto tenant = static_cast<std::uint32_t>(c);
        for (std::uint32_t b = 0; b < batches; ++b) {
          const auto events = svc::scripted_batch(driver, tenant, b);
          Tracer::Span span(tracer, "client.batch",
                            std::to_string(tenant) + ":" +
                                std::to_string(b + 1),
                            root_id);
          const auto t = Clock::now();
          if (session.clients[c]->send_batch(events)) {
            acks[c].push_back(seconds_since(t));
            acked[c] += events.size();
          } else {
            ++failed[c];
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    pass.wall_s = seconds_since(t0);
  }
  for (std::size_t c = 0; c < conns; ++c) {
    out.attempted += batches;
    out.failed += failed[c];
    pass.events += acked[c];
    pass.ack_s.insert(pass.ack_s.end(), acks[c].begin(), acks[c].end());
  }
  pass.clients = session.client_totals();
  pass.exit =
      session.finish(opt, pass.events, tracer, out, replay_events_per_s);
  return pass;
}

// --- open loop ---------------------------------------------------------------

/// One fixed-rate phase: op j (of rate x duration) is due at j / rate
/// after the phase start and connection j % k sends it synchronously.
PhaseResult run_phase(Session& session, const svc::DriverConfig& driver,
                      double rate, double duration, std::uint64_t phase,
                      std::vector<std::uint32_t>& next_batch, Tracer& tracer) {
  const auto n = static_cast<std::uint64_t>(std::llround(rate * duration));
  const std::size_t conns = session.clients.size();
  std::vector<std::vector<OpSample>> samples(conns);
  Tracer::Span root(tracer, "svc_open.phase", std::to_string(rate));
  const std::int64_t root_id = root.id();
  const auto t0 = Clock::now() + std::chrono::milliseconds(20);
  const auto since_t0 = [t0] {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      svc::TenantClient& client = *session.clients[c];
      const auto tenant = static_cast<std::uint32_t>(c);
      std::string json;
      for (std::uint64_t j = c; j < n; j += conns) {
        OpSample s;
        s.due = static_cast<double>(j) / rate;
        std::this_thread::sleep_until(
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(s.due)));
        const std::uint64_t draw = mix64(driver.seed ^ (phase << 40) ^ j) % 100;
        if (draw < kHeartbeatPct) {
          s.kind = OpKind::kHeartbeat;
          s.start = since_t0();
          Tracer::Span span(tracer, "client.heartbeat",
                            std::to_string(tenant), root_id);
          s.ok = client.heartbeat();
        } else if (draw < kHeartbeatPct + kStatsPct) {
          s.kind = OpKind::kStats;
          s.start = since_t0();
          Tracer::Span span(tracer, "client.stats", std::to_string(tenant),
                            root_id);
          s.ok = client.stats_json(&json);
        } else {
          const std::uint32_t b = next_batch[c]++;
          const auto events = svc::scripted_batch(driver, tenant, b);
          s.start = since_t0();
          Tracer::Span span(tracer, "client.batch",
                            std::to_string(tenant) + ":" +
                                std::to_string(b + 1),
                            root_id);
          s.ok = client.send_batch(events);
        }
        s.end = since_t0();
        samples[c].push_back(s);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  std::vector<OpSample> all;
  for (const auto& per : samples) all.insert(all.end(), per.begin(), per.end());
  PhaseResult result =
      analyze_phase(std::move(all), rate, driver.events_per_batch,
                    kLatencyLimitS, kMetPercentile);
  std::fprintf(stderr,
               "spcd_bench: svc_open %6.0f ops/s: %6llu ops in %7.3fs, "
               "batch from due p50 %.3f p75 %.3f p90 %.3f p99 %.3f ms, "
               "send to ack p50 %.3f p90 %.3f ms, late p99 %.3f ms -> %s\n",
               rate, static_cast<unsigned long long>(result.ops),
               result.span_s, percentile(result.batch_s, 50.0) * 1e3,
               percentile(result.batch_s, 75.0) * 1e3,
               percentile(result.batch_s, 90.0) * 1e3,
               percentile(result.batch_s, 99.0) * 1e3,
               percentile(result.batch_rtt_s, 50.0) * 1e3,
               percentile(result.batch_rtt_s, 90.0) * 1e3,
               percentile(result.late_s, 99.0) * 1e3,
               result.met ? "met" : "missed");
  return result;
}

struct Sweep {
  double setup_s = 0.0;
  std::vector<PhaseResult> phases;
  Daemon::Exit exit;
  svc::ClientStats clients;
  double wall_s() const {
    double total = 0.0;
    for (const PhaseResult& phase : phases) total += phase.span_s;
    return total;
  }
};

/// One daemon, the phases at `rates` in order, then the svc gates.
/// `cal` (optional) is sampled in the gaps between phases.
Sweep run_sweep(const Options& opt, const std::vector<double>& rates,
                double phase_s, Tracer& tracer, Outcome& out,
                Calibration* cal = nullptr,
                double* replay_events_per_s = nullptr) {
  Sweep sweep;
  Session session(opt, tracer);
  sweep.setup_s = session.setup_s;
  out.gate(session.ok, "svc_open: the daemon or a hello failed");
  if (!session.ok) return sweep;
  const svc::DriverConfig driver = driver_config(opt, kOpenShape);
  std::vector<std::uint32_t> next_batch(session.clients.size(), 0);
  std::uint64_t events = 0;
  for (std::size_t p = 0; p < rates.size(); ++p) {
    if (p != 0 && cal != nullptr) {
      cal->sample();
    } else if (p != 0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(kPhaseGapSeconds));
    }
    sweep.phases.push_back(
        run_phase(session, driver, rates[p], phase_s, p, next_batch, tracer));
    out.attempted += sweep.phases.back().ops;
    out.failed += sweep.phases.back().failed;
    events += sweep.phases.back().events;
  }
  sweep.clients = session.client_totals();
  sweep.exit = session.finish(opt, events, tracer, out, replay_events_per_s);
  return sweep;
}

// --- census ------------------------------------------------------------------

/// Isolated passes over the identical scripted stream (tenant-round-robin
/// batches): protocol encode + parse, journal-less ingest, arbitration,
/// the sharded table alone, and journal append + fsync of the batch
/// records. Returns the isolated service time per batch, in us.
double svc_census(const Options& opt, const Shape& shape,
                  std::uint32_t batches_per_tenant, Tracer& tracer,
                  Outcome& out) {
  Tracer::Span root(tracer, "census.svc");
  const svc::DriverConfig driver = driver_config(opt, shape);
  std::vector<std::pair<std::uint32_t, std::vector<svc::FaultRecord>>> stream;
  for (std::uint32_t b = 0; b < batches_per_tenant; ++b) {
    for (std::uint32_t t = 0; t < driver.tenants; ++t) {
      stream.emplace_back(t, svc::scripted_batch(driver, t, b));
    }
  }
  const auto batches = static_cast<double>(stream.size());
  const double events = batches * driver.events_per_batch;

  double protocol_s = 0.0;
  {
    Tracer::Span span(tracer, "svc.protocol");
    bool round_trips = true;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const std::string payload =
          svc::encode_fault_batch(i + 1, stream[i].second);
      const std::optional<svc::Message> msg = svc::parse_message(payload);
      round_trips &= msg.has_value() && msg->events == stream[i].second;
    }
    protocol_s = seconds_since(t0);
    out.gate(round_trips,
             "svc census: a batch did not round-trip the protocol");
  }
  double ingest_s = 0.0;
  {
    Tracer::Span span(tracer, "svc.ingest");
    svc::SpcdService service(service_config());
    std::vector<std::uint32_t> ids;
    for (std::uint32_t t = 0; t < driver.tenants; ++t) {
      ids.push_back(service
                        .register_tenant("census-" + std::to_string(t),
                                         kThreadsPerTenant)
                        .tenant_id);
    }
    bool ingested = true;
    const auto t0 = Clock::now();
    for (const auto& [tenant, batch] : stream) {
      ingested &= service.ingest(ids[tenant], batch).ok;
    }
    ingest_s = seconds_since(t0);
    out.gate(ingested, "svc census: a journal-less ingest failed");
    out.set("svc.arbitrations",
            static_cast<double>(service.interference().arbitrations),
            "count");
    Tracer::Span arbitrate(tracer, "svc.arbitrate");
    std::vector<double> samples;
    for (int i = 0; i < kArbitrateRepeats; ++i) {
      const auto t = Clock::now();
      service.arbitrate_now();
      samples.push_back(seconds_since(t) * 1e3);
    }
    out.set_median("svc.arbitrate_ms", samples, "ms");
  }
  {
    Tracer::Span span(tracer, "svc.table");
    const svc::ServiceConfig config = service_config();
    svc::ShardedSharingTable table(
        svc::ShardedTableConfig{config.shards, config.table});
    const auto t0 = Clock::now();
    for (const auto& [tenant, batch] : stream) {
      for (const svc::FaultRecord& e : batch) {
        table.record(tenant, e.vaddr, tenant * kThreadsPerTenant + e.tid,
                     e.time);
      }
    }
    out.set("svc.table_ns_per_event", seconds_since(t0) / events * 1e9, "ns");
  }
  std::vector<double> append_us;
  {
    Tracer::Span span(tracer, "journal.append");
    const ScratchDir dir(opt);
    util::Journal journal = util::Journal::create(dir.file("census.journal"),
                                                  "spcd_bench census");
    std::vector<std::uint64_t> seq(driver.tenants, 0);
    bool appended = true;
    for (const auto& [tenant, batch] : stream) {
      const std::string record =
          svc::encode_batch(tenant + 1, ++seq[tenant], batch);
      const auto t = Clock::now();
      appended &= journal.append(record);
      append_us.push_back(seconds_since(t) * 1e6);
    }
    out.gate(appended, "svc census: a journal append failed");
    out.set("journal.bytes_per_event",
            static_cast<double>(journal.bytes_written()) / events, "B");
  }
  const Summary append = summarize(append_us);
  out.set("journal.append_fsync_us.p50", append.p50, "us", append);
  out.set("journal.append_fsync_us.p99", percentile(append_us, 99.0), "us",
          append);
  const double protocol_us = protocol_s / batches * 1e6;
  const double ingest_us = ingest_s / batches * 1e6;
  out.set("svc.protocol_us_per_batch", protocol_us, "us");
  out.set("svc.ingest_us_per_batch", ingest_us, "us");
  return protocol_us + ingest_us + append.p50;
}

/// The live read and generator metrics of one open-loop phase.
void set_live_reads(const PhaseResult& phase, Outcome& out) {
  out.set("svc.heartbeat_rtt_us",
          percentile(phase.heartbeat_rtt_s, 50.0) * 1e6, "us");
  out.set("svc.stats_us", percentile(phase.stats_rtt_s, 50.0) * 1e6, "us");
  out.set("gen.late_ms.p99", percentile(phase.late_s, 99.0) * 1e3, "ms");
}

/// The live metrics of one daemon session; `ack_us` is its batch
/// send-to-ack p50 and `service_us` the census's isolated service time.
void set_live_session(const Daemon::Exit& exit, std::uint64_t batches,
                      const svc::ClientStats& clients, double replay,
                      double ack_us, double service_us, Outcome& out) {
  out.set("journal.records_per_batch",
          static_cast<double>(exit.commits) / static_cast<double>(batches),
          "records");
  out.set("client.resends", static_cast<double>(clients.resends), "count");
  out.set("client.retries", static_cast<double>(clients.retries), "count");
  out.set("svc.replay_events_per_s", replay, "1/s");
  out.set("svc.commit_wait_us", ack_us - service_us, "us");
}

/// Short open loop at the lowest pinned rate with the svc_open op mix.
void live_probe(const Options& opt, double service_us, Tracer& tracer,
                Outcome& out) {
  Tracer::Span root(tracer, "census.live_probe");
  const double seconds =
      opt.smoke ? kProbeSeconds / kSmokeDivisor : kProbeSeconds;
  double replay = 0.0;
  const Sweep sweep = run_sweep(opt, {kOpenRates[0]}, seconds, tracer, out,
                                nullptr, &replay);
  if (sweep.phases.empty()) return;
  const PhaseResult& phase = sweep.phases.front();
  set_live_reads(phase, out);
  set_live_session(sweep.exit, phase.batch_s.size(), sweep.clients, replay,
                   percentile(phase.batch_rtt_s, 50.0) * 1e6, service_us, out);
}

std::uint32_t census_batches(const Options& opt) {
  return opt.smoke ? kCensusBatches / 16 : kCensusBatches;
}

}  // namespace

void svc_layers_from_probe(const Options& opt, Tracer& tracer, Outcome& out) {
  const double service_us =
      svc_census(opt, kClosedShape, census_batches(opt), tracer, out);
  live_probe(opt, service_us, tracer, out);
}

Outcome run_svc_closed(const Options& opt) {
  Outcome out;
  const auto batches = static_cast<std::uint32_t>(
      opt.smoke ? kClosedBatchesPerClient / kSmokeDivisor
                : kClosedBatchesPerClient);
  Tracer untraced(false);
  Calibration cal(kClosedHostSensitivity);
  cal.sample();
  std::vector<double> setup, wall, throughput, ack, rss;
  int passes = std::max(
      2, static_cast<int>(std::lround(opt.seconds / kClosedPassSeconds)));
  if (opt.smoke) passes = 2;  // enough for the svc gates
  if (opt.trace) passes = 1;
  for (int p = 0; p < passes; ++p) {
    const ClosedPass pass = run_closed_pass(opt, batches, untraced, out);
    cal.sample();
    setup.push_back(pass.setup_s);
    wall.push_back(pass.wall_s);
    throughput.push_back(static_cast<double>(pass.events) / pass.wall_s);
    ack.insert(ack.end(), pass.ack_s.begin(), pass.ack_s.end());
    rss.push_back(pass.exit.peak_rss_mb);
  }
  out.host_slowdown = cal.slowdown();
  if (!opt.trace) {
    sample_setups(opt, setup);
    out.set_median("setup_s", cal.times(setup), "s");
    out.set_median("wall_s", cal.times(wall), "s");
    out.set_median("throughput_per_s", cal.rates(throughput), "1/s");
    out.set_latency(cal.times(ack), kClosedTailPercentile);
    out.set_median("peak_rss_mb", rss, "MB");
    return out;
  }

  Tracer tracer(true);
  const double service_us =
      svc_census(opt, kClosedShape, std::min(batches, census_batches(opt)),
                 tracer, out);
  // The closed loop has no schedule and no reads: the probe supplies the
  // read round trips and generator lateness, the traced pass the rest.
  live_probe(opt, service_us, tracer, out);
  double replay = 0.0;
  const ClosedPass traced =
      run_closed_pass(opt, batches, tracer, out, &replay);
  out.set("trace_overhead_frac", traced.wall_s / wall.front() - 1.0, "frac");
  const double ack_us = percentile(traced.ack_s, 50.0) * 1e6;
  set_live_session(traced.exit, traced.ack_s.size(), traced.clients, replay,
                   ack_us, service_us, out);
  out.set("unattributed_frac", 1.0 - service_us / ack_us, "frac");
  sim_layers_from_probe(opt, tracer, out);
  out.self_time = tracer.write(opt.trace_dir, "svc_closed");
  return out;
}

Outcome run_svc_open(const Options& opt) {
  Outcome out;
  const double phase_s =
      opt.seconds * kPhaseFraction / (opt.smoke ? kSmokeDivisor : 1.0);
  const std::vector<double> rates(std::begin(kOpenRates),
                                  std::end(kOpenRates));
  Tracer untraced(false);
  Calibration cal(kOpenHostSensitivity);
  cal.sample();
  const Sweep sweep = run_sweep(opt, rates, phase_s, untraced, out, &cal);
  cal.sample();
  out.host_slowdown = cal.slowdown();
  if (sweep.phases.size() != rates.size()) return out;

  if (!opt.trace) {
    std::vector<double> setup{sweep.setup_s};
    sample_setups(opt, setup);
    out.set_median("setup_s", cal.times(setup), "s");
    out.set_median("wall_s", cal.times({sweep.wall_s()}), "s");
    // Acked events over the sweep: the overloaded phases' drain dominates,
    // so this tracks capacity. max_rate_ok flips a whole rung between runs
    // of the same code on a host whose speed varies 2x, so it is recorded
    // without a bound.
    std::uint64_t events = 0;
    for (const PhaseResult& phase : sweep.phases) events += phase.events;
    out.set_median("throughput_per_s",
                   cal.rates({static_cast<double>(events) / sweep.wall_s()}),
                   "1/s");
    out.info["max_rate_ok_events_per_s"] = max_rate_ok(sweep.phases);
    out.set_latency(cal.times(sweep.phases.front().batch_s),
                    kOpenTailPercentile);
    out.set("peak_rss_mb", sweep.exit.peak_rss_mb, "MB");
    return out;
  }

  Tracer tracer(true);
  const double service_us =
      svc_census(opt, kOpenShape, census_batches(opt), tracer, out);
  double replay = 0.0;
  const Sweep traced =
      run_sweep(opt, rates, phase_s, tracer, out, nullptr, &replay);
  if (traced.phases.size() != rates.size()) return out;
  out.set("trace_overhead_frac", traced.wall_s() / sweep.wall_s() - 1.0,
          "frac");
  set_live_reads(traced.phases[rates.size() / 2], out);
  std::uint64_t batches = 0;
  for (const PhaseResult& phase : traced.phases) {
    batches += phase.batch_s.size();
  }
  const double ack_us =
      percentile(traced.phases.front().batch_rtt_s, 50.0) * 1e6;
  set_live_session(traced.exit, batches, traced.clients, replay, ack_us,
                   service_us, out);
  out.set("unattributed_frac", 1.0 - service_us / ack_us, "frac");
  sim_layers_from_probe(opt, tracer, out);
  out.self_time = tracer.write(opt.trace_dir, "svc_open");
  return out;
}

}  // namespace spcd::e2e
