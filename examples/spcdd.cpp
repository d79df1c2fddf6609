// spcdd — the multi-tenant SPCD service daemon.
//
// Three modes:
//   --serve    bind exactly one endpoint (--socket PATH or --tcp
//              HOST:PORT; port 0 picks an ephemeral port and the
//              resolved endpoint is printed), accept tenant sessions
//              (one supervised job each), sweep tenant liveness,
//              arbitrate placements globally, and journal every commit
//              (rotating generations when --journal-max-* is set).
//              SIGINT/SIGTERM drains gracefully: sessions get
//              kShutdown, the supervisor drains within SPCD_DRAIN_MS,
//              and the final metrics land on stdout.
//   --drive    run the scripted tenant fleet through fault-tolerant
//              TenantClients (reconnect/backoff, resume, idempotent
//              re-send). With --socket/--tcp it connects to a running
//              daemon; without, it hosts service + server + tenants
//              in-process (the self-contained demo). SPCD_CHAOS_NET_*
//              wraps every client connection in deterministic network
//              fault injection (torn frames, drops, duplicates,
//              stalls).
//   --replay   rebuild a session from its journal — following rotated
//              generations — and byte-compare the recomputed arbiter
//              decisions against the journaled ones. Exit 0 only if
//              every digest matches.
//
// Exit codes: 0 success, 1 runtime failure (socket, journal, replay
// divergence), 2 usage error.
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>

#include "chaos/net_chaos.hpp"
#include "core/mapping_strategy.hpp"
#include "obs/export.hpp"
#include "svc/chaos_transport.hpp"
#include "svc/driver.hpp"
#include "svc/server.hpp"
#include "svc/service.hpp"
#include "svc/transport.hpp"
#include "util/cli.hpp"

namespace {

constexpr char kUsage[] =
    "usage: spcdd (--serve | --drive | --replay JOURNAL) [options]\n"
    "\n"
    "modes\n"
    "  --serve               accept tenants until SIGINT/TERM; requires\n"
    "                        exactly one of --socket or --tcp\n"
    "  --drive               run scripted tenants (in-process, or against\n"
    "                        a daemon when --socket/--tcp is given)\n"
    "  --replay JOURNAL      recompute a journaled session (following\n"
    "                        rotated generations) and verify the arbiter\n"
    "                        decision digests\n"
    "\n"
    "endpoints\n"
    "  --socket PATH         Unix-domain socket path\n"
    "  --tcp HOST:PORT       TCP endpoint (serve: port 0 = ephemeral,\n"
    "                        resolved endpoint is printed; empty host =\n"
    "                        127.0.0.1)\n"
    "\n"
    "service options\n"
    "  --journal PATH        session journal (omit to run journal-less)\n"
    "  --journal-max-records N  rotate the journal after N records (0 =\n"
    "                        never; default 0)\n"
    "  --journal-max-bytes N continue rotation by size (0 = never)\n"
    "  --journal-keep N      rotated generations kept on disk (0 = all)\n"
    "  --heartbeat-ms N      mark a tenant suspect after N ms of silence\n"
    "                        (0 disables liveness; default 0)\n"
    "  --reap-factor N       reap a suspect after N*heartbeat-ms total\n"
    "                        silence (default 3)\n"
    "  --max-pending N       commit admission limit; excess batches get\n"
    "                        kRetry (0 = unlimited; default 64)\n"
    "  --sockets N           topology: sockets (default 2)\n"
    "  --cores N             topology: cores per socket (default 8)\n"
    "  --smt N               topology: SMT contexts per core (default 2)\n"
    "  --shards N            sharing-table shards (default 8)\n"
    "  --entries N           total sharing-table entries (default 256000)\n"
    "  --interval N          arbitrate every N events (default 4096)\n"
    "  --mapper NAME         arbiter mapping strategy (default blossom)\n"
    "\n"
    "driver options\n"
    "  --tenants N           scripted tenants (default 4)\n"
    "  --threads N           threads per tenant (default 4)\n"
    "  --batches N           batches per tenant (default 16)\n"
    "  --events N            events per batch (default 256)\n"
    "  --seed N              workload seed (default 42)\n"
    "  --rereg-every N       re-register after every N batches (0 = off)\n"
    "  --heartbeat-every N   heartbeat after every N batches (0 = off)\n"
    "  --timeout-ms N        per-request reply deadline (default 2000)\n"
    "  --attempts N          connection attempts per request (default 10)\n"
    "\n"
    "output options\n"
    "  --metrics-out PATH    write the service metrics JSON\n"
    "  --decisions-out PATH  write the arbiter decision lines\n"
    "  --trace-out PATH      write a Chrome trace of the svc events\n"
    "  --quiet               suppress the stdout summary\n"
    "\n"
    "environment\n"
    "  SPCD_CHAOS_NET_TEAR/_DROP/_DUP/_STALL[_MS]/_SEED  deterministic\n"
    "                        network fault injection on --drive clients\n"
    "  SPCD_DRAIN_MS         session drain budget on shutdown, ms\n"
    "                        (default 5000)\n";

// Set by the handler, read by the supervisor's stop poll on another
// thread: a lock-free atomic is both async-signal-safe and race-free.
std::atomic<int> g_signal{0};
static_assert(std::atomic<int>::is_always_lock_free);
void on_signal(int) { g_signal.store(1, std::memory_order_relaxed); }

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
  out.flush();
  if (!out) {
    std::fprintf(stderr, "spcdd: cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

struct Options {
  enum class Mode { kNone, kServe, kDrive, kReplay } mode = Mode::kNone;
  std::string replay_journal;
  std::string socket_path;
  std::string tcp_host;
  std::uint16_t tcp_port = 0;
  bool tcp_set = false;
  std::uint32_t max_pending = 64;
  spcd::util::SupervisorConfig supervisor;  ///< session supervision knobs
  spcd::svc::ServiceConfig service;
  spcd::svc::DriverConfig driver;
  std::string metrics_out;
  std::string decisions_out;
  std::string trace_out;
  bool quiet = false;
};

/// Split "HOST:PORT" (empty host = 127.0.0.1). False on malformed input.
bool parse_tcp_addr(const std::string& addr, std::string* host,
                    std::uint16_t* port) {
  const std::size_t colon = addr.rfind(':');
  if (colon == std::string::npos) return false;
  *host = addr.substr(0, colon);
  const std::string port_text = addr.substr(colon + 1);
  if (port_text.empty() ||
      port_text.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  const unsigned long v = std::strtoul(port_text.c_str(), nullptr, 10);
  if (v > 65535) return false;
  *port = static_cast<std::uint16_t>(v);
  return true;
}

/// Emit the session's outputs (stdout summary + requested files).
/// Returns false if any file write failed.
bool emit_outputs(const spcd::svc::SpcdService& service,
                  const Options& opt, spcd::obs::Session* trace) {
  const std::string metrics = service.metrics_json();
  if (!opt.quiet) {
    std::printf("%s\n", metrics.c_str());
  }
  bool ok = true;
  if (!opt.metrics_out.empty()) ok &= write_file(opt.metrics_out, metrics);
  if (!opt.decisions_out.empty()) {
    ok &= write_file(opt.decisions_out, service.decisions_text());
  }
  if (!opt.trace_out.empty() && trace != nullptr) {
    const spcd::obs::RunCapture capture = trace->capture();
    ok &= write_file(opt.trace_out, spcd::obs::export_chrome_trace(
                                        {{"spcdd", &capture}}));
  }
  return ok;
}

/// False (with a message) when the service's journal has failed: it then
/// refuses every commit, so the daemon's session is lost.
bool journal_healthy(const spcd::svc::SpcdService& service) {
  if (!service.journal_failed()) return true;
  std::fprintf(stderr, "spcdd: journal %s failed; commits were refused\n",
               service.config().journal_path.c_str());
  return false;
}

int run_serve(const Options& opt) {
  using namespace spcd;
  svc::SpcdService service(opt.service);
  if (!journal_healthy(service)) return 1;
  obs::TraceConfig trace_cfg;
  trace_cfg.enabled = !opt.trace_out.empty();
  obs::Session trace(trace_cfg);
  if (trace_cfg.enabled) service.set_trace_session(&trace);

  svc::ServerConfig server_cfg;
  server_cfg.supervisor = opt.supervisor;
  server_cfg.supervisor.stop_poll = [] {
    return g_signal.load(std::memory_order_relaxed) != 0;
  };
  server_cfg.max_pending_commits = opt.max_pending;
  svc::ServiceServer server(service, server_cfg);

  std::string error;
  std::unique_ptr<svc::Listener> listener;
  if (opt.tcp_set) {
    std::uint16_t bound = 0;
    listener = svc::listen_tcp(opt.tcp_host, opt.tcp_port, &bound, &error);
    if (listener != nullptr) {
      std::printf("spcdd: listening on tcp:%s:%u\n",
                  opt.tcp_host.empty() ? "127.0.0.1" : opt.tcp_host.c_str(),
                  static_cast<unsigned>(bound));
    }
  } else {
    listener = svc::listen_unix(opt.socket_path, &error);
    if (listener != nullptr) {
      std::printf("spcdd: listening on unix:%s\n", opt.socket_path.c_str());
    }
  }
  if (listener == nullptr) {
    std::fprintf(stderr, "spcdd: %s\n", error.c_str());
    return 1;
  }
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  std::fflush(stdout);

  server.accept_loop(*listener);  // returns once a stop was requested
  const util::SupervisorReport report = server.drain();
  if (service.active_tenants() > 0) service.arbitrate_now();

  if (!opt.quiet) {
    const svc::ServerStats stats = server.stats();
    std::printf(
        "spcdd: drained %llu sessions (completed=%llu skipped=%llu "
        "watchdog=%llu resumed=%llu heartbeats=%llu retries=%llu "
        "duplicates=%llu)\n",
        static_cast<unsigned long long>(server.sessions_started()),
        static_cast<unsigned long long>(report.completed),
        static_cast<unsigned long long>(report.skipped),
        static_cast<unsigned long long>(report.watchdog_fires),
        static_cast<unsigned long long>(stats.sessions_resumed),
        static_cast<unsigned long long>(stats.heartbeats),
        static_cast<unsigned long long>(stats.retries_sent),
        static_cast<unsigned long long>(stats.duplicates_suppressed));
  }
  const bool emitted =
      emit_outputs(service, opt, trace_cfg.enabled ? &trace : nullptr);
  return emitted && journal_healthy(service) ? 0 : 1;
}

void print_drive_summary(const spcd::svc::DriverStats& stats,
                         std::uint32_t tenants) {
  std::printf(
      "spcdd: drove %u/%u tenants (acked=%llu events=%llu comm=%llu "
      "errors=%llu reconnects=%llu resends=%llu retries=%llu "
      "heartbeats=%llu)\n",
      stats.tenants_completed, tenants,
      static_cast<unsigned long long>(stats.batches_acked),
      static_cast<unsigned long long>(stats.events_sent),
      static_cast<unsigned long long>(stats.comm_events),
      static_cast<unsigned long long>(stats.errors),
      static_cast<unsigned long long>(stats.reconnects),
      static_cast<unsigned long long>(stats.resends),
      static_cast<unsigned long long>(stats.retries),
      static_cast<unsigned long long>(stats.heartbeats));
}

int run_drive(const Options& opt) {
  using namespace spcd;
  const chaos::NetChaosConfig net_chaos = chaos::net_chaos_from_env();
  const std::string chaos_error = net_chaos.validate();
  if (!chaos_error.empty()) {
    std::fprintf(stderr, "spcdd: %s\n", chaos_error.c_str());
    return 1;
  }

  if (!opt.socket_path.empty() || opt.tcp_set) {
    // Client-only: drive a daemon that is already serving the endpoint.
    const svc::DriverStats stats = svc::drive(
        opt.driver,
        [&](std::uint32_t tenant,
            std::uint32_t attempt) -> std::unique_ptr<svc::Transport> {
          std::string error;
          std::unique_ptr<svc::Transport> t =
              opt.tcp_set
                  ? svc::connect_tcp(opt.tcp_host, opt.tcp_port, 5000,
                                     &error)
                  : svc::connect_unix(opt.socket_path, 5000, &error);
          return svc::maybe_wrap_chaos(std::move(t), net_chaos, tenant,
                                       attempt);
        });
    if (!opt.quiet) print_drive_summary(stats, opt.driver.tenants);
    return stats.errors == 0 &&
                   stats.tenants_completed == opt.driver.tenants
               ? 0
               : 1;
  }

  // Self-contained: service, server, and tenants in one process.
  svc::SpcdService service(opt.service);
  if (!journal_healthy(service)) return 1;
  obs::TraceConfig trace_cfg;
  trace_cfg.enabled = !opt.trace_out.empty();
  obs::Session trace(trace_cfg);
  if (trace_cfg.enabled) service.set_trace_session(&trace);

  svc::ServerConfig server_cfg;
  server_cfg.supervisor = opt.supervisor;
  server_cfg.max_pending_commits = opt.max_pending;
  svc::ServiceServer server(service, server_cfg);
  svc::InProcListener listener;
  std::thread acceptor([&] { server.accept_loop(listener); });

  const svc::DriverStats stats = svc::drive(
      opt.driver,
      [&](std::uint32_t tenant,
          std::uint32_t attempt) -> std::unique_ptr<svc::Transport> {
        return svc::maybe_wrap_chaos(listener.connect(), net_chaos, tenant,
                                     attempt);
      });

  server.request_stop();
  server.drain();
  acceptor.join();
  if (service.active_tenants() > 0) service.arbitrate_now();

  if (!opt.quiet) print_drive_summary(stats, opt.driver.tenants);
  const bool drove_ok =
      stats.errors == 0 && stats.tenants_completed == opt.driver.tenants;
  const bool emitted =
      emit_outputs(service, opt, trace_cfg.enabled ? &trace : nullptr);
  return drove_ok && emitted ? 0 : 1;
}

int run_replay(const Options& opt) {
  using namespace spcd;
  const svc::SpcdService::ReplayResult result =
      svc::SpcdService::replay(opt.replay_journal);
  if (result.service == nullptr) {
    std::fprintf(stderr, "spcdd: replay failed: %s\n", result.error.c_str());
    return 1;
  }
  if (!opt.quiet) {
    std::printf(
        "spcdd: replayed %llu records across %u generation(s)%s "
        "(decisions=%llu mismatches=%llu%s)\n",
        static_cast<unsigned long long>(result.records_applied),
        result.generations_replayed,
        result.restored_from_snapshot ? " from snapshot" : "",
        static_cast<unsigned long long>(result.decisions_checked),
        static_cast<unsigned long long>(result.digest_mismatches),
        result.torn_tail ? ", torn tail discarded" : "");
  }
  if (!emit_outputs(*result.service, opt, nullptr)) return 1;
  if (!result.ok) {
    std::fprintf(stderr, "spcdd: replay diverged: %s\n",
                 result.error.empty() ? "digest mismatch"
                                      : result.error.c_str());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using spcd::util::CliArgs;
  Options opt;
  opt.supervisor = spcd::util::SupervisorConfig::from_env();
  CliArgs args(argc, argv, kUsage);
  while (args.next()) {
    if (args.is("--serve")) {
      opt.mode = Options::Mode::kServe;
    } else if (args.is("--drive")) {
      opt.mode = Options::Mode::kDrive;
    } else if (args.is("--replay")) {
      opt.mode = Options::Mode::kReplay;
      opt.replay_journal = args.value();
    } else if (args.is("--socket")) {
      opt.socket_path = args.value();
    } else if (args.is("--tcp")) {
      const std::string addr = args.value();
      if (!parse_tcp_addr(addr, &opt.tcp_host, &opt.tcp_port)) {
        args.fail("malformed --tcp endpoint %s (want HOST:PORT)\n",
                  addr.c_str());
      }
      opt.tcp_set = true;
    } else if (args.is("--journal")) {
      opt.service.journal_path = args.value();
    } else if (args.is("--journal-max-records")) {
      opt.service.journal_max_records = args.u64();
    } else if (args.is("--journal-max-bytes")) {
      opt.service.journal_max_bytes = args.u64();
    } else if (args.is("--journal-keep")) {
      opt.service.journal_keep_generations = args.u32();
    } else if (args.is("--heartbeat-ms")) {
      opt.service.heartbeat_ms = args.u64();
    } else if (args.is("--reap-factor")) {
      opt.service.reap_factor = args.u64();
    } else if (args.is("--max-pending")) {
      opt.max_pending = args.u32();
    } else if (args.is("--sockets")) {
      opt.service.topology.sockets = args.u32();
    } else if (args.is("--cores")) {
      opt.service.topology.cores_per_socket = args.u32();
    } else if (args.is("--smt")) {
      opt.service.topology.smt_per_core = args.u32();
    } else if (args.is("--shards")) {
      opt.service.shards = args.u32();
    } else if (args.is("--entries")) {
      opt.service.table.num_entries = args.u64();
    } else if (args.is("--interval")) {
      opt.service.arbitration_interval = args.u64();
    } else if (args.is("--mapper")) {
      opt.service.mapping.strategy = args.value();
      if (!spcd::core::parse_mapping_strategy(opt.service.mapping.strategy)) {
        const std::string what = opt.service.mapping.strategy +
                                 " (choose from " +
                                 spcd::core::mapping_strategy_list() + ")";
        args.fail("unknown mapper %s\n", what.c_str());
      }
    } else if (args.is("--tenants")) {
      opt.driver.tenants = args.u32();
    } else if (args.is("--threads")) {
      opt.driver.threads_per_tenant = args.u32();
    } else if (args.is("--batches")) {
      opt.driver.batches_per_tenant = args.u32();
    } else if (args.is("--events")) {
      opt.driver.events_per_batch = args.u32();
    } else if (args.is("--seed")) {
      opt.driver.seed = args.u64();
    } else if (args.is("--rereg-every")) {
      opt.driver.reregister_every = args.u32();
    } else if (args.is("--heartbeat-every")) {
      opt.driver.heartbeat_every = args.u32();
    } else if (args.is("--timeout-ms")) {
      opt.driver.request_timeout_ms = static_cast<int>(args.u32());
    } else if (args.is("--attempts")) {
      opt.driver.max_attempts = args.u32();
    } else if (args.is("--metrics-out")) {
      opt.metrics_out = args.value();
    } else if (args.is("--decisions-out")) {
      opt.decisions_out = args.value();
    } else if (args.is("--trace-out")) {
      opt.trace_out = args.value();
    } else if (args.is("--quiet")) {
      opt.quiet = true;
    } else if (args.help()) {
      return 0;
    } else {
      args.unknown();
    }
  }
  if (opt.mode == Options::Mode::kServe) {
    // --serve binds exactly one endpoint: ambiguous (both) and missing
    // (neither) are usage errors, caught here rather than at bind time.
    if (!opt.socket_path.empty() && opt.tcp_set) {
      args.fail("%s\n", "--socket and --tcp are mutually exclusive");
    }
    if (opt.socket_path.empty() && !opt.tcp_set) {
      args.fail("%s\n", "--serve requires exactly one of --socket or --tcp");
    }
  }
  switch (opt.mode) {
    case Options::Mode::kServe:
      return run_serve(opt);
    case Options::Mode::kDrive:
      return run_drive(opt);
    case Options::Mode::kReplay:
      return run_replay(opt);
    case Options::Mode::kNone:
      break;
  }
  args.fail("%s\n", "one of --serve, --drive, --replay is required");
}
