// ServiceServer shutdown contract under load: with many tenants
// concurrently registered and mid-conversation, request_stop() drains
// every session within the configured drain window, every tenant that was
// journaled stays journaled (no record is lost to the shutdown race), and
// the journal still replays cleanly.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/runner.hpp"
#include "svc/driver.hpp"
#include "svc/server.hpp"
#include "svc/service.hpp"
#include "svc/transport.hpp"

namespace spcd::svc {
namespace {

std::string tmp_journal(const char* name) { return testing::TempDir() + name; }

// Config types are plain values: building one never reads the environment,
// so tests and harnesses get the same defaults under any SPCD_* settings.
// Only the binaries read the knobs (spcdsim, spcdd, the figure pipeline).
TEST(HermeticConfigTest, DefaultsIgnoreTheEnvironment) {
  ::setenv("SPCD_TRACE", "1", 1);
  ::setenv("SPCD_DRAIN_MS", "1", 1);
  const core::RunnerConfig runner_config;
  const ServerConfig server_config;
  ::unsetenv("SPCD_TRACE");
  ::unsetenv("SPCD_DRAIN_MS");
  EXPECT_FALSE(runner_config.trace.enabled);
  EXPECT_EQ(server_config.supervisor.drain_ms,
            util::SupervisorConfig{}.drain_ms);
}

TEST(SvcServerDrainTest, ManyTenantsCompleteAndDrainCleanly) {
  SpcdService service((ServiceConfig()));
  ServerConfig server_config;
  server_config.recv_timeout_ms = 10;
  ServiceServer server(service, server_config);

  InProcListener listener;
  std::thread acceptor([&] { server.accept_loop(listener); });

  DriverConfig driver;
  driver.tenants = 32;
  driver.threads_per_tenant = 2;
  driver.batches_per_tenant = 4;
  driver.events_per_batch = 128;
  const DriverStats stats =
      drive(driver, [&](std::uint32_t, std::uint32_t) {
        return listener.connect();
      });
  EXPECT_EQ(stats.tenants_completed, 32u);
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_EQ(stats.batches_acked, 32u * 4u);

  listener.close();
  server.request_stop();
  acceptor.join();
  const util::SupervisorReport report = server.drain();
  EXPECT_EQ(report.completed, 32u);
  EXPECT_TRUE(report.quarantined.empty());
  EXPECT_EQ(server.sessions_started(), 32u);
  EXPECT_EQ(service.active_tenants(), 0u);  // every tenant said bye
}

TEST(SvcServerDrainTest, StopMidSessionDrainsWithinWindowAndLosesNoRecord) {
  const std::string path = tmp_journal("svc_server_drain.journal");
  std::remove(path.c_str());
  ServiceConfig config;
  config.journal_path = path;
  SpcdService service(config);

  ServerConfig server_config;
  server_config.recv_timeout_ms = 10;
  server_config.supervisor.drain_ms = 2'000;
  ServiceServer server(service, server_config);

  InProcListener listener;
  std::thread acceptor([&] { server.accept_loop(listener); });

  // 24 tenants register and send one batch each, then hold their
  // connections open (no bye) — the stop must tear them down.
  constexpr std::uint32_t kTenants = 24;
  DriverConfig driver;
  driver.threads_per_tenant = 2;
  std::vector<std::unique_ptr<Transport>> clients;
  std::vector<std::uint64_t> acked_seqs;
  for (std::uint32_t t = 0; t < kTenants; ++t) {
    auto client = listener.connect();
    ASSERT_NE(client, nullptr);
    ASSERT_TRUE(
        client->send(encode_hello("hold-" + std::to_string(t), 2)));
    std::string payload;
    ASSERT_EQ(client->recv(&payload, 2000), Transport::RecvStatus::kFrame);
    const auto welcome = parse_message(payload);
    ASSERT_TRUE(welcome.has_value());
    ASSERT_EQ(welcome->type, MessageType::kWelcome);
    ASSERT_TRUE(
        client->send(encode_fault_batch(1, scripted_batch(driver, t, 0))));
    ASSERT_EQ(client->recv(&payload, 2000), Transport::RecvStatus::kFrame);
    const auto ack = parse_message(payload);
    ASSERT_TRUE(ack.has_value());
    ASSERT_EQ(ack->type, MessageType::kBatchAck);
    acked_seqs.push_back(ack->seq);
    clients.push_back(std::move(client));
  }
  EXPECT_EQ(service.active_tenants(), kTenants);

  // Stop with every session mid-conversation; the drain must finish well
  // within the configured window (sessions poll every recv_timeout_ms).
  const auto t0 = std::chrono::steady_clock::now();
  listener.close();
  server.request_stop();
  acceptor.join();
  const util::SupervisorReport report = server.drain();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed,
            std::chrono::milliseconds(server_config.supervisor.drain_ms));
  EXPECT_TRUE(report.stopped);
  EXPECT_EQ(report.completed + report.skipped, kTenants);

  // Each held client observes the shutdown: a kShutdown frame or a close.
  for (auto& client : clients) {
    std::string payload;
    const auto status = client->recv(&payload, 2000);
    if (status == Transport::RecvStatus::kFrame) {
      const auto msg = parse_message(payload);
      ASSERT_TRUE(msg.has_value());
      EXPECT_EQ(msg->type, MessageType::kShutdown);
    } else {
      EXPECT_EQ(status, Transport::RecvStatus::kClosed);
    }
    client->close();
  }

  // The write-ahead contract survives the shutdown: every acked commit is
  // in the journal, and the journal replays with zero divergence.
  const SpcdService::ReplayResult replayed = SpcdService::replay(path);
  ASSERT_TRUE(replayed.ok) << replayed.error;
  EXPECT_EQ(replayed.service->registered_tenants(), kTenants);
  EXPECT_EQ(replayed.service->total_events(),
            static_cast<std::uint64_t>(kTenants) * driver.events_per_batch);
  for (const std::uint64_t seq : acked_seqs) {
    EXPECT_LE(seq, replayed.records_applied + replayed.decisions_checked);
  }
  EXPECT_EQ(replayed.digest_mismatches, 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace spcd::svc
