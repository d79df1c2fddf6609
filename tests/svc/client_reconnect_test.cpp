// TenantClient fault tolerance: a dead connection is healed by
// reconnect + kResume + idempotent re-send (the server's dedup cache
// keeps the commit at-most-once, also when re-sends of one request race
// on several connections), kRetry backpressure is honored, stale
// replies are discarded rather than misattributed, and a draining server
// stops the client for good.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "svc/client.hpp"
#include "svc/driver.hpp"
#include "svc/server.hpp"
#include "svc/service.hpp"
#include "svc/transport.hpp"

namespace spcd::svc {
namespace {

/// Forwards sends until the fuse burns out, then closes the connection
/// (the frame is lost) — models a peer dying mid-conversation.
class DropAfter : public Transport {
 public:
  DropAfter(std::unique_ptr<Transport> inner, std::uint32_t healthy_sends)
      : inner_(std::move(inner)), remaining_(healthy_sends) {}

  bool send(std::string_view payload) override {
    if (remaining_ == 0) {
      inner_->close();
      return false;
    }
    --remaining_;
    return inner_->send(payload);
  }
  RecvStatus recv(std::string* payload, int timeout_ms) override {
    return inner_->recv(payload, timeout_ms);
  }
  void close() override { inner_->close(); }

 private:
  std::unique_ptr<Transport> inner_;
  std::uint32_t remaining_;
};

std::vector<FaultRecord> test_batch(std::uint32_t batch) {
  DriverConfig driver;
  driver.threads_per_tenant = 2;
  return scripted_batch(driver, 0, batch);
}

ClientConfig fast_client(
    std::function<std::unique_ptr<Transport>(std::uint32_t)> connect) {
  ClientConfig config;
  config.connect = std::move(connect);
  config.request_timeout_ms = 2000;
  config.backoff_base_ms = 1;
  config.backoff_max_ms = 4;
  return config;
}

TEST(SvcClientReconnectTest, DeadConnectionHealsViaResumeAndResend) {
  SpcdService service((ServiceConfig()));
  ServerConfig server_config;
  server_config.recv_timeout_ms = 10;
  ServiceServer server(service, server_config);
  InProcListener listener;
  std::thread acceptor([&] { server.accept_loop(listener); });

  // The first connection survives the hello and one batch, then dies on
  // the next send; reconnects get a healthy wire.
  TenantClient client(fast_client([&](std::uint32_t attempt) {
                        auto t = listener.connect();
                        if (attempt == 0 && t != nullptr) {
                          return std::unique_ptr<Transport>(
                              new DropAfter(std::move(t), 2));
                        }
                        return t;
                      }),
                      "healer", 2);
  ASSERT_TRUE(client.hello());
  const std::uint32_t id = client.tenant_id();
  ASSERT_TRUE(client.send_batch(test_batch(0)));
  ASSERT_TRUE(client.send_batch(test_batch(1)));  // dies, heals, commits
  EXPECT_EQ(client.tenant_id(), id);  // resumed, not re-registered
  EXPECT_EQ(client.stats().reconnects, 1u);
  EXPECT_GE(client.stats().resends, 1u);
  EXPECT_TRUE(client.heartbeat());
  EXPECT_TRUE(client.bye());

  listener.close();
  server.request_stop();
  acceptor.join();
  server.drain();
  // Exactly one tenant, exactly two committed batches — the re-sent
  // frame did not double-commit.
  EXPECT_EQ(service.registered_tenants(), 1u);
  EXPECT_EQ(service.total_events(),
            test_batch(0).size() + test_batch(1).size());
  EXPECT_EQ(server.stats().sessions_resumed, 1u);
  EXPECT_EQ(server.stats().heartbeats, 1u);
}

TEST(SvcClientReconnectTest, DuplicateBatchIsSuppressedByTheDedupCache) {
  SpcdService service((ServiceConfig()));
  ServerConfig server_config;
  server_config.recv_timeout_ms = 10;
  ServiceServer server(service, server_config);
  InProcListener listener;
  std::thread acceptor([&] { server.accept_loop(listener); });

  auto wire = listener.connect();
  ASSERT_NE(wire, nullptr);
  ASSERT_TRUE(wire->send(encode_hello("dup", 2)));
  std::string payload;
  ASSERT_EQ(wire->recv(&payload, 2000), Transport::RecvStatus::kFrame);
  ASSERT_EQ(parse_message(payload)->type, MessageType::kWelcome);

  // The same sequenced frame lands twice (a retransmit into a half-open
  // connection): byte-identical acks, one commit.
  const std::string frame = encode_fault_batch(1, test_batch(0));
  ASSERT_TRUE(wire->send(frame));
  ASSERT_EQ(wire->recv(&payload, 2000), Transport::RecvStatus::kFrame);
  const std::string first_ack = payload;
  ASSERT_EQ(parse_message(first_ack)->type, MessageType::kBatchAck);
  ASSERT_TRUE(wire->send(frame));
  ASSERT_EQ(wire->recv(&payload, 2000), Transport::RecvStatus::kFrame);
  EXPECT_EQ(payload, first_ack);

  ASSERT_TRUE(wire->send(encode_bye()));
  wire->close();
  listener.close();
  server.request_stop();
  acceptor.join();
  server.drain();
  EXPECT_EQ(service.total_events(), test_batch(0).size());
  EXPECT_EQ(server.stats().duplicates_suppressed, 1u);
}

TEST(SvcClientReconnectTest, ConcurrentResendsOfOneClientSeqCommitOnce) {
  // Eight connections resume one tenant and send the same client_seq at
  // once, as when a client reconnects while its first send still waits
  // for the group fsync. Each round must commit the batch exactly once
  // and give every connection the same ack.
  const std::string path = testing::TempDir() + "svc_concurrent_resend.journal";
  std::remove(path.c_str());
  ServiceConfig config;
  config.journal_path = path;
  SpcdService service(config);
  ServerConfig server_config;
  server_config.recv_timeout_ms = 10;
  ServiceServer server(service, server_config);
  InProcListener listener;
  std::thread acceptor([&] { server.accept_loop(listener); });

  std::string payload;
  auto owner = listener.connect();
  ASSERT_NE(owner, nullptr);
  ASSERT_TRUE(owner->send(encode_hello("resender", 2)));
  ASSERT_EQ(owner->recv(&payload, 2000), Transport::RecvStatus::kFrame);
  const std::optional<Message> welcome = parse_message(payload);
  ASSERT_TRUE(welcome.has_value());
  ASSERT_EQ(welcome->type, MessageType::kWelcome);

  constexpr std::size_t kConnections = 8;
  constexpr std::uint32_t kRounds = 10;
  const std::string resume = encode_resume(welcome->tenant_id, "resender");
  std::vector<std::unique_ptr<Transport>> wires;
  for (std::size_t i = 0; i < kConnections; ++i) {
    std::unique_ptr<Transport> wire = listener.connect();
    ASSERT_NE(wire, nullptr);
    ASSERT_TRUE(wire->send(resume));
    ASSERT_EQ(wire->recv(&payload, 2000), Transport::RecvStatus::kFrame);
    ASSERT_EQ(parse_message(payload)->type, MessageType::kWelcome);
    wires.push_back(std::move(wire));
  }

  std::uint64_t committed_events = 0;
  for (std::uint32_t round = 1; round <= kRounds; ++round) {
    const std::vector<FaultRecord> batch = test_batch(round);
    const std::string frame = encode_fault_batch(round, batch);
    std::vector<std::string> acks(kConnections);
    std::atomic<std::size_t> ready{0};
    std::vector<std::thread> senders;
    for (std::size_t i = 0; i < kConnections; ++i) {
      senders.emplace_back([&, i] {
        ready.fetch_add(1);
        while (ready.load() < kConnections) std::this_thread::yield();
        if (wires[i]->send(frame)) wires[i]->recv(&acks[i], 5000);
      });
    }
    for (std::thread& t : senders) t.join();
    committed_events += batch.size();
    EXPECT_EQ(service.total_events(), committed_events) << "round " << round;
    const std::optional<Message> ack = parse_message(acks[0]);
    ASSERT_TRUE(ack.has_value());
    EXPECT_EQ(ack->type, MessageType::kBatchAck);
    EXPECT_EQ(ack->client_seq, round);
    EXPECT_LE(ack->seq, service.durable_seq());
    for (std::size_t i = 1; i < kConnections; ++i) {
      EXPECT_EQ(acks[i], acks[0]) << "round " << round << " wire " << i;
    }
  }
  EXPECT_EQ(server.stats().duplicates_suppressed, kRounds * (kConnections - 1));

  ASSERT_TRUE(owner->send(encode_bye()));
  owner->close();
  for (auto& wire : wires) wire->close();
  listener.close();
  server.request_stop();
  acceptor.join();
  server.drain();
  // The journal holds each batch once, too.
  const SpcdService::ReplayResult replayed = SpcdService::replay(path);
  ASSERT_TRUE(replayed.ok) << replayed.error;
  EXPECT_EQ(replayed.service->total_events(), committed_events);
  std::remove(path.c_str());
}

TEST(SvcClientReconnectTest, RetryBackpressureIsHonored) {
  // A scripted server: welcome, then one kRetry before the real ack.
  InProcListener listener;
  std::thread fake_server([&] {
    auto session = listener.accept(2000);
    ASSERT_NE(session, nullptr);
    std::string payload;
    ASSERT_EQ(session->recv(&payload, 2000), Transport::RecvStatus::kFrame);
    auto hello = parse_message(payload);
    ASSERT_TRUE(hello.has_value());
    ASSERT_EQ(hello->type, MessageType::kHello);
    ASSERT_TRUE(session->send(encode_welcome(1, 0)));

    ASSERT_EQ(session->recv(&payload, 2000), Transport::RecvStatus::kFrame);
    auto batch = parse_message(payload);
    ASSERT_TRUE(batch.has_value());
    ASSERT_TRUE(session->send(encode_retry(batch->client_seq, 1)));
    ASSERT_EQ(session->recv(&payload, 2000), Transport::RecvStatus::kFrame);
    auto resent = parse_message(payload);
    ASSERT_TRUE(resent.has_value());
    EXPECT_EQ(resent->client_seq, batch->client_seq);
    EXPECT_EQ(resent->events, batch->events);
    ASSERT_TRUE(session->send(
        encode_batch_ack(resent->client_seq, 1, 0)));
    session->close();
  });

  TenantClient client(
      fast_client([&](std::uint32_t) { return listener.connect(); }),
      "pushed-back", 2);
  ASSERT_TRUE(client.hello());
  EXPECT_TRUE(client.send_batch(test_batch(0)));
  EXPECT_EQ(client.stats().retries, 1u);
  fake_server.join();
  listener.close();
}

TEST(SvcClientReconnectTest, StaleRepliesAreDiscardedNotMisattributed) {
  // A scripted server that burps a stale duplicate ack (wrong
  // client_seq) before the real one.
  InProcListener listener;
  std::thread fake_server([&] {
    auto session = listener.accept(2000);
    ASSERT_NE(session, nullptr);
    std::string payload;
    ASSERT_EQ(session->recv(&payload, 2000), Transport::RecvStatus::kFrame);
    ASSERT_TRUE(session->send(encode_welcome(1, 0)));
    ASSERT_EQ(session->recv(&payload, 2000), Transport::RecvStatus::kFrame);
    auto batch = parse_message(payload);
    ASSERT_TRUE(batch.has_value());
    ASSERT_TRUE(session->send(
        encode_batch_ack(batch->client_seq + 77, 1, 0)));  // stale
    ASSERT_TRUE(session->send(
        encode_batch_ack(batch->client_seq, 2, 0)));  // the real ack
    session->close();
  });

  TenantClient client(
      fast_client([&](std::uint32_t) { return listener.connect(); }),
      "skeptic", 2);
  ASSERT_TRUE(client.hello());
  EXPECT_TRUE(client.send_batch(test_batch(0)));
  EXPECT_GE(client.stats().stale_frames, 1u);
  fake_server.join();
  listener.close();
}

TEST(SvcClientReconnectTest, ShutdownFrameStopsTheClientForGood) {
  InProcListener listener;
  std::thread fake_server([&] {
    auto session = listener.accept(2000);
    ASSERT_NE(session, nullptr);
    std::string payload;
    ASSERT_EQ(session->recv(&payload, 2000), Transport::RecvStatus::kFrame);
    ASSERT_TRUE(session->send(encode_welcome(1, 0)));
    ASSERT_EQ(session->recv(&payload, 2000), Transport::RecvStatus::kFrame);
    ASSERT_TRUE(session->send(encode_shutdown()));
    session->close();
  });

  TenantClient client(
      fast_client([&](std::uint32_t) { return listener.connect(); }),
      "drained", 2);
  ASSERT_TRUE(client.hello());
  EXPECT_FALSE(client.send_batch(test_batch(0)));
  EXPECT_TRUE(client.shutdown_seen());
  // Further requests fail fast without reconnect storms.
  const std::uint64_t connects = client.stats().connects;
  EXPECT_FALSE(client.send_batch(test_batch(1)));
  EXPECT_EQ(client.stats().connects, connects);
  fake_server.join();
  listener.close();
}

TEST(SvcClientReconnectTest, GivesUpAfterMaxAttemptsWhenNobodyListens) {
  ClientConfig config = fast_client(
      [](std::uint32_t) { return std::unique_ptr<Transport>(); });
  config.max_attempts = 3;
  TenantClient client(std::move(config), "lonely", 2);
  EXPECT_FALSE(client.hello());
}

}  // namespace
}  // namespace spcd::svc
