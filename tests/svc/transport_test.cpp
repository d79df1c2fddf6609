// Transport contract, exercised on both wires: frames arrive whole and in
// order, recv honors its timeout, a signal ends a blocked accept, close()
// wakes a blocked peer with kClosed, and the Unix-socket path survives a
// real filesystem bind. In the TSan CI job's target list.
#include <gtest/gtest.h>
#include <pthread.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "svc/transport.hpp"

namespace spcd::svc {
namespace {

std::string tmp_socket(const char* name) { return testing::TempDir() + name; }

TEST(SvcTransportTest, InProcFramesArriveWholeAndInOrder) {
  auto [client, server] = make_inproc_pair();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(client->send("frame-" + std::to_string(i)));
  }
  std::string payload;
  for (int i = 0; i < 10; ++i) {
    ASSERT_EQ(server->recv(&payload, 0), Transport::RecvStatus::kFrame);
    EXPECT_EQ(payload, "frame-" + std::to_string(i));
  }
  EXPECT_EQ(server->recv(&payload, 0), Transport::RecvStatus::kTimeout);
}

TEST(SvcTransportTest, InProcIsBidirectional) {
  auto [client, server] = make_inproc_pair();
  ASSERT_TRUE(client->send("ping"));
  std::string payload;
  ASSERT_EQ(server->recv(&payload, 100), Transport::RecvStatus::kFrame);
  ASSERT_TRUE(server->send("pong"));
  ASSERT_EQ(client->recv(&payload, 100), Transport::RecvStatus::kFrame);
  EXPECT_EQ(payload, "pong");
}

TEST(SvcTransportTest, InProcCloseDrainsThenReportsClosed) {
  auto [client, server] = make_inproc_pair();
  ASSERT_TRUE(client->send("last"));
  client->close();
  EXPECT_FALSE(client->send("after close"));
  std::string payload;
  // The frame sent before close is still delivered; only then kClosed.
  ASSERT_EQ(server->recv(&payload, 100), Transport::RecvStatus::kFrame);
  EXPECT_EQ(payload, "last");
  EXPECT_EQ(server->recv(&payload, 100), Transport::RecvStatus::kClosed);
}

TEST(SvcTransportTest, InProcCloseWakesBlockedRecv) {
  auto [client, server] = make_inproc_pair();
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    client->close();
  });
  std::string payload;
  EXPECT_EQ(server->recv(&payload, -1), Transport::RecvStatus::kClosed);
  closer.join();
}

TEST(SvcTransportTest, InProcListenerHandsOutConnectedPairs) {
  InProcListener listener;
  auto client = listener.connect();
  ASSERT_NE(client, nullptr);
  auto server = listener.accept(100);
  ASSERT_NE(server, nullptr);
  ASSERT_TRUE(client->send("hello"));
  std::string payload;
  ASSERT_EQ(server->recv(&payload, 100), Transport::RecvStatus::kFrame);
  EXPECT_EQ(payload, "hello");
  listener.close();
  EXPECT_EQ(listener.accept(10), nullptr);
  EXPECT_EQ(listener.connect(), nullptr);
}

TEST(SvcTransportTest, UnixSocketRoundTrip) {
  const std::string path = tmp_socket("svc_transport_rt.sock");
  std::string error;
  auto listener = listen_unix(path, &error);
  ASSERT_NE(listener, nullptr) << error;

  auto client = connect_unix(path, 2000, &error);
  ASSERT_NE(client, nullptr) << error;
  auto server = listener->accept(2000);
  ASSERT_NE(server, nullptr);

  const std::string big(100'000, 'x');
  ASSERT_TRUE(client->send(big));
  ASSERT_TRUE(client->send("tail"));
  std::string payload;
  ASSERT_EQ(server->recv(&payload, 2000), Transport::RecvStatus::kFrame);
  EXPECT_EQ(payload, big);
  ASSERT_EQ(server->recv(&payload, 2000), Transport::RecvStatus::kFrame);
  EXPECT_EQ(payload, "tail");

  client->close();
  EXPECT_EQ(server->recv(&payload, 2000), Transport::RecvStatus::kClosed);
  listener->close();
}

TEST(SvcTransportTest, UnixSocketRecvTimesOutWithoutData) {
  const std::string path = tmp_socket("svc_transport_to.sock");
  std::string error;
  auto listener = listen_unix(path, &error);
  ASSERT_NE(listener, nullptr) << error;
  auto client = connect_unix(path, 2000, &error);
  ASSERT_NE(client, nullptr) << error;
  auto server = listener->accept(2000);
  ASSERT_NE(server, nullptr);

  std::string payload;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(server->recv(&payload, 50), Transport::RecvStatus::kTimeout);
  EXPECT_GE(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(40));
  listener->close();
}

TEST(SvcTransportTest, SignalEndsABlockedAcceptAtOnce) {
  // The accept loop reads its stop flag only when accept() returns, so a
  // signal (SIGTERM, in spcdd) must end the wait instead of restarting it.
  const std::string path = tmp_socket("svc_transport_sig.sock");
  std::string error;
  auto listener = listen_unix(path, &error);
  ASSERT_NE(listener, nullptr) << error;
  struct sigaction handler {};
  handler.sa_handler = [](int) {};
  sigemptyset(&handler.sa_mask);
  struct sigaction saved {};
  ASSERT_EQ(::sigaction(SIGUSR1, &handler, &saved), 0);
  const pthread_t acceptor = ::pthread_self();
  std::atomic<bool> returned{false};
  std::thread signaller([&] {
    // SIGUSR1 to the accepting thread every 50 ms, for up to 1 s.
    for (int i = 0; i < 20 && !returned.load(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      if (!returned.load()) ::pthread_kill(acceptor, SIGUSR1);
    }
  });
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(listener->accept(3000), nullptr);
  const auto waited = std::chrono::steady_clock::now() - t0;
  returned.store(true);
  signaller.join();
  ::sigaction(SIGUSR1, &saved, nullptr);
  EXPECT_LT(waited, std::chrono::seconds(1));
  listener->close();
}

TEST(SvcTransportTest, ConnectTimesOutWithoutServer) {
  std::string error;
  EXPECT_EQ(connect_unix(tmp_socket("svc_transport_none.sock"), 100, &error),
            nullptr);
  EXPECT_FALSE(error.empty());
}

TEST(SvcTransportTest, TcpRoundTripOnEphemeralPort) {
  std::string error;
  std::uint16_t port = 0;
  auto listener = listen_tcp("127.0.0.1", 0, &port, &error);
  ASSERT_NE(listener, nullptr) << error;
  ASSERT_NE(port, 0) << "ephemeral port was not resolved";

  auto client = connect_tcp("127.0.0.1", port, 2000, &error);
  ASSERT_NE(client, nullptr) << error;
  auto server = listener->accept(2000);
  ASSERT_NE(server, nullptr);

  const std::string big(100'000, 'y');
  ASSERT_TRUE(client->send(big));
  ASSERT_TRUE(server->send("ack"));
  std::string payload;
  ASSERT_EQ(server->recv(&payload, 2000), Transport::RecvStatus::kFrame);
  EXPECT_EQ(payload, big);
  ASSERT_EQ(client->recv(&payload, 2000), Transport::RecvStatus::kFrame);
  EXPECT_EQ(payload, "ack");

  client->close();
  EXPECT_EQ(server->recv(&payload, 2000), Transport::RecvStatus::kClosed);
  listener->close();
}

TEST(SvcTransportTest, TcpConnectTimesOutWithoutServer) {
  // Grab an ephemeral port, then close the listener so nothing is bound.
  std::string error;
  std::uint16_t port = 0;
  {
    auto listener = listen_tcp("127.0.0.1", 0, &port, &error);
    ASSERT_NE(listener, nullptr) << error;
    listener->close();
  }
  EXPECT_EQ(connect_tcp("127.0.0.1", port, 100, &error), nullptr);
  EXPECT_FALSE(error.empty());
}

TEST(SvcTransportTest, TornSendYieldsMidFrameEofOnBothWires) {
  // Unix socket: a send_torn delivers the length prefix plus a short
  // payload prefix then closes — the peer must report kError (a torn
  // frame is a protocol violation, not a clean close).
  const std::string path = tmp_socket("svc_transport_torn.sock");
  std::string error;
  auto listener = listen_unix(path, &error);
  ASSERT_NE(listener, nullptr) << error;
  auto client = connect_unix(path, 2000, &error);
  ASSERT_NE(client, nullptr) << error;
  auto server = listener->accept(2000);
  ASSERT_NE(server, nullptr);

  EXPECT_FALSE(client->send_torn("twelve bytes", 5));
  std::string payload;
  EXPECT_EQ(server->recv(&payload, 2000), Transport::RecvStatus::kError);
  listener->close();

  // TCP: identical contract.
  std::uint16_t port = 0;
  auto tcp_listener = listen_tcp("127.0.0.1", 0, &port, &error);
  ASSERT_NE(tcp_listener, nullptr) << error;
  auto tcp_client = connect_tcp("127.0.0.1", port, 2000, &error);
  ASSERT_NE(tcp_client, nullptr) << error;
  auto tcp_server = tcp_listener->accept(2000);
  ASSERT_NE(tcp_server, nullptr);
  EXPECT_FALSE(tcp_client->send_torn("twelve bytes", 5));
  EXPECT_EQ(tcp_server->recv(&payload, 2000), Transport::RecvStatus::kError);
  tcp_listener->close();
}

TEST(SvcTransportTest, RebindReplacesStaleSocketFile) {
  const std::string path = tmp_socket("svc_transport_stale.sock");
  std::string error;
  auto first = listen_unix(path, &error);
  ASSERT_NE(first, nullptr) << error;
  first->close();
  first.reset();
  // The socket file is left behind; a fresh daemon must be able to bind.
  auto second = listen_unix(path, &error);
  ASSERT_NE(second, nullptr) << error;
  second->close();
}

}  // namespace
}  // namespace spcd::svc
