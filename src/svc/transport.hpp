// Byte transports for the spcdd protocol: a frame-oriented stream with a
// blocking-with-timeout receive, behind one interface so the service core
// and the tests never care which wire the bytes took.
//
//   * InProcTransport — a pair of in-memory frame queues (mutex + cv).
//     Deterministic and dependency-free; the unit tests and the
//     throughput benchmark run the whole service on it.
//   * FdStreamTransport — one implementation over any connected stream
//     fd: AF_UNIX SOCK_STREAM and AF_INET TCP share the length-prefixed
//     framing, the buffered reads, and the partial-write/EINTR/EAGAIN
//     handling. send() uses MSG_NOSIGNAL so a peer that vanished
//     mid-drain yields EPIPE (send returns false) instead of killing the
//     daemon with SIGPIPE.
//
// Listeners mirror the split: listen_unix binds a filesystem socket,
// listen_tcp binds a TCP port (0 = ephemeral; the resolved port is
// reported back so callers can print/advertise it); InProcListener hands
// out transport pairs to in-process clients via connect().
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

namespace spcd::svc {

class Transport {
 public:
  enum class RecvStatus : std::uint8_t {
    kFrame,    ///< *payload holds one complete frame
    kTimeout,  ///< no frame within the deadline (or a signal arrived
               ///< first); try again
    kClosed,   ///< peer closed cleanly (EOF between frames)
    kError,    ///< I/O error or protocol violation (oversized frame)
  };

  virtual ~Transport() = default;

  /// Send one frame (length prefix + payload). False once the peer is
  /// gone or the transport failed; sends never block indefinitely on the
  /// in-proc transport and rely on OS buffering plus the frame cap for
  /// sockets.
  virtual bool send(std::string_view payload) = 0;

  /// Receive one complete frame, waiting at most `timeout_ms`
  /// (0 = only what is already buffered, negative = wait forever).
  virtual RecvStatus recv(std::string* payload, int timeout_ms) = 0;

  /// Close this endpoint; the peer's recv() returns kClosed once drained.
  /// Idempotent and callable concurrently with a blocked recv().
  virtual void close() = 0;

  /// Chaos hook: emit a deliberately torn frame — the length prefix plus
  /// only the first `bytes` payload bytes — then close the connection, so
  /// the peer observes a mid-frame EOF exactly like a crash between
  /// write() and write(). Default (non-stream transports): just close.
  /// Always returns false (the frame was NOT delivered).
  virtual bool send_torn(std::string_view payload, std::size_t bytes) {
    (void)payload;
    (void)bytes;
    close();
    return false;
  }
};

class Listener {
 public:
  virtual ~Listener() = default;

  /// Accept one connection, waiting at most `timeout_ms` (negative =
  /// forever). Null on timeout, on a signal, or once the listener is
  /// closed.
  virtual std::unique_ptr<Transport> accept(int timeout_ms) = 0;

  /// Stop accepting; a blocked accept() returns null. Idempotent.
  virtual void close() = 0;
};

/// A connected pair of in-process transports: first = client end,
/// second = server end.
std::pair<std::unique_ptr<Transport>, std::unique_ptr<Transport>>
make_inproc_pair();

/// In-process listener: connect() returns the client end and queues the
/// server end for accept().
class InProcListener : public Listener {
 public:
  InProcListener();
  ~InProcListener() override;

  /// Client side of a fresh connection, or null when closed.
  std::unique_ptr<Transport> connect();

  std::unique_ptr<Transport> accept(int timeout_ms) override;
  void close() override;

 private:
  struct State;
  std::shared_ptr<State> state_;
};

/// Bind a Unix-domain stream socket at `path` (an existing socket file is
/// replaced). Null + a message in *error on failure.
std::unique_ptr<Listener> listen_unix(const std::string& path,
                                      std::string* error);

/// Connect to a Unix-domain socket, retrying until the server binds or
/// `timeout_ms` elapses (daemon startup is asynchronous to its clients).
std::unique_ptr<Transport> connect_unix(const std::string& path,
                                        int timeout_ms, std::string* error);

/// Bind a TCP listener on `host:port` (port 0 = OS-assigned ephemeral
/// port). On success *bound_port holds the resolved port. Null + a
/// message in *error on failure. Accepted connections get TCP_NODELAY
/// (frames are small and latency-sensitive).
std::unique_ptr<Listener> listen_tcp(const std::string& host,
                                     std::uint16_t port,
                                     std::uint16_t* bound_port,
                                     std::string* error);

/// Connect to a TCP endpoint, retrying until the server binds or
/// `timeout_ms` elapses.
std::unique_ptr<Transport> connect_tcp(const std::string& host,
                                       std::uint16_t port, int timeout_ms,
                                       std::string* error);

}  // namespace spcd::svc
