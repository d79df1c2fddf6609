#include "svc/transport.hpp"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <mutex>
#include <utility>
#include <vector>

#include "svc/protocol.hpp"

namespace spcd::svc {

namespace {

// --- in-process transport --------------------------------------------------

/// One direction of an in-proc connection: a bounded-ish frame queue.
/// Both endpoints share two of these, crossed over.
struct FrameQueue {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::string> frames;
  bool closed = false;

  void push(std::string frame) {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (closed) return;
      frames.push_back(std::move(frame));
    }
    cv.notify_all();
  }

  void close() {
    {
      std::lock_guard<std::mutex> lock(mu);
      closed = true;
    }
    cv.notify_all();
  }
};

class InProcTransport final : public Transport {
 public:
  InProcTransport(std::shared_ptr<FrameQueue> in,
                  std::shared_ptr<FrameQueue> out)
      : in_(std::move(in)), out_(std::move(out)) {}
  ~InProcTransport() override { close(); }

  bool send(std::string_view payload) override {
    {
      std::lock_guard<std::mutex> lock(out_->mu);
      if (out_->closed) return false;
      out_->frames.emplace_back(payload);
    }
    out_->cv.notify_all();
    return true;
  }

  RecvStatus recv(std::string* payload, int timeout_ms) override {
    std::unique_lock<std::mutex> lock(in_->mu);
    const auto ready = [this] { return !in_->frames.empty() || in_->closed; };
    if (timeout_ms < 0) {
      in_->cv.wait(lock, ready);
    } else if (!in_->cv.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                                 ready)) {
      return RecvStatus::kTimeout;
    }
    if (!in_->frames.empty()) {
      *payload = std::move(in_->frames.front());
      in_->frames.pop_front();
      return RecvStatus::kFrame;
    }
    return RecvStatus::kClosed;
  }

  void close() override {
    in_->close();
    out_->close();
  }

 private:
  std::shared_ptr<FrameQueue> in_;
  std::shared_ptr<FrameQueue> out_;
};

// --- stream-fd transport (Unix-domain and TCP) -----------------------------

/// Wait for readability; false on timeout, and on a signal, so a caller
/// that polls a stop flag (the accept loop on SIGTERM) reads it at once
/// rather than after a full timeout. Negative timeout = forever.
bool wait_readable(int fd, int timeout_ms) {
  struct pollfd pfd;
  pfd.fd = fd;
  pfd.events = POLLIN;
  pfd.revents = 0;
  const int n = ::poll(&pfd, 1, timeout_ms);
  if (n > 0) return true;
  if (n == 0 || errno == EINTR) return false;
  return true;  // let the read surface the error
}

/// Wait for writability; false on error (a blocked send must eventually
/// either drain or fail — timeouts here would tear frames mid-stream).
bool wait_writable(int fd) {
  struct pollfd pfd;
  pfd.fd = fd;
  pfd.events = POLLOUT;
  pfd.revents = 0;
  for (;;) {
    const int n = ::poll(&pfd, 1, -1);
    if (n > 0) return true;
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
}

class FdStreamTransport final : public Transport {
 public:
  explicit FdStreamTransport(int fd) : fd_(fd) {}
  ~FdStreamTransport() override { close(); }

  bool send(std::string_view payload) override {
    if (fd_ < 0 || payload.size() > kMaxFrameBytes) return false;
    char prefix[4];
    encode_prefix(payload.size(), prefix);
    std::lock_guard<std::mutex> lock(send_mu_);
    return write_all(prefix, 4) && write_all(payload.data(), payload.size());
  }

  bool send_torn(std::string_view payload, std::size_t bytes) override {
    if (fd_ >= 0 && payload.size() <= kMaxFrameBytes) {
      char prefix[4];
      encode_prefix(payload.size(), prefix);
      const std::size_t partial = std::min(bytes, payload.size());
      std::lock_guard<std::mutex> lock(send_mu_);
      if (write_all(prefix, 4)) write_all(payload.data(), partial);
    }
    close();
    return false;
  }

  RecvStatus recv(std::string* payload, int timeout_ms) override {
    if (fd_ < 0) return RecvStatus::kClosed;
    // The length prefix decides the deadline: once a frame started
    // arriving, finish it regardless of timeout (frames are small).
    if (buffer_.size() < 4) {
      const RecvStatus st = fill(4, timeout_ms, /*eof_ok=*/buffer_.empty());
      if (st != RecvStatus::kFrame) return st;
    }
    std::uint32_t len = 0;
    for (int i = 0; i < 4; ++i) {
      len |= static_cast<std::uint32_t>(
                 static_cast<unsigned char>(buffer_[static_cast<size_t>(i)]))
             << (8 * i);
    }
    if (len > kMaxFrameBytes) return RecvStatus::kError;
    const RecvStatus st = fill(4 + len, -1, /*eof_ok=*/false);
    if (st != RecvStatus::kFrame) return st;
    payload->assign(buffer_.data() + 4, len);
    buffer_.erase(buffer_.begin(), buffer_.begin() + 4 + len);
    return RecvStatus::kFrame;
  }

  void close() override {
    if (fd_ >= 0) {
      ::shutdown(fd_, SHUT_RDWR);
      ::close(fd_);
      fd_ = -1;
    }
  }

 private:
  static void encode_prefix(std::size_t size, char prefix[4]) {
    const auto len = static_cast<std::uint32_t>(size);
    for (int i = 0; i < 4; ++i) {
      prefix[i] = static_cast<char>((len >> (8 * i)) & 0xff);
    }
  }

  /// Loop short writes, interrupted syscalls, and full socket buffers
  /// until every byte is queued. MSG_NOSIGNAL: a vanished peer yields
  /// EPIPE (-> false) rather than a process-killing SIGPIPE — without it
  /// a SIGTERM-driven drain that races a dying client takes down the
  /// whole daemon.
  bool write_all(const char* data, std::size_t len) {
    std::size_t off = 0;
    while (off < len) {
      const ssize_t n = ::send(fd_, data + off, len - off, MSG_NOSIGNAL);
      if (n > 0) {
        off += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        if (!wait_writable(fd_)) return false;
        continue;
      }
      return false;
    }
    return true;
  }

  /// Grow buffer_ to at least `want` bytes. kClosed only at a clean frame
  /// boundary (eof_ok); mid-frame EOF is kError.
  RecvStatus fill(std::size_t want, int timeout_ms, bool eof_ok) {
    while (buffer_.size() < want) {
      if (!wait_readable(fd_, timeout_ms)) return RecvStatus::kTimeout;
      char chunk[4096];
      const ssize_t n = ::read(fd_, chunk, sizeof chunk);
      if (n > 0) {
        buffer_.insert(buffer_.end(), chunk, chunk + n);
        continue;
      }
      if (n == 0) {
        return eof_ok && buffer_.empty() ? RecvStatus::kClosed
                                         : RecvStatus::kError;
      }
      if (errno == EINTR) continue;
      return RecvStatus::kError;
    }
    return RecvStatus::kFrame;
  }

  int fd_;
  std::mutex send_mu_;
  std::vector<char> buffer_;
};

class FdStreamListener final : public Listener {
 public:
  /// `path` non-empty = Unix-domain socket file to unlink on close.
  explicit FdStreamListener(int fd, std::string path = {})
      : fd_(fd), path_(std::move(path)) {}
  ~FdStreamListener() override { close(); }

  std::unique_ptr<Transport> accept(int timeout_ms) override {
    const int fd = fd_.load();
    if (fd < 0) return nullptr;
    if (!wait_readable(fd, timeout_ms)) return nullptr;
    const int conn = ::accept(fd, nullptr, nullptr);
    if (conn < 0) return nullptr;
    if (path_.empty()) set_nodelay(conn);  // TCP listener
    return std::make_unique<FdStreamTransport>(conn);
  }

  void close() override {
    const int fd = fd_.exchange(-1);
    if (fd >= 0) {
      ::close(fd);
      if (!path_.empty()) ::unlink(path_.c_str());
    }
  }

  static void set_nodelay(int fd) {
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }

 private:
  std::atomic<int> fd_;
  std::string path_;
};

bool fill_sockaddr(const std::string& path, sockaddr_un* addr,
                   std::string* error) {
  if (path.size() >= sizeof(addr->sun_path)) {
    if (error) *error = "socket path too long: " + path;
    return false;
  }
  std::memset(addr, 0, sizeof(*addr));
  addr->sun_family = AF_UNIX;
  std::memcpy(addr->sun_path, path.c_str(), path.size() + 1);
  return true;
}

bool fill_inaddr(const std::string& host, std::uint16_t port,
                 sockaddr_in* addr, std::string* error) {
  std::memset(addr, 0, sizeof(*addr));
  addr->sin_family = AF_INET;
  addr->sin_port = htons(port);
  const std::string h = host.empty() ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, h.c_str(), &addr->sin_addr) != 1) {
    if (error) *error = "invalid IPv4 address: " + h;
    return false;
  }
  return true;
}

}  // namespace

std::pair<std::unique_ptr<Transport>, std::unique_ptr<Transport>>
make_inproc_pair() {
  auto a_to_b = std::make_shared<FrameQueue>();
  auto b_to_a = std::make_shared<FrameQueue>();
  return {std::make_unique<InProcTransport>(b_to_a, a_to_b),
          std::make_unique<InProcTransport>(a_to_b, b_to_a)};
}

struct InProcListener::State {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::unique_ptr<Transport>> pending;
  bool closed = false;
};

InProcListener::InProcListener() : state_(std::make_shared<State>()) {}
InProcListener::~InProcListener() { close(); }

std::unique_ptr<Transport> InProcListener::connect() {
  auto [client, server] = make_inproc_pair();
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    if (state_->closed) return nullptr;
    state_->pending.push_back(std::move(server));
  }
  state_->cv.notify_all();
  return std::move(client);
}

std::unique_ptr<Transport> InProcListener::accept(int timeout_ms) {
  std::unique_lock<std::mutex> lock(state_->mu);
  const auto ready = [this] {
    return !state_->pending.empty() || state_->closed;
  };
  if (timeout_ms < 0) {
    state_->cv.wait(lock, ready);
  } else if (!state_->cv.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                                  ready)) {
    return nullptr;
  }
  if (state_->pending.empty()) return nullptr;
  auto conn = std::move(state_->pending.front());
  state_->pending.pop_front();
  return conn;
}

void InProcListener::close() {
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    state_->closed = true;
    state_->pending.clear();
  }
  state_->cv.notify_all();
}

std::unique_ptr<Listener> listen_unix(const std::string& path,
                                      std::string* error) {
  sockaddr_un addr;
  if (!fill_sockaddr(path, &addr, error)) return nullptr;
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error) *error = std::string("socket: ") + std::strerror(errno);
    return nullptr;
  }
  ::unlink(path.c_str());  // replace a stale socket file
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(fd, 128) < 0) {
    if (error) {
      *error = "bind/listen " + path + ": " + std::strerror(errno);
    }
    ::close(fd);
    return nullptr;
  }
  return std::make_unique<FdStreamListener>(fd, path);
}

std::unique_ptr<Transport> connect_unix(const std::string& path,
                                        int timeout_ms, std::string* error) {
  sockaddr_un addr;
  if (!fill_sockaddr(path, &addr, error)) return nullptr;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      if (error) *error = std::string("socket: ") + std::strerror(errno);
      return nullptr;
    }
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      return std::make_unique<FdStreamTransport>(fd);
    }
    ::close(fd);
    if (std::chrono::steady_clock::now() >= deadline) {
      if (error) {
        *error = "connect " + path + ": " + std::strerror(errno);
      }
      return nullptr;
    }
    struct timespec ts = {0, 20 * 1000 * 1000};  // 20 ms between retries
    ::nanosleep(&ts, nullptr);
  }
}

std::unique_ptr<Listener> listen_tcp(const std::string& host,
                                     std::uint16_t port,
                                     std::uint16_t* bound_port,
                                     std::string* error) {
  sockaddr_in addr;
  if (!fill_inaddr(host, port, &addr, error)) return nullptr;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error) *error = std::string("socket: ") + std::strerror(errno);
    return nullptr;
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(fd, 128) < 0) {
    if (error) {
      char buf[128];
      std::snprintf(buf, sizeof buf, "bind/listen %s:%u: %s", host.c_str(),
                    static_cast<unsigned>(port), std::strerror(errno));
      *error = buf;
    }
    ::close(fd);
    return nullptr;
  }
  if (bound_port != nullptr) {
    sockaddr_in bound;
    socklen_t len = sizeof bound;
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
      *bound_port = ntohs(bound.sin_port);
    } else {
      *bound_port = port;
    }
  }
  return std::make_unique<FdStreamListener>(fd);
}

std::unique_ptr<Transport> connect_tcp(const std::string& host,
                                       std::uint16_t port, int timeout_ms,
                                       std::string* error) {
  sockaddr_in addr;
  if (!fill_inaddr(host, port, &addr, error)) return nullptr;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      if (error) *error = std::string("socket: ") + std::strerror(errno);
      return nullptr;
    }
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      FdStreamListener::set_nodelay(fd);
      return std::make_unique<FdStreamTransport>(fd);
    }
    ::close(fd);
    if (std::chrono::steady_clock::now() >= deadline) {
      if (error) {
        char buf[160];
        std::snprintf(buf, sizeof buf, "connect %s:%u: %s", host.c_str(),
                      static_cast<unsigned>(port), std::strerror(errno));
        *error = buf;
      }
      return nullptr;
    }
    struct timespec ts = {0, 20 * 1000 * 1000};  // 20 ms between retries
    ::nanosleep(&ts, nullptr);
  }
}

}  // namespace spcd::svc
