#include "svc/client.hpp"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

namespace spcd::svc {

namespace {

std::uint64_t splitmix64(std::uint64_t* state) {
  std::uint64_t x = (*state += 0x9e3779b97f4a7c15ULL);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

TenantClient::TenantClient(ClientConfig config, std::string name,
                           std::uint32_t num_threads)
    : config_(std::move(config)),
      name_(std::move(name)),
      num_threads_(num_threads),
      jitter_state_(config_.backoff_seed ^ 0xC11E57B1ULL) {}

TenantClient::~TenantClient() {
  if (transport_ != nullptr) transport_->close();
}

void TenantClient::drop_connection() {
  if (transport_ != nullptr) {
    transport_->close();
    transport_.reset();
  }
}

void TenantClient::backoff_sleep(std::uint32_t attempt) {
  if (attempt == 0 || config_.backoff_base_ms == 0) return;
  const std::uint32_t shift = std::min<std::uint32_t>(attempt, 20);
  const std::uint64_t cap =
      std::min<std::uint64_t>(config_.backoff_max_ms,
                              std::uint64_t{config_.backoff_base_ms}
                                  << shift);
  if (cap == 0) return;
  // Jitter in [cap/2, cap]: concurrent tenants knocked off the same
  // dead server do not reconnect in lockstep.
  const std::uint64_t ms = cap / 2 + splitmix64(&jitter_state_) % (cap / 2 + 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

bool TenantClient::ensure_connected() {
  if (transport_ != nullptr) return true;
  if (shutdown_seen_) return false;
  backoff_sleep(attempts_);
  transport_ = config_.connect(attempts_++);
  if (transport_ == nullptr) return false;
  ++stats_.connects;
  if (stats_.connects > 1) ++stats_.reconnects;

  // Handshake: first contact registers, reconnects reattach. A fresh
  // connection carries no stale frames, so the first reply here is
  // authoritative — an error means the server really refused us.
  const std::string frame =
      tenant_id_ == 0 ? encode_hello(name_, num_threads_)
                      : encode_resume(tenant_id_, name_);
  if (!transport_->send(frame)) {
    drop_connection();
    return false;
  }
  Message reply;
  const Await got = await_reply(MessageType::kWelcome, 0, &reply);
  if (got == Await::kFatal) {
    drop_connection();
    shutdown_seen_ = true;  // refused registration/resume is permanent
    return false;
  }
  if (got != Await::kOk) {
    drop_connection();
    return false;
  }
  tenant_id_ = reply.tenant_id;
  base_tid_ = reply.base_tid;
  return true;
}

TenantClient::Await TenantClient::await_reply(MessageType expect,
                                              std::uint64_t seq,
                                              Message* reply) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(std::max(config_.request_timeout_ms, 0));
  std::string payload;
  while (true) {
    int wait_ms = -1;
    if (config_.request_timeout_ms >= 0) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      if (left.count() <= 0) return Await::kBroken;  // reply deadline
      wait_ms = static_cast<int>(left.count());
    }
    const Transport::RecvStatus status = transport_->recv(&payload, wait_ms);
    // A timeout may be a signal that cut the wait short: the deadline
    // check above decides.
    if (status == Transport::RecvStatus::kTimeout) continue;
    if (status != Transport::RecvStatus::kFrame) return Await::kBroken;
    const std::optional<Message> msg = parse_message(payload);
    if (!msg.has_value()) return Await::kBroken;  // desync: reconnect

    if (msg->type == MessageType::kShutdown) {
      shutdown_seen_ = true;
      return Await::kFatal;
    }
    if (msg->type == MessageType::kRetry) {
      if (msg->client_seq != seq) {
        ++stats_.stale_frames;
        continue;
      }
      ++stats_.retries;
      std::this_thread::sleep_for(
          std::chrono::milliseconds(msg->delay_ms));
      return Await::kResend;
    }
    if (msg->type == expect) {
      // Sequenced replies must ack *this* request; an old duplicate's
      // ack (smaller seq) is discarded, not misattributed.
      if (expect == MessageType::kBatchAck && msg->client_seq != seq) {
        ++stats_.stale_frames;
        continue;
      }
      *reply = *msg;
      return Await::kOk;
    }
    if (msg->type == MessageType::kError) return Await::kFatal;
    // Anything else is a stale duplicate reply (chaos double-delivery);
    // skip it and keep waiting for ours.
    ++stats_.stale_frames;
    continue;
  }
}

bool TenantClient::request(const std::string& frame, MessageType expect,
                           std::uint64_t seq, Message* reply) {
  bool sent_once = false;
  for (std::uint32_t tries = 0; tries < config_.max_attempts; ++tries) {
    if (shutdown_seen_) return false;
    if (!ensure_connected()) {
      if (shutdown_seen_) return false;
      continue;  // backed off inside ensure_connected
    }
    if (sent_once) ++stats_.resends;
    if (!transport_->send(frame)) {
      drop_connection();
      sent_once = true;
      continue;
    }
    sent_once = true;
    switch (await_reply(expect, seq, reply)) {
      case Await::kOk:
        return true;
      case Await::kResend:
        break;  // same connection, loop sends again
      case Await::kBroken:
        drop_connection();
        break;
      case Await::kFatal:
        return false;
    }
  }
  return false;
}

bool TenantClient::hello() {
  for (std::uint32_t tries = 0; tries < config_.max_attempts; ++tries) {
    if (shutdown_seen_) return false;
    if (ensure_connected()) return true;
  }
  return false;
}

bool TenantClient::send_batch(const std::vector<FaultRecord>& events,
                              std::uint32_t* comm_events) {
  const std::uint64_t seq = ++client_seq_;
  const std::string frame = encode_fault_batch(seq, events);
  Message reply;
  if (!request(frame, MessageType::kBatchAck, seq, &reply)) return false;
  last_acked_ = seq;
  if (comm_events != nullptr) *comm_events = reply.comm_events;
  return true;
}

bool TenantClient::re_register(std::uint32_t new_threads) {
  const std::uint64_t seq = ++client_seq_;
  const std::string frame = encode_reregister(seq, new_threads);
  Message reply;
  if (!request(frame, MessageType::kWelcome, seq, &reply)) return false;
  last_acked_ = seq;
  num_threads_ = new_threads;
  base_tid_ = reply.base_tid;
  return true;
}

bool TenantClient::heartbeat() {
  Message reply;
  if (!request(encode_heartbeat(last_acked_), MessageType::kHeartbeatAck, 0,
               &reply)) {
    return false;
  }
  ++stats_.heartbeats;
  return true;
}

bool TenantClient::stats_json(std::string* json) {
  Message reply;
  if (!request(encode_stats(), MessageType::kStatsReply, 0, &reply)) {
    return false;
  }
  *json = reply.text;
  return true;
}

bool TenantClient::bye() {
  for (std::uint32_t tries = 0; tries < config_.max_attempts; ++tries) {
    if (!ensure_connected()) {
      if (shutdown_seen_) return false;
      continue;  // backed off inside ensure_connected
    }
    if (!transport_->send(encode_bye())) {
      // A failed send means the frame never left — the exit was not
      // committed, so reconnecting and saying bye again is safe.
      drop_connection();
      continue;
    }
    // Wait for the server to close: once it does, the exit record is
    // committed (the session loop journals the bye before closing).
    std::string payload;
    while (transport_->recv(&payload, config_.request_timeout_ms) ==
           Transport::RecvStatus::kFrame) {
    }
    drop_connection();
    return true;
  }
  return false;
}

}  // namespace spcd::svc
