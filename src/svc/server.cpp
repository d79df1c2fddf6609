#include "svc/server.hpp"

#include <chrono>
#include <utility>

#include "svc/protocol.hpp"
#include "util/log.hpp"

namespace spcd::svc {

ServiceServer::ServiceServer(SpcdService& service, const ServerConfig& config)
    : service_(service), config_(config), pool_(config.threads) {}

std::uint64_t ServiceServer::now_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void ServiceServer::serve(std::unique_ptr<Transport> transport) {
  const std::uint64_t n =
      sessions_.fetch_add(1, std::memory_order_relaxed) + 1;
  // Shared ownership: a std::function must be copyable.
  std::shared_ptr<Transport> shared(std::move(transport));
  pool_.submit([this, shared, n] {
    try {
      session_loop(*shared);
    } catch (const std::exception& e) {
      SPCD_LOG_WARN("server: session-%llu failed: %s",
                    static_cast<unsigned long long>(n), e.what());
      shared->close();
    }
  });
}

void ServiceServer::accept_loop(Listener& listener,
                                const std::function<bool()>& stop_poll) {
  while (!stop_requested()) {
    if (stop_poll && stop_poll()) {
      request_stop();
      break;
    }
    std::unique_ptr<Transport> t = listener.accept(config_.recv_timeout_ms);
    if (t != nullptr) serve(std::move(t));
    service_.check_liveness(now_ms());
  }
  listener.close();
}

ServerStats ServiceServer::stats() const {
  ServerStats s;
  s.heartbeats = heartbeats_.load(std::memory_order_relaxed);
  s.retries_sent = retries_sent_.load(std::memory_order_relaxed);
  s.duplicates_suppressed =
      duplicates_suppressed_.load(std::memory_order_relaxed);
  s.sessions_resumed = sessions_resumed_.load(std::memory_order_relaxed);
  return s;
}

bool ServiceServer::admit() {
  if (config_.max_pending_commits != 0 &&
      pending_commits_.load(std::memory_order_relaxed) >=
          config_.max_pending_commits) {
    return false;
  }
  pending_commits_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void ServiceServer::answer(Transport& transport, std::uint64_t client_seq,
                           const SessionReply& reply) {
  if (reply.duplicate) {
    duplicates_suppressed_.fetch_add(1, std::memory_order_relaxed);
  }
  if (reply.ok) {
    transport.send(reply.frame);
  } else if (reply.refused) {
    // The request was NOT committed (nothing journaled): telling the
    // client to retry later keeps replay determinism untouched.
    transport.send(encode_retry(client_seq, config_.retry_delay_ms));
    retries_sent_.fetch_add(1, std::memory_order_relaxed);
  } else {
    transport.send(encode_error(reply.error));
  }
}

void ServiceServer::session_loop(Transport& transport) {
  std::uint32_t tenant_id = 0;  // 0 until a hello/resume attached us
  std::uint32_t session_base_tid = 0;  // welcome echo for duplicated hellos
  std::string session_name;
  std::string payload;
  while (true) {
    if (stop_requested()) {
      transport.send(encode_shutdown());
      break;
    }
    const Transport::RecvStatus status =
        transport.recv(&payload, config_.recv_timeout_ms);
    if (status == Transport::RecvStatus::kTimeout) continue;
    if (status != Transport::RecvStatus::kFrame) break;  // closed or error

    const std::optional<Message> msg = parse_message(payload);
    if (!msg.has_value()) {
      transport.send(encode_error("malformed frame"));
      break;
    }
    switch (msg->type) {
      case MessageType::kHello: {
        if (tenant_id != 0) {
          // A duplicated delivery of the handshake (chaos, retransmit
          // into a half-open connection) is idempotent for the same
          // identity: re-welcome instead of poisoning the stream with
          // an error the client would read as fatal.
          if (msg->name == session_name) {
            transport.send(encode_welcome(tenant_id, session_base_tid));
          } else {
            transport.send(encode_error("already registered"));
          }
          break;
        }
        const RegisterResult r =
            service_.register_tenant(msg->name, msg->num_threads);
        if (!r.ok) {
          transport.send(encode_error(r.error));
          break;
        }
        tenant_id = r.tenant_id;
        session_base_tid = r.base_tid;
        session_name = msg->name;
        service_.touch(tenant_id, now_ms());
        transport.send(encode_welcome(r.tenant_id, r.base_tid));
        break;
      }
      case MessageType::kResume: {
        if (tenant_id != 0) {
          if (msg->tenant_id == tenant_id && msg->name == session_name) {
            transport.send(encode_welcome(tenant_id, session_base_tid));
          } else {
            transport.send(encode_error("already registered"));
          }
          break;
        }
        const RegisterResult r =
            service_.resume_tenant(msg->tenant_id, msg->name, now_ms());
        if (!r.ok) {
          transport.send(encode_error(r.error));
          break;
        }
        tenant_id = r.tenant_id;
        session_base_tid = r.base_tid;
        session_name = msg->name;
        sessions_resumed_.fetch_add(1, std::memory_order_relaxed);
        transport.send(encode_welcome(r.tenant_id, r.base_tid));
        break;
      }
      case MessageType::kFaultBatch: {
        if (tenant_id == 0) {
          transport.send(encode_error("hello first"));
          break;
        }
        // A re-sent client_seq is answered from the dedup cache even when
        // the commit queue is full; the ack leaves once the batch is
        // durable, so an acked batch survives SIGKILL.
        const bool admitted = admit();
        const SessionReply r = service_.ingest_once(
            tenant_id, msg->client_seq, msg->events, now_ms(), admitted);
        if (admitted) pending_commits_.fetch_sub(1, std::memory_order_relaxed);
        answer(transport, msg->client_seq, r);
        break;
      }
      case MessageType::kReRegister: {
        if (tenant_id == 0) {
          transport.send(encode_error("hello first"));
          break;
        }
        const bool admitted = admit();
        const SessionReply r = service_.re_register_once(
            tenant_id, msg->client_seq, msg->num_threads, now_ms(), admitted);
        if (admitted) pending_commits_.fetch_sub(1, std::memory_order_relaxed);
        answer(transport, msg->client_seq, r);
        break;
      }
      case MessageType::kHeartbeat: {
        if (tenant_id == 0) {
          transport.send(encode_error("hello first"));
          break;
        }
        std::uint64_t durable_seq = 0;
        if (!service_.heartbeat_seen(tenant_id, now_ms(), &durable_seq)) {
          transport.send(encode_error(service_.journal_failed()
                                          ? "journal failed"
                                          : "tenant departed"));
          break;
        }
        heartbeats_.fetch_add(1, std::memory_order_relaxed);
        transport.send(encode_heartbeat_ack(durable_seq));
        break;
      }
      case MessageType::kStats:
        transport.send(encode_stats_reply(service_.metrics_json()));
        break;
      case MessageType::kBye:
        if (tenant_id != 0) service_.tenant_exit(tenant_id);
        transport.close();
        return;
      default:
        // Server-to-client message types (or garbage) from a client are
        // protocol violations.
        transport.send(encode_error("unexpected message type"));
        transport.close();
        return;
    }
  }
  transport.close();
}

}  // namespace spcd::svc
