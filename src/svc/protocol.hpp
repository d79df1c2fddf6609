// The spcdd wire protocol: length-prefixed frames carrying fixed-layout
// little-endian messages. Tenants speak it over a Unix-domain socket, a
// TCP socket, or the in-process transport in tests; the daemon side never
// trusts a byte — every decode is bounds-checked and a malformed frame
// yields std::nullopt, not UB.
//
// Frame:   u32 LE payload length (<= kMaxFrameBytes), then the payload.
// Payload: u8 message type, then type-specific fields:
//
//   kHello        u32 num_threads, u16 name_len, name bytes
//   kWelcome      u32 tenant_id, u32 base_tid, u16 protocol version
//   kFaultBatch   u64 client_seq, u32 count,
//                 count x { u64 vaddr, u32 tid, u64 time }
//   kBatchAck     u64 client_seq (echo of the request being acked),
//                 u64 seq (journal sequence the batch committed under),
//                 u32 comm_events (partner pairs this batch detected)
//   kBye          (empty)
//   kStats        (empty; requests a kStatsReply)
//   kStatsReply   u32 json_len, json bytes (the service metrics JSON)
//   kError        u16 text_len, text bytes
//   kShutdown     (empty; server -> client on graceful drain)
//   kReRegister   u64 client_seq, u32 num_threads (live thread-count
//                 change; replied with a fresh kWelcome carrying the
//                 new base_tid)
//   kHeartbeat    u64 last_acked (highest client_seq the client has seen
//                 acked; keeps a quiet tenant alive)
//   kHeartbeatAck u64 commit_seq (server's durable journal commit seq)
//   kResume       u32 tenant_id, u16 name_len, name bytes (reconnecting
//                 client reattaches to its live tenant; replied with
//                 kWelcome on success, kError if unknown/reaped)
//   kRetry        u64 client_seq, u32 delay_ms (server overloaded: the
//                 request was NOT committed, retry after delay_ms)
//
// v2 adds client sequence numbers to sequenced requests (kFaultBatch,
// kReRegister) so a client that reconnects can idempotently re-send its
// last unacked frame: the server deduplicates on (tenant, client_seq)
// and replays the cached reply instead of committing twice.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace spcd::svc {

inline constexpr std::uint16_t kProtocolVersion = 2;
/// Upper bound on one frame's payload; a length prefix above this is a
/// protocol violation and closes the connection.
inline constexpr std::uint32_t kMaxFrameBytes = 1u << 20;
/// Upper bound on fault events per batch (keeps frames under the cap).
inline constexpr std::uint32_t kMaxBatchEvents = 32768;
/// Tenant names: 1..64 chars from [A-Za-z0-9_.-] (journal records and
/// metrics JSON embed them verbatim).
inline constexpr std::size_t kMaxTenantName = 64;
/// Upper bound on one tenant's thread count (a hello above this is
/// rejected — the arbiter's slot space stays bounded per tenant).
inline constexpr std::uint32_t kMaxTenantThreads = 4096;

enum class MessageType : std::uint8_t {
  kHello = 1,
  kWelcome = 2,
  kFaultBatch = 3,
  kBatchAck = 4,
  kBye = 5,
  kStats = 6,
  kStatsReply = 7,
  kError = 8,
  kShutdown = 9,
  kReRegister = 10,
  kHeartbeat = 11,
  kHeartbeatAck = 12,
  kResume = 13,
  kRetry = 14,
};

/// One simulated page-fault observation a tenant reports: thread `tid`
/// (tenant-local) touched `vaddr` at tenant-logical time `time`.
struct FaultRecord {
  std::uint64_t vaddr = 0;
  std::uint32_t tid = 0;
  std::uint64_t time = 0;

  bool operator==(const FaultRecord&) const = default;
};

/// Decoded message: `type` says which fields are meaningful.
struct Message {
  MessageType type = MessageType::kBye;
  std::string name;                  ///< kHello / kResume
  std::uint32_t num_threads = 0;     ///< kHello / kReRegister
  std::uint32_t tenant_id = 0;       ///< kWelcome / kResume
  std::uint32_t base_tid = 0;        ///< kWelcome
  std::uint16_t version = 0;         ///< kWelcome
  std::vector<FaultRecord> events;   ///< kFaultBatch
  std::uint64_t client_seq = 0;      ///< kFaultBatch/kBatchAck/kReRegister/kRetry
  std::uint64_t seq = 0;             ///< kBatchAck / kHeartbeat / kHeartbeatAck
  std::uint32_t comm_events = 0;     ///< kBatchAck
  std::uint32_t delay_ms = 0;        ///< kRetry
  std::string text;                  ///< kStatsReply / kError
};

/// True iff `name` is a valid tenant name (see kMaxTenantName).
bool valid_tenant_name(std::string_view name);

// --- encoders (return the frame payload, without the length prefix) ---
std::string encode_hello(std::string_view name, std::uint32_t num_threads);
std::string encode_welcome(std::uint32_t tenant_id, std::uint32_t base_tid);
std::string encode_fault_batch(std::uint64_t client_seq,
                               const std::vector<FaultRecord>& events);
std::string encode_batch_ack(std::uint64_t client_seq, std::uint64_t seq,
                             std::uint32_t comm_events);
std::string encode_bye();
std::string encode_stats();
std::string encode_stats_reply(std::string_view json);
std::string encode_error(std::string_view text);
std::string encode_shutdown();
std::string encode_reregister(std::uint64_t client_seq,
                              std::uint32_t num_threads);
std::string encode_heartbeat(std::uint64_t last_acked);
std::string encode_heartbeat_ack(std::uint64_t commit_seq);
std::string encode_resume(std::uint32_t tenant_id, std::string_view name);
std::string encode_retry(std::uint64_t client_seq, std::uint32_t delay_ms);

/// Decode one frame payload. std::nullopt on any malformed input: unknown
/// type, short buffer, oversized count, trailing bytes.
std::optional<Message> parse_message(std::string_view payload);

}  // namespace spcd::svc
