#include "svc/protocol.hpp"

namespace spcd::svc {

namespace {

/// kFaultBatch: type, client_seq and count, then { vaddr, tid, time }.
constexpr std::size_t kFaultBatchHeaderBytes = 1 + 8 + 4;
constexpr std::size_t kFaultEventBytes = 8 + 4 + 8;

// A little-endian word, appended whole (the byte loop folds into one
// store).
template <typename T>
void put_le(std::string* out, T v) {
  char bytes[sizeof(T)];
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    bytes[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
  out->append(bytes, sizeof(T));
}

void put_u16(std::string* out, std::uint16_t v) { put_le(out, v); }
void put_u32(std::string* out, std::uint32_t v) { put_le(out, v); }
void put_u64(std::string* out, std::uint64_t v) { put_le(out, v); }

/// Bounds-checked little-endian reader over a frame payload.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  bool u8(std::uint8_t* v) { return fixed(v, 1); }
  bool u16(std::uint16_t* v) { return fixed(v, 2); }
  bool u32(std::uint32_t* v) { return fixed(v, 4); }
  bool u64(std::uint64_t* v) { return fixed(v, 8); }

  bool bytes(std::string* out, std::size_t len) {
    if (data_.size() - pos_ < len) return false;
    out->assign(data_.substr(pos_, len));
    pos_ += len;
    return true;
  }

  bool done() const { return pos_ == data_.size(); }

 private:
  template <typename T>
  bool fixed(T* v, std::size_t len) {
    if (data_.size() - pos_ < len) return false;
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < len; ++i) {
      acc |= static_cast<std::uint64_t>(
                 static_cast<unsigned char>(data_[pos_ + i]))
             << (8 * i);
    }
    pos_ += len;
    *v = static_cast<T>(acc);
    return true;
  }

  std::string_view data_;
  std::size_t pos_ = 0;
};

std::string typed(MessageType type) {
  std::string out;
  out.push_back(static_cast<char>(type));
  return out;
}

}  // namespace

bool valid_tenant_name(std::string_view name) {
  if (name.empty() || name.size() > kMaxTenantName) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' ||
                    c == '-';
    if (!ok) return false;
  }
  return true;
}

std::string encode_hello(std::string_view name, std::uint32_t num_threads) {
  std::string out = typed(MessageType::kHello);
  put_u32(&out, num_threads);
  put_u16(&out, static_cast<std::uint16_t>(name.size()));
  out.append(name);
  return out;
}

std::string encode_welcome(std::uint32_t tenant_id, std::uint32_t base_tid) {
  std::string out = typed(MessageType::kWelcome);
  put_u32(&out, tenant_id);
  put_u32(&out, base_tid);
  put_u16(&out, kProtocolVersion);
  return out;
}

std::string encode_fault_batch(std::uint64_t client_seq,
                               const std::vector<FaultRecord>& events) {
  std::string out;
  out.reserve(kFaultBatchHeaderBytes + events.size() * kFaultEventBytes);
  out.push_back(static_cast<char>(MessageType::kFaultBatch));
  put_u64(&out, client_seq);
  put_u32(&out, static_cast<std::uint32_t>(events.size()));
  for (const FaultRecord& ev : events) {
    put_u64(&out, ev.vaddr);
    put_u32(&out, ev.tid);
    put_u64(&out, ev.time);
  }
  return out;
}

std::string encode_batch_ack(std::uint64_t client_seq, std::uint64_t seq,
                             std::uint32_t comm_events) {
  std::string out = typed(MessageType::kBatchAck);
  put_u64(&out, client_seq);
  put_u64(&out, seq);
  put_u32(&out, comm_events);
  return out;
}

std::string encode_bye() { return typed(MessageType::kBye); }
std::string encode_stats() { return typed(MessageType::kStats); }

std::string encode_stats_reply(std::string_view json) {
  std::string out = typed(MessageType::kStatsReply);
  put_u32(&out, static_cast<std::uint32_t>(json.size()));
  out.append(json);
  return out;
}

std::string encode_error(std::string_view text) {
  std::string out = typed(MessageType::kError);
  put_u16(&out, static_cast<std::uint16_t>(text.size()));
  out.append(text);
  return out;
}

std::string encode_shutdown() { return typed(MessageType::kShutdown); }

std::string encode_reregister(std::uint64_t client_seq,
                              std::uint32_t num_threads) {
  std::string out = typed(MessageType::kReRegister);
  put_u64(&out, client_seq);
  put_u32(&out, num_threads);
  return out;
}

std::string encode_heartbeat(std::uint64_t last_acked) {
  std::string out = typed(MessageType::kHeartbeat);
  put_u64(&out, last_acked);
  return out;
}

std::string encode_heartbeat_ack(std::uint64_t commit_seq) {
  std::string out = typed(MessageType::kHeartbeatAck);
  put_u64(&out, commit_seq);
  return out;
}

std::string encode_resume(std::uint32_t tenant_id, std::string_view name) {
  std::string out = typed(MessageType::kResume);
  put_u32(&out, tenant_id);
  put_u16(&out, static_cast<std::uint16_t>(name.size()));
  out.append(name);
  return out;
}

std::string encode_retry(std::uint64_t client_seq, std::uint32_t delay_ms) {
  std::string out = typed(MessageType::kRetry);
  put_u64(&out, client_seq);
  put_u32(&out, delay_ms);
  return out;
}

std::optional<Message> parse_message(std::string_view payload) {
  Reader r(payload);
  std::uint8_t type = 0;
  if (!r.u8(&type)) return std::nullopt;

  Message msg;
  switch (static_cast<MessageType>(type)) {
    case MessageType::kHello: {
      msg.type = MessageType::kHello;
      std::uint16_t name_len = 0;
      if (!r.u32(&msg.num_threads) || !r.u16(&name_len)) return std::nullopt;
      if (!r.bytes(&msg.name, name_len)) return std::nullopt;
      if (!valid_tenant_name(msg.name)) return std::nullopt;
      break;
    }
    case MessageType::kWelcome:
      msg.type = MessageType::kWelcome;
      if (!r.u32(&msg.tenant_id) || !r.u32(&msg.base_tid) ||
          !r.u16(&msg.version)) {
        return std::nullopt;
      }
      break;
    case MessageType::kFaultBatch: {
      msg.type = MessageType::kFaultBatch;
      std::uint32_t count = 0;
      if (!r.u64(&msg.client_seq) || !r.u32(&count) ||
          count > kMaxBatchEvents) {
        return std::nullopt;
      }
      msg.events.resize(count);
      for (FaultRecord& ev : msg.events) {
        if (!r.u64(&ev.vaddr) || !r.u32(&ev.tid) || !r.u64(&ev.time)) {
          return std::nullopt;
        }
      }
      break;
    }
    case MessageType::kBatchAck:
      msg.type = MessageType::kBatchAck;
      if (!r.u64(&msg.client_seq) || !r.u64(&msg.seq) ||
          !r.u32(&msg.comm_events)) {
        return std::nullopt;
      }
      break;
    case MessageType::kBye:
      msg.type = MessageType::kBye;
      break;
    case MessageType::kStats:
      msg.type = MessageType::kStats;
      break;
    case MessageType::kStatsReply: {
      msg.type = MessageType::kStatsReply;
      std::uint32_t len = 0;
      if (!r.u32(&len) || len > kMaxFrameBytes) return std::nullopt;
      if (!r.bytes(&msg.text, len)) return std::nullopt;
      break;
    }
    case MessageType::kError: {
      msg.type = MessageType::kError;
      std::uint16_t len = 0;
      if (!r.u16(&len)) return std::nullopt;
      if (!r.bytes(&msg.text, len)) return std::nullopt;
      break;
    }
    case MessageType::kShutdown:
      msg.type = MessageType::kShutdown;
      break;
    case MessageType::kReRegister:
      msg.type = MessageType::kReRegister;
      if (!r.u64(&msg.client_seq) || !r.u32(&msg.num_threads)) {
        return std::nullopt;
      }
      break;
    case MessageType::kHeartbeat:
      msg.type = MessageType::kHeartbeat;
      if (!r.u64(&msg.seq)) return std::nullopt;
      break;
    case MessageType::kHeartbeatAck:
      msg.type = MessageType::kHeartbeatAck;
      if (!r.u64(&msg.seq)) return std::nullopt;
      break;
    case MessageType::kResume: {
      msg.type = MessageType::kResume;
      std::uint16_t name_len = 0;
      if (!r.u32(&msg.tenant_id) || !r.u16(&name_len)) return std::nullopt;
      if (!r.bytes(&msg.name, name_len)) return std::nullopt;
      if (!valid_tenant_name(msg.name)) return std::nullopt;
      break;
    }
    case MessageType::kRetry:
      msg.type = MessageType::kRetry;
      if (!r.u64(&msg.client_seq) || !r.u32(&msg.delay_ms)) {
        return std::nullopt;
      }
      break;
    default:
      return std::nullopt;
  }
  if (!r.done()) return std::nullopt;  // trailing bytes = malformed
  return msg;
}

}  // namespace spcd::svc
