#include "svc/session_journal.hpp"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>
#include <vector>

namespace spcd::svc {

namespace {

constexpr char kMetaVersion[] = "spcd-service-v2";

// The batch encoder runs under the commit lock once per batch, so the bulk
// encoders size one string for the record's longest form, write numbers
// into it with std::to_chars and trim it: one allocation, no stream and
// no format parsing. to_chars prints what printf's %u and %x print (no
// leading zeros, lowercase hex), the grammar every journal is written in.
constexpr std::size_t kMaxDecChars = 20;  ///< digits of UINT64_MAX
constexpr std::size_t kMaxHexChars = 16;
/// Room for a record's head: a short tag and up to three numbers.
constexpr std::size_t kMaxHeadChars = 16 + 3 * (1 + kMaxDecChars);
/// Room for one " <hex>,<hex>,<hex>" element.
constexpr std::size_t kMaxCellChars = 3 * (1 + kMaxHexChars);

char* put_text(char* p, std::string_view text) {
  return std::copy(text.begin(), text.end(), p);
}

/// `p` must have room for kMaxDecChars; returns the end of the digits.
char* put_dec(char* p, std::uint64_t v) {
  return std::to_chars(p, p + kMaxDecChars, v).ptr;
}

/// `p` must have room for kMaxHexChars; returns the end of the digits.
char* put_hex(char* p, std::uint64_t v) {
  return std::to_chars(p, p + kMaxHexChars, v, 16).ptr;
}

/// Trim a record string sized for its longest form to what was written.
void trim(std::string* out, const char* end) {
  out->resize(static_cast<std::size_t>(end - out->data()));
}

/// Split on single spaces; empty tokens (leading/double spaces) are
/// preserved so malformed records fail parsing instead of aliasing.
std::vector<std::string> split(const std::string& line) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = line.find(' ', start);
    if (pos == std::string::npos) {
      out.push_back(line.substr(start));
      return out;
    }
    out.push_back(line.substr(start, pos - start));
    start = pos + 1;
  }
}

bool parse_u64(const std::string& tok, int base, std::uint64_t* out) {
  if (tok.empty() || tok[0] == '-' || tok[0] == '+') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(tok.c_str(), &end, base);
  if (errno != 0 || end != tok.c_str() + tok.size()) return false;
  *out = v;
  return true;
}

bool parse_u32(const std::string& tok, int base, std::uint32_t* out) {
  std::uint64_t v = 0;
  if (!parse_u64(tok, base, &v) || v > 0xffffffffULL) return false;
  *out = static_cast<std::uint32_t>(v);
  return true;
}

bool parse_state(const std::string& tok, TenantState* out) {
  for (const TenantState s :
       {TenantState::kRegistered, TenantState::kActive, TenantState::kSuspect,
        TenantState::kExited, TenantState::kReaped}) {
    if (tok == tenant_state_name(s)) {
      *out = s;
      return true;
    }
  }
  return false;
}

/// Parse `n` comma-triples (or pairs, with w forced to 0) in `base` 16.
bool parse_cells(const std::vector<std::string>& tok, std::size_t first,
                 std::uint64_t count, bool triples,
                 std::vector<SessionRecord::Cell>* out) {
  out->reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::string& t = tok[first + i];
    const std::size_t c1 = t.find(',');
    if (c1 == std::string::npos) return false;
    const std::size_t c2 = triples ? t.find(',', c1 + 1) : std::string::npos;
    if (triples && c2 == std::string::npos) return false;
    SessionRecord::Cell cell;
    if (!parse_u64(t.substr(0, c1), 16, &cell.a)) return false;
    if (triples) {
      if (!parse_u64(t.substr(c1 + 1, c2 - c1 - 1), 16, &cell.b) ||
          !parse_u64(t.substr(c2 + 1), 16, &cell.w)) {
        return false;
      }
    } else {
      if (!parse_u64(t.substr(c1 + 1), 16, &cell.b)) return false;
    }
    out->push_back(cell);
  }
  return true;
}

}  // namespace

std::string service_meta(const ServiceConfig& config, std::uint32_t gen) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%s topo=%ux%ux%u shards=%u entries=%" PRIu64
                " gran=%u window=%" PRIu64 " interval=%" PRIu64
                " mapper=%s gen=%u",
                kMetaVersion, config.topology.sockets,
                config.topology.cores_per_socket,
                config.topology.smt_per_core, config.shards,
                config.table.num_entries, config.table.granularity_shift,
                static_cast<std::uint64_t>(config.table.time_window),
                config.arbitration_interval, config.mapping.strategy.c_str(),
                gen);
  return buf;
}

bool parse_service_meta(const std::string& meta, ServiceConfig* out,
                        std::uint32_t* gen) {
  ServiceConfig cfg;
  unsigned gran = 0;
  std::uint64_t window = 0;
  std::uint32_t g = 0;
  // %255s would need a version buffer; match the literal instead.
  char head[sizeof(kMetaVersion) + 1] = {};
  char mapper[32] = {};
  const int n = std::sscanf(
      meta.c_str(),
      "%16s topo=%ux%ux%u shards=%u entries=%" SCNu64 " gran=%u window=%"
      SCNu64 " interval=%" SCNu64 " mapper=%31s gen=%u",
      head, &cfg.topology.sockets, &cfg.topology.cores_per_socket,
      &cfg.topology.smt_per_core, &cfg.shards, &cfg.table.num_entries,
      &gran, &window, &cfg.arbitration_interval, mapper, &g);
  if (n != 11 || std::strcmp(head, kMetaVersion) != 0) return false;
  cfg.table.granularity_shift = gran;
  cfg.table.time_window = window;
  cfg.mapping.strategy = mapper;
  if (!cfg.mapping.validate().empty()) return false;
  *out = cfg;
  if (gen != nullptr) *gen = g;
  return true;
}

std::string encode_register(std::uint32_t tenant_id, const std::string& name,
                            std::uint32_t num_threads,
                            std::uint32_t base_tid) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "reg %u %u %u %s", tenant_id, num_threads,
                base_tid, name.c_str());
  return buf;
}

std::string encode_batch(std::uint32_t tenant_id, std::uint64_t seq,
                         const std::vector<FaultRecord>& events) {
  std::string out(kMaxHeadChars + events.size() * kMaxCellChars, '\0');
  char* p = put_text(out.data(), "batch ");
  p = put_dec(p, tenant_id);
  *p++ = ' ';
  p = put_dec(p, seq);
  *p++ = ' ';
  p = put_dec(p, events.size());
  for (const FaultRecord& e : events) {
    *p++ = ' ';
    p = put_hex(p, e.vaddr);
    *p++ = ',';
    p = put_hex(p, e.tid);
    *p++ = ',';
    p = put_hex(p, e.time);
  }
  trim(&out, p);
  return out;
}

std::string encode_reregister_record(std::uint32_t tenant_id,
                                     std::uint32_t num_threads,
                                     std::uint32_t base_tid) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "rereg %u %u %u", tenant_id, num_threads,
                base_tid);
  return buf;
}

std::string encode_suspect(std::uint32_t tenant_id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "suspect %u", tenant_id);
  return buf;
}

std::string encode_active(std::uint32_t tenant_id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "active %u", tenant_id);
  return buf;
}

std::string encode_reap(std::uint32_t tenant_id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "reap %u", tenant_id);
  return buf;
}

std::string encode_exit(std::uint32_t tenant_id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "exit %u", tenant_id);
  return buf;
}

std::string encode_decision(std::uint64_t seq, std::uint64_t event_time,
                            std::uint64_t digest) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "arb %" PRIu64 " %" PRIu64 " %016" PRIx64,
                seq, event_time, digest);
  return buf;
}

std::string encode_rotate(std::uint32_t next_gen) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "rotate %u", next_gen);
  return buf;
}

std::string encode_snap_svc(std::uint64_t total_events,
                            std::uint64_t commit_seq, std::uint32_t next_tid,
                            std::uint64_t decisions, std::uint32_t tenants) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "snap svc %" PRIu64 " %" PRIu64 " %u %" PRIu64 " %u",
                total_events, commit_seq, next_tid, decisions, tenants);
  return buf;
}

std::string encode_snap_counters(const std::vector<std::uint64_t>& values) {
  std::string out(kMaxHeadChars + values.size() * (1 + kMaxDecChars), '\0');
  char* p = put_text(out.data(), "snap ctr");
  for (const std::uint64_t v : values) {
    *p++ = ' ';
    p = put_dec(p, v);
  }
  trim(&out, p);
  return out;
}

std::string encode_snap_tenant(const Tenant& t) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "snap tenant %u %u %u %s %" PRIu64 " %" PRIu64 " %" PRIu64
                " %u %s",
                t.id, t.num_threads, t.base_tid, tenant_state_name(t.state),
                t.events, t.batches, t.comm_events, t.reregisters,
                t.name.c_str());
  return buf;
}

std::string encode_snap_matrix(
    std::uint32_t tenant_id, const std::vector<SessionRecord::Cell>& cells) {
  std::string out(kMaxHeadChars + cells.size() * kMaxCellChars, '\0');
  char* p = put_text(out.data(), "snap mat ");
  p = put_dec(p, tenant_id);
  *p++ = ' ';
  p = put_dec(p, cells.size());
  for (const SessionRecord::Cell& c : cells) {
    *p++ = ' ';
    p = put_hex(p, c.a);
    *p++ = ',';
    p = put_hex(p, c.b);
    *p++ = ',';
    p = put_hex(p, c.w);
  }
  trim(&out, p);
  return out;
}

std::string encode_snap_prev(const std::vector<SessionRecord::Cell>& pairs) {
  std::string out(kMaxHeadChars + pairs.size() * kMaxCellChars, '\0');
  char* p = put_text(out.data(), "snap prev ");
  p = put_dec(p, pairs.size());
  for (const SessionRecord::Cell& c : pairs) {
    *p++ = ' ';
    p = put_hex(p, c.a);
    *p++ = ',';
    p = put_hex(p, c.b);
  }
  trim(&out, p);
  return out;
}

std::string encode_snap_end() { return "snap end"; }

std::optional<SessionRecord> parse_session_record(const std::string& line) {
  const std::vector<std::string> tok = split(line);
  if (tok.empty()) return std::nullopt;
  SessionRecord rec;
  if (tok[0] == "reg") {
    if (tok.size() != 5) return std::nullopt;
    rec.kind = SessionRecord::Kind::kRegister;
    if (!parse_u32(tok[1], 10, &rec.tenant_id) ||
        !parse_u32(tok[2], 10, &rec.num_threads) ||
        !parse_u32(tok[3], 10, &rec.base_tid) ||
        !valid_tenant_name(tok[4])) {
      return std::nullopt;
    }
    rec.name = tok[4];
    return rec;
  }
  if (tok[0] == "batch") {
    if (tok.size() < 4) return std::nullopt;
    rec.kind = SessionRecord::Kind::kBatch;
    std::uint64_t count = 0;
    if (!parse_u32(tok[1], 10, &rec.tenant_id) ||
        !parse_u64(tok[2], 10, &rec.batch_seq) ||
        !parse_u64(tok[3], 10, &count) || count > kMaxBatchEvents ||
        tok.size() != 4 + count) {
      return std::nullopt;
    }
    rec.events.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::string& ev = tok[4 + i];
      const std::size_t c1 = ev.find(',');
      const std::size_t c2 =
          c1 == std::string::npos ? std::string::npos : ev.find(',', c1 + 1);
      if (c2 == std::string::npos) return std::nullopt;
      FaultRecord fr;
      if (!parse_u64(ev.substr(0, c1), 16, &fr.vaddr) ||
          !parse_u32(ev.substr(c1 + 1, c2 - c1 - 1), 16, &fr.tid) ||
          !parse_u64(ev.substr(c2 + 1), 16, &fr.time)) {
        return std::nullopt;
      }
      rec.events.push_back(fr);
    }
    return rec;
  }
  if (tok[0] == "rereg") {
    if (tok.size() != 4) return std::nullopt;
    rec.kind = SessionRecord::Kind::kReRegister;
    if (!parse_u32(tok[1], 10, &rec.tenant_id) ||
        !parse_u32(tok[2], 10, &rec.num_threads) ||
        !parse_u32(tok[3], 10, &rec.base_tid)) {
      return std::nullopt;
    }
    return rec;
  }
  if (tok[0] == "suspect" || tok[0] == "active" || tok[0] == "reap" ||
      tok[0] == "exit") {
    if (tok.size() != 2) return std::nullopt;
    rec.kind = tok[0] == "suspect" ? SessionRecord::Kind::kSuspect
               : tok[0] == "active" ? SessionRecord::Kind::kActive
               : tok[0] == "reap"   ? SessionRecord::Kind::kReap
                                    : SessionRecord::Kind::kExit;
    if (!parse_u32(tok[1], 10, &rec.tenant_id)) return std::nullopt;
    return rec;
  }
  if (tok[0] == "arb") {
    if (tok.size() != 4) return std::nullopt;
    rec.kind = SessionRecord::Kind::kDecision;
    if (!parse_u64(tok[1], 10, &rec.decision_seq) ||
        !parse_u64(tok[2], 10, &rec.event_time) ||
        !parse_u64(tok[3], 16, &rec.digest)) {
      return std::nullopt;
    }
    return rec;
  }
  if (tok[0] == "rotate") {
    if (tok.size() != 2) return std::nullopt;
    rec.kind = SessionRecord::Kind::kRotate;
    if (!parse_u32(tok[1], 10, &rec.next_gen)) return std::nullopt;
    return rec;
  }
  if (tok[0] == "snap") {
    if (tok.size() < 2) return std::nullopt;
    if (tok[1] == "svc") {
      if (tok.size() != 7) return std::nullopt;
      rec.kind = SessionRecord::Kind::kSnapSvc;
      rec.values.resize(5);
      for (std::size_t i = 0; i < 5; ++i) {
        if (!parse_u64(tok[2 + i], 10, &rec.values[i])) return std::nullopt;
      }
      return rec;
    }
    if (tok[1] == "ctr") {
      if (tok.size() < 3) return std::nullopt;
      rec.kind = SessionRecord::Kind::kSnapCounters;
      rec.values.resize(tok.size() - 2);
      for (std::size_t i = 0; i + 2 < tok.size(); ++i) {
        if (!parse_u64(tok[2 + i], 10, &rec.values[i])) return std::nullopt;
      }
      return rec;
    }
    if (tok[1] == "tenant") {
      if (tok.size() != 11) return std::nullopt;
      rec.kind = SessionRecord::Kind::kSnapTenant;
      rec.values.resize(4);
      std::uint32_t rereg = 0;
      if (!parse_u32(tok[2], 10, &rec.tenant_id) ||
          !parse_u32(tok[3], 10, &rec.num_threads) ||
          !parse_u32(tok[4], 10, &rec.base_tid) ||
          !parse_state(tok[5], &rec.state) ||
          !parse_u64(tok[6], 10, &rec.values[0]) ||   // events
          !parse_u64(tok[7], 10, &rec.values[1]) ||   // batches
          !parse_u64(tok[8], 10, &rec.values[2]) ||   // comm_events
          !parse_u32(tok[9], 10, &rereg) ||
          !valid_tenant_name(tok[10])) {
        return std::nullopt;
      }
      rec.values[3] = rereg;
      rec.name = tok[10];
      return rec;
    }
    if (tok[1] == "mat") {
      if (tok.size() < 4) return std::nullopt;
      rec.kind = SessionRecord::Kind::kSnapMatrix;
      std::uint64_t count = 0;
      if (!parse_u32(tok[2], 10, &rec.tenant_id) ||
          !parse_u64(tok[3], 10, &count) || tok.size() != 4 + count) {
        return std::nullopt;
      }
      if (!parse_cells(tok, 4, count, /*triples=*/true, &rec.cells)) {
        return std::nullopt;
      }
      return rec;
    }
    if (tok[1] == "prev") {
      if (tok.size() < 3) return std::nullopt;
      rec.kind = SessionRecord::Kind::kSnapPrev;
      std::uint64_t count = 0;
      if (!parse_u64(tok[2], 10, &count) || tok.size() != 3 + count) {
        return std::nullopt;
      }
      if (!parse_cells(tok, 3, count, /*triples=*/false, &rec.cells)) {
        return std::nullopt;
      }
      return rec;
    }
    if (tok[1] == "end") {
      if (tok.size() != 2) return std::nullopt;
      rec.kind = SessionRecord::Kind::kSnapEnd;
      return rec;
    }
    return std::nullopt;
  }
  return std::nullopt;
}

}  // namespace spcd::svc
