// Codec for the daemon's session journal: the text records that make a
// multi-tenant session replayable. Every state transition the service
// commits — a tenant registering, a fault batch, a re-register, a
// lifecycle transition, an exit, a journal rotation — is one journal
// record, appended (and flushed, via util::Journal) *before* the daemon
// acknowledges it to the tenant; arbiter decisions are journaled as
// digest records so a replay can byte-compare its recomputed decisions
// against the original session's.
//
// The journal meta line binds the session to its ServiceConfig (topology
// shape, sharding, table geometry, arbitration interval) plus the
// journal *generation*: replaying a journal under a different config is
// refused rather than silently diverging, and generation numbers chain
// rotated files ("<path>.g0", "<path>.g1", ..., live file) into one
// session.
//
// Record grammar (single line each, space-separated, hex for bulk data):
//   reg <tenant_id> <num_threads> <base_tid> <name>
//   batch <tenant_id> <seq> <n> <vaddr,tid,time>*n    (fields in hex)
//   rereg <tenant_id> <num_threads> <base_tid>
//   suspect <tenant_id>
//   active <tenant_id>
//   reap <tenant_id>
//   exit <tenant_id>
//   arb <seq> <event_time> <digest-hex>
//   rotate <next_gen>            (epoch boundary: detection table resets)
//
// Snapshot records (head of every generation >= 1; compaction state that
// replaces the pruned prefix — they restore state, they are not commits):
//   snap svc <total_events> <commit_seq> <next_tid> <decisions> <tenants>
//   snap ctr <arbs> <stolen> <cores> <splits> <migr> <evict> <susp>
//            <react> <reaps> <rereg>
//   snap tenant <id> <threads> <base_tid> <state> <events> <batches>
//               <comm> <rereg> <name>
//   snap mat <tenant_id> <n> <a,b,w>*n                (fields in hex)
//   snap prev <n> <tid,ctx>*n                         (fields in hex)
//   snap end
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "arch/topology.hpp"
#include "core/spcd_config.hpp"
#include "mem/sharing_table.hpp"
#include "svc/protocol.hpp"
#include "svc/tenant.hpp"

namespace spcd::svc {

/// Everything that shapes a service session's deterministic behavior.
struct ServiceConfig {
  arch::TopologySpec topology;
  /// Sharding and total entry budget of the detection substrate.
  std::uint32_t shards = 8;
  mem::SharingTableConfig table;
  /// Arbitrate after every `arbitration_interval` ingested fault events
  /// (0 disables automatic arbitration).
  std::uint64_t arbitration_interval = 4096;
  /// Mapping strategy the arbiter's global decisions run through
  /// (core/mapping_strategy.hpp registry). The strategy name is part of
  /// the journal meta: replaying under a different mapper is refused.
  core::MappingConfig mapping;
  /// Journal path; empty runs journal-less (benchmarks, unit tests).
  std::string journal_path;

  // --- liveness (wall clock; not part of the journal meta — only the
  // transitions it *triggers* are journaled) ---
  /// A tenant silent for longer than this is marked suspect; 0 disables
  /// liveness tracking entirely (unit tests, benchmarks, replay).
  std::uint64_t heartbeat_ms = 0;
  /// A suspect silent for heartbeat_ms * reap_factor total is reaped.
  std::uint64_t reap_factor = 3;

  // --- journal rotation (not part of the meta; replay just follows the
  // generation chain it finds on disk) ---
  /// Rotate after this many records in the live generation (0 = never).
  std::uint64_t journal_max_records = 0;
  /// ... or after this many appended bytes (0 = never).
  std::uint64_t journal_max_bytes = 0;
  /// Rotated generations kept on disk; older ones are pruned. 0 = all.
  std::uint32_t journal_keep_generations = 0;
};

/// Meta line for util::Journal::create binding the config; no newlines.
std::string service_meta(const ServiceConfig& config, std::uint32_t gen = 0);
/// Parse a meta line back into the deterministic subset of the config
/// (journal_path, liveness, and rotation knobs are not part of the
/// meta). False on any mismatch in shape or version. *gen receives the
/// file's generation number when non-null.
bool parse_service_meta(const std::string& meta, ServiceConfig* out,
                        std::uint32_t* gen = nullptr);

struct SessionRecord {
  enum class Kind : std::uint8_t {
    kRegister,
    kBatch,
    kReRegister,
    kSuspect,
    kActive,
    kReap,
    kExit,
    kDecision,
    kRotate,
    kSnapSvc,
    kSnapCounters,
    kSnapTenant,
    kSnapMatrix,
    kSnapPrev,
    kSnapEnd,
  };
  Kind kind = Kind::kRegister;

  std::uint32_t tenant_id = 0;  // kRegister/kBatch/k*lifecycle/kSnapTenant/kSnapMatrix

  // kRegister / kReRegister / kSnapTenant
  std::string name;
  std::uint32_t num_threads = 0;
  std::uint32_t base_tid = 0;

  // kBatch
  std::uint64_t batch_seq = 0;
  std::vector<FaultRecord> events;

  // kDecision
  std::uint64_t decision_seq = 0;
  std::uint64_t event_time = 0;
  std::uint64_t digest = 0;

  // kRotate
  std::uint32_t next_gen = 0;

  // kSnapTenant
  TenantState state = TenantState::kRegistered;

  // kSnapSvc / kSnapCounters / kSnapTenant numeric payload, in the
  // field order of the grammar above.
  std::vector<std::uint64_t> values;

  // kSnapMatrix: (a, b, weight) triples. kSnapPrev: (tid, ctx) pairs
  // land in the first two slots with weight 0.
  struct Cell {
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    std::uint64_t w = 0;
  };
  std::vector<Cell> cells;
};

std::string encode_register(std::uint32_t tenant_id, const std::string& name,
                            std::uint32_t num_threads,
                            std::uint32_t base_tid);
std::string encode_batch(std::uint32_t tenant_id, std::uint64_t seq,
                         const std::vector<FaultRecord>& events);
std::string encode_reregister_record(std::uint32_t tenant_id,
                                     std::uint32_t num_threads,
                                     std::uint32_t base_tid);
std::string encode_suspect(std::uint32_t tenant_id);
std::string encode_active(std::uint32_t tenant_id);
std::string encode_reap(std::uint32_t tenant_id);
std::string encode_exit(std::uint32_t tenant_id);
std::string encode_decision(std::uint64_t seq, std::uint64_t event_time,
                            std::uint64_t digest);
std::string encode_rotate(std::uint32_t next_gen);
std::string encode_snap_svc(std::uint64_t total_events,
                            std::uint64_t commit_seq, std::uint32_t next_tid,
                            std::uint64_t decisions, std::uint32_t tenants);
std::string encode_snap_counters(const std::vector<std::uint64_t>& values);
std::string encode_snap_tenant(const Tenant& t);
std::string encode_snap_matrix(std::uint32_t tenant_id,
                               const std::vector<SessionRecord::Cell>& cells);
std::string encode_snap_prev(const std::vector<SessionRecord::Cell>& pairs);
std::string encode_snap_end();

/// Strict parse of one record line; nullopt on any malformation (unknown
/// kind, wrong field count, non-hex payload, event count mismatch).
std::optional<SessionRecord> parse_session_record(const std::string& line);

}  // namespace spcd::svc
