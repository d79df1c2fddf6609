// SpcdService: the daemon's state machine, shared by every transport
// session. All state mutation — tenant registration, fault-batch
// ingest, re-registers, lifecycle transitions, exits, arbitration,
// journal rotation — commits serially under one mutex: each commit
// writes its journal record (in the page cache, not yet flushed) and
// applies its state change under that lock, so journal order IS commit
// order, which is what makes `spcdd --replay` byte-identical. Durability
// is a group commit after the lock is released (DESIGN.md §14): a commit
// method returns success only once an fdatasync covers its record, so a
// batch ack promises the batch survives SIGKILL and power loss, while
// commits from concurrent sessions share one flush. A failed journal
// write or flush is fail-stop: every commit not yet durable reports an
// error and every later commit is refused. Readers (metrics_json, stats)
// see committed state, which may run ahead of the durable point.
//
// Liveness (DESIGN.md §16): wall-clock observations (last frame seen per
// tenant) are tracked but never journaled; only the *transitions* they
// trigger (suspect/active/reap records) are committed, so replay walks
// the identical state machine without a clock. Journal rotation
// (generation files + head-of-file snapshot) is likewise an explicit
// `rotate` commit: the detection table resets at that exact point in
// both the live run and the replay.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "arch/topology.hpp"
#include "core/metrics_export.hpp"
#include "obs/trace.hpp"
#include "svc/arbiter.hpp"
#include "svc/protocol.hpp"
#include "svc/session_journal.hpp"
#include "svc/sharded_table.hpp"
#include "svc/tenant.hpp"
#include "util/journal.hpp"

namespace spcd::svc {

struct RegisterResult {
  bool ok = false;
  std::string error;          ///< set when !ok
  std::uint32_t tenant_id = 0;
  std::uint32_t base_tid = 0;
};

struct IngestResult {
  bool ok = false;
  std::string error;           ///< set when !ok
  std::uint64_t seq = 0;       ///< journal sequence the batch committed as
  std::uint32_t comm_events = 0;  ///< partner pairs this batch detected
};

/// What a session sends back for a sequenced request: a fault batch or a
/// re-register carrying a client_seq.
struct SessionReply {
  bool ok = false;         ///< `frame` is the reply to send
  bool duplicate = false;  ///< a re-sent client_seq, answered from cache
  bool refused = false;    ///< not admitted and nothing committed: kRetry
  std::string frame;       ///< the kBatchAck or kWelcome, when ok
  std::string error;       ///< set when neither ok nor refused
};

/// Deterministic lifecycle counters, reproduced exactly by --replay
/// (every increment corresponds to a journaled record or code path).
struct LifecycleCounters {
  std::uint64_t suspects = 0;       ///< active/registered -> suspect
  std::uint64_t reactivations = 0;  ///< suspect -> active
  std::uint64_t reaps = 0;          ///< suspect -> reaped
  std::uint64_t reregisters = 0;    ///< thread-count changes committed
};

class SpcdService {
 public:
  explicit SpcdService(const ServiceConfig& config);

  /// Register a tenant. Fails (without journaling) on an invalid name or
  /// a thread count outside [1, kMaxTenantThreads].
  RegisterResult register_tenant(const std::string& name,
                                 std::uint32_t num_threads);

  /// Live thread-count change: the tenant keeps its identity and its
  /// accumulated matrix (deterministically remapped) but moves onto a
  /// fresh tid block. Fails on unknown/departed tenants or an
  /// out-of-range thread count. Journaled.
  RegisterResult re_register(std::uint32_t tenant_id,
                             std::uint32_t num_threads);

  /// Reattach a reconnecting client to its live tenant: id and name must
  /// match and the tenant must still participate. Reactivates a suspect
  /// (journaled) and touches liveness.
  RegisterResult resume_tenant(std::uint32_t tenant_id,
                               const std::string& name,
                               std::uint64_t now_ms);

  /// Commit one fault batch: journal first, then feed the sharded table
  /// and the tenant's matrix, then arbitrate if an interval boundary was
  /// crossed. Fails (without journaling) on an unknown/departed tenant,
  /// an out-of-range local tid, or an oversized batch. A registered or
  /// suspect tenant becomes active (the batch record implies it).
  IngestResult ingest(std::uint32_t tenant_id,
                      const std::vector<FaultRecord>& events);

  /// Mark a tenant exited (journaled). False if unknown or already out.
  bool tenant_exit(std::uint32_t tenant_id);

  /// Force a decision now (spcdd issues one final decision on drain so a
  /// session always ends with a placement for its survivors).
  ArbiterDecision arbitrate_now();

  // --- liveness (wall clock in, journaled transitions out) ---

  /// Record that a frame from this tenant was processed at `now_ms`
  /// (steady-clock milliseconds). Cheap; never journals.
  void touch(std::uint32_t tenant_id, std::uint64_t now_ms);

  /// Heartbeat: touch + reactivate a suspect (journaled). On success
  /// *durable_seq receives the durable commit sequence for the ack.
  bool heartbeat_seen(std::uint32_t tenant_id, std::uint64_t now_ms,
                      std::uint64_t* durable_seq);

  struct LivenessReport {
    std::uint32_t suspected = 0;
    std::uint32_t reaped = 0;
  };
  /// Sweep every participating tenant against the liveness deadlines
  /// (config.heartbeat_ms; 0 disables): silence past the deadline marks
  /// suspect, silence past heartbeat_ms * reap_factor reaps. Each
  /// transition is journaled; any reap triggers an immediate arbitration
  /// so the arbiter reclaims the reaped tenant's contexts. Tenants that
  /// never produced a frame (last_seen == 0) are exempt.
  LivenessReport check_liveness(std::uint64_t now_ms);

  // --- sequenced requests: at most one commit per client_seq ---

  /// Commit a session's fault batch once per (tenant, client_seq). One
  /// hold of the commit lock looks client_seq up in the tenant's reply
  /// cache and, on a miss, touches liveness at `now_ms`, commits, and
  /// caches the kBatchAck frame with its commit seq. A hit commits
  /// nothing and answers with the cached frame. Either way the reply is
  /// ok only once that commit is durable, so a re-send that races the
  /// original's fsync on another connection is neither committed twice
  /// nor acked early. A miss that the server did not `admit` (its commit
  /// queue is full) commits nothing and comes back refused. client_seq 0
  /// is never cached. Not journaled: the cache is transport state.
  SessionReply ingest_once(std::uint32_t tenant_id, std::uint64_t client_seq,
                           const std::vector<FaultRecord>& events,
                           std::uint64_t now_ms, bool admit);
  /// The same for a kReRegister; the reply is the tenant's new kWelcome.
  SessionReply re_register_once(std::uint32_t tenant_id,
                                std::uint64_t client_seq,
                                std::uint32_t num_threads, std::uint64_t now_ms,
                                bool admit);

  const ServiceConfig& config() const { return config_; }
  const arch::Topology& topology() const { return topology_; }

  /// Interference counters, with cross_tenant_evictions pulled live from
  /// the sharded table (plus the pre-rotation base).
  core::InterferenceCounters interference() const;

  LifecycleCounters lifecycle() const;

  /// Machine-readable session snapshot ("spcd-service-v2"): tenants with
  /// lifecycle states, table statistics, interference and lifecycle
  /// counters. Deterministic — byte-identical under --replay.
  std::string metrics_json() const;

  /// One line per arbiter decision, full content (the replay
  /// byte-compare target): seq, event time, digest, every tenant's
  /// placement. After a snapshot restore this holds the decisions since
  /// the snapshot (seq numbering continues the original stream).
  std::string decisions_text() const;

  std::vector<ArbiterDecision> decisions() const;
  /// A copy of the tenant's communication matrix; nullopt when unknown.
  std::optional<core::CommMatrix> tenant_matrix(std::uint32_t tenant_id) const;
  std::uint64_t total_events() const;
  std::uint64_t journal_records() const;
  std::uint32_t registered_tenants() const;
  /// Tenants that still participate in arbitration (registered, active,
  /// or suspect).
  std::uint32_t active_tenants() const;
  /// Journal generation of the live file (0 until the first rotation).
  std::uint32_t generation() const;

  // --- group commit (wall clock; not in metrics_json, not replayed) ---

  /// Highest commit seq whose journal record is on disk (the commit
  /// count itself when journal-less).
  std::uint64_t durable_seq() const;
  /// Group fsyncs run so far; under concurrent commits, fewer than the
  /// commits they made durable.
  std::uint64_t journal_syncs() const;
  /// True once a journal write or fsync failed: commits are refused.
  bool journal_failed() const;

  /// Bind an obs session: commits emit svc trace events stamped with the
  /// total-event count (the service's deterministic time axis).
  void set_trace_session(obs::Session* session) { trace_ = session; }

  struct ReplayResult {
    bool ok = false;
    std::string error;
    /// The rebuilt service (journal-less), valid when ok.
    std::unique_ptr<SpcdService> service;
    std::uint64_t records_applied = 0;
    /// Journaled decisions compared against recomputed ones.
    std::uint64_t decisions_checked = 0;
    std::uint64_t digest_mismatches = 0;
    std::uint32_t generations_replayed = 1;
    bool restored_from_snapshot = false;
    bool torn_tail = false;
  };

  /// Rebuild a session from its journal — following the generation chain
  /// ("<path>.g0", "<path>.g1", ..., live file) when the journal was
  /// rotated — by re-committing every record through the normal code
  /// paths, and byte-compare each journaled arbiter digest against the
  /// recomputed decision stream. When the oldest generations were
  /// pruned, the oldest retained file's head snapshot seeds the state. A
  /// torn tail is tolerated only on the live file.
  static ReplayResult replay(const std::string& journal_path);

 private:
  /// Arbitrate under commit_mu_ (already held) and journal the decision.
  ArbiterDecision arbitrate_locked();
  void ingest_locked(std::uint32_t tenant_id,
                     const std::vector<FaultRecord>& events,
                     IngestResult* result);
  bool re_register_locked(std::uint32_t tenant_id, std::uint32_t new_threads,
                          RegisterResult* result);
  /// The body of ingest_once / re_register_once. `commit` runs under
  /// commit_mu_ on an admitted cache miss: it returns true with the reply
  /// frame and the commit seq to wait on, or false with reply->error set
  /// and nothing committed.
  template <typename Commit>
  SessionReply commit_once(std::uint32_t tenant_id, std::uint64_t client_seq,
                           std::uint64_t now_ms, bool admit, Commit commit);
  void sweep_liveness_locked(std::uint64_t now_ms, LivenessReport* report);
  /// Take the next commit seq and write the record to the journal
  /// (not yet flushed). False once the journal failed.
  bool journal_append_locked(const std::string& record);
  /// Write without bumping commit_seq_ (snapshot records are state
  /// descriptions, not commits).
  void journal_raw_append_locked(const std::string& record);
  /// Block, without commit_mu_, until commit `seq` is durable; false if
  /// the journal failed first. One caller at a time (sync_mu_) is the
  /// flush leader: it reads commit_seq_ and dups the journal descriptor
  /// under commit_mu_, then fdatasyncs outside it, making every record
  /// written so far durable at once.
  bool await_durable(std::uint64_t seq);
  bool force_active_locked(std::uint32_t tenant_id);
  /// Rotate the live journal when a size/record threshold tripped:
  /// journal a `rotate` commit (the detection table resets at that exact
  /// point), rename the file to "<path>.g<gen>", open generation gen+1,
  /// write the head snapshot, prune generations past the keep budget.
  void maybe_rotate_locked();
  void append_snapshot_locked();

  // --- replay appliers (no journal open; commit bumps only where the
  // live path bumped) ---
  struct GenerationFile;
  bool apply_record(const SessionRecord& rec, bool restoring,
                    ReplayResult* result);

  ServiceConfig config_;
  arch::Topology topology_;
  ShardedSharingTable table_;

  /// Lock order: sync_mu_ before commit_mu_, never the reverse.
  std::mutex sync_mu_;
  mutable std::mutex commit_mu_;
  TenantRegistry registry_;
  PlacementArbiter arbiter_;
  util::Journal journal_;
  std::vector<ArbiterDecision> decisions_;
  core::InterferenceCounters counters_;
  LifecycleCounters lifecycle_;
  std::uint64_t total_events_ = 0;
  /// Commits so far (== journal records when journaling): the ack seq.
  std::uint64_t commit_seq_ = 0;
  /// Highest commit seq known to be on disk; written by fsync leaders.
  std::atomic<std::uint64_t> durable_seq_{0};
  std::atomic<std::uint64_t> syncs_{0};
  /// A journal write or fsync failed: state is ahead of the journal.
  std::atomic<bool> failed_{false};
  /// Journal generation of the live file; bumped by rotation.
  std::uint32_t gen_ = 0;
  /// Decisions committed before a snapshot restore (seq continuity).
  std::uint64_t decisions_base_ = 0;
  /// Cross-tenant evictions accumulated in generations before the last
  /// rotation (the table resets at each rotate commit).
  std::uint64_t evictions_base_ = 0;
  obs::Session* trace_ = nullptr;
};

}  // namespace spcd::svc
