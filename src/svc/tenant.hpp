// The daemon's tenant registry: every application that registered over
// the IPC protocol, its lifecycle state, its slice of the global thread-id
// space, and its own communication matrix (fed by the sharded sharing
// table). Tenant ids and base tids are allocated monotonically and never
// reused — including across re-registers, which move a tenant onto a
// fresh tid block — so journal records stay unambiguous across arrivals,
// phase changes, and exits; the arbiter compacts the *participating*
// tenants into a dense slot space per decision.
//
// Lifecycle (DESIGN.md §16):
//
//   kRegistered --first batch--> kActive --deadline missed--> kSuspect
//        |                          ^                            |
//        |                          +------- traffic seen -------+
//        |                                                       |
//        +--kBye--> kExited                kReaped <--reap deadline
//
// kRegistered/kActive/kSuspect tenants participate in arbitration;
// kExited (voluntary) and kReaped (forcible) free their contexts. Every
// transition that affects arbitration is journaled, so --replay walks
// the same state machine; the wall-clock observations that *trigger*
// suspect/reap transitions are never journaled, only their outcomes.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/comm_matrix.hpp"

namespace spcd::svc {

enum class TenantState : std::uint8_t {
  kRegistered,  ///< said kHello, no batch committed yet
  kActive,      ///< committing batches; threads participate in arbitration
  kSuspect,     ///< missed its liveness deadline; still participates
  kExited,      ///< said kBye (or was drained); keeps stats, frees slots
  kReaped,      ///< missed the reap deadline; forcibly removed
};

/// True for states whose threads the arbiter must still place.
inline bool tenant_participates(TenantState s) {
  return s == TenantState::kRegistered || s == TenantState::kActive ||
         s == TenantState::kSuspect;
}

const char* tenant_state_name(TenantState s);

struct Tenant {
  std::uint32_t id = 0;           ///< 1-based; 0 is reserved for "invalid"
  std::string name;
  std::uint32_t num_threads = 0;
  /// First global thread id of this tenant's current contiguous tid block
  /// (re-registering moves the tenant onto a fresh block).
  std::uint32_t base_tid = 0;
  TenantState state = TenantState::kRegistered;

  /// Per-tenant communication matrix over the tenant's local tids.
  core::CommMatrix matrix;

  // --- per-tenant accounting ---
  std::uint64_t events = 0;       ///< fault events ingested
  std::uint64_t batches = 0;      ///< batches committed
  std::uint64_t comm_events = 0;  ///< partner pairs detected
  std::uint32_t reregisters = 0;  ///< thread-count changes committed

  // --- idempotent re-send support (transport state, never journaled) ---
  /// Highest client_seq committed for this tenant (0 = none yet), the
  /// reply frame it produced and the commit seq that reply waits on: a
  /// reconnecting client that re-sends seq N gets the cached reply, once
  /// that commit is durable, instead of a second commit. Filled in the
  /// commit's own critical section.
  std::uint64_t last_client_seq = 0;
  std::string cached_reply;
  std::uint64_t cached_commit_seq = 0;

  // --- liveness (wall clock, never journaled) ---
  /// Last time any frame from this tenant was processed (steady-clock
  /// milliseconds; maintained by the server under the commit lock).
  std::uint64_t last_seen_ms = 0;

  Tenant(std::uint32_t id_, std::string name_, std::uint32_t threads,
         std::uint32_t base)
      : id(id_), name(std::move(name_)), num_threads(threads),
        base_tid(base), matrix(threads) {}
};

class TenantRegistry {
 public:
  /// Register a tenant; returns its id (>= 1). `name` must already be
  /// protocol-valid; duplicate names are allowed (ids disambiguate).
  std::uint32_t add(const std::string& name, std::uint32_t num_threads);

  /// Null for an id that was never allocated.
  Tenant* find(std::uint32_t id);
  const Tenant* find(std::uint32_t id) const;

  /// Live thread-count change: the tenant moves onto a fresh tid block
  /// and its matrix is remapped deterministically — growth keeps every
  /// cell (old tids map identically onto the first old_n new tids);
  /// shrink folds old tid i onto i % new_threads, merging the folded
  /// rows' weights. False if unknown or not participating.
  bool re_register(std::uint32_t id, std::uint32_t new_threads);

  /// kActive/kSuspect transitions; each returns false when the tenant is
  /// unknown or the transition is not legal from its current state.
  bool mark_active(std::uint32_t id);    ///< registered/suspect -> active
  bool mark_suspect(std::uint32_t id);   ///< registered/active -> suspect
  bool mark_reaped(std::uint32_t id);    ///< suspect -> reaped
  /// Mark a tenant exited; false if unknown or already departed.
  bool mark_exited(std::uint32_t id);

  /// Participating tenants in id order (the arbiter's deterministic
  /// input): registered, active, and suspect.
  std::vector<const Tenant*> participating() const;

  /// Snapshot restore: recreate a tenant exactly as journaled (id must
  /// arrive in order, matrix supplied separately by the caller). Returns
  /// the restored tenant, or null when ids arrive out of order.
  Tenant* restore(std::uint32_t id, const std::string& name,
                  std::uint32_t num_threads, std::uint32_t base_tid,
                  TenantState state, std::uint64_t events,
                  std::uint64_t batches, std::uint64_t comm_events,
                  std::uint32_t reregisters);
  /// Snapshot restore: set the tid-space high-water mark.
  void restore_tid_space(std::uint32_t next_tid);

  std::uint32_t registered() const {
    return static_cast<std::uint32_t>(tenants_.size());
  }
  std::uint32_t participating_count() const { return participating_count_; }
  std::uint32_t departed() const {
    return registered() - participating_count_;
  }
  /// Sum of participating tenants' thread counts.
  std::uint32_t participating_threads() const {
    return participating_threads_;
  }
  /// One past the highest allocated global tid.
  std::uint32_t tid_space() const { return next_tid_; }

 private:
  /// Transition bookkeeping: leave/enter the participating set.
  void depart(Tenant* t, TenantState to);

  std::vector<std::unique_ptr<Tenant>> tenants_;  ///< index = id - 1
  std::uint32_t next_tid_ = 0;
  std::uint32_t participating_count_ = 0;
  std::uint32_t participating_threads_ = 0;
};

}  // namespace spcd::svc
