#include "svc/service.hpp"

#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <sstream>

#include "obs/json.hpp"
#include "util/log.hpp"

namespace spcd::svc {

namespace {

constexpr std::size_t kSnapMatrixChunk = 256;  ///< cells per snap-mat line
constexpr std::size_t kSnapPrevChunk = 512;    ///< pairs per snap-prev line
constexpr char kJournalFailed[] = "journal failed; commits refused";

ShardedTableConfig sharded_config(const ServiceConfig& config) {
  ShardedTableConfig cfg;
  cfg.shards = config.shards;
  cfg.table = config.table;
  return cfg;
}

std::string generation_path(const std::string& base, std::uint32_t gen) {
  return base + ".g" + std::to_string(gen);
}

/// A committed result, or the fail-stop error when its commit never
/// became durable.
template <typename Result>
Result once_durable(Result result, bool durable) {
  if (!durable) {
    result.ok = false;
    result.error = kJournalFailed;
  }
  return result;
}

}  // namespace

SpcdService::SpcdService(const ServiceConfig& config)
    : config_(config),
      topology_(config.topology),
      table_(sharded_config(config)),
      arbiter_(topology_, config.mapping) {
  if (!config_.journal_path.empty()) {
    journal_ =
        util::Journal::create(config_.journal_path, service_meta(config_));
    failed_ = !journal_.ok();
  }
}

bool SpcdService::journal_append_locked(const std::string& record) {
  const std::uint64_t seq = ++commit_seq_;
  if (config_.journal_path.empty()) {
    durable_seq_.store(seq, std::memory_order_release);
    return true;
  }
  if (!journal_.write(record)) failed_ = true;
  return !failed_;
}

void SpcdService::journal_raw_append_locked(const std::string& record) {
  if (!journal_.write(record)) failed_ = true;
}

bool SpcdService::await_durable(std::uint64_t seq) {
  if (durable_seq_.load(std::memory_order_acquire) >= seq) return true;
  std::lock_guard<std::mutex> sync(sync_mu_);
  // The leader this caller queued behind may have covered `seq` already.
  if (durable_seq_.load(std::memory_order_acquire) >= seq) return true;
  std::uint64_t target = 0;
  int fd = -1;
  {
    std::lock_guard<std::mutex> lock(commit_mu_);
    target = commit_seq_;
    if (!failed_) fd = journal_.dup_fd();
  }
  if (fd < 0) {
    failed_ = true;
    return false;
  }
  // One fsync makes every record written before it durable: this
  // caller's, and those of every commit that arrived during the last one.
  const bool synced = ::fsync(fd) == 0;
  ::close(fd);
  syncs_.fetch_add(1, std::memory_order_relaxed);
  if (!synced) {
    SPCD_LOG_WARN("spcdd: journal fsync failed; refusing further commits");
    failed_ = true;
    return false;
  }
  durable_seq_.store(target, std::memory_order_release);
  return true;
}

RegisterResult SpcdService::register_tenant(const std::string& name,
                                            std::uint32_t num_threads) {
  RegisterResult result;
  if (!valid_tenant_name(name)) {
    result.error = "invalid tenant name";
    return result;
  }
  if (num_threads < 1 || num_threads > kMaxTenantThreads) {
    result.error = "thread count out of range";
    return result;
  }
  std::uint64_t seq = 0;
  {
    std::lock_guard<std::mutex> lock(commit_mu_);
    if (failed_) return once_durable(result, false);
    const std::uint32_t id = registry_.add(name, num_threads);
    const Tenant* t = registry_.find(id);
    journal_append_locked(
        encode_register(id, name, num_threads, t->base_tid));
    if (trace_ != nullptr) {
      obs::ScopedSession bind(trace_);
      obs::trace_instant("svc", "register", total_events_, {"tenant", id},
                         {"threads", num_threads});
      obs::trace_counter("svc", "active_tenants", total_events_,
                         registry_.participating_count());
    }
    result.ok = true;
    result.tenant_id = id;
    result.base_tid = t->base_tid;
    seq = commit_seq_;
    maybe_rotate_locked();
  }
  return once_durable(result, await_durable(seq));
}

RegisterResult SpcdService::re_register(std::uint32_t tenant_id,
                                        std::uint32_t new_threads) {
  RegisterResult result;
  std::uint64_t seq = 0;
  {
    std::lock_guard<std::mutex> lock(commit_mu_);
    if (failed_) return once_durable(result, false);
    if (!re_register_locked(tenant_id, new_threads, &result)) return result;
    seq = commit_seq_;
  }
  return once_durable(result, await_durable(seq));
}

bool SpcdService::re_register_locked(std::uint32_t tenant_id,
                                     std::uint32_t new_threads,
                                     RegisterResult* result) {
  if (new_threads < 1 || new_threads > kMaxTenantThreads) {
    result->error = "thread count out of range";
    return false;
  }
  Tenant* t = registry_.find(tenant_id);
  if (t == nullptr || !tenant_participates(t->state)) {
    result->error = "unknown or departed tenant";
    return false;
  }
  // A suspect that re-registers is clearly alive again; the transition
  // is implied by the rereg record (replay's re_register does the same).
  if (t->state == TenantState::kSuspect) {
    registry_.mark_active(tenant_id);
    ++lifecycle_.reactivations;
  }
  registry_.re_register(tenant_id, new_threads);
  ++lifecycle_.reregisters;
  journal_append_locked(
      encode_reregister_record(tenant_id, new_threads, t->base_tid));
  if (trace_ != nullptr) {
    obs::ScopedSession bind(trace_);
    obs::trace_instant("svc", "reregister", total_events_,
                       {"tenant", tenant_id}, {"threads", new_threads});
  }
  result->ok = true;
  result->tenant_id = tenant_id;
  result->base_tid = t->base_tid;
  maybe_rotate_locked();
  return true;
}

RegisterResult SpcdService::resume_tenant(std::uint32_t tenant_id,
                                          const std::string& name,
                                          std::uint64_t now_ms) {
  RegisterResult result;
  std::uint64_t seq = 0;
  {
    std::lock_guard<std::mutex> lock(commit_mu_);
    if (failed_) return once_durable(result, false);
    Tenant* t = registry_.find(tenant_id);
    if (t == nullptr || !tenant_participates(t->state) || t->name != name) {
      result.error = "unknown, departed, or mismatched tenant";
      return result;
    }
    t->last_seen_ms = now_ms;
    if (t->state == TenantState::kSuspect) {
      force_active_locked(tenant_id);
      seq = commit_seq_;
    }
    result.ok = true;
    result.tenant_id = tenant_id;
    result.base_tid = t->base_tid;
  }
  return once_durable(result, await_durable(seq));
}

IngestResult SpcdService::ingest(std::uint32_t tenant_id,
                                 const std::vector<FaultRecord>& events) {
  IngestResult result;
  {
    std::lock_guard<std::mutex> lock(commit_mu_);
    if (failed_) return once_durable(result, false);
    ingest_locked(tenant_id, events, &result);
  }
  if (!result.ok) return result;
  return once_durable(result, await_durable(result.seq));
}

void SpcdService::ingest_locked(std::uint32_t tenant_id,
                                const std::vector<FaultRecord>& events,
                                IngestResult* result) {
  if (events.size() > kMaxBatchEvents) {
    result->error = "batch too large";
    return;
  }
  Tenant* tenant = registry_.find(tenant_id);
  if (tenant == nullptr) {
    result->error = "unknown tenant";
    return;
  }
  if (!tenant_participates(tenant->state)) {
    result->error = "tenant departed";
    return;
  }
  for (const FaultRecord& e : events) {
    if (e.tid >= tenant->num_threads) {
      result->error = "tid out of range";
      return;
    }
  }
  // Write-ahead: the record is in the journal before any state changes.
  // The caller waits for it to be durable before the ack, which carries
  // the commit seq — an acked batch survives SIGKILL and power loss.
  if (!journal_append_locked(
          encode_batch(tenant_id, tenant->batches + 1, events))) {
    result->error = kJournalFailed;
    return;
  }
  // The batch record implies the tenant is alive: registered tenants
  // activate on their first batch, suspects reactivate. Replay applies
  // the identical transitions from the batch record alone.
  if (tenant->state == TenantState::kSuspect) {
    registry_.mark_active(tenant_id);
    ++lifecycle_.reactivations;
  } else if (tenant->state == TenantState::kRegistered) {
    registry_.mark_active(tenant_id);
  }

  std::uint64_t comm = 0;
  const std::uint32_t tid_end = tenant->base_tid + tenant->num_threads;
  for (const FaultRecord& e : events) {
    const mem::ThreadId global = tenant->base_tid + e.tid;
    const mem::CommunicationEvent ev =
        table_.record(tenant_id - 1, e.vaddr, global, e.time);
    for (std::uint32_t p = 0; p < ev.partner_count; ++p) {
      // Region salting guarantees partners are same-tenant global tids,
      // but a re-register moves the tenant onto a fresh tid block, so
      // table entries may still hold pre-rereg tids — skip them instead
      // of underflowing into another tenant's local space.
      const std::uint32_t partner = ev.partners[p];
      if (partner < tenant->base_tid || partner >= tid_end) continue;
      const std::uint32_t local = partner - tenant->base_tid;
      tenant->matrix.add(e.tid, local, 1);
      ++comm;
    }
  }
  tenant->events += events.size();
  ++tenant->batches;
  tenant->comm_events += comm;
  const std::uint64_t before = total_events_;
  total_events_ += events.size();

  if (trace_ != nullptr) {
    obs::ScopedSession bind(trace_);
    obs::trace_instant("svc", "batch", total_events_, {"tenant", tenant_id},
                       {"events", events.size()});
  }

  // Arbitrate once per crossed interval boundary (a huge batch still
  // yields one decision — decisions are per-boundary, not per-event).
  const std::uint64_t interval = config_.arbitration_interval;
  if (interval != 0 && total_events_ / interval > before / interval) {
    arbitrate_locked();
  }

  result->ok = true;
  result->seq = commit_seq_;
  result->comm_events = static_cast<std::uint32_t>(comm);
  maybe_rotate_locked();
}

bool SpcdService::tenant_exit(std::uint32_t tenant_id) {
  std::uint64_t seq = 0;
  {
    std::lock_guard<std::mutex> lock(commit_mu_);
    if (failed_ || !registry_.mark_exited(tenant_id)) return false;
    journal_append_locked(encode_exit(tenant_id));
    if (trace_ != nullptr) {
      obs::ScopedSession bind(trace_);
      obs::trace_instant("svc", "exit", total_events_, {"tenant", tenant_id});
      obs::trace_counter("svc", "active_tenants", total_events_,
                         registry_.participating_count());
    }
    seq = commit_seq_;
    maybe_rotate_locked();
  }
  return await_durable(seq);
}

void SpcdService::touch(std::uint32_t tenant_id, std::uint64_t now_ms) {
  std::lock_guard<std::mutex> lock(commit_mu_);
  Tenant* t = registry_.find(tenant_id);
  if (t != nullptr) t->last_seen_ms = now_ms;
}

bool SpcdService::heartbeat_seen(std::uint32_t tenant_id,
                                 std::uint64_t now_ms,
                                 std::uint64_t* durable_seq) {
  std::uint64_t seq = 0;
  {
    std::lock_guard<std::mutex> lock(commit_mu_);
    if (failed_) return false;
    Tenant* t = registry_.find(tenant_id);
    if (t == nullptr || !tenant_participates(t->state)) return false;
    t->last_seen_ms = now_ms;
    if (t->state == TenantState::kSuspect) {
      force_active_locked(tenant_id);
      seq = commit_seq_;
    }
  }
  if (!await_durable(seq)) return false;
  if (durable_seq != nullptr) *durable_seq = this->durable_seq();
  return true;
}

bool SpcdService::force_active_locked(std::uint32_t tenant_id) {
  if (!registry_.mark_active(tenant_id)) return false;
  journal_append_locked(encode_active(tenant_id));
  ++lifecycle_.reactivations;
  return true;
}

SpcdService::LivenessReport SpcdService::check_liveness(
    std::uint64_t now_ms) {
  LivenessReport report;
  if (config_.heartbeat_ms == 0) return report;
  std::uint64_t seq = 0;
  {
    std::lock_guard<std::mutex> lock(commit_mu_);
    if (failed_) return report;
    const std::uint64_t before = commit_seq_;
    sweep_liveness_locked(now_ms, &report);
    if (commit_seq_ > before) seq = commit_seq_;
  }
  // A failed fsync fail-stops the service; the sweep has no ack to hold.
  await_durable(seq);
  return report;
}

void SpcdService::sweep_liveness_locked(std::uint64_t now_ms,
                                        LivenessReport* report) {
  const std::uint64_t suspect_after = config_.heartbeat_ms;
  const std::uint64_t reap_after =
      config_.heartbeat_ms * std::max<std::uint64_t>(config_.reap_factor, 1);
  bool reaped_any = false;
  for (std::uint32_t id = 1; id <= registry_.registered(); ++id) {
    Tenant* t = registry_.find(id);
    if (!tenant_participates(t->state)) continue;
    // A tenant that never produced a frame has no liveness baseline yet
    // (direct-API users — benchmarks, unit tests — never touch()).
    if (t->last_seen_ms == 0 || now_ms <= t->last_seen_ms) continue;
    const std::uint64_t silent = now_ms - t->last_seen_ms;
    if (t->state != TenantState::kSuspect && silent > suspect_after) {
      registry_.mark_suspect(id);
      journal_append_locked(encode_suspect(id));
      ++lifecycle_.suspects;
      ++report->suspected;
      if (trace_ != nullptr) {
        obs::ScopedSession bind(trace_);
        obs::trace_instant("svc", "suspect", total_events_, {"tenant", id});
      }
    } else if (t->state == TenantState::kSuspect && silent > reap_after) {
      registry_.mark_reaped(id);
      journal_append_locked(encode_reap(id));
      ++lifecycle_.reaps;
      ++report->reaped;
      reaped_any = true;
      if (trace_ != nullptr) {
        obs::ScopedSession bind(trace_);
        obs::trace_instant("svc", "reap", total_events_, {"tenant", id});
      }
    }
  }
  // Reclaim the reaped tenants' contexts right away: the next decision
  // no longer places them, and the journaled `arb` record lets replay
  // recompute it at the same point.
  if (reaped_any) arbitrate_locked();
  maybe_rotate_locked();
}

template <typename Commit>
SessionReply SpcdService::commit_once(std::uint32_t tenant_id,
                                      std::uint64_t client_seq,
                                      std::uint64_t now_ms, bool admit,
                                      Commit commit) {
  SessionReply reply;
  std::uint64_t seq = 0;
  {
    std::lock_guard<std::mutex> lock(commit_mu_);
    Tenant* t = registry_.find(tenant_id);
    if (t != nullptr && client_seq != 0 && t->last_client_seq == client_seq) {
      // A re-send of a committed request, whose fsync may still be running
      // for the connection that sent it first: same reply, same wait.
      reply.duplicate = true;
      reply.frame = t->cached_reply;
      seq = t->cached_commit_seq;
    } else if (!admit) {
      reply.refused = true;
      return reply;
    } else if (failed_) {
      reply.error = kJournalFailed;
      return reply;
    } else {
      if (t != nullptr) t->last_seen_ms = now_ms;
      if (!commit(&reply, &seq)) return reply;
      if (t != nullptr && client_seq != 0) {
        t->last_client_seq = client_seq;
        t->cached_reply = reply.frame;
        t->cached_commit_seq = seq;
      }
    }
  }
  reply.ok = await_durable(seq);
  if (!reply.ok) reply.error = kJournalFailed;
  return reply;
}

SessionReply SpcdService::ingest_once(std::uint32_t tenant_id,
                                      std::uint64_t client_seq,
                                      const std::vector<FaultRecord>& events,
                                      std::uint64_t now_ms, bool admit) {
  const auto commit = [&](SessionReply* reply, std::uint64_t* seq) {
    IngestResult r;
    ingest_locked(tenant_id, events, &r);
    if (!r.ok) {
      reply->error = r.error;
      return false;
    }
    reply->frame = encode_batch_ack(client_seq, r.seq, r.comm_events);
    *seq = r.seq;
    return true;
  };
  return commit_once(tenant_id, client_seq, now_ms, admit, commit);
}

SessionReply SpcdService::re_register_once(std::uint32_t tenant_id,
                                           std::uint64_t client_seq,
                                           std::uint32_t num_threads,
                                           std::uint64_t now_ms, bool admit) {
  const auto commit = [&](SessionReply* reply, std::uint64_t* seq) {
    RegisterResult r;
    if (!re_register_locked(tenant_id, num_threads, &r)) {
      reply->error = r.error;
      return false;
    }
    reply->frame = encode_welcome(r.tenant_id, r.base_tid);
    *seq = commit_seq_;
    return true;
  };
  return commit_once(tenant_id, client_seq, now_ms, admit, commit);
}

ArbiterDecision SpcdService::arbitrate_locked() {
  const ArbiterDecision decision =
      arbiter_.decide(registry_.participating(), total_events_);
  ++counters_.arbitrations;
  counters_.contexts_stolen += decision.contexts_stolen;
  counters_.cross_tenant_core_shares += decision.cross_tenant_cores;
  counters_.tenant_socket_splits += decision.tenants_split;
  counters_.thread_migrations += decision.moved;
  journal_append_locked(
      encode_decision(decision.seq, decision.event_time, decision.digest));
  decisions_.push_back(decision);
  if (trace_ != nullptr) {
    obs::ScopedSession bind(trace_);
    obs::trace_instant("svc", "arbitrate", total_events_,
                       {"seq", decision.seq},
                       {"stolen", decision.contexts_stolen});
    obs::trace_counter("svc", "thread_migrations", total_events_,
                       counters_.thread_migrations);
  }
  return decision;
}

ArbiterDecision SpcdService::arbitrate_now() {
  ArbiterDecision decision;
  std::uint64_t seq = 0;
  {
    std::lock_guard<std::mutex> lock(commit_mu_);
    if (failed_) return decision;
    decision = arbitrate_locked();
    seq = commit_seq_;
  }
  // As in check_liveness: a failure fail-stops the service, and the
  // decision is not an ack.
  await_durable(seq);
  return decision;
}

void SpcdService::maybe_rotate_locked() {
  if (failed_ || !journal_.is_open()) return;
  const std::uint64_t max_records = config_.journal_max_records;
  const std::uint64_t max_bytes = config_.journal_max_bytes;
  if ((max_records == 0 || journal_.records_written() < max_records) &&
      (max_bytes == 0 || journal_.bytes_written() < max_bytes)) {
    return;
  }
  // The rotate record is a commit: the detection table resets at this
  // exact point in journal order, live and under replay alike.
  const std::uint32_t next = gen_ + 1;
  journal_append_locked(encode_rotate(next));
  evictions_base_ += table_.cross_tenant_evictions();
  table_.clear();
  // Sync the old generation before closing it: group fsyncs only ever
  // cover the live file. A leader mid-fsync holds its own dup of the old
  // descriptor, so closing it here cannot pull the file from under it.
  if (!journal_.sync()) failed_ = true;
  journal_.close();
  if (failed_) return;
  const std::string& base = config_.journal_path;
  const std::string rotated = generation_path(base, gen_);
  // The next generation is created at `base`, which truncates whatever is
  // there: if the rename failed, that is this generation and its acked
  // records. Fail-stop and leave the file alone instead. The directory
  // fsync makes the rename survive power loss.
  if (std::rename(base.c_str(), rotated.c_str()) != 0 ||
      !util::sync_parent_dir(base)) {
    SPCD_LOG_WARN("spcdd: cannot rotate %s to %s; refusing further commits",
                  base.c_str(), rotated.c_str());
    failed_ = true;
    return;
  }
  gen_ = next;
  journal_ = util::Journal::create(base, service_meta(config_, gen_));
  append_snapshot_locked();
  if (config_.journal_keep_generations > 0 &&
      gen_ > config_.journal_keep_generations) {
    std::remove(
        generation_path(base, gen_ - 1 - config_.journal_keep_generations)
            .c_str());
  }
  if (trace_ != nullptr) {
    obs::ScopedSession bind(trace_);
    obs::trace_instant("svc", "rotate", total_events_, {"generation", gen_});
  }
}

void SpcdService::append_snapshot_locked() {
  journal_raw_append_locked(encode_snap_svc(
      total_events_, commit_seq_, registry_.tid_space(),
      decisions_base_ + decisions_.size(), registry_.registered()));
  journal_raw_append_locked(encode_snap_counters(
      {counters_.arbitrations, counters_.contexts_stolen,
       counters_.cross_tenant_core_shares, counters_.tenant_socket_splits,
       counters_.thread_migrations, evictions_base_, lifecycle_.suspects,
       lifecycle_.reactivations, lifecycle_.reaps,
       lifecycle_.reregisters}));
  for (std::uint32_t id = 1; id <= registry_.registered(); ++id) {
    const Tenant* t = registry_.find(id);
    journal_raw_append_locked(encode_snap_tenant(*t));
    if (!tenant_participates(t->state)) continue;  // matrix is dead state
    std::vector<SessionRecord::Cell> cells;
    for (std::uint32_t a = 0; a < t->num_threads; ++a) {
      for (std::uint32_t b = a + 1; b < t->num_threads; ++b) {
        const std::uint64_t w = t->matrix.at(a, b);
        if (w == 0) continue;
        cells.push_back({a, b, w});
        if (cells.size() == kSnapMatrixChunk) {
          journal_raw_append_locked(encode_snap_matrix(id, cells));
          cells.clear();
        }
      }
    }
    if (!cells.empty()) {
      journal_raw_append_locked(encode_snap_matrix(id, cells));
    }
  }
  // prev_ is an unordered map: sort so snapshot bytes are deterministic.
  std::vector<SessionRecord::Cell> pairs;
  pairs.reserve(arbiter_.prev().size());
  for (const auto& [tid, ctx] : arbiter_.prev()) {
    pairs.push_back({tid, ctx, 0});
  }
  std::sort(pairs.begin(), pairs.end(),
            [](const SessionRecord::Cell& x, const SessionRecord::Cell& y) {
              return x.a < y.a;
            });
  for (std::size_t off = 0; off < pairs.size(); off += kSnapPrevChunk) {
    const std::size_t n = std::min(kSnapPrevChunk, pairs.size() - off);
    journal_raw_append_locked(encode_snap_prev(
        {pairs.begin() + static_cast<std::ptrdiff_t>(off),
         pairs.begin() + static_cast<std::ptrdiff_t>(off + n)}));
  }
  journal_raw_append_locked(encode_snap_end());
  if (!journal_.sync()) failed_ = true;
}

core::InterferenceCounters SpcdService::interference() const {
  std::lock_guard<std::mutex> lock(commit_mu_);
  core::InterferenceCounters c = counters_;
  c.cross_tenant_evictions =
      evictions_base_ + table_.cross_tenant_evictions();
  return c;
}

LifecycleCounters SpcdService::lifecycle() const {
  std::lock_guard<std::mutex> lock(commit_mu_);
  return lifecycle_;
}

std::string SpcdService::metrics_json() const {
  std::lock_guard<std::mutex> lock(commit_mu_);
  core::InterferenceCounters counters = counters_;
  counters.cross_tenant_evictions =
      evictions_base_ + table_.cross_tenant_evictions();

  obs::JsonWriter w;
  w.begin_object();
  w.key("schema").value("spcd-service-v2");
  w.key("topology").begin_object();
  w.key("sockets").value(topology_.num_sockets());
  w.key("cores").value(topology_.num_cores());
  w.key("contexts").value(topology_.num_contexts());
  w.end_object();
  w.key("total_events").value(total_events_);
  w.key("commits").value(commit_seq_);
  w.key("generation").value(gen_);
  w.key("tenants").begin_array();
  for (std::uint32_t id = 1; id <= registry_.registered(); ++id) {
    const Tenant* t = registry_.find(id);
    w.begin_object();
    w.key("id").value(t->id);
    w.key("name").value(t->name);
    w.key("threads").value(t->num_threads);
    w.key("base_tid").value(t->base_tid);
    w.key("state").value(tenant_state_name(t->state));
    w.key("events").value(t->events);
    w.key("batches").value(t->batches);
    w.key("comm_events").value(t->comm_events);
    w.key("reregisters").value(t->reregisters);
    w.end_object();
  }
  w.end_array();
  w.key("table").begin_object();
  w.key("shards").value(table_.shards());
  w.key("accesses").value(table_.accesses());
  w.key("collisions").value(table_.collisions());
  w.key("occupied").value(table_.occupied());
  w.key("window_rejects").value(table_.window_rejects());
  w.key("memory_bytes").value(table_.memory_bytes());
  w.end_object();
  w.key("interference").begin_object();
  for (const core::InterferenceDescriptor& d :
       core::interference_metric_descriptors()) {
    w.key(d.name).value(d.get(counters));
  }
  w.end_object();
  w.key("lifecycle").begin_object();
  w.key("suspects").value(lifecycle_.suspects);
  w.key("reactivations").value(lifecycle_.reactivations);
  w.key("reaps").value(lifecycle_.reaps);
  w.key("reregisters").value(lifecycle_.reregisters);
  w.key("rotations").value(gen_);
  w.end_object();
  w.key("decisions").value(
      static_cast<std::uint64_t>(decisions_base_ + decisions_.size()));
  w.end_object();
  return w.str();
}

std::string SpcdService::decisions_text() const {
  std::lock_guard<std::mutex> lock(commit_mu_);
  std::ostringstream os;
  char buf[128];
  for (const ArbiterDecision& d : decisions_) {
    std::snprintf(buf, sizeof(buf),
                  "arb seq=%" PRIu64 " time=%" PRIu64 " digest=%016" PRIx64
                  " stolen=%" PRIu64 " cores=%" PRIu64 " splits=%" PRIu64
                  " moved=%" PRIu64,
                  d.seq, d.event_time, d.digest, d.contexts_stolen,
                  d.cross_tenant_cores, d.tenants_split, d.moved);
    os << buf;
    for (const TenantPlacement& p : d.placements) {
      os << " | t" << p.tenant_id << ':';
      for (arch::ContextId ctx : p.contexts) os << ' ' << ctx;
    }
    os << '\n';
  }
  return os.str();
}

std::vector<ArbiterDecision> SpcdService::decisions() const {
  std::lock_guard<std::mutex> lock(commit_mu_);
  return decisions_;
}

std::optional<core::CommMatrix> SpcdService::tenant_matrix(
    std::uint32_t tenant_id) const {
  std::lock_guard<std::mutex> lock(commit_mu_);
  const Tenant* tenant = registry_.find(tenant_id);
  if (tenant == nullptr) return std::nullopt;
  return tenant->matrix;
}

std::uint64_t SpcdService::total_events() const {
  std::lock_guard<std::mutex> lock(commit_mu_);
  return total_events_;
}

std::uint64_t SpcdService::journal_records() const {
  std::lock_guard<std::mutex> lock(commit_mu_);
  return commit_seq_;
}

std::uint32_t SpcdService::registered_tenants() const {
  std::lock_guard<std::mutex> lock(commit_mu_);
  return registry_.registered();
}

std::uint32_t SpcdService::active_tenants() const {
  std::lock_guard<std::mutex> lock(commit_mu_);
  return registry_.participating_count();
}

std::uint32_t SpcdService::generation() const {
  std::lock_guard<std::mutex> lock(commit_mu_);
  return gen_;
}

std::uint64_t SpcdService::durable_seq() const {
  return durable_seq_.load(std::memory_order_acquire);
}

std::uint64_t SpcdService::journal_syncs() const {
  return syncs_.load(std::memory_order_relaxed);
}

bool SpcdService::journal_failed() const { return failed_; }

bool SpcdService::apply_record(const SessionRecord& rec, bool restoring,
                               ReplayResult* result) {
  using Kind = SessionRecord::Kind;
  switch (rec.kind) {
    case Kind::kRegister: {
      const RegisterResult r = register_tenant(rec.name, rec.num_threads);
      if (!r.ok || r.tenant_id != rec.tenant_id ||
          r.base_tid != rec.base_tid) {
        result->error = "register replay diverged";
        return false;
      }
      return true;
    }
    case Kind::kBatch: {
      const IngestResult r = ingest(rec.tenant_id, rec.events);
      if (!r.ok) {
        result->error = "batch replay refused (" + r.error + ")";
        return false;
      }
      return true;
    }
    case Kind::kReRegister: {
      const RegisterResult r = re_register(rec.tenant_id, rec.num_threads);
      if (!r.ok || r.base_tid != rec.base_tid) {
        result->error = "re-register replay diverged";
        return false;
      }
      return true;
    }
    case Kind::kSuspect: {
      std::lock_guard<std::mutex> lock(commit_mu_);
      if (!registry_.mark_suspect(rec.tenant_id)) {
        result->error = "suspect replay diverged";
        return false;
      }
      journal_append_locked(encode_suspect(rec.tenant_id));
      ++lifecycle_.suspects;
      return true;
    }
    case Kind::kActive: {
      std::lock_guard<std::mutex> lock(commit_mu_);
      const Tenant* t = registry_.find(rec.tenant_id);
      if (t == nullptr || t->state != TenantState::kSuspect ||
          !force_active_locked(rec.tenant_id)) {
        result->error = "active replay diverged";
        return false;
      }
      return true;
    }
    case Kind::kReap: {
      std::lock_guard<std::mutex> lock(commit_mu_);
      if (!registry_.mark_reaped(rec.tenant_id)) {
        result->error = "reap replay diverged";
        return false;
      }
      journal_append_locked(encode_reap(rec.tenant_id));
      ++lifecycle_.reaps;
      return true;
    }
    case Kind::kExit:
      if (!tenant_exit(rec.tenant_id)) {
        result->error = "exit replay diverged";
        return false;
      }
      return true;
    case Kind::kDecision: {
      // Compare the journaled decision against the recomputed stream:
      // same index, same seq/time, byte-identical digest. Interval
      // decisions were already recomputed inside ingest; explicitly
      // triggered ones (drain, reap reclamation) are recomputed here, at
      // the journal position where the live run committed them.
      const std::uint64_t idx = result->decisions_checked;
      std::vector<ArbiterDecision> recomputed = decisions();
      if (idx == recomputed.size()) {
        arbitrate_now();
        recomputed = decisions();
      }
      if (idx >= recomputed.size()) {
        result->error = "journaled decision has no recomputed twin";
        return false;
      }
      const ArbiterDecision& d = recomputed[idx];
      if (d.seq != rec.decision_seq || d.event_time != rec.event_time ||
          d.digest != rec.digest) {
        ++result->digest_mismatches;
      }
      ++result->decisions_checked;
      return true;
    }
    case Kind::kRotate: {
      std::lock_guard<std::mutex> lock(commit_mu_);
      journal_append_locked(encode_rotate(rec.next_gen));
      evictions_base_ += table_.cross_tenant_evictions();
      table_.clear();
      gen_ = rec.next_gen;
      return true;
    }
    case Kind::kSnapSvc: {
      std::lock_guard<std::mutex> lock(commit_mu_);
      if (restoring) {
        total_events_ = rec.values[0];
        commit_seq_ = rec.values[1];
        durable_seq_.store(commit_seq_, std::memory_order_release);
        registry_.restore_tid_space(
            static_cast<std::uint32_t>(rec.values[2]));
        decisions_base_ = rec.values[3];
        arbiter_.restore(rec.values[3]);
        return true;
      }
      // Later generations' head snapshots cross-check the replayed state
      // at the rotation boundary they describe.
      if (total_events_ != rec.values[0] || commit_seq_ != rec.values[1] ||
          registry_.tid_space() != rec.values[2] ||
          decisions_base_ + decisions_.size() != rec.values[3] ||
          registry_.registered() != rec.values[4]) {
        result->error = "snapshot cross-check failed";
        return false;
      }
      return true;
    }
    case Kind::kSnapCounters: {
      if (!restoring) return true;
      if (rec.values.size() != 10) {
        result->error = "snapshot counters have unexpected arity";
        return false;
      }
      std::lock_guard<std::mutex> lock(commit_mu_);
      counters_.arbitrations = rec.values[0];
      counters_.contexts_stolen = rec.values[1];
      counters_.cross_tenant_core_shares = rec.values[2];
      counters_.tenant_socket_splits = rec.values[3];
      counters_.thread_migrations = rec.values[4];
      evictions_base_ = rec.values[5];
      lifecycle_.suspects = rec.values[6];
      lifecycle_.reactivations = rec.values[7];
      lifecycle_.reaps = rec.values[8];
      lifecycle_.reregisters = rec.values[9];
      return true;
    }
    case Kind::kSnapTenant: {
      if (!restoring) return true;
      std::lock_guard<std::mutex> lock(commit_mu_);
      Tenant* t = registry_.restore(
          rec.tenant_id, rec.name, rec.num_threads, rec.base_tid, rec.state,
          rec.values[0], rec.values[1], rec.values[2],
          static_cast<std::uint32_t>(rec.values[3]));
      if (t == nullptr) {
        result->error = "snapshot tenant out of order";
        return false;
      }
      return true;
    }
    case Kind::kSnapMatrix: {
      if (!restoring) return true;
      std::lock_guard<std::mutex> lock(commit_mu_);
      Tenant* t = registry_.find(rec.tenant_id);
      if (t == nullptr) {
        result->error = "snapshot matrix for unknown tenant";
        return false;
      }
      for (const SessionRecord::Cell& c : rec.cells) {
        if (c.a >= c.b || c.b >= t->num_threads || c.w == 0) {
          result->error = "snapshot matrix cell out of range";
          return false;
        }
        t->matrix.add(static_cast<std::uint32_t>(c.a),
                      static_cast<std::uint32_t>(c.b), c.w);
      }
      return true;
    }
    case Kind::kSnapPrev: {
      if (!restoring) return true;
      std::lock_guard<std::mutex> lock(commit_mu_);
      for (const SessionRecord::Cell& c : rec.cells) {
        arbiter_.restore_prev(static_cast<std::uint32_t>(c.a),
                              static_cast<arch::ContextId>(c.b));
      }
      return true;
    }
    case Kind::kSnapEnd:
      return true;
  }
  result->error = "unhandled session record kind";
  return false;
}

SpcdService::ReplayResult SpcdService::replay(
    const std::string& journal_path) {
  ReplayResult result;
  util::Journal::LoadResult live = util::Journal::load(journal_path);
  if (!live.valid) {
    result.error = "journal missing or headerless: " + journal_path;
    return result;
  }
  ServiceConfig config;
  std::uint32_t live_gen = 0;
  if (!parse_service_meta(live.meta, &config, &live_gen)) {
    result.error = "unrecognized journal meta: " + live.meta;
    return result;
  }
  const std::string canonical = service_meta(config, 0);

  struct GenFile {
    util::Journal::LoadResult data;
    std::uint32_t gen = 0;
  };
  std::vector<GenFile> chain;
  if (live_gen > 0) {
    std::vector<util::Journal::LoadResult> gens(live_gen);
    std::uint32_t first = live_gen;
    for (std::uint32_t g = 0; g < live_gen; ++g) {
      gens[g] = util::Journal::load(generation_path(journal_path, g));
      if (gens[g].valid && g < first) first = g;
    }
    for (std::uint32_t g = first; g < live_gen; ++g) {
      if (!gens[g].valid) {
        result.error =
            "generation gap: missing " + generation_path(journal_path, g);
        return result;
      }
      if (gens[g].torn_tail) {
        // Rotated files were closed cleanly; a torn one is corruption,
        // not a crash artifact (only the live tail may be torn).
        result.error =
            "torn rotated generation: " + generation_path(journal_path, g);
        return result;
      }
      ServiceConfig gen_config;
      std::uint32_t gen_num = 0;
      if (!parse_service_meta(gens[g].meta, &gen_config, &gen_num) ||
          gen_num != g || service_meta(gen_config, 0) != canonical) {
        result.error =
            "generation meta mismatch: " + generation_path(journal_path, g);
        return result;
      }
      chain.push_back({std::move(gens[g]), g});
    }
  }
  chain.push_back({std::move(live), live_gen});
  result.torn_tail = chain.back().data.torn_tail;
  result.generations_replayed = static_cast<std::uint32_t>(chain.size());

  config.journal_path.clear();  // replay never writes
  auto service = std::make_unique<SpcdService>(config);
  result.restored_from_snapshot = chain.front().gen > 0;
  if (result.restored_from_snapshot) service->gen_ = chain.front().gen;

  bool first_file = true;
  for (const GenFile& file : chain) {
    bool restoring = first_file && file.gen > 0;
    for (const std::string& line : file.data.records) {
      const std::optional<SessionRecord> rec = parse_session_record(line);
      if (!rec.has_value()) {
        result.error = "malformed session record: " + line;
        return result;
      }
      if (!service->apply_record(*rec, restoring, &result)) {
        result.error += ": " + line;
        return result;
      }
      if (rec->kind == SessionRecord::Kind::kSnapEnd) restoring = false;
      ++result.records_applied;
    }
    first_file = false;
  }
  result.ok = result.digest_mismatches == 0;
  result.service = std::move(service);
  return result;
}

}  // namespace spcd::svc
