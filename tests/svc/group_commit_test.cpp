// Group commit: many sessions ingesting at once share fsyncs, every
// returned commit seq is already durable, journal order stays commit
// order (a concurrent session replays byte for byte, with and without
// rotation), and a failed journal write is fail-stop — nothing that was
// not written is acked, and nothing is acked after it. In the TSan CI
// job's target list.
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/stat.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "svc/driver.hpp"
#include "svc/service.hpp"

namespace spcd::svc {
namespace {

constexpr std::uint32_t kTenants = 4;
constexpr std::uint32_t kThreadsPerTenant = 4;
constexpr std::uint32_t kBatchesPerTenant = 48;

std::string tmp_journal(const char* name) { return testing::TempDir() + name; }

void remove_chain(const std::string& path) {
  std::remove(path.c_str());
  for (std::uint32_t g = 0; g < 64; ++g) {
    std::remove((path + ".g" + std::to_string(g)).c_str());
  }
}

DriverConfig driver_config() {
  DriverConfig driver;
  driver.tenants = kTenants;
  driver.threads_per_tenant = kThreadsPerTenant;
  driver.events_per_batch = 64;
  return driver;
}

struct LiveSession {
  std::string metrics;
  std::string decisions;
  std::uint32_t generation = 0;
};

/// Registers kTenants tenants, then ingests kBatchesPerTenant scripted
/// batches per tenant from one thread each, all at once.
LiveSession run_concurrent(const ServiceConfig& config) {
  LiveSession live;
  SpcdService service(config);
  std::vector<std::uint32_t> ids;
  for (std::uint32_t t = 0; t < kTenants; ++t) {
    const RegisterResult r =
        service.register_tenant("group-" + std::to_string(t),
                                kThreadsPerTenant);
    EXPECT_TRUE(r.ok) << r.error;
    ids.push_back(r.tenant_id);
  }
  const std::uint64_t syncs_before = service.journal_syncs();

  const DriverConfig driver = driver_config();
  std::vector<std::vector<IngestResult>> results(kTenants);
  std::vector<std::vector<std::uint64_t>> durable_after(kTenants);
  std::vector<std::thread> threads;
  for (std::uint32_t t = 0; t < kTenants; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint32_t b = 0; b < kBatchesPerTenant; ++b) {
        results[t].push_back(
            service.ingest(ids[t], scripted_batch(driver, t, b)));
        durable_after[t].push_back(service.durable_seq());
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (std::uint32_t t = 0; t < kTenants; ++t) {
    for (std::uint32_t b = 0; b < kBatchesPerTenant; ++b) {
      const IngestResult& r = results[t][b];
      EXPECT_TRUE(r.ok) << r.error;
      EXPECT_LE(r.seq, durable_after[t][b]) << "tenant " << t << " batch "
                                            << b << " acked before durable";
    }
  }
  // Commits that arrived during an fsync shared the next one.
  EXPECT_LT(service.journal_syncs() - syncs_before,
            std::uint64_t{kTenants} * kBatchesPerTenant);
  EXPECT_FALSE(service.journal_failed());
  EXPECT_FALSE(service.decisions().empty());
  live.metrics = service.metrics_json();
  live.decisions = service.decisions_text();
  live.generation = service.generation();
  return live;
}

void expect_replays(const std::string& path, const LiveSession& live) {
  const SpcdService::ReplayResult replayed = SpcdService::replay(path);
  ASSERT_TRUE(replayed.ok) << replayed.error;
  ASSERT_NE(replayed.service, nullptr);
  EXPECT_EQ(replayed.generations_replayed, live.generation + 1);
  EXPECT_FALSE(replayed.torn_tail);
  EXPECT_EQ(replayed.digest_mismatches, 0u);
  EXPECT_EQ(replayed.service->metrics_json(), live.metrics);
  EXPECT_EQ(replayed.service->decisions_text(), live.decisions);
}

ServiceConfig journaled_config(const std::string& path) {
  ServiceConfig config;
  config.arbitration_interval = 1024;
  config.journal_path = path;
  return config;
}

TEST(SvcGroupCommitTest, ConcurrentIngestIsDurableGroupedAndReplays) {
  const std::string path = tmp_journal("svc_group_commit.journal");
  remove_chain(path);
  const LiveSession live = run_concurrent(journaled_config(path));
  EXPECT_EQ(live.generation, 0u);
  expect_replays(path, live);
  remove_chain(path);
}

TEST(SvcGroupCommitTest, RotationUnderConcurrentIngestReplays) {
  const std::string path = tmp_journal("svc_group_commit_rot.journal");
  remove_chain(path);
  ServiceConfig config = journaled_config(path);
  config.journal_max_records = 40;
  const LiveSession live = run_concurrent(config);
  EXPECT_GT(live.generation, 1u);
  expect_replays(path, live);
  remove_chain(path);
}

TEST(SvcGroupCommitTest, UnwritableJournalRefusesEveryCommit) {
  struct stat st {};
  if (::stat("/dev/full", &st) != 0 || !S_ISCHR(st.st_mode)) {
    GTEST_SKIP() << "no /dev/full";
  }
  ServiceConfig config;
  config.journal_path = "/dev/full";  // every write fails with ENOSPC
  SpcdService service(config);
  EXPECT_TRUE(service.journal_failed());
  const RegisterResult r = service.register_tenant("doomed", 2);
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.error.empty());
  for (std::uint32_t id = 0; id < 3; ++id) {
    EXPECT_FALSE(service.ingest(id, {{0x1000, 0, 1}}).ok);
  }
  std::uint64_t seq = 0;
  EXPECT_FALSE(service.heartbeat_seen(1, 1, &seq));
  EXPECT_FALSE(service.tenant_exit(1));
  EXPECT_EQ(service.total_events(), 0u);
}

TEST(SvcGroupCommitTest, WriteFailureMidSessionIsFailStop) {
  const std::string path = tmp_journal("svc_group_commit_full.journal");
  remove_chain(path);
  const DriverConfig driver = driver_config();
  std::uint64_t acked_events = 0;
  {
    SpcdService service(journaled_config(path));
    const RegisterResult reg = service.register_tenant("filler", 4);
    ASSERT_TRUE(reg.ok) << reg.error;
    std::uint32_t b = 0;
    for (; b < 4; ++b) {
      const std::vector<FaultRecord> batch = scripted_batch(driver, 0, b);
      ASSERT_TRUE(service.ingest(reg.tenant_id, batch).ok);
      acked_events += batch.size();
    }
    // Cap the file size just past the current journal: the next batch
    // record cannot be written. SIGXFSZ would kill the process instead of
    // failing the write.
    struct stat st {};
    ASSERT_EQ(::stat(path.c_str(), &st), 0);
    rlimit saved{};
    ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &saved), 0);
    const auto old_handler = std::signal(SIGXFSZ, SIG_IGN);
    rlimit capped = saved;
    capped.rlim_cur = static_cast<rlim_t>(st.st_size) + 64;
    ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &capped), 0);
    const IngestResult failed =
        service.ingest(reg.tenant_id, scripted_batch(driver, 0, b++));
    ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &saved), 0);
    std::signal(SIGXFSZ, old_handler);

    EXPECT_FALSE(failed.ok);
    EXPECT_TRUE(service.journal_failed());
    // Fail-stop: the journal can write again, but the service refuses.
    for (; b < 8; ++b) {
      EXPECT_FALSE(
          service.ingest(reg.tenant_id, scripted_batch(driver, 0, b)).ok);
    }
    EXPECT_FALSE(service.register_tenant("late", 2).ok);
  }
  // What was acked is exactly what the journal holds.
  const SpcdService::ReplayResult replayed = SpcdService::replay(path);
  ASSERT_TRUE(replayed.ok) << replayed.error;
  ASSERT_NE(replayed.service, nullptr);
  EXPECT_EQ(replayed.service->total_events(), acked_events);
  remove_chain(path);
}

}  // namespace
}  // namespace spcd::svc
