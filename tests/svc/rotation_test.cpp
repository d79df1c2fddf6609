// Journal rotation: a size/record threshold closes the live journal into
// a generation file ("<path>.g<N>") and opens the next generation with a
// head snapshot, replay follows the whole chain (or seeds itself from
// the oldest retained snapshot when early generations were pruned), the
// torn-tail tolerance applies only to the live file, a rotated session
// still replays byte for byte, and a generation that cannot be renamed
// stops the service instead of being truncated.
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "svc/driver.hpp"
#include "svc/service.hpp"

namespace spcd::svc {
namespace {

std::string tmp_journal(const char* name) { return testing::TempDir() + name; }

bool file_exists(const std::string& path) {
  std::ifstream in(path);
  return in.good();
}

void remove_chain(const std::string& path) {
  std::remove(path.c_str());
  for (std::uint32_t g = 0; g < 64; ++g) {
    std::remove((path + ".g" + std::to_string(g)).c_str());
  }
}

ServiceConfig rotating_config(const std::string& path) {
  ServiceConfig config;
  config.arbitration_interval = 512;
  config.journal_path = path;
  config.journal_max_records = 24;
  return config;
}

/// Run a fixed scripted session (3 tenants, `batches` batches each, one
/// exit) against `service`; returns {metrics, decisions} when done.
std::pair<std::string, std::string> run_session(SpcdService& service,
                                                std::uint32_t batches) {
  DriverConfig driver;
  driver.tenants = 3;
  driver.threads_per_tenant = 4;
  std::vector<std::uint32_t> ids;
  for (std::uint32_t t = 0; t < 3; ++t) {
    const RegisterResult r =
        service.register_tenant("rot-" + std::to_string(t), 4);
    EXPECT_TRUE(r.ok) << r.error;
    ids.push_back(r.tenant_id);
  }
  for (std::uint32_t batch = 0; batch < batches; ++batch) {
    for (std::uint32_t t = 0; t < 3; ++t) {
      EXPECT_TRUE(service.ingest(ids[t], scripted_batch(driver, t, batch)).ok);
    }
  }
  EXPECT_TRUE(service.tenant_exit(ids[2]));
  return {service.metrics_json(), service.decisions_text()};
}

TEST(SvcRotationTest, RecordThresholdRotatesAndReplaySpansGenerations) {
  const std::string path = tmp_journal("svc_rotation_chain.journal");
  remove_chain(path);

  std::string live_metrics;
  std::string live_decisions;
  std::uint32_t live_gen = 0;
  {
    SpcdService service(rotating_config(path));
    std::tie(live_metrics, live_decisions) = run_session(service, 24);
    live_gen = service.generation();
  }
  // 3 registers + 72 batches + 1 exit + transitions cross the 24-record
  // threshold several times over.
  ASSERT_GE(live_gen, 2u);
  for (std::uint32_t g = 0; g < live_gen; ++g) {
    EXPECT_TRUE(file_exists(path + ".g" + std::to_string(g)))
        << "generation " << g << " missing";
  }

  const SpcdService::ReplayResult replayed = SpcdService::replay(path);
  ASSERT_TRUE(replayed.ok) << replayed.error;
  EXPECT_EQ(replayed.generations_replayed, live_gen + 1);
  EXPECT_FALSE(replayed.restored_from_snapshot);  // g0 still on disk
  EXPECT_EQ(replayed.digest_mismatches, 0u);
  EXPECT_EQ(replayed.service->generation(), live_gen);
  EXPECT_EQ(replayed.service->metrics_json(), live_metrics);
  EXPECT_EQ(replayed.service->decisions_text(), live_decisions);
  remove_chain(path);
}

TEST(SvcRotationTest, ByteThresholdRotatesToo) {
  const std::string path = tmp_journal("svc_rotation_bytes.journal");
  remove_chain(path);
  ServiceConfig config;
  config.arbitration_interval = 512;
  config.journal_path = path;
  config.journal_max_bytes = 64 * 1024;
  {
    SpcdService service(config);
    run_session(service, 16);
    EXPECT_GE(service.generation(), 1u);
  }
  const SpcdService::ReplayResult replayed = SpcdService::replay(path);
  ASSERT_TRUE(replayed.ok) << replayed.error;
  EXPECT_EQ(replayed.digest_mismatches, 0u);
  remove_chain(path);
}

TEST(SvcRotationTest, PrunedPrefixReplaysFromTheRetainedSnapshot) {
  const std::string path = tmp_journal("svc_rotation_pruned.journal");
  remove_chain(path);

  ServiceConfig config = rotating_config(path);
  config.journal_keep_generations = 1;
  std::string live_metrics;
  std::string live_decisions;
  std::uint32_t live_gen = 0;
  {
    SpcdService service(config);
    std::tie(live_metrics, live_decisions) = run_session(service, 24);
    live_gen = service.generation();
  }
  ASSERT_GE(live_gen, 2u);
  // Only the newest rotated generation is retained.
  EXPECT_FALSE(file_exists(path + ".g0"));
  EXPECT_TRUE(file_exists(path + ".g" + std::to_string(live_gen - 1)));

  const SpcdService::ReplayResult replayed = SpcdService::replay(path);
  ASSERT_TRUE(replayed.ok) << replayed.error;
  EXPECT_TRUE(replayed.restored_from_snapshot);
  EXPECT_EQ(replayed.generations_replayed, 2u);  // newest rotated + live
  EXPECT_EQ(replayed.digest_mismatches, 0u);
  EXPECT_EQ(replayed.service->metrics_json(), live_metrics);
  // After a snapshot restore decisions_text() holds the decisions since
  // the snapshot — a byte-exact suffix of the live stream (seq
  // numbering continues the original).
  const std::string tail = replayed.service->decisions_text();
  ASSERT_LE(tail.size(), live_decisions.size());
  EXPECT_EQ(live_decisions.substr(live_decisions.size() - tail.size()),
            tail);
  remove_chain(path);
}

TEST(SvcRotationTest, TornTailToleratedOnLiveFileOnly) {
  const std::string path = tmp_journal("svc_rotation_torn.journal");
  remove_chain(path);
  std::string live_metrics;
  {
    SpcdService service(rotating_config(path));
    live_metrics = run_session(service, 24).first;
    ASSERT_GE(service.generation(), 2u);
  }

  // Garbage after the last intact record of the LIVE file models a crash
  // mid-append: replay shrugs it off (torn_tail reported).
  {
    std::ofstream out(path, std::ios::app | std::ios::binary);
    out << "#rec 9999 deadbeefdeadbeef\nshort";
  }
  const SpcdService::ReplayResult tolerant = SpcdService::replay(path);
  ASSERT_TRUE(tolerant.ok) << tolerant.error;
  EXPECT_TRUE(tolerant.torn_tail);
  EXPECT_EQ(tolerant.service->metrics_json(), live_metrics);

  // The same garbage on a ROTATED generation is data loss, not a crash
  // artifact — rotated files were closed cleanly — so replay refuses.
  {
    std::ofstream out(path + ".g0", std::ios::app | std::ios::binary);
    out << "#rec 9999 deadbeefdeadbeef\nshort";
  }
  const SpcdService::ReplayResult refused = SpcdService::replay(path);
  EXPECT_FALSE(refused.ok);
  EXPECT_FALSE(refused.error.empty());
  remove_chain(path);
}

TEST(SvcRotationTest, FailedRenameFailStopsAndKeepsTheGeneration) {
  const std::string path = tmp_journal("svc_rotation_blocked.journal");
  remove_chain(path);
  // A non-empty directory where generation 0 goes: rename(2) cannot
  // replace it.
  const std::string blocker = path + ".g0";
  const std::string filler = blocker + "/keep";
  std::remove(filler.c_str());
  ::rmdir(blocker.c_str());
  ASSERT_EQ(::mkdir(blocker.c_str(), 0700), 0);
  std::ofstream(filler) << "x";

  ServiceConfig config;
  config.journal_path = path;
  config.journal_max_records = 8;
  const DriverConfig driver;
  std::uint64_t acked_events = 0;
  {
    SpcdService service(config);
    const RegisterResult reg = service.register_tenant("blocked", 4);
    ASSERT_TRUE(reg.ok) << reg.error;
    std::uint32_t b = 0;
    for (; b < 16 && !service.journal_failed(); ++b) {
      const std::vector<FaultRecord> batch = scripted_batch(driver, 0, b);
      if (service.ingest(reg.tenant_id, batch).ok) {
        acked_events += batch.size();
      }
    }
    EXPECT_TRUE(service.journal_failed());
    EXPECT_EQ(service.generation(), 0u);
    const std::vector<FaultRecord> late = scripted_batch(driver, 0, b);
    EXPECT_FALSE(service.ingest(reg.tenant_id, late).ok);
    EXPECT_FALSE(service.register_tenant("late", 2).ok);
  }
  ASSERT_GT(acked_events, 0u);

  // The live file was left alone: it still starts at the register record
  // and holds every acked batch, plus at most the batch whose commit
  // tripped the rotation (written, never acked).
  const SpcdService::ReplayResult replayed = SpcdService::replay(path);
  ASSERT_TRUE(replayed.ok) << replayed.error;
  EXPECT_FALSE(replayed.restored_from_snapshot);
  EXPECT_EQ(replayed.service->registered_tenants(), 1u);
  EXPECT_GE(replayed.service->total_events(), acked_events);
  EXPECT_LE(replayed.service->total_events(),
            acked_events + driver.events_per_batch);

  std::remove(filler.c_str());
  ::rmdir(blocker.c_str());
  remove_chain(path);
}

TEST(SvcRotationTest, MissingMiddleGenerationIsFatal) {
  const std::string path = tmp_journal("svc_rotation_gap.journal");
  remove_chain(path);
  {
    SpcdService service(rotating_config(path));
    run_session(service, 24);
    ASSERT_GE(service.generation(), 2u);
  }
  // Deleting a middle generation leaves a gap the chain cannot bridge
  // (unlike pruning, which always removes the OLDEST prefix).
  ASSERT_EQ(std::remove((path + ".g1").c_str()), 0);
  const SpcdService::ReplayResult replayed = SpcdService::replay(path);
  EXPECT_FALSE(replayed.ok);
  EXPECT_FALSE(replayed.error.empty());
  remove_chain(path);
}

}  // namespace
}  // namespace spcd::svc
