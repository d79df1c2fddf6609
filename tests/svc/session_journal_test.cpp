// Session-journal codec: every record kind round-trips encode -> parse,
// the meta line binds the deterministic config shape, and malformed lines
// are rejected strictly (the replayer parses crash leftovers). The bulk
// encoders' exact bytes are pinned against literal records and, for the
// batch record, against a printf-based reference on random batches: a
// journal written by one build must replay under any other.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "svc/session_journal.hpp"

namespace spcd::svc {
namespace {

constexpr std::uint64_t kMax64 = std::numeric_limits<std::uint64_t>::max();

/// Reference model of the batch record: an ostringstream for the head and
/// one snprintf per event, the obviously-correct way to print the grammar
/// in session_journal.hpp.
std::string reference_batch(std::uint32_t tenant_id, std::uint64_t seq,
                            const std::vector<FaultRecord>& events) {
  std::ostringstream os;
  os << "batch " << tenant_id << ' ' << seq << ' ' << events.size();
  char buf[64];
  for (const FaultRecord& e : events) {
    std::snprintf(buf, sizeof(buf), " %" PRIx64 ",%x,%" PRIx64, e.vaddr,
                  e.tid, e.time);
    os << buf;
  }
  return os.str();
}

TEST(SvcSessionJournalTest, RegisterRoundTrip) {
  const auto rec =
      parse_session_record(encode_register(3, "tenant-x", 16, 42));
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->kind, SessionRecord::Kind::kRegister);
  EXPECT_EQ(rec->tenant_id, 3u);
  EXPECT_EQ(rec->name, "tenant-x");
  EXPECT_EQ(rec->num_threads, 16u);
  EXPECT_EQ(rec->base_tid, 42u);
}

TEST(SvcSessionJournalTest, BatchRoundTrip) {
  std::vector<FaultRecord> events;
  for (std::uint32_t i = 0; i < 50; ++i) {
    events.push_back({0xdeadbeef000ULL + i * 0x1000, i % 4, 1'000'000u + i});
  }
  const auto rec = parse_session_record(encode_batch(7, 99, events));
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->kind, SessionRecord::Kind::kBatch);
  EXPECT_EQ(rec->tenant_id, 7u);
  EXPECT_EQ(rec->batch_seq, 99u);
  EXPECT_EQ(rec->events, events);
}

TEST(SvcSessionJournalTest, BatchBytesArePinned) {
  const std::vector<FaultRecord> events = {
      {0, 0, 0},
      {kMax64, 0xffffffffu, kMax64},
      {0x7f00dead1000ULL, 3, 1'234'567},
  };
  EXPECT_EQ(encode_batch(0, 0, events),
            "batch 0 0 3 0,0,0 ffffffffffffffff,ffffffff,ffffffffffffffff "
            "7f00dead1000,3,12d687");
  EXPECT_EQ(encode_batch(0xffffffffu, kMax64, {{0x10, 1, 0xa}}),
            "batch 4294967295 18446744073709551615 1 10,1,a");
  EXPECT_EQ(encode_batch(1, 1, {}), "batch 1 1 0");
  const auto empty = parse_session_record("batch 1 1 0");
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->events.empty());
}

TEST(SvcSessionJournalTest, SnapshotBytesArePinned) {
  EXPECT_EQ(encode_snap_counters({0, 1, 42, kMax64}),
            "snap ctr 0 1 42 18446744073709551615");
  EXPECT_EQ(encode_snap_counters({}), "snap ctr");
  EXPECT_EQ(encode_snap_matrix(7, {{0, 1, 1}, {2, 0x1f, kMax64}}),
            "snap mat 7 2 0,1,1 2,1f,ffffffffffffffff");
  EXPECT_EQ(encode_snap_matrix(0xffffffffu, {}), "snap mat 4294967295 0");
  EXPECT_EQ(encode_snap_prev({{0, 5, 0}, {31, 0xff, 0}, {kMax64, 0, 0}}),
            "snap prev 3 0,5 1f,ff ffffffffffffffff,0");
  EXPECT_EQ(encode_snap_prev({}), "snap prev 0");
}

TEST(SvcSessionJournalTest, BatchMatchesThePrintfReferenceOnRandomBatches) {
  std::mt19937_64 rng(0x5eed);
  // A random width first, so every digit count (and zero) shows up.
  const auto value = [&rng](unsigned max_bits) {
    const unsigned bits = static_cast<unsigned>(rng() % (max_bits + 1));
    return bits == 0 ? 0 : rng() >> (64 - bits);
  };
  for (int round = 0; round < 500; ++round) {
    std::vector<FaultRecord> events(rng() % 300);
    for (FaultRecord& e : events) {
      e.vaddr = value(64);
      e.tid = static_cast<std::uint32_t>(value(32));
      e.time = value(64);
    }
    const auto tenant = static_cast<std::uint32_t>(value(32));
    const std::uint64_t seq = value(64);
    const std::string record = encode_batch(tenant, seq, events);
    ASSERT_EQ(record, reference_batch(tenant, seq, events)) << round;
  }
}

TEST(SvcSessionJournalTest, ExitAndDecisionRoundTrip) {
  const auto exit_rec = parse_session_record(encode_exit(5));
  ASSERT_TRUE(exit_rec.has_value());
  EXPECT_EQ(exit_rec->kind, SessionRecord::Kind::kExit);
  EXPECT_EQ(exit_rec->tenant_id, 5u);

  const auto arb = parse_session_record(
      encode_decision(12, 8192, 0xfedcba9876543210ULL));
  ASSERT_TRUE(arb.has_value());
  EXPECT_EQ(arb->kind, SessionRecord::Kind::kDecision);
  EXPECT_EQ(arb->decision_seq, 12u);
  EXPECT_EQ(arb->event_time, 8192u);
  EXPECT_EQ(arb->digest, 0xfedcba9876543210ULL);
}

TEST(SvcSessionJournalTest, RejectsMalformedLines) {
  for (const char* line :
       {"", "bogus 1 2 3", "reg", "reg x 2 0 name", "reg 1 2 0",
        "batch 1 2", "batch 1 2 2 1000,0,1", "batch 1 2 1 nothex,0,1",
        "exit", "exit notanumber", "arb 1 2", "arb 1 2 xyzq",
        "reg 1 2 0 name extra"}) {
    EXPECT_FALSE(parse_session_record(line).has_value()) << line;
  }
}

TEST(SvcSessionJournalTest, MetaRoundTripBindsConfigShape) {
  ServiceConfig config;
  config.topology = arch::TopologySpec{4, 6, 2};
  config.shards = 16;
  config.table.num_entries = 100'000;
  config.table.granularity_shift = 6;
  config.table.time_window = 5'000;
  config.arbitration_interval = 2048;
  config.journal_path = "/irrelevant/to/meta";

  ServiceConfig parsed;
  ASSERT_TRUE(parse_service_meta(service_meta(config), &parsed));
  EXPECT_EQ(parsed.topology.sockets, 4u);
  EXPECT_EQ(parsed.topology.cores_per_socket, 6u);
  EXPECT_EQ(parsed.topology.smt_per_core, 2u);
  EXPECT_EQ(parsed.shards, 16u);
  EXPECT_EQ(parsed.table.num_entries, 100'000u);
  EXPECT_EQ(parsed.table.granularity_shift, 6u);
  EXPECT_EQ(parsed.table.time_window, 5'000u);
  EXPECT_EQ(parsed.arbitration_interval, 2048u);
  EXPECT_TRUE(parsed.journal_path.empty());
}

TEST(SvcSessionJournalTest, MetaRejectsForeignVersions) {
  ServiceConfig parsed;
  EXPECT_FALSE(parse_service_meta("", &parsed));
  EXPECT_FALSE(parse_service_meta("spcd-journal v1 something", &parsed));
  EXPECT_FALSE(parse_service_meta(
      "spcd-service-v999 topo=2x8x2 shards=8 entries=256000 gran=12 "
      "window=0 interval=4096",
      &parsed));
}

}  // namespace
}  // namespace spcd::svc
