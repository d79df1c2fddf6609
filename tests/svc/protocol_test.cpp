// Wire-protocol contract: every message round-trips encode -> parse, and
// every malformed payload — truncated, oversized, trailing bytes, bogus
// type — yields nullopt, never UB (the daemon parses attacker-controlled
// bytes). The fault-batch frame's exact bytes are pinned, literally and
// against a byte-at-a-time reference encoder on random batches.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "svc/protocol.hpp"

namespace spcd::svc {
namespace {

/// Reference model of the kFaultBatch layout in protocol.hpp: every field
/// little-endian, one byte at a time.
std::string reference_fault_batch(std::uint64_t client_seq,
                                  const std::vector<FaultRecord>& events) {
  std::string out(1, static_cast<char>(MessageType::kFaultBatch));
  const auto put = [&out](std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  };
  put(client_seq, 8);
  put(events.size(), 4);
  for (const FaultRecord& e : events) {
    put(e.vaddr, 8);
    put(e.tid, 4);
    put(e.time, 8);
  }
  return out;
}

TEST(SvcProtocolTest, TenantNameValidation) {
  EXPECT_TRUE(valid_tenant_name("app-0"));
  EXPECT_TRUE(valid_tenant_name("A.b_c-9"));
  EXPECT_TRUE(valid_tenant_name(std::string(kMaxTenantName, 'x')));
  EXPECT_FALSE(valid_tenant_name(""));
  EXPECT_FALSE(valid_tenant_name(std::string(kMaxTenantName + 1, 'x')));
  EXPECT_FALSE(valid_tenant_name("has space"));
  EXPECT_FALSE(valid_tenant_name("new\nline"));
  EXPECT_FALSE(valid_tenant_name(std::string("nul\0byte", 8)));
}

TEST(SvcProtocolTest, HelloRoundTrip) {
  const auto msg = parse_message(encode_hello("tenant-7", 12));
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->type, MessageType::kHello);
  EXPECT_EQ(msg->name, "tenant-7");
  EXPECT_EQ(msg->num_threads, 12u);
}

TEST(SvcProtocolTest, WelcomeRoundTripCarriesVersion) {
  const auto msg = parse_message(encode_welcome(3, 40));
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->type, MessageType::kWelcome);
  EXPECT_EQ(msg->tenant_id, 3u);
  EXPECT_EQ(msg->base_tid, 40u);
  EXPECT_EQ(msg->version, kProtocolVersion);
}

TEST(SvcProtocolTest, FaultBatchRoundTrip) {
  std::vector<FaultRecord> events;
  for (std::uint32_t i = 0; i < 100; ++i) {
    events.push_back({0x1000u * i + 0xabcdef0123ULL, i % 8, 77u + i});
  }
  const auto msg = parse_message(encode_fault_batch(7, events));
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->type, MessageType::kFaultBatch);
  EXPECT_EQ(msg->client_seq, 7u);
  EXPECT_EQ(msg->events, events);
}

TEST(SvcProtocolTest, FaultBatchBytesArePinned) {
  using std::string_literals::operator""s;
  const std::vector<FaultRecord> events = {
      {0x1122334455667788ULL, 0xaabbccddu, 0x99},
      {0xffffffffffffffffULL, 0, 0},
  };
  const std::string expected =
      "\x03"                                // kFaultBatch
      "\x08\x07\x06\x05\x04\x03\x02\x01"    // client_seq
      "\x02\x00\x00\x00"                    // count
      "\x88\x77\x66\x55\x44\x33\x22\x11"    // vaddr
      "\xdd\xcc\xbb\xaa"                    // tid
      "\x99\x00\x00\x00\x00\x00\x00\x00"    // time
      "\xff\xff\xff\xff\xff\xff\xff\xff"    // vaddr
      "\x00\x00\x00\x00"                    // tid
      "\x00\x00\x00\x00\x00\x00\x00\x00"s;  // time
  EXPECT_EQ(encode_fault_batch(0x0102030405060708ULL, events), expected);
  EXPECT_EQ(encode_fault_batch(5, {}),
            "\x03\x05\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"s);
}

TEST(SvcProtocolTest, FaultBatchMatchesTheReferenceOnRandomBatches) {
  std::mt19937_64 rng(0xba7c4);
  for (int round = 0; round < 200; ++round) {
    std::vector<FaultRecord> events(rng() % 300);
    for (FaultRecord& e : events) {
      e.vaddr = rng();
      e.tid = static_cast<std::uint32_t>(rng());
      e.time = rng();
    }
    const std::uint64_t client_seq = rng();
    const std::string frame = encode_fault_batch(client_seq, events);
    ASSERT_EQ(frame, reference_fault_batch(client_seq, events)) << round;
    const auto msg = parse_message(frame);
    ASSERT_TRUE(msg.has_value());
    EXPECT_EQ(msg->client_seq, client_seq);
    EXPECT_EQ(msg->events, events);
  }
}

TEST(SvcProtocolTest, EmptyFaultBatchRoundTrip) {
  const auto msg = parse_message(encode_fault_batch(0, {}));
  ASSERT_TRUE(msg.has_value());
  EXPECT_TRUE(msg->events.empty());
}

TEST(SvcProtocolTest, BatchAckRoundTrip) {
  const auto msg =
      parse_message(encode_batch_ack(3, 0x1122334455667788ULL, 9));
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->type, MessageType::kBatchAck);
  EXPECT_EQ(msg->client_seq, 3u);
  EXPECT_EQ(msg->seq, 0x1122334455667788ULL);
  EXPECT_EQ(msg->comm_events, 9u);
}

TEST(SvcProtocolTest, LifecycleMessagesRoundTrip) {
  const auto rereg = parse_message(encode_reregister(21, 8));
  ASSERT_TRUE(rereg.has_value());
  EXPECT_EQ(rereg->type, MessageType::kReRegister);
  EXPECT_EQ(rereg->client_seq, 21u);
  EXPECT_EQ(rereg->num_threads, 8u);

  const auto hb = parse_message(encode_heartbeat(17));
  ASSERT_TRUE(hb.has_value());
  EXPECT_EQ(hb->type, MessageType::kHeartbeat);
  EXPECT_EQ(hb->seq, 17u);

  const auto ack = parse_message(encode_heartbeat_ack(0xdeadbeefULL));
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->type, MessageType::kHeartbeatAck);
  EXPECT_EQ(ack->seq, 0xdeadbeefULL);

  const auto resume = parse_message(encode_resume(5, "tenant-5"));
  ASSERT_TRUE(resume.has_value());
  EXPECT_EQ(resume->type, MessageType::kResume);
  EXPECT_EQ(resume->tenant_id, 5u);
  EXPECT_EQ(resume->name, "tenant-5");

  const auto retry = parse_message(encode_retry(9, 25));
  ASSERT_TRUE(retry.has_value());
  EXPECT_EQ(retry->type, MessageType::kRetry);
  EXPECT_EQ(retry->client_seq, 9u);
  EXPECT_EQ(retry->delay_ms, 25u);
}

TEST(SvcProtocolTest, ResumeRejectsInvalidName) {
  EXPECT_FALSE(parse_message(encode_resume(1, "bad name")).has_value());
}

TEST(SvcProtocolTest, SmallMessagesRoundTrip) {
  EXPECT_EQ(parse_message(encode_bye())->type, MessageType::kBye);
  EXPECT_EQ(parse_message(encode_stats())->type, MessageType::kStats);
  EXPECT_EQ(parse_message(encode_shutdown())->type, MessageType::kShutdown);
  const auto reply = parse_message(encode_stats_reply("{\"a\":1}"));
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, MessageType::kStatsReply);
  EXPECT_EQ(reply->text, "{\"a\":1}");
  const auto err = parse_message(encode_error("bad tenant"));
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->type, MessageType::kError);
  EXPECT_EQ(err->text, "bad tenant");
}

TEST(SvcProtocolTest, RejectsEmptyAndUnknownType) {
  EXPECT_FALSE(parse_message("").has_value());
  EXPECT_FALSE(parse_message(std::string(1, '\x00')).has_value());
  EXPECT_FALSE(parse_message(std::string(1, '\x7f')).has_value());
}

TEST(SvcProtocolTest, RejectsTruncation) {
  // Every proper prefix of a valid payload must fail to parse (except the
  // degenerate empty prefix, covered above).
  for (const std::string& payload :
       {encode_hello("t", 4), encode_welcome(1, 0),
        encode_fault_batch(1, {{0x1000, 0, 1}}), encode_batch_ack(1, 5, 1),
        encode_stats_reply("{}"), encode_error("x"),
        encode_reregister(2, 8), encode_heartbeat(3),
        encode_heartbeat_ack(4), encode_resume(5, "t"),
        encode_retry(6, 10)}) {
    for (std::size_t len = 1; len < payload.size(); ++len) {
      EXPECT_FALSE(parse_message(payload.substr(0, len)).has_value())
          << "prefix of length " << len << " parsed";
    }
  }
}

TEST(SvcProtocolTest, RejectsTrailingBytes) {
  for (std::string payload :
       {encode_hello("t", 4), encode_fault_batch(1, {{0x1000, 0, 1}}),
        encode_bye(), encode_batch_ack(1, 5, 1), encode_reregister(2, 8),
        encode_heartbeat(3), encode_heartbeat_ack(4),
        encode_resume(5, "t"), encode_retry(6, 10)}) {
    payload.push_back('\x00');
    EXPECT_FALSE(parse_message(payload).has_value());
  }
}

TEST(SvcProtocolTest, RejectsOversizedDeclaredCounts) {
  // A fault batch declaring more events than the payload carries (or than
  // the cap allows) must not be trusted. The v2 layout puts the u32 count
  // after the type byte and the u64 client_seq.
  std::string payload = encode_fault_batch(1, {{0x1000, 0, 1}});
  payload[9] = '\xff';  // count LSB: declares 255+ events, carries one
  EXPECT_FALSE(parse_message(payload).has_value());

  std::string hello = encode_hello("ab", 1);
  // name_len is the u16 after type + u32 num_threads.
  hello[5] = '\x40';
  hello[6] = '\x00';  // declares 64 name bytes, carries 2
  EXPECT_FALSE(parse_message(hello).has_value());
}

TEST(SvcProtocolTest, BatchEventCapIsEnforced) {
  const std::vector<FaultRecord> max_events(kMaxBatchEvents,
                                            FaultRecord{0x1000, 0, 1});
  const std::string ok = encode_fault_batch(1, max_events);
  EXPECT_LE(ok.size() + 4, kMaxFrameBytes);
  ASSERT_TRUE(parse_message(ok).has_value());
}

}  // namespace
}  // namespace spcd::svc
