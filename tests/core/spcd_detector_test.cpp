#include "core/spcd_detector.hpp"

#include <gtest/gtest.h>

namespace spcd::core {
namespace {

mem::FaultEvent fault(std::uint64_t vaddr, std::uint32_t tid,
                      util::Cycles time,
                      mem::FaultKind kind = mem::FaultKind::kFirstTouch) {
  mem::FaultEvent e;
  e.vaddr = vaddr;
  e.vpn = vaddr >> 12;
  e.tid = tid;
  e.time = time;
  e.kind = kind;
  return e;
}

TEST(SpcdDetectorTest, ReproducesPaperFigure3Timeline) {
  // Figure 3: thread 0 faults on page X (first touch, recorded); later the
  // present bit is cleared; thread 1 faults on X -> cell (0,1) incremented.
  SpcdConfig config;
  SpcdDetector detector(config, 2);
  detector.on_fault(fault(0x1000, 0, 100));
  EXPECT_EQ(detector.matrix().at(0, 1), 0u);
  detector.on_fault(fault(0x1008, 1, 200, mem::FaultKind::kInjected));
  EXPECT_EQ(detector.matrix().at(0, 1), 1u);
  EXPECT_EQ(detector.communication_events(), 1u);
}

TEST(SpcdDetectorTest, CostIsTheConfiguredHookCost) {
  SpcdConfig config;
  config.fault_hook_cost = 123;
  SpcdDetector detector(config, 2);
  EXPECT_EQ(detector.on_fault(fault(0x1000, 0, 1)), 123u);
}

TEST(SpcdDetectorTest, SamePageRepeatedBySameThreadIsNotCommunication) {
  SpcdDetector detector(SpcdConfig{}, 2);
  detector.on_fault(fault(0x1000, 0, 1));
  detector.on_fault(fault(0x1000, 0, 2));
  detector.on_fault(fault(0x1000, 0, 3));
  EXPECT_EQ(detector.matrix().total(), 0u);
  EXPECT_EQ(detector.faults_seen(), 3u);
}

TEST(SpcdDetectorTest, ThreeSharersAllPairsCounted) {
  SpcdDetector detector(SpcdConfig{}, 3);
  detector.on_fault(fault(0x1000, 0, 1));
  detector.on_fault(fault(0x1000, 1, 2));  // (0,1)
  detector.on_fault(fault(0x1000, 2, 3));  // (2,0) and (2,1)
  EXPECT_EQ(detector.matrix().at(0, 1), 1u);
  EXPECT_EQ(detector.matrix().at(0, 2), 1u);
  EXPECT_EQ(detector.matrix().at(1, 2), 1u);
}

TEST(SpcdDetectorTest, GranularityFromConfigIsHonored) {
  SpcdConfig config;
  config.table.granularity_shift = 6;  // cache-line granularity
  SpcdDetector detector(config, 2);
  detector.on_fault(fault(0x1000, 0, 1));
  detector.on_fault(fault(0x1040, 1, 2));  // same page, different line
  EXPECT_EQ(detector.matrix().total(), 0u);
  detector.on_fault(fault(0x1010, 1, 3));  // same line as first fault
  EXPECT_EQ(detector.matrix().at(0, 1), 1u);
}

TEST(SpcdDetectorTest, TemporalWindowSuppresssesOldSharers) {
  SpcdConfig config;
  config.table.time_window = 50;
  SpcdDetector detector(config, 2);
  detector.on_fault(fault(0x1000, 0, 100));
  detector.on_fault(fault(0x1000, 1, 1000));  // too far apart
  EXPECT_EQ(detector.matrix().total(), 0u);
  detector.on_fault(fault(0x1000, 0, 1020));  // within window of thread 1
  EXPECT_EQ(detector.matrix().at(0, 1), 1u);
}

TEST(SpcdDetectorTest, OutOfRangeThreadIdIgnoredGracefully) {
  SpcdDetector detector(SpcdConfig{}, 2);
  detector.on_fault(fault(0x1000, 0, 1));
  detector.on_fault(fault(0x1000, 7, 2));  // tid beyond matrix
  EXPECT_EQ(detector.matrix().total(), 0u);
}

// A deterministic multi-thread fault stream with enough same-region overlap
// to produce communication and (for small tables) saturation pressure.
std::vector<mem::FaultEvent> synthetic_stream(std::size_t count) {
  std::vector<mem::FaultEvent> events;
  events.reserve(count);
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  for (std::size_t i = 0; i < count; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const std::uint32_t tid = static_cast<std::uint32_t>((state >> 33) % 8);
    const std::uint64_t page = (state >> 40) % 32;  // heavy sharing
    events.push_back(
        fault(0x10000 + page * 4096 + (state % 64) * 8, tid,
              static_cast<util::Cycles>(100 * (i + 1))));
  }
  return events;
}

// Expected state after a fault stream, read through the accessors.
struct DetectorState {
  std::vector<std::uint64_t> triangle;
  std::uint64_t faults_seen;
  std::uint64_t comm_events;
  std::uint32_t saturation_resets;
  std::uint64_t table_accesses;
  std::uint64_t table_collisions;

  static DetectorState of(const SpcdDetector& d) {
    const auto tri = d.matrix().triangle();
    return DetectorState{{tri.begin(), tri.end()},
                         d.faults_seen(),
                         d.communication_events(),
                         d.saturation_resets(),
                         d.table().accesses(),
                         d.table().collisions()};
  }
  bool operator==(const DetectorState&) const = default;
};

TEST(SpcdDetectorTest, BatchedDeliveryIsBitIdenticalToUnbatched) {
  // Delivery is inline and the accessors are pure reads: a detector whose
  // state is read after every fault ends exactly where one read only at
  // the end does.
  SpcdConfig config;
  config.saturation_check_faults = 64;  // exercise the saturation monitor
  config.table.num_entries = 64;        // tiny table: force collisions
  SpcdDetector read_once(config, 8);
  SpcdDetector read_each(config, 8);
  for (const auto& e : synthetic_stream(1000)) {
    read_once.on_fault(e);
    read_each.on_fault(e);
    (void)DetectorState::of(read_each);
  }
  EXPECT_EQ(DetectorState::of(read_once), DetectorState::of(read_each));
  EXPECT_GT(read_once.communication_events(), 0u);
}

TEST(SpcdDetectorTest, BatchedDeliveryBitIdenticalUnderChaos) {
  // Same comparison with fault drops, duplicates, and forced collisions:
  // each hook family draws from its own stream, so identical seeds must
  // yield identical state and cost however often the state is read.
  chaos::PerturbationConfig chaos_config;
  chaos_config.drop_fault = 0.1;
  chaos_config.duplicate_fault = 0.1;
  chaos_config.forced_collision = 0.2;
  chaos::PerturbationEngine chaos_a(chaos_config, 42);
  chaos::PerturbationEngine chaos_b(chaos_config, 42);
  SpcdConfig config;
  config.saturation_check_faults = 64;
  config.table.num_entries = 64;
  SpcdDetector read_once(config, 8, &chaos_a);
  SpcdDetector read_each(config, 8, &chaos_b);
  std::uint64_t cost_once = 0, cost_each = 0;
  for (const auto& e : synthetic_stream(1000)) {
    cost_once += read_once.on_fault(e);
    cost_each += read_each.on_fault(e);
    (void)DetectorState::of(read_each);
  }
  EXPECT_EQ(cost_once, cost_each);
  EXPECT_EQ(DetectorState::of(read_once), DetectorState::of(read_each));
  EXPECT_EQ(chaos_a.counters().faults_dropped,
            chaos_b.counters().faults_dropped);
  EXPECT_GT(chaos_a.counters().faults_dropped, 0u);
}

TEST(SpcdDetectorTest, RingOverflowDrainsWithoutLosingEvents) {
  // A long stream with no accessor reads in between loses nothing.
  SpcdDetector detector(SpcdConfig{}, 2);
  for (std::uint32_t i = 0; i < 500; ++i) {
    detector.on_fault(fault(0x1000, i % 2, 10 * (i + 1)));
  }
  EXPECT_EQ(detector.faults_seen(), 500u);
  EXPECT_GT(detector.matrix().at(0, 1), 0u);
}

}  // namespace
}  // namespace spcd::core
