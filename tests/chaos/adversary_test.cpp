// The adversary layer's contracts: config parsing/validation, the
// per-kind phantom shapes, and the determinism guarantee (the fabrication
// schedule is a pure function of seed + fault stream).
#include "chaos/adversary.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace spcd::chaos {
namespace {

constexpr unsigned kShift = 12;

std::vector<PhantomFault> fabricate_stream(AdversaryEngine& engine,
                                           std::uint32_t faults,
                                           util::Cycles step = 1000) {
  std::vector<PhantomFault> all;
  PhantomFault out[4];
  for (std::uint32_t i = 0; i < faults; ++i) {
    const std::uint32_t n = engine.fabricate(
        /*vaddr=*/0x1000ULL * (i + 1), /*tid=*/i % 4, /*now=*/step * i, out,
        4);
    for (std::uint32_t p = 0; p < n; ++p) all.push_back(out[p]);
  }
  return all;
}

TEST(AdversaryConfigTest, ParseAndToStringRoundTrip) {
  for (const AdversaryKind kind :
       {AdversaryKind::kNone, AdversaryKind::kCovert, AdversaryKind::kSkew,
        AdversaryKind::kPhaseFlip}) {
    AdversaryKind parsed = AdversaryKind::kNone;
    EXPECT_TRUE(parse_adversary_kind(to_string(kind), &parsed));
    EXPECT_EQ(parsed, kind);
  }
  AdversaryKind parsed = AdversaryKind::kNone;
  EXPECT_FALSE(parse_adversary_kind("sidechannel", &parsed));
}

TEST(AdversaryConfigTest, EnabledNeedsKindAndIntensity) {
  AdversaryConfig c;
  EXPECT_FALSE(c.enabled());
  c.kind = AdversaryKind::kCovert;
  EXPECT_FALSE(c.enabled());  // intensity still 0
  c.intensity = 1.0;
  EXPECT_TRUE(c.enabled());
}

TEST(AdversaryConfigTest, ValidateRejectsBadValues) {
  AdversaryConfig c;
  c.kind = AdversaryKind::kCovert;
  c.intensity = -0.1;
  EXPECT_FALSE(c.validate().empty());
  c.intensity = 5.0;
  EXPECT_FALSE(c.validate().empty());
  c.intensity = 1.0;
  EXPECT_TRUE(c.validate().empty());
  c.kind = AdversaryKind::kPhaseFlip;
  c.flip_period = 0;
  EXPECT_FALSE(c.validate().empty());
}

TEST(AdversaryEngineTest, SameSeedSameStream) {
  AdversaryConfig c;
  c.kind = AdversaryKind::kCovert;
  c.intensity = 0.7;  // fractional: exercises the Bernoulli draw too
  AdversaryEngine a(c, 42, 8, kShift);
  AdversaryEngine b(c, 42, 8, kShift);
  const auto sa = fabricate_stream(a, 500);
  const auto sb = fabricate_stream(b, 500);
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].vaddr, sb[i].vaddr) << i;
    EXPECT_EQ(sa[i].tid, sb[i].tid) << i;
  }
  EXPECT_GT(sa.size(), 0u);
  EXPECT_LT(sa.size(), 2u * 500u);  // fractional intensity skips some faults
}

TEST(AdversaryEngineTest, DisabledFabricatesNothing) {
  AdversaryConfig c;  // kind none
  AdversaryEngine e(c, 42, 8, kShift);
  EXPECT_TRUE(fabricate_stream(e, 100).empty());
  EXPECT_EQ(e.counters().phantom_faults, 0u);
}

TEST(AdversaryEngineTest, CovertEmitsDisjointColludingPairs) {
  AdversaryConfig c;
  c.kind = AdversaryKind::kCovert;
  c.intensity = 1.0;
  AdversaryEngine e(c, 7, 16, kShift);
  const auto stream = fabricate_stream(e, 200);
  ASSERT_FALSE(stream.empty());
  ASSERT_EQ(stream.size() % 2, 0u);  // phantoms always come in pairs
  std::vector<std::uint8_t> seen(16, 0);
  for (std::size_t i = 0; i < stream.size(); i += 2) {
    // Both halves of a pair fault on the same dedicated phantom region,
    // far above any application address.
    EXPECT_EQ(stream[i].vaddr, stream[i + 1].vaddr);
    EXPECT_GE(stream[i].vaddr, 0x0ADF'0000ULL << kShift);
    EXPECT_NE(stream[i].tid, stream[i + 1].tid);
    seen[stream[i].tid] = seen[stream[i + 1].tid] = 1;
  }
  // 16 threads -> 4 colluding pairs: exactly 8 distinct tids participate.
  std::uint32_t participants = 0;
  for (const auto s : seen) participants += s;
  EXPECT_EQ(participants, 8u);
  EXPECT_EQ(e.counters().phantom_faults, stream.size());
}

TEST(AdversaryEngineTest, SkewPiggybacksAndFloodsFreshRegions) {
  AdversaryConfig c;
  c.kind = AdversaryKind::kSkew;
  c.intensity = 1.0;
  AdversaryEngine e(c, 7, 8, kShift);
  PhantomFault out[4];
  std::uint64_t last_flood = 0;
  for (std::uint32_t i = 0; i < 50; ++i) {
    const std::uint64_t real_vaddr = 0xABC000 + 0x1000ULL * i;
    const std::uint32_t n = e.fabricate(real_vaddr, 0, 1000 * i, out, 4);
    ASSERT_EQ(n, 2u);
    // First phantom piggybacks on the honest region; both come from the
    // one attacker thread chosen at construction.
    EXPECT_EQ(out[0].vaddr, real_vaddr);
    EXPECT_EQ(out[0].tid, out[1].tid);
    // Second phantom is a never-reused flood region.
    EXPECT_GE(out[1].vaddr, 0x0CDF'0000ULL << kShift);
    EXPECT_GT(out[1].vaddr, last_flood);
    last_flood = out[1].vaddr;
  }
  EXPECT_EQ(e.counters().flood_regions, 50u);
}

TEST(AdversaryEngineTest, PhaseFlipOscillatesPartnerAcrossPhases) {
  AdversaryConfig c;
  c.kind = AdversaryKind::kPhaseFlip;
  c.intensity = 1.0;
  c.flip_period = 10'000;
  AdversaryEngine e(c, 7, 8, kShift);
  PhantomFault out[4];
  // Even phase (now < flip_period): thread t pairs with t+1.
  ASSERT_EQ(e.fabricate(0x1000, 0, 0, out, 4), 3u);
  const std::uint32_t t0 = out[0].tid;
  EXPECT_EQ(out[1].tid, (t0 + 1) % 8);
  const std::uint64_t even_region = out[0].vaddr;
  // Jump to the next phase: same rotation slot comes around after 8 calls.
  for (int i = 0; i < 7; ++i) (void)e.fabricate(0x1000, 0, 0, out, 4);
  ASSERT_EQ(e.fabricate(0x1000, 0, /*now=*/15'000, out, 4), 3u);
  EXPECT_EQ(out[0].tid, t0);
  EXPECT_EQ(out[1].tid, (t0 + 2) % 8);   // odd phase: partner flips to t+2
  EXPECT_NE(out[0].vaddr, even_region);  // each phase has its own region
  EXPECT_EQ(e.counters().phase_flips, 1u);
}

TEST(AdversaryEngineTest, PhaseFlipNeedsThreeThreads) {
  AdversaryConfig c;
  c.kind = AdversaryKind::kPhaseFlip;
  c.intensity = 1.0;
  AdversaryEngine e(c, 7, 2, kShift);
  PhantomFault out[4];
  EXPECT_EQ(e.fabricate(0x1000, 0, 0, out, 4), 0u);
}

TEST(AdversaryEngineTest, IntegerIntensityFabricatesEveryFault) {
  AdversaryConfig c;
  c.kind = AdversaryKind::kSkew;
  c.intensity = 2.0;  // two opportunities per fault, 2 phantoms each...
  AdversaryEngine e(c, 7, 8, kShift);
  PhantomFault out[4];
  // ...but the out buffer caps at 4, so exactly 4 phantoms per fault.
  EXPECT_EQ(e.fabricate(0x1000, 0, 0, out, 4), 4u);
  EXPECT_EQ(e.fabricate(0x2000, 1, 1000, out, 4), 4u);
}

}  // namespace
}  // namespace spcd::chaos
