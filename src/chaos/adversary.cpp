#include "chaos/adversary.hpp"

#include <algorithm>
#include <utility>

namespace spcd::chaos {

namespace {

constexpr std::uint64_t kAdversaryStream = 0xAD5A;

// Phantom region keys live far above any region an application touches
// (workload heaps sit in the low gigabytes; at the default 4 KiB
// granularity their region keys stay below ~2^20). One dedicated key per
// covert pair / flip phase, and an unbounded fresh stream for flooding.
constexpr std::uint64_t kCovertRegionBase = 0x0ADF'0000ULL;
constexpr std::uint64_t kFlipRegionBase = 0x0BDF'0000ULL;
constexpr std::uint64_t kFloodRegionBase = 0x0CDF'0000ULL;

}  // namespace

bool parse_adversary_kind(const std::string& name, AdversaryKind* out) {
  if (name == "none") {
    *out = AdversaryKind::kNone;
  } else if (name == "covert") {
    *out = AdversaryKind::kCovert;
  } else if (name == "skew") {
    *out = AdversaryKind::kSkew;
  } else if (name == "phase_flip") {
    *out = AdversaryKind::kPhaseFlip;
  } else {
    return false;
  }
  return true;
}

const char* to_string(AdversaryKind kind) {
  switch (kind) {
    case AdversaryKind::kNone:
      return "none";
    case AdversaryKind::kCovert:
      return "covert";
    case AdversaryKind::kSkew:
      return "skew";
    case AdversaryKind::kPhaseFlip:
      return "phase_flip";
  }
  return "none";
}

std::string AdversaryConfig::validate() const {
  if (intensity < 0.0 || intensity > 4.0) {
    return "adversary: intensity must be in [0, 4] (phantom faults per real "
           "fault)";
  }
  if (kind == AdversaryKind::kPhaseFlip && intensity > 0.0 &&
      flip_period == 0) {
    return "adversary: flip_period must be > 0 cycles for phase_flip";
  }
  return {};
}

AdversaryEngine::AdversaryEngine(const AdversaryConfig& config,
                                 std::uint64_t seed,
                                 std::uint32_t num_threads,
                                 unsigned granularity_shift)
    : config_(config),
      rng_(util::derive_seed(seed, kAdversaryStream)),
      num_threads_(std::max(1u, num_threads)),
      granularity_shift_(granularity_shift) {
  // Attack targets are fixed for the whole run: colluding pairs come from a
  // seeded shuffle (a quarter of the threads collude, at least one pair),
  // the table-flooding attacker is one seeded thread.
  if (config_.kind == AdversaryKind::kCovert && num_threads_ >= 2) {
    std::vector<std::uint32_t> perm(num_threads_);
    for (std::uint32_t i = 0; i < num_threads_; ++i) perm[i] = i;
    for (std::uint32_t i = num_threads_ - 1; i > 0; --i) {
      std::swap(perm[i], perm[rng_.below(i + 1)]);
    }
    const std::uint32_t num_pairs =
        std::max<std::uint32_t>(1, num_threads_ / 4);
    for (std::uint32_t k = 0; k < num_pairs && 2 * k + 1 < num_threads_;
         ++k) {
      pairs_.emplace_back(perm[2 * k], perm[2 * k + 1]);
    }
  }
  if (config_.kind == AdversaryKind::kSkew) {
    attacker_tid_ = static_cast<std::uint32_t>(rng_.below(num_threads_));
  }
}

std::uint32_t AdversaryEngine::draws_this_fault() {
  const double intensity = std::clamp(config_.intensity, 0.0, 4.0);
  auto count = static_cast<std::uint32_t>(intensity);
  const double frac = intensity - static_cast<double>(count);
  if (frac > 0.0 && rng_.chance(frac)) ++count;
  return count;
}

std::uint32_t AdversaryEngine::fabricate(std::uint64_t vaddr,
                                         std::uint32_t tid, util::Cycles now,
                                         PhantomFault* out,
                                         std::uint32_t max_out) {
  (void)tid;
  if (!config_.enabled()) return 0;
  std::uint32_t produced = 0;
  const std::uint32_t opportunities = draws_this_fault();
  for (std::uint32_t i = 0; i < opportunities; ++i) {
    std::uint32_t added = 0;
    switch (config_.kind) {
      case AdversaryKind::kCovert:
        added = covert(now, out + produced, max_out - produced);
        break;
      case AdversaryKind::kSkew:
        added = skew(vaddr, out + produced, max_out - produced);
        break;
      case AdversaryKind::kPhaseFlip:
        added = phase_flip(now, out + produced, max_out - produced);
        break;
      case AdversaryKind::kNone:
        break;
    }
    produced += added;
    counters_.phantom_faults += added;
    if (produced >= max_out) break;
  }
  return produced;
}

std::uint32_t AdversaryEngine::covert(util::Cycles /*now*/, PhantomFault* out,
                                      std::uint32_t max_out) {
  if (pairs_.empty() || max_out < 2) return 0;
  // Colluding pairs take turns faulting on their dedicated phantom region;
  // each visit adds fabricated communication between the pair.
  const std::uint64_t k = rotation_++ % pairs_.size();
  const auto& pair = pairs_[k];
  const std::uint64_t vaddr = (kCovertRegionBase + k) << granularity_shift_;
  out[0] = PhantomFault{vaddr, pair.first};
  out[1] = PhantomFault{vaddr, pair.second};
  return 2;
}

std::uint32_t AdversaryEngine::skew(std::uint64_t vaddr, PhantomFault* out,
                                    std::uint32_t max_out) {
  if (max_out < 2) return 0;
  // Piggyback on the honest region (pollutes its sharer list and fabricates
  // an attacker<->victim edge), then touch a never-reused flood region to
  // evict an established table entry via bucket collision.
  out[0] = PhantomFault{vaddr, attacker_tid_};
  out[1] = PhantomFault{(kFloodRegionBase + flood_counter_++)
                            << granularity_shift_,
                        attacker_tid_};
  ++counters_.flood_regions;
  return 2;
}

std::uint32_t AdversaryEngine::phase_flip(util::Cycles now, PhantomFault* out,
                                          std::uint32_t max_out) {
  if (num_threads_ < 3 || max_out < 3) return 0;
  const std::uint64_t phase = now / config_.flip_period;
  if (phase != last_phase_) {
    ++counters_.phase_flips;
    last_phase_ = phase;
  }
  // In even phases thread t is paired with t+1, in odd phases with t+2;
  // each phase uses its own phantom region so the fabricated edge weights
  // leapfrog and every thread's argmax partner keeps flipping.
  const std::uint32_t t =
      static_cast<std::uint32_t>(rotation_++ % num_threads_);
  const std::uint32_t offset = 1 + static_cast<std::uint32_t>(phase & 1);
  const std::uint32_t partner = (t + offset) % num_threads_;
  if (partner == t) return 0;
  const std::uint64_t region =
      (kFlipRegionBase + 2ULL * t + (phase & 1)) << granularity_shift_;
  out[0] = PhantomFault{region, t};
  out[1] = PhantomFault{region, partner};
  out[2] = PhantomFault{region, t};
  return 3;
}

}  // namespace spcd::chaos
