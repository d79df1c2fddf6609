// Adversarial fault-pattern manipulators (ROADMAP: "does SPCD mis-map under
// fault-pattern manipulation, and can the filter be hardened?"). Unlike the
// perturbation layer — which models an *indifferent* noisy OS — these model
// an *attacker* who understands the detection pipeline and shapes the fault
// stream to mislead it, in the spirit of "Exploiting Page Faults for Covert
// Communication" (PAPERS.md):
//
//   * covert     — a covert-channel-style faulter: pairs of colluding
//                  threads take turns faulting on dedicated phantom regions,
//                  fabricating sharing edges between threads that never
//                  exchange application data. The mapper co-locates the
//                  phantom pairs at the expense of real communicators.
//   * skew       — a table-flooding attacker: one thread piggybacks on
//                  every region honest threads touch (polluting sharer
//                  lists and fabricating attacker<->victim edges) while
//                  also touching a stream of fresh one-off regions that
//                  evict established entries from the fixed-size table.
//   * phase_flip — a partner oscillator: fabricated pairings alternate
//                  with a period tuned to sit just under the filter's
//                  persistence window, so each thread's argmax partner
//                  keeps flipping and the filter re-triggers indefinitely.
//
// Determinism contract: phantom faults are fabricated per *delivered* real
// fault, inside the detector's serial drain loop, from an RNG stream seeded
// by the cell seed. The fabrication schedule is therefore a pure function
// of the (already deterministic) fault stream — bit-identical for any
// SPCD_JOBS value. With kind == kNone no stream is created and no draw
// ever happens.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.hpp"
#include "util/units.hpp"

namespace spcd::chaos {

enum class AdversaryKind : std::uint8_t {
  kNone,
  kCovert,
  kSkew,
  kPhaseFlip,
};

/// Parse "none" / "covert" / "skew" / "phase_flip" (as accepted by
/// spcdsim --adversary and SPCD_ADV_KIND). Returns false on unknown names.
bool parse_adversary_kind(const std::string& name, AdversaryKind* out);
const char* to_string(AdversaryKind kind);

struct AdversaryConfig {
  AdversaryKind kind = AdversaryKind::kNone;
  /// Attack strength: the expected number of fabricated phantom faults per
  /// delivered real fault (values above 1 fabricate several). 0 disables.
  double intensity = 0.0;
  /// phase_flip: simulated-cycle period of the partner oscillation. The
  /// default flips well inside one mapping interval, so an unhardened
  /// filter sees a fresh partner set on almost every evaluation.
  util::Cycles flip_period = 1'500'000;

  bool enabled() const {
    return kind != AdversaryKind::kNone && intensity > 0.0;
  }

  /// Empty string if sane, else a one-line error.
  std::string validate() const;
};

/// Read an AdversaryConfig from the environment: SPCD_ADV_KIND (name),
/// SPCD_ADV_INTENSITY, SPCD_ADV_FLIP_PERIOD. Unset/empty kind means none.
AdversaryConfig adversary_from_env();

/// One fabricated phantom fault: the adversary thread `tid` pretends to
/// touch `vaddr`. Delivered through the detector exactly like a real fault.
struct PhantomFault {
  std::uint64_t vaddr = 0;
  std::uint32_t tid = 0;
};

/// The attack driver. Seeded once per run from the cell seed; colluding
/// pairs / the attacker thread are drawn at construction so the attack
/// targets are stable for the whole run (and across job counts).
class AdversaryEngine {
 public:
  struct Counters {
    std::uint64_t phantom_faults = 0;   ///< fabricated faults delivered
    std::uint64_t flood_regions = 0;    ///< one-off table-flood regions
    std::uint64_t phase_flips = 0;      ///< pairing-phase transitions seen
  };

  AdversaryEngine(const AdversaryConfig& config, std::uint64_t seed,
                  std::uint32_t num_threads, unsigned granularity_shift);

  const AdversaryConfig& config() const { return config_; }
  const Counters& counters() const { return counters_; }

  /// Fabricate the phantom faults riding on one delivered real fault
  /// (`vaddr`/`tid`/`now` describe the real fault). Appends at most
  /// `max_out` phantoms to `out` and returns the count appended. Must be
  /// called in fault-delivery order — the RNG stream advances per call.
  std::uint32_t fabricate(std::uint64_t vaddr, std::uint32_t tid,
                          util::Cycles now, PhantomFault* out,
                          std::uint32_t max_out);

 private:
  std::uint32_t covert(util::Cycles now, PhantomFault* out,
                       std::uint32_t max_out);
  std::uint32_t skew(std::uint64_t vaddr, PhantomFault* out,
                     std::uint32_t max_out);
  std::uint32_t phase_flip(util::Cycles now, PhantomFault* out,
                           std::uint32_t max_out);
  /// Number of phantom opportunities this real fault carries (integer part
  /// of the intensity plus one Bernoulli draw on the fraction).
  std::uint32_t draws_this_fault();

  AdversaryConfig config_;
  util::Xoshiro256 rng_;
  std::uint32_t num_threads_;
  unsigned granularity_shift_;
  /// covert: colluding (a, b) pairs, drawn once from a seeded shuffle.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs_;
  std::uint32_t attacker_tid_ = 0;    ///< skew: the flooding thread
  std::uint64_t rotation_ = 0;        ///< round-robin over pairs/threads
  std::uint64_t flood_counter_ = 0;   ///< skew: fresh-region stream
  std::uint64_t last_phase_ = 0;      ///< phase_flip: previous phase index
  Counters counters_;
};

}  // namespace spcd::chaos
