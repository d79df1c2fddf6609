// Deterministic network fault injection for the spcdd transports. The
// daemon's crash-safety story rests on the claim that an acked batch
// survives anything the network does — torn frames, dropped
// connections, duplicated deliveries, stalls. This hook family makes
// "anything the network does" a seeded, reproducible input: a
// chaos-wrapped transport decides each send's fate from a per-connection
// RNG stream, so a chaos run is bit-identical for a given (config, seed,
// connection id, attempt) — and the replay ablation can assert that the
// daemon's journal digests match a calm run's byte for byte.
//
// With every probability at zero the wrapper draws no random numbers and
// forwards every call untouched — the default is exactly the plain
// transport.
#pragma once

#include <cstdint>
#include <string>

#include "util/rng.hpp"

namespace spcd::chaos {

/// Intensities of the network faults. All probabilities are per send
/// opportunity (one protocol frame leaving the client).
struct NetChaosConfig {
  /// Deliver only a prefix of the frame, then close the connection
  /// (models a peer crashing between write() and write(); the receiver
  /// sees a mid-frame EOF).
  double tear = 0.0;
  /// Close the connection before the frame leaves (models a RST / cable
  /// pull; the receiver sees a clean EOF between frames).
  double drop_conn = 0.0;
  /// Deliver the frame twice (models a client retransmitting into a
  /// half-open connection; exercises the server's dedup cache).
  double duplicate = 0.0;
  /// Sleep `stall_ms` before the frame leaves (models bufferbloat /
  /// a GC'd middlebox; exercises client timeouts and liveness).
  double stall = 0.0;
  std::uint64_t stall_ms = 50;

  /// Base seed the per-connection streams are derived from.
  std::uint64_t seed = 1;

  /// True if any network fault can fire.
  bool enabled() const;

  /// Empty string if the configuration is sane, else a one-line error.
  std::string validate() const;
};

/// Read a NetChaosConfig from SPCD_CHAOS_NET_* environment knobs:
/// SPCD_CHAOS_NET_TEAR, _NET_DROP, _NET_DUP, _NET_STALL (probabilities),
/// _NET_STALL_MS, and _NET_SEED. All default to the inert config.
NetChaosConfig net_chaos_from_env();

/// What a chaos-wrapped transport does with one outgoing frame.
enum class SendFate : std::uint8_t {
  kDeliver,    ///< forward untouched
  kTear,       ///< deliver a torn prefix, then close
  kDrop,       ///< close without delivering
  kDuplicate,  ///< deliver twice
  kStall,      ///< sleep stall_ms, then deliver
};

const char* send_fate_name(SendFate fate);

/// Per-connection fault stream. Seeded from (config.seed, connection id,
/// attempt): reconnecting (attempt + 1) redraws the stream, so a client
/// whose connection was chaos-killed does not deterministically die the
/// same way forever.
class NetChaosEngine {
 public:
  struct Counters {
    std::uint64_t delivered = 0;
    std::uint64_t torn = 0;
    std::uint64_t dropped = 0;
    std::uint64_t duplicated = 0;
    std::uint64_t stalled = 0;

    std::uint64_t injected() const {
      return torn + dropped + duplicated + stalled;
    }
  };

  NetChaosEngine(const NetChaosConfig& config, std::uint64_t connection_id,
                 std::uint32_t attempt);

  const NetChaosConfig& config() const { return config_; }
  const Counters& counters() const { return counters_; }

  /// Decide one outgoing frame's fate (counted).
  SendFate next_fate();

  /// How many payload bytes a torn delivery keeps: in [0, size), so the
  /// receiver always observes a genuinely short frame.
  std::size_t torn_bytes(std::size_t payload_size);

 private:
  NetChaosConfig config_;
  util::Xoshiro256 rng_;
  Counters counters_;
};

}  // namespace spcd::chaos
