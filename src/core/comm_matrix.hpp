// The communication matrix (paper Section II-B): cell (i, j) holds the
// amount of communication detected between threads i and j. Symmetric by
// construction; the diagonal is always zero.
//
// Hot-path layout: the symmetric matrix is stored once, as the flat upper
// triangle (n*(n-1)/2 cells, row-major), and every row's argmax — the
// thread's *partner* in the paper's filter terminology — is maintained
// incrementally on add(). partner_of() and total() are therefore O(1),
// which turns the communication filter's evaluation from Theta(n^2) row
// rescans into a single O(n) pass.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace spcd::core {

class CommMatrix {
 public:
  explicit CommMatrix(std::uint32_t num_threads);

  std::uint32_t size() const { return n_; }

  /// Record `amount` units of communication between two distinct threads.
  void add(std::uint32_t a, std::uint32_t b, std::uint64_t amount = 1);

  std::uint64_t at(std::uint32_t a, std::uint32_t b) const;

  /// Sum over the upper triangle (each pair counted once). O(1): the total
  /// is maintained by add().
  std::uint64_t total() const { return total_; }

  void clear();

  /// The thread each thread communicates most with (its *partner* in the
  /// paper's filter terminology), or -1 if the row is all zero. Ties go to
  /// the lowest thread id. O(1): maintained incrementally by add().
  std::int32_t partner_of(std::uint32_t t) const;

  /// A point-in-time capture of the matrix: the flat triangle plus the
  /// epoch at which it was taken. Half the footprint of the old full-matrix
  /// copy and a single memcpy to take; feed it to since() to get the
  /// communication recorded after the capture.
  struct Snapshot {
    std::uint32_t size = 0;
    std::uint64_t epoch = 0;             ///< add() count at capture
    std::vector<std::uint64_t> cells;    ///< upper triangle at capture
  };
  Snapshot snapshot() const;

  /// Rebuild a full matrix (totals, partners) from a snapshot, e.g. to
  /// compute the delta between two snapshots: CommMatrix(b).since(a).
  explicit CommMatrix(const Snapshot& snap);

  /// The communication recorded since `earlier` was captured (element-wise
  /// saturating difference). When the epoch is unchanged this is O(1) — no
  /// subtraction pass at all. Replaces the old diff(): cells never
  /// decrease, so (this - earlier) is exact.
  CommMatrix since(const Snapshot& earlier) const;

  /// Number of add() calls so far — the snapshot epoch.
  std::uint64_t epoch() const { return epoch_; }

  /// Row-major n x n copy as doubles (for heatmaps / statistics).
  std::vector<double> as_double() const;

  /// Pearson correlation of the upper triangles of two matrices — the
  /// accuracy metric used to compare a detected pattern against the oracle.
  double correlation(const CommMatrix& other) const;

  /// Eq. (1) of the paper generalized to groups: total communication
  /// between two disjoint thread groups.
  std::uint64_t group_weight(std::span<const std::uint32_t> group_a,
                             std::span<const std::uint32_t> group_b) const;

  /// Raw upper-triangle storage (row-major, n*(n-1)/2 cells), for tests.
  std::span<const std::uint64_t> triangle() const { return cells_; }

 private:
  /// Index of (a, b) in the flat upper triangle; requires a < b < n.
  std::size_t tri(std::uint32_t a, std::uint32_t b) const {
    return static_cast<std::size_t>(a) * (2 * n_ - a - 1) / 2 + (b - a - 1);
  }
  /// Cell for an unordered pair of distinct threads.
  std::uint64_t cell(std::uint32_t a, std::uint32_t b) const {
    return a < b ? cells_[tri(a, b)] : cells_[tri(b, a)];
  }
  void bump_row(std::uint32_t row, std::uint32_t other, std::uint64_t value);

  std::uint32_t n_;
  std::uint64_t total_ = 0;
  std::uint64_t epoch_ = 0;
  std::vector<std::uint64_t> cells_;         ///< upper triangle, row-major
  std::vector<std::uint64_t> best_amount_;   ///< per-row maximum
  std::vector<std::int32_t> best_partner_;   ///< per-row argmax (-1 = none)
};

}  // namespace spcd::core
