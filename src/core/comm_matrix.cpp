#include "core/comm_matrix.hpp"

#include <algorithm>

#include "util/contracts.hpp"
#include "util/stats.hpp"

namespace spcd::core {

CommMatrix::CommMatrix(std::uint32_t num_threads) : n_(num_threads) {
  SPCD_EXPECTS(num_threads >= 1);
  cells_.assign(static_cast<std::size_t>(n_) * (n_ - 1) / 2, 0);
  best_amount_.assign(n_, 0);
  best_partner_.assign(n_, -1);
}

void CommMatrix::bump_row(std::uint32_t row, std::uint32_t other,
                          std::uint64_t value) {
  // Cells never decrease, so the row maximum can only be raised by the cell
  // that just changed. The tie rule matches the old linear scan: among
  // equal maxima the lowest thread id wins (a fresh -1 partner is
  // represented as INT32 -1, which any real id compares above only through
  // the strict `>` branch, so a zero-valued add never installs a partner).
  const auto candidate = static_cast<std::int32_t>(other);
  if (value > best_amount_[row] ||
      (value == best_amount_[row] && candidate < best_partner_[row])) {
    best_amount_[row] = value;
    best_partner_[row] = candidate;
  }
}

void CommMatrix::add(std::uint32_t a, std::uint32_t b, std::uint64_t amount) {
  SPCD_EXPECTS(a < n_ && b < n_);
  SPCD_EXPECTS(a != b);
  const std::size_t i = a < b ? tri(a, b) : tri(b, a);
  const std::uint64_t value = cells_[i] + amount;
  cells_[i] = value;
  total_ += amount;
  ++epoch_;
  if (amount == 0) return;  // a zero add must not install a partner
  bump_row(a, b, value);
  bump_row(b, a, value);
}

std::uint64_t CommMatrix::at(std::uint32_t a, std::uint32_t b) const {
  SPCD_EXPECTS(a < n_ && b < n_);
  if (a == b) return 0;
  return cell(a, b);
}

void CommMatrix::clear() {
  std::fill(cells_.begin(), cells_.end(), 0);
  std::fill(best_amount_.begin(), best_amount_.end(), 0);
  std::fill(best_partner_.begin(), best_partner_.end(), -1);
  total_ = 0;
  ++epoch_;
}

std::int32_t CommMatrix::partner_of(std::uint32_t t) const {
  SPCD_EXPECTS(t < n_);
  return best_partner_[t];
}

CommMatrix::CommMatrix(const Snapshot& snap) : CommMatrix(snap.size) {
  SPCD_EXPECTS(snap.cells.size() == cells_.size());
  for (std::uint32_t a = 0, i = 0; a < n_; ++a) {
    for (std::uint32_t b = a + 1; b < n_; ++b, ++i) {
      if (snap.cells[i] != 0) add(a, b, snap.cells[i]);
    }
  }
  epoch_ = snap.epoch;
}

CommMatrix::Snapshot CommMatrix::snapshot() const {
  Snapshot s;
  s.size = n_;
  s.epoch = epoch_;
  s.cells = cells_;
  return s;
}

CommMatrix CommMatrix::since(const Snapshot& earlier) const {
  SPCD_EXPECTS(earlier.size == n_);
  SPCD_EXPECTS(earlier.cells.size() == cells_.size());
  CommMatrix out(n_);
  if (earlier.epoch == epoch_) return out;  // nothing happened since
  for (std::uint32_t a = 0, i = 0; a < n_; ++a) {
    for (std::uint32_t b = a + 1; b < n_; ++b, ++i) {
      const std::uint64_t delta =
          cells_[i] >= earlier.cells[i] ? cells_[i] - earlier.cells[i] : 0;
      if (delta != 0) out.add(a, b, delta);
    }
  }
  return out;
}

std::vector<double> CommMatrix::as_double() const {
  std::vector<double> out(static_cast<std::size_t>(n_) * n_, 0.0);
  for (std::uint32_t a = 0, i = 0; a < n_; ++a) {
    for (std::uint32_t b = a + 1; b < n_; ++b, ++i) {
      const auto v = static_cast<double>(cells_[i]);
      out[static_cast<std::size_t>(a) * n_ + b] = v;
      out[static_cast<std::size_t>(b) * n_ + a] = v;
    }
  }
  return out;
}

double CommMatrix::correlation(const CommMatrix& other) const {
  SPCD_EXPECTS(other.n_ == n_);
  // Both triangles are already flat in pair order; convert and correlate.
  std::vector<double> a(cells_.size()), b(cells_.size());
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    a[i] = static_cast<double>(cells_[i]);
    b[i] = static_cast<double>(other.cells_[i]);
  }
  return util::pearson(a, b);
}

std::uint64_t CommMatrix::group_weight(
    std::span<const std::uint32_t> group_a,
    std::span<const std::uint32_t> group_b) const {
  std::uint64_t sum = 0;
  for (const std::uint32_t a : group_a) {
    for (const std::uint32_t b : group_b) sum += cell(a, b);
  }
  return sum;
}

}  // namespace spcd::core
