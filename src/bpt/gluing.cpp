#include "bpt/gluing.hpp"

#include <stdexcept>

namespace dmc::bpt {

void GluingMatrix::validate(int left_tau, int right_tau) const {
  std::vector<bool> used_left(left_tau, false), used_right(right_tau, false);
  for (const auto& row : rows) {
    if (row[0] < 0 && row[1] < 0)
      throw std::invalid_argument("GluingMatrix: empty row");
    if (row[0] >= left_tau || row[1] >= right_tau || row[0] < -1 || row[1] < -1)
      throw std::invalid_argument("GluingMatrix: child index out of range");
    if (row[0] >= 0) {
      if (used_left[row[0]])
        throw std::invalid_argument("GluingMatrix: left terminal reused");
      used_left[row[0]] = true;
    }
    if (row[1] >= 0) {
      if (used_right[row[1]])
        throw std::invalid_argument("GluingMatrix: right terminal reused");
      used_right[row[1]] = true;
    }
  }
}

std::size_t GluingMatrixHash::operator()(const GluingMatrix& f) const {
  std::uint64_t h = 1469598103934665603ull;
  for (const auto& row : f.rows) {
    // Valid entries lie in [-1, 11): the low byte of each is exact.
    h = (h ^ static_cast<std::uint8_t>(row[0] + 1)) * 0x100000001b3ull;
    h = (h ^ static_cast<std::uint8_t>(row[1] + 1)) * 0x100000001b3ull;
  }
  return static_cast<std::size_t>(h);
}

GluingMatrix identity_gluing(int tau) {
  GluingMatrix m;
  m.rows.reserve(tau);
  for (int i = 0; i < tau; ++i) m.rows.push_back({i, i});
  return m;
}

}  // namespace dmc::bpt
