// Gluing operations over w-terminal graphs (paper Section 3).
//
// A gluing matrix has one row per terminal of the composed graph; row r
// holds, for each of the two children, the index of the child terminal that
// is identified with parent terminal r, or -1 if the parent terminal does
// not come from that child (the paper's 0 entry). Every non-negative value
// appears at most once per column, and every row has at least one
// non-negative entry (the paper notes the 0/0 case never occurs in the
// construction).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace dmc::bpt {

struct GluingMatrix {
  std::vector<std::array<int, 2>> rows;

  int parent_tau() const { return static_cast<int>(rows.size()); }

  /// Validates shape: unique child indices per column, no empty rows,
  /// child indices within [0, child_tau).
  void validate(int left_tau, int right_tau) const;

  auto operator<=>(const GluingMatrix&) const = default;
};

/// Hash of a gluing matrix's rows (for the engine's op index).
struct GluingMatrixHash {
  std::size_t operator()(const GluingMatrix& f) const;
};

/// Identity gluing on tau terminals: both children fully overlap
/// (Eq. 2 of the paper, f_(Bu,Bu)).
GluingMatrix identity_gluing(int tau);

}  // namespace dmc::bpt
