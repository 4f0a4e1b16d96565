// Count adapter over the query front door (query.hpp), kept for the
// callers in perfbench/. Everything else calls dist::run / dist::solve.
#pragma once

#include "dist/query.hpp"

namespace dmc::dist {

inline Outcome run_count_solve(
    congest::Network& net, const mso::FormulaPtr& formula,
    const std::vector<std::pair<std::string, mso::Sort>>& vars,
    const ElimTreeResult& tree, const std::vector<LocalBag>& bags,
    bpt::Engine* engine = nullptr) {
  return solve(net, {Kind::kCount, formula, vars}, tree, bags, engine);
}

}  // namespace dmc::dist
