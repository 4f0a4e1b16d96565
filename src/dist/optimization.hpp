// Optimization adapters over the query front door (query.hpp), kept for
// the callers in perfbench/. Everything else calls dist::run / dist::solve.
#pragma once

#include "dist/query.hpp"

namespace dmc::dist {

inline Outcome run_maximize_solve(congest::Network& net,
                                  const mso::FormulaPtr& formula,
                                  const std::string& var, mso::Sort var_sort,
                                  const ElimTreeResult& tree,
                                  const std::vector<LocalBag>& bags,
                                  bpt::Engine* engine = nullptr) {
  return solve(net, {Kind::kMaximize, formula, {{var, var_sort}}}, tree, bags,
               engine);
}

inline Outcome run_minimize_solve(congest::Network& net,
                                  const mso::FormulaPtr& formula,
                                  const std::string& var, mso::Sort var_sort,
                                  const ElimTreeResult& tree,
                                  const std::vector<LocalBag>& bags,
                                  bpt::Engine* engine = nullptr) {
  return solve(net, {Kind::kMinimize, formula, {{var, var_sort}}}, tree, bags,
               engine);
}

}  // namespace dmc::dist
