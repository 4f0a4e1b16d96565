// Per-kind adapters over the query front door (query.hpp), kept for the
// callers in perfbench/. Everything else calls dist::run / dist::solve.
#pragma once

#include "dist/query.hpp"

namespace dmc::dist {

using DecisionOutcome = Outcome;

inline Outcome run_decision(congest::Network& net,
                            const mso::FormulaPtr& formula, int d,
                            bpt::Engine* engine = nullptr,
                            const ElimTreeOptions& tree_opts = {}) {
  return run(net, {Kind::kDecision, formula}, d, engine, tree_opts);
}

inline Outcome run_decision_solve(congest::Network& net,
                                  const mso::FormulaPtr& formula,
                                  const ElimTreeResult& tree,
                                  const std::vector<LocalBag>& bags,
                                  bpt::Engine* engine = nullptr,
                                  FoldCache* cache = nullptr) {
  return solve(net, {Kind::kDecision, formula}, tree, bags, engine, cache);
}

}  // namespace dmc::dist
