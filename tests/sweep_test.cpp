// Parameterized property sweeps (TEST_P): the optimization pipeline across
// (problem, seed) combinations, sequential AND distributed, against the
// exact oracles.
#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "congest/network.hpp"
#include "dist/query.hpp"
#include "graph/exact.hpp"
#include "graph/generators.hpp"
#include "mso/formulas.hpp"
#include "seq/courcelle.hpp"

namespace dmc {
namespace {

using mso::Sort;
namespace lib = mso::lib;

enum class Problem { MaxIS, MinVC, MinDS, MinTDS };

struct SweepParam {
  Problem problem;
  unsigned seed;

  std::string name() const {
    const char* names[] = {"MaxIS", "MinVC", "MinDS", "MinTDS"};
    return std::string(names[static_cast<int>(problem)]) + "_s" +
           std::to_string(seed);
  }
  // Printing shows the name, so the test names hold no object bytes.
  friend void PrintTo(const SweepParam& p, std::ostream* os) {
    *os << p.name();
  }
};

std::string param_name(const ::testing::TestParamInfo<SweepParam>& info) {
  return info.param.name();
}

mso::FormulaPtr formula_of(Problem p) {
  switch (p) {
    case Problem::MaxIS:
      return lib::independent_set();
    case Problem::MinVC:
      return lib::vertex_cover();
    case Problem::MinDS:
      return lib::dominating_set();
    case Problem::MinTDS:
      return lib::total_dominating_set();
  }
  throw std::logic_error("unreachable");
}

bool is_max(Problem p) { return p == Problem::MaxIS; }

Weight oracle_of(Problem p, const Graph& g) {
  switch (p) {
    case Problem::MaxIS:
      return exact::max_weight_independent_set(g);
    case Problem::MinVC:
      return exact::min_weight_vertex_cover(g);
    case Problem::MinDS:
      return exact::min_weight_dominating_set(g);
    case Problem::MinTDS: {
      // brute force (unit weights)
      Weight best = -1;
      for (std::uint64_t m = 0; m < (1ull << g.num_vertices()); ++m) {
        bool ok = true;
        for (VertexId v = 0; v < g.num_vertices() && ok; ++v) {
          bool covered = false;
          for (auto [w, e] : g.incident(v)) covered |= (m >> w) & 1;
          ok = covered;
        }
        if (!ok) continue;
        const Weight w = std::popcount(m);
        if (best < 0 || w < best) best = w;
      }
      return best;
    }
  }
  throw std::logic_error("unreachable");
}

class OptimizationSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(OptimizationSweep, SequentialAndDistributedMatchOracle) {
  const auto [problem, seed] = GetParam();
  gen::Rng rng(seed);
  const Graph g = gen::random_bounded_treedepth(8, 3, 0.45, rng);
  const auto formula = formula_of(problem);
  const Weight oracle = oracle_of(problem, g);
  // total domination can be infeasible (isolated-ish vertices)
  const auto seq_result =
      is_max(problem) ? seq::maximize(g, formula, "S", Sort::VertexSet)
                      : seq::minimize(g, formula, "S", Sort::VertexSet);
  if (oracle < 0 && problem == Problem::MinTDS) {
    EXPECT_FALSE(seq_result.has_value());
    return;
  }
  ASSERT_TRUE(seq_result.has_value());
  EXPECT_EQ(seq_result->weight, oracle);

  congest::Network net(g, {.id_seed = seed + 1});
  const auto dist_result =
      is_max(problem)
          ? dist::run(net,
                      {dist::Kind::kMaximize, formula,
                       {{"S", Sort::VertexSet}}}, 3)
          : dist::run(net,
                      {dist::Kind::kMinimize, formula,
                       {{"S", Sort::VertexSet}}}, 3);
  ASSERT_FALSE(dist_result.treedepth_exceeded);
  ASSERT_TRUE(dist_result.best_weight.has_value());
  EXPECT_EQ(*dist_result.best_weight, oracle);
}

INSTANTIATE_TEST_SUITE_P(
    ProblemsBySeed, OptimizationSweep,
    ::testing::Values(SweepParam{Problem::MaxIS, 1},
                      SweepParam{Problem::MaxIS, 2},
                      SweepParam{Problem::MaxIS, 3},
                      SweepParam{Problem::MinVC, 1},
                      SweepParam{Problem::MinVC, 2},
                      SweepParam{Problem::MinVC, 3},
                      SweepParam{Problem::MinDS, 1},
                      SweepParam{Problem::MinDS, 2},
                      SweepParam{Problem::MinDS, 3},
                      SweepParam{Problem::MinTDS, 1},
                      SweepParam{Problem::MinTDS, 2}),
    param_name);

}  // namespace
}  // namespace dmc
