// Distributed edge-set problems and corner cases: mixed-sign weights,
// single-vertex networks, edge-dominating sets, matching counting.
#include <gtest/gtest.h>

#include "congest/network.hpp"
#include "dist/query.hpp"
#include "graph/exact.hpp"
#include "graph/generators.hpp"
#include "mso/eval.hpp"
#include "mso/formulas.hpp"

namespace dmc::dist {
namespace {

using mso::Sort;
namespace lib = mso::lib;

TEST(DistEdgeProblems, SingleVertexNetwork) {
  congest::Network net(Graph(1));
  const auto out = run(net, {Kind::kDecision, lib::connected()}, 1);
  ASSERT_FALSE(out.treedepth_exceeded);
  EXPECT_TRUE(out.holds);
}

TEST(DistEdgeProblems, TwoVertexNetwork) {
  congest::Network net(gen::path(2));
  const auto out = run(net, {Kind::kDecision, lib::triangle_free()}, 2);
  ASSERT_FALSE(out.treedepth_exceeded);
  EXPECT_TRUE(out.holds);
}

TEST(DistEdgeProblems, MixedSignWeightsMaxIs) {
  // Negative vertex weights: the optimal independent set may exclude
  // heavy-negative vertices; the empty set is always feasible.
  gen::Rng rng(3);
  Graph g = gen::random_bounded_treedepth(8, 3, 0.4, rng);
  gen::randomize_weights(g, -4, 4, rng);
  congest::Network net(g);
  const auto out =
      run(net,
          {Kind::kMaximize, lib::independent_set(), {{"S", Sort::VertexSet}}},
          3);
  ASSERT_FALSE(out.treedepth_exceeded);
  ASSERT_TRUE(out.best_weight.has_value());
  EXPECT_EQ(*out.best_weight, exact::max_weight_independent_set(g));
  EXPECT_GE(*out.best_weight, 0);  // empty set is feasible
  // marked set must not include negative-contribution-only choices wrongly
  Weight check = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    if (out.vertices[v]) check += g.vertex_weight(v);
  EXPECT_EQ(check, *out.best_weight);
}

TEST(DistEdgeProblems, MinEdgeDominatingSet) {
  for (unsigned seed = 0; seed < 3; ++seed) {
    gen::Rng rng(seed + 30);
    const Graph g = gen::random_bounded_treedepth(7, 3, 0.4, rng);
    if (g.num_edges() == 0 || g.num_edges() > 16) continue;
    congest::Network net(g);
    const auto out =
        run(net,
            {Kind::kMinimize, lib::edge_dominating_set(),
             {{"F", Sort::EdgeSet}}}, 3);
    ASSERT_FALSE(out.treedepth_exceeded);
    ASSERT_TRUE(out.best_weight.has_value());
    // brute force
    Weight best = -1;
    for (std::uint64_t m = 0; m < (1ull << g.num_edges()); ++m) {
      if (!mso::evaluate(g, *lib::edge_dominating_set(),
                         {{"F", mso::Value::edge_set(m)}}))
        continue;
      const Weight w = std::popcount(m);
      if (best < 0 || w < best) best = w;
    }
    EXPECT_EQ(*out.best_weight, best) << "seed=" << seed;
  }
}

TEST(DistEdgeProblems, CountPerfectMatchingsDistributed) {
  for (unsigned seed = 0; seed < 3; ++seed) {
    gen::Rng rng(seed + 40);
    const Graph g = gen::random_bounded_treedepth(6, 3, 0.5, rng);
    congest::Network net(g);
    const auto out =
        run(net,
            {Kind::kCount, lib::perfect_matching(), {{"F", Sort::EdgeSet}}}, 3);
    ASSERT_FALSE(out.treedepth_exceeded);
    EXPECT_EQ(out.count, exact::count_perfect_matchings(g)) << "seed=" << seed;
  }
}

TEST(DistEdgeProblems, MaxMatchingDistributed) {
  gen::Rng rng(50);
  const Graph g = gen::random_bounded_treedepth(7, 3, 0.4, rng);
  congest::Network net(g);
  const auto out =
      run(net, {Kind::kMaximize, lib::matching(), {{"F", Sort::EdgeSet}}}, 3);
  ASSERT_FALSE(out.treedepth_exceeded);
  ASSERT_TRUE(out.best_weight.has_value());
  Weight best = 0;
  for (std::uint64_t m = 0; m < (1ull << g.num_edges()); ++m) {
    if (!mso::evaluate(g, *lib::matching(), {{"F", mso::Value::edge_set(m)}}))
      continue;
    best = std::max<Weight>(best, std::popcount(m));
  }
  EXPECT_EQ(*out.best_weight, best);
  // Returned edges form a matching of that size.
  int chosen = 0;
  std::vector<int> touched(g.num_vertices(), 0);
  for (EdgeId e = 0; e < g.num_edges(); ++e)
    if (out.edges[e]) {
      ++chosen;
      ++touched[g.edge(e).u];
      ++touched[g.edge(e).v];
    }
  EXPECT_EQ(chosen, best);
  for (int t : touched) EXPECT_LE(t, 1);
}

}  // namespace
}  // namespace dmc::dist
