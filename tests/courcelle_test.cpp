// The backbone correctness suite: the BPT type engine + Algorithm 1 pipeline
// is validated against brute-force MSO semantics and the exact combinatorial
// oracles, across the formula library and randomized graph families.
#include "seq/courcelle.hpp"

#include <gtest/gtest.h>

#include "graph/algorithms.hpp"
#include "graph/exact.hpp"
#include "graph/generators.hpp"
#include "mso/eval.hpp"
#include "mso/formulas.hpp"

namespace dmc {
namespace {

using mso::FormulaPtr;
using mso::Sort;
namespace lib = mso::lib;

Graph small_random(unsigned seed, int n = 7, int extra = 4) {
  gen::Rng rng(seed);
  return gen::random_connected(n, extra, rng);
}

TEST(Courcelle, DecideTriangleFreeKnownGraphs) {
  EXPECT_TRUE(seq::decide(gen::cycle(5), lib::triangle_free()));
  EXPECT_FALSE(seq::decide(gen::clique(3), lib::triangle_free()));
  EXPECT_FALSE(seq::decide(gen::clique(5), lib::triangle_free()));
  EXPECT_TRUE(seq::decide(gen::grid(3, 3), lib::triangle_free()));
  EXPECT_TRUE(seq::decide(gen::star(6), lib::triangle_free()));
}

TEST(Courcelle, DecideConnected) {
  EXPECT_TRUE(seq::decide(gen::path(6), lib::connected()));
  EXPECT_FALSE(seq::decide(gen::disjoint_union(gen::path(3), gen::cycle(3)),
                           lib::connected()));
  EXPECT_TRUE(seq::decide(Graph(1), lib::connected()));
}

TEST(Courcelle, DecideAcyclic) {
  EXPECT_TRUE(seq::decide(gen::path(6), lib::acyclic()));
  EXPECT_TRUE(seq::decide(gen::binary_tree(3), lib::acyclic()));
  EXPECT_FALSE(seq::decide(gen::cycle(6), lib::acyclic()));
  EXPECT_FALSE(seq::decide(gen::clique(3), lib::acyclic()));
}

TEST(Courcelle, DecideColorability) {
  EXPECT_TRUE(seq::decide(gen::cycle(6), lib::k_colorable(2)));
  EXPECT_FALSE(seq::decide(gen::cycle(5), lib::k_colorable(2)));
  EXPECT_TRUE(seq::decide(gen::cycle(5), lib::k_colorable(3)));
  EXPECT_TRUE(seq::decide(gen::clique(4), lib::not_3_colorable()));
  EXPECT_FALSE(seq::decide(gen::cycle(5), lib::not_3_colorable()));
}

TEST(Courcelle, DecideLabeled) {
  Graph g = gen::cycle(4);
  g.set_vertex_label("red", 0);
  g.set_vertex_label("blue", 1);
  g.set_vertex_label("red", 2);
  g.set_vertex_label("blue", 3);
  EXPECT_TRUE(seq::decide(g, lib::properly_2_colored()));
  g.set_vertex_label("blue", 1, false);
  g.set_vertex_label("red", 1);
  EXPECT_FALSE(seq::decide(g, lib::properly_2_colored()));
}

// A library formula with its name. Printing shows the name only, so the test
// names ctest discovers hold no pointer values and stay the same from one
// build to the next.
struct NamedFormula {
  const char* name;
  FormulaPtr formula;
  friend void PrintTo(const NamedFormula& f, std::ostream* os) {
    *os << f.name;
  }
};

// The central property: engine decisions == brute-force MSO semantics on
// randomized graphs, for every closed formula in the library.
class OracleDecision : public ::testing::TestWithParam<NamedFormula> {};

TEST_P(OracleDecision, MatchesBruteForce) {
  const auto& [name, formula] = GetParam();
  for (unsigned seed = 0; seed < 12; ++seed) {
    const Graph g = small_random(seed, 6 + seed % 3, 2 + seed % 4);
    const bool brute = mso::evaluate(g, *formula);
    const bool engine = seq::decide(g, formula);
    EXPECT_EQ(engine, brute) << name << " seed=" << seed << " " << g.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(
    FormulaLibrary, OracleDecision,
    ::testing::Values(
        NamedFormula{"triangle_free", lib::triangle_free()},
        NamedFormula{"connected", lib::connected()},
        NamedFormula{"acyclic", lib::acyclic()},
        NamedFormula{"2colorable", lib::k_colorable(2)},
        NamedFormula{"isolated", lib::has_isolated_vertex()},
        NamedFormula{"isolated_lowrank", lib::has_isolated_vertex_lowrank()},
        NamedFormula{"deg3", lib::has_vertex_of_degree_ge(3)}),
    [](const auto& info) { return info.param.name; });

TEST(Courcelle, DecideMatchesBruteForceOnBoundedTreedepthFamily) {
  gen::Rng rng(21);
  for (int trial = 0; trial < 8; ++trial) {
    const Graph g = gen::random_bounded_treedepth(8, 3, 0.5, rng);
    EXPECT_EQ(seq::decide(g, lib::triangle_free()),
              mso::evaluate(g, *lib::triangle_free()));
    EXPECT_EQ(seq::decide(g, lib::acyclic()),
              mso::evaluate(g, *lib::acyclic()));
  }
}

TEST(Courcelle, MaximizeIndependentSet) {
  for (unsigned seed = 0; seed < 10; ++seed) {
    gen::Rng rng(seed);
    Graph g = gen::random_connected(8, 4, rng);
    gen::randomize_weights(g, 1, 5, rng);
    const auto result =
        seq::maximize(g, lib::independent_set(), "S", Sort::VertexSet);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->weight, exact::max_weight_independent_set(g))
        << "seed=" << seed;
    // The reconstructed set must be independent and have the right weight.
    Weight w = 0;
    for (VertexId v = 0; v < g.num_vertices(); ++v)
      if (result->vertices[v]) w += g.vertex_weight(v);
    EXPECT_EQ(w, result->weight);
    for (const Edge& e : g.edges())
      EXPECT_FALSE(result->vertices[e.u] && result->vertices[e.v]);
  }
}

TEST(Courcelle, MinimizeVertexCover) {
  for (unsigned seed = 0; seed < 8; ++seed) {
    gen::Rng rng(seed + 100);
    Graph g = gen::random_connected(7, 4, rng);
    gen::randomize_weights(g, 1, 4, rng);
    const auto result =
        seq::minimize(g, lib::vertex_cover(), "S", Sort::VertexSet);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->weight, exact::min_weight_vertex_cover(g))
        << "seed=" << seed;
    for (const Edge& e : g.edges())
      EXPECT_TRUE(result->vertices[e.u] || result->vertices[e.v]);
  }
}

TEST(Courcelle, MinimizeDominatingSet) {
  for (unsigned seed = 0; seed < 8; ++seed) {
    gen::Rng rng(seed + 200);
    const Graph g = gen::random_connected(7, 3, rng);
    const auto result =
        seq::minimize(g, lib::dominating_set(), "S", Sort::VertexSet);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->weight, exact::min_weight_dominating_set(g))
        << "seed=" << seed;
  }
}

TEST(Courcelle, MinimizeSpanningConnectedIsMst) {
  // With strictly positive weights, the min-weight connected spanning edge
  // set is the minimum spanning tree.
  for (unsigned seed = 0; seed < 6; ++seed) {
    gen::Rng rng(seed + 300);
    Graph g = gen::random_connected(6, 3, rng);
    gen::randomize_weights(g, 1, 9, rng);
    const auto result =
        seq::minimize(g, lib::spanning_connected(), "F", Sort::EdgeSet);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->weight, exact::min_weight_spanning_tree(g))
        << "seed=" << seed;
    std::vector<EdgeId> chosen;
    for (EdgeId e = 0; e < g.num_edges(); ++e)
      if (result->edges[e]) chosen.push_back(e);
    EXPECT_TRUE(is_spanning_tree(g, chosen));
  }
}

TEST(Courcelle, MaximizeMatching) {
  for (unsigned seed = 0; seed < 6; ++seed) {
    gen::Rng rng(seed + 400);
    const Graph g = gen::random_connected(7, 3, rng);
    const auto result = seq::maximize(g, lib::matching(), "F", Sort::EdgeSet);
    ASSERT_TRUE(result.has_value());
    // Check against brute force over all edge subsets.
    Weight best = 0;
    for (std::uint64_t m = 0; m < (1ull << g.num_edges()); ++m) {
      if (!mso::evaluate(g, *lib::matching(), {{"F", mso::Value::edge_set(m)}}))
        continue;
      best = std::max<Weight>(best, std::popcount(m));
    }
    EXPECT_EQ(result->weight, best) << "seed=" << seed;
  }
}

TEST(Courcelle, MaximizeReturnsNulloptWhenUnsatisfiable) {
  // "S is nonempty and independent" on K2 with forced adjacency... simplest:
  // a formula that is never satisfiable: sing(S) & empty(S).
  const auto f = mso::land(mso::singleton("S"), mso::empty_set("S"));
  EXPECT_FALSE(
      seq::maximize(gen::path(3), f, "S", Sort::VertexSet).has_value());
}

TEST(Courcelle, CountIndependentSets) {
  for (unsigned seed = 0; seed < 8; ++seed) {
    const Graph g = small_random(seed + 500, 7, 3);
    const auto count = seq::count(g, lib::independent_set_indicator(),
                                  {{"S", Sort::VertexSet}});
    EXPECT_EQ(count, exact::count_independent_sets(g)) << "seed=" << seed;
  }
}

TEST(Courcelle, CountTriangles) {
  for (unsigned seed = 0; seed < 8; ++seed) {
    gen::Rng rng(seed + 600);
    const Graph g = gen::random_bounded_treedepth(8, 3, 0.6, rng);
    const auto count = seq::count(g, lib::triangle_tuple(),
                                  {{"X", Sort::VertexSet},
                                   {"Y", Sort::VertexSet},
                                   {"Z", Sort::VertexSet}});
    EXPECT_EQ(count, 6 * exact::count_triangles(g)) << "seed=" << seed;
  }
}

TEST(Courcelle, CountPerfectMatchings) {
  for (unsigned seed = 0; seed < 6; ++seed) {
    gen::Rng rng(seed + 700);
    const Graph g = gen::random_connected(6, 3, rng);
    const auto count =
        seq::count(g, lib::perfect_matching(), {{"F", Sort::EdgeSet}});
    EXPECT_EQ(count, exact::count_perfect_matchings(g)) << "seed=" << seed;
  }
}

TEST(Courcelle, WorksOnPathsOfGrowingLength) {
  // Larger instances than brute force could handle: known truths. Formula
  // rank bounds the feasible width (the meta-theorem's constant is
  // non-elementary), so higher-rank formulas get shorter paths.
  EXPECT_TRUE(seq::decide(gen::path(64), lib::connected()));
  EXPECT_TRUE(seq::decide(gen::cycle(64), lib::connected()));
  EXPECT_TRUE(seq::decide(gen::path(10), lib::k_colorable(2)));
  EXPECT_TRUE(seq::decide(gen::path(8), lib::acyclic()));
  EXPECT_FALSE(seq::decide(gen::cycle(9), lib::k_colorable(2)));
  const auto mis =
      seq::maximize(gen::path(41), lib::independent_set(), "S", Sort::VertexSet);
  ASSERT_TRUE(mis.has_value());
  EXPECT_EQ(mis->weight, 21);  // ceil(41/2)
}

TEST(Courcelle, RedBlueDomination) {
  // Section 6 example: blue set dominating all red vertices.
  Graph g = gen::star(4);  // center 0, leaves 1..4
  for (VertexId v = 1; v <= 4; ++v) g.set_vertex_label("red", v);
  g.set_vertex_label("blue", 0);
  const auto result =
      seq::minimize(g, lib::red_blue_dominating_set(), "S", Sort::VertexSet);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->weight, 1);  // the blue center dominates all reds
  EXPECT_TRUE(result->vertices[0]);
}

TEST(Courcelle, FeedbackVertexSet) {
  for (unsigned seed = 0; seed < 4; ++seed) {
    gen::Rng rng(seed + 800);
    const Graph g = gen::random_connected(6, 2, rng);
    const auto result =
        seq::minimize(g, lib::feedback_vertex_set(), "S", Sort::VertexSet);
    ASSERT_TRUE(result.has_value());
    // brute-force the minimum FVS size
    Weight best = g.num_vertices();
    for (std::uint64_t m = 0; m < (1ull << g.num_vertices()); ++m) {
      if (!mso::evaluate(g, *lib::feedback_vertex_set(),
                         {{"S", mso::Value::vertex_set(m)}}))
        continue;
      best = std::min<Weight>(best, std::popcount(m));
    }
    EXPECT_EQ(result->weight, best) << "seed=" << seed;
  }
}

}  // namespace
}  // namespace dmc
