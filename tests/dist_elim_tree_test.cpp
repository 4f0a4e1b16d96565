// Distributed elimination-tree construction (Algorithm 2 / Lemma 5.1).
#include "dist/elim_tree.hpp"

#include <gtest/gtest.h>

#include "congest/network.hpp"
#include "graph/generators.hpp"
#include "td/elimination_forest.hpp"

namespace dmc::dist {
namespace {

/// Builds the EliminationForest over graph vertices from the result.
EliminationForest to_forest(const ElimTreeResult& r) {
  return EliminationForest(r.parent);
}

TEST(DistElimTree, SingleVertex) {
  congest::Network net(Graph(1));
  const auto result = run_elim_tree(net, 1);
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.depth[0], 1);
  EXPECT_EQ(result.parent[0], -1);
}

TEST(DistElimTree, StarGraph) {
  congest::Network net(gen::star(5));
  const auto result = run_elim_tree(net, 2);
  ASSERT_TRUE(result.success);
  const auto forest = to_forest(result);
  EXPECT_TRUE(forest.valid_for(net.graph()));
  EXPECT_TRUE(forest.is_subgraph_of(net.graph()));
  EXPECT_LT(forest.depth(), 1 << 2);  // Lemma 2.5
}

TEST(DistElimTree, ReportsWhenBudgetTooSmall) {
  // P15 has treedepth 4 > 2.
  congest::Network net(gen::path(15));
  const auto result = run_elim_tree(net, 2);
  EXPECT_FALSE(result.success);
}

TEST(DistElimTree, PathWithinGenerousBudget) {
  // P7: treedepth 3; depth bound 2^3 = 8 >= 7 so construction succeeds.
  congest::Network net(gen::path(7));
  const auto result = run_elim_tree(net, 3);
  ASSERT_TRUE(result.success);
  const auto forest = to_forest(result);
  EXPECT_TRUE(forest.valid_for(net.graph()));
  EXPECT_TRUE(forest.is_subgraph_of(net.graph()));
  EXPECT_LT(forest.depth(), 1 << 3);
}

TEST(DistElimTree, MatchesSequentialMirrorOnIdentityIds) {
  // With identity ids the distributed run and the sequential greedy mirror
  // make identical choices.
  gen::Rng rng(5);
  for (int trial = 0; trial < 8; ++trial) {
    const Graph g = gen::random_bounded_treedepth(10, 3, 0.4, rng);
    congest::Network net(g);
    const auto result = run_elim_tree(net, 3);
    ASSERT_TRUE(result.success);
    const auto seq = greedy_elimination_tree(g, (1 << 3) - 1);
    ASSERT_TRUE(seq.has_value());
    EXPECT_EQ(result.parent, seq->parents()) << "trial " << trial;
  }
}

TEST(DistElimTree, PropertyValidForestWithinDepthBound) {
  gen::Rng rng(11);
  for (int d = 2; d <= 3; ++d) {
    for (int trial = 0; trial < 6; ++trial) {
      const Graph g = gen::random_bounded_treedepth(12, d, 0.5, rng);
      congest::Network net(g, {.id_seed = static_cast<unsigned>(trial + 1)});
      const auto result = run_elim_tree(net, d);
      ASSERT_TRUE(result.success) << "d=" << d << " trial=" << trial;
      const auto forest = to_forest(result);
      EXPECT_TRUE(forest.valid_for(g));
      EXPECT_TRUE(forest.is_subgraph_of(g));
      EXPECT_LT(forest.depth(), 1 << d);
      // children lists consistent with parents
      for (int v = 0; v < g.num_vertices(); ++v)
        for (int c : result.children[v]) EXPECT_EQ(result.parent[c], v);
    }
  }
}

TEST(DistElimTree, RoundsIndependentOfN) {
  // Lemma 5.1: rounds depend only on d. Stars have treedepth 2.
  long rounds_small = 0, rounds_large = 0;
  {
    congest::Network net(gen::star(8));
    rounds_small = run_elim_tree(net, 2).rounds;
  }
  {
    congest::Network net(gen::star(64));
    rounds_large = run_elim_tree(net, 2).rounds;
  }
  EXPECT_EQ(rounds_small, rounds_large);
}

TEST(DistElimTree, RoundsGrowWithD) {
  const Graph g = gen::star(10);
  long prev = 0;
  for (int d = 2; d <= 5; ++d) {
    congest::Network net(g);
    const long rounds = run_elim_tree(net, d).rounds;
    EXPECT_GT(rounds, prev);
    prev = rounds;
  }
}

TEST(DistElimTree, RejectsBadBudget) {
  congest::Network net(gen::path(3));
  EXPECT_THROW(run_elim_tree(net, 0), std::invalid_argument);
}

TEST(DistElimTree, TreeDefectNamesEachWayATreeFails) {
  // P4 = 0-1-2-3 with root 1: a valid elimination tree of depth 3.
  const Graph g = gen::path(4);
  EXPECT_EQ(tree_defect(g, {1, -1, 1, 2}, 2), "");
  EXPECT_EQ(tree_defect(g, {1, -1, 1}, 2), "tree size differs from the graph");
  EXPECT_EQ(tree_defect(g, {1, -1, 1, 4}, 2), "parent id out of range");
  EXPECT_EQ(tree_defect(g, {1, 2, 1, 2}, 2), "parent map has a cycle");
  EXPECT_EQ(tree_defect(g, {1, -1, -1, 2}, 2), "more than one root");
  // Edge 2-3 joins siblings under 1: not an elimination tree.
  EXPECT_EQ(tree_defect(g, {1, -1, 1, 1}, 2),
            "not an elimination tree whose edges are graph edges");
  // 0 -> 2 is no graph edge.
  EXPECT_EQ(tree_defect(g, {2, 0, -1, 2}, 2),
            "not an elimination tree whose edges are graph edges");
  // The chain 0-1-2-3 is valid but 4 levels deep; d = 2 allows 3.
  EXPECT_EQ(tree_defect(g, {-1, 0, 1, 2}, 2), "deeper than 2^d - 1");
  EXPECT_EQ(tree_defect(g, {-1, 0, 1, 2}, 3), "");
}

TEST(DistElimTree, AboveItsBudgetAcceptedTreesCanBeInvalid) {
  // C12 has treedepth 5. At d = 3 every node is marked, but the 9-round
  // floods do not converge, so the tree is no elimination tree of C12.
  const Graph g = gen::cycle(12);
  congest::Network net(g);
  const auto result = run_elim_tree(net, 3);
  ASSERT_TRUE(result.success);
  EXPECT_FALSE(to_forest(result).valid_for(g));
  EXPECT_EQ(tree_defect(g, result.parent, 3),
            "not an elimination tree whose edges are graph edges");
}

}  // namespace
}  // namespace dmc::dist
