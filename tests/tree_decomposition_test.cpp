#include "td/tree_decomposition.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "graph/generators.hpp"

namespace dmc {
namespace {

TEST(TreeDecomposition, WidthAndChildren) {
  TreeDecomposition td;
  td.parent = {-1, 0, 0};
  td.bags = {{0, 1}, {1, 2}, {1, 3}};
  EXPECT_EQ(td.width(), 1);
  const auto ch = td.children();
  EXPECT_EQ(ch[0].size(), 2u);
  const auto order = td.topological_order();
  EXPECT_EQ(order[0], 0);
}

TEST(TreeDecomposition, ValidForPath) {
  const Graph g = gen::path(4);
  TreeDecomposition td;
  td.parent = {-1, 0, 1};
  td.bags = {{0, 1}, {1, 2}, {2, 3}};
  EXPECT_TRUE(td.valid_for(g));
}

TEST(TreeDecomposition, DetectsMissingEdge) {
  const Graph g = gen::cycle(4);
  TreeDecomposition td;
  td.parent = {-1, 0, 1};
  td.bags = {{0, 1}, {1, 2}, {2, 3}};  // edge 3-0 not covered
  EXPECT_FALSE(td.valid_for(g));
}

TEST(TreeDecomposition, DetectsDisconnectedOccurrences) {
  const Graph g = gen::path(3);
  TreeDecomposition td;
  td.parent = {-1, 0, 1};
  // vertex 0 appears in bags 0 and 2 but not 1 -> not a subtree
  td.bags = {{0, 1}, {1, 2}, {0, 2}};
  EXPECT_FALSE(td.valid_for(g));
}

TEST(TreeDecomposition, DetectsMissingVertex) {
  const Graph g = gen::path(3);
  TreeDecomposition td;
  td.parent = {-1, 0};
  td.bags = {{0, 1}, {1}};  // vertex 2 missing
  EXPECT_FALSE(td.valid_for(g));
}

TEST(TreeDecomposition, RejectsOutOfRangeParent) {
  const Graph g = gen::path(2);
  TreeDecomposition td;
  td.parent = {-1, 5};
  td.bags = {{0, 1}, {1}};
  EXPECT_FALSE(td.valid_for(g));
  td.parent = {-1, -3};
  EXPECT_FALSE(td.valid_for(g));
}

TEST(TreeDecomposition, RejectsParentCycle) {
  // Nodes 1 and 2 point at each other below no root. Their bags are
  // empty, so every vertex still has one connected occurrence: the counts
  // alone would accept this.
  const Graph g = gen::path(2);
  TreeDecomposition td;
  td.parent = {-1, 2, 1};
  td.bags = {{0, 1}, {}, {}};
  EXPECT_FALSE(td.valid_for(g));
  td.parent = {-1, 1, 0};  // a self-loop
  EXPECT_FALSE(td.valid_for(g));
}

/// The quadratic check valid_for replaced (every bag per edge, every node
/// per vertex), for decompositions with in-range acyclic parents.
bool quadratic_valid_for(const TreeDecomposition& td, const Graph& g) {
  auto holds = [&](int i, VertexId v) {
    return std::binary_search(td.bags[i].begin(), td.bags[i].end(), v);
  };
  for (const Edge& e : g.edges()) {
    bool found = false;
    for (int i = 0; i < td.num_nodes(); ++i)
      found = found || (holds(i, e.u) && holds(i, e.v));
    if (!found) return false;
  }
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    int nodes = 0, links = 0;
    for (int i = 0; i < td.num_nodes(); ++i) {
      if (!holds(i, v)) continue;
      ++nodes;
      links += td.parent[i] >= 0 && holds(td.parent[i], v);
    }
    if (nodes == 0 || links != nodes - 1) return false;
  }
  return true;
}

TEST(TreeDecomposition, ValidForMatchesTheQuadraticCheck) {
  // Canonical decompositions of small random graphs, each mutated once:
  // a vertex toggled in one bag, or one node re-hung under a shallower
  // node (no cycle) or made a root.
  gen::Rng rng(5);
  auto uniform = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  int accepted = 0, rejected = 0;
  for (int trial = 0; trial < 600; ++trial) {
    const Graph g = trial % 2 ? gen::random_connected(uniform(1, 14),
                                                      uniform(0, 8), rng)
                              : gen::erdos_renyi(uniform(1, 14), 0.2, rng);
    const EliminationForest forest = balanced_elimination_forest(g);
    TreeDecomposition td = canonical_tree_decomposition(g, forest);
    const int i = uniform(0, td.num_nodes() - 1);
    if (uniform(0, 1)) {
      auto& bag = td.bags[i];
      const VertexId v = uniform(0, g.num_vertices() - 1);
      const auto it = std::lower_bound(bag.begin(), bag.end(), v);
      if (it != bag.end() && *it == v) bag.erase(it);
      else bag.insert(it, v);
    } else {
      const int j = uniform(-1, td.num_nodes() - 1);
      if (j < 0 || forest.depth(j) < forest.depth(i)) td.parent[i] = j;
    }
    const bool want = quadratic_valid_for(td, g);
    ASSERT_EQ(td.valid_for(g), want) << "trial " << trial;
    (want ? accepted : rejected) += 1;
  }
  EXPECT_GT(accepted, 100);
  EXPECT_GT(rejected, 100);
}

TEST(CanonicalDecomposition, FromEliminationForest) {
  // C4 with elimination tree 0 > 1 > {2, 3}? Edges 0-1,1-2,2-3,3-0.
  // Use chain 0>1>2>3 which is valid for C4 (all edges ancestor-descendant).
  const Graph g = gen::cycle(4);
  EliminationForest chain({-1, 0, 1, 2});
  ASSERT_TRUE(chain.valid_for(g));
  const TreeDecomposition td = canonical_tree_decomposition(g, chain);
  EXPECT_TRUE(td.valid_for(g));
  EXPECT_EQ(td.width(), chain.depth() - 1);
  EXPECT_EQ(td.bags[3], (std::vector<VertexId>{0, 1, 2, 3}));
  EXPECT_EQ(td.bags[0], (std::vector<VertexId>{0}));
}

TEST(CanonicalDecomposition, RejectsInvalidForest) {
  const Graph g = gen::path(4);
  EliminationForest star({-1, 0, 0, 0});
  EXPECT_THROW(canonical_tree_decomposition(g, star), std::invalid_argument);
}

TEST(CanonicalDecomposition, RandomGraphsProperty) {
  gen::Rng rng(3);
  for (int trial = 0; trial < 15; ++trial) {
    const Graph g = gen::random_connected(11, 5, rng);
    const auto [td_value, forest] = exact_treedepth_forest(g);
    const TreeDecomposition td = canonical_tree_decomposition(g, forest);
    EXPECT_TRUE(td.valid_for(g));
    EXPECT_EQ(td.width(), forest.depth() - 1);
  }
}

}  // namespace
}  // namespace dmc
