#include "td/elimination_forest.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <vector>

#include "graph/generators.hpp"

namespace dmc {
namespace {

TEST(EliminationForest, DepthsAndChildren) {
  // 0 is root; 1,2 children of 0; 3 child of 2.
  EliminationForest f({-1, 0, 0, 2});
  EXPECT_EQ(f.depth(0), 1);
  EXPECT_EQ(f.depth(1), 2);
  EXPECT_EQ(f.depth(3), 3);
  EXPECT_EQ(f.depth(), 3);
  EXPECT_EQ(f.children(0).size(), 2u);
  EXPECT_EQ(f.roots(), std::vector<VertexId>{0});
  EXPECT_TRUE(f.is_ancestor(0, 3));
  EXPECT_TRUE(f.is_ancestor(2, 3));
  EXPECT_TRUE(f.is_ancestor(3, 3));
  EXPECT_FALSE(f.is_ancestor(1, 3));
  EXPECT_EQ(f.root_path(3), (std::vector<VertexId>{0, 2, 3}));
}

TEST(EliminationForest, RejectsCycles) {
  EXPECT_THROW(EliminationForest({1, 0}), std::invalid_argument);
  EXPECT_THROW(EliminationForest({0}), std::invalid_argument);
  EXPECT_THROW(EliminationForest({5}), std::invalid_argument);
}

TEST(EliminationForest, ValidFor) {
  // P4: 0-1-2-3. A path elimination tree 0>1>2>3 is valid.
  const Graph g = gen::path(4);
  EliminationForest chain({-1, 0, 1, 2});
  EXPECT_TRUE(chain.valid_for(g));
  EXPECT_TRUE(chain.is_subgraph_of(g));
  // Star forest rooted at 0 with all others children: edge 2-3 is not
  // ancestor-descendant.
  EliminationForest star({-1, 0, 0, 0});
  EXPECT_FALSE(star.valid_for(g));
}

/// The quadratic scorer BalancedBuilder replaced, kept as its reference:
/// every candidate root is tried and the rest flooded. Same rule (smaller
/// id on ties) and the same two modes.
struct QuadraticReference {
  const Graph& g;
  std::vector<VertexId>& parent;
  std::optional<long> budget;
  int over_budget = 0, no_root = 0;  // failures by kind

  /// Components of the unplaced vertices of `from` other than `skip`, each
  /// sorted, ordered by least vertex (`from` ascending).
  std::vector<std::vector<VertexId>> components(
      const std::vector<VertexId>& from, VertexId skip) const {
    std::vector<char> seen(g.num_vertices(), 0);
    if (skip >= 0) seen[skip] = 1;
    std::vector<std::vector<VertexId>> comps;
    for (VertexId s : from) {
      if (seen[s] || parent[s] != kUnplaced) continue;
      std::vector<VertexId> comp{s};
      seen[s] = 1;
      for (std::size_t i = 0; i < comp.size(); ++i)
        for (VertexId w : g.neighbors(comp[i]))
          if (parent[w] == kUnplaced && !seen[w]) {
            seen[w] = 1;
            comp.push_back(w);
          }
      std::sort(comp.begin(), comp.end());
      comps.push_back(std::move(comp));
    }
    return comps;
  }

  bool build(const std::vector<VertexId>& comp, VertexId attach,
             int attach_depth) {
    if (budget && attach_depth + 1 > *budget) return ++over_budget, false;
    VertexId best = -1;
    std::size_t best_score = 0;
    for (VertexId r : comp) {
      if (budget && attach >= 0 && !g.has_edge(r, attach)) continue;
      std::size_t largest = 0;
      for (const auto& c : components(comp, r))
        largest = std::max(largest, c.size());
      if (best < 0 || largest < best_score) {
        best = r;
        best_score = largest;
      }
    }
    if (best < 0) return ++no_root, false;
    parent[best] = attach;
    for (const auto& sub : components(comp, best))
      if (!build(sub, best, attach_depth + 1)) return false;
    return true;
  }
};

/// Seeded small graphs: bounded treedepth, random connected, deep paths,
/// grids, disconnected unions and sparse G(n, p), and graphs with a hub
/// adjacent to about half the vertices.
Graph random_case(int i, gen::Rng& rng) {
  auto uniform = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  switch (i % 7) {
    case 0: return gen::random_bounded_treedepth(uniform(1, 40), uniform(2, 5),
                                                 0.3, rng);
    case 1: return gen::random_connected(uniform(1, 40), uniform(0, 30), rng);
    case 2: return gen::deeppath(uniform(7, 45), 4);
    case 3: return gen::grid(uniform(1, 6), uniform(1, 7));
    case 4: return gen::disjoint_union(
        gen::random_connected(uniform(1, 20), uniform(0, 10), rng),
        gen::random_tree(uniform(1, 20), rng));
    case 5: return gen::erdos_renyi(uniform(1, 40), 0.06, rng);
    default: {
      Graph g = gen::random_tree(uniform(2, 40), rng);
      const VertexId hub = uniform(0, g.num_vertices() - 1);
      for (VertexId v = 0; v < g.num_vertices(); ++v)
        if (v != hub && uniform(0, 1)) g.ensure_edge(hub, v);
      return g;
    }
  }
}

TEST(BalancedBuilder, FreeModeMatchesTheQuadraticReference) {
  gen::Rng rng(2024);
  for (int i = 0; i < 1200; ++i) {
    const Graph g = random_case(i, rng);
    const int n = g.num_vertices();
    std::vector<VertexId> expected(n, kUnplaced), all(n);
    for (VertexId v = 0; v < n; ++v) all[v] = v;
    QuadraticReference ref{g, expected, std::nullopt};
    for (const auto& comp : ref.components(all, -1))
      ASSERT_TRUE(ref.build(comp, -1, 0));
    const EliminationForest forest = balanced_elimination_forest(g);
    ASSERT_EQ(forest.parents(), expected) << "graph " << i;
    EXPECT_TRUE(forest.valid_for(g));
  }
}

TEST(BalancedBuilder, SubgraphModeMatchesTheQuadraticReference) {
  // A random attachment point (or none) at a random depth, a random budget
  // and a random part of the graph placed already; the rest is placed
  // component by component, stopping at the first failure as churn repair
  // does. Both failures, no eligible root and over budget, must occur.
  gen::Rng rng(77);
  auto uniform = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  int over_budget = 0, no_root = 0, succeeded = 0;
  for (int i = 0; i < 1200; ++i) {
    const Graph g = random_case(i, rng);
    const int n = g.num_vertices();
    const long budget = uniform(1, 14);
    const VertexId attach = uniform(0, 4) == 0 ? -1 : uniform(0, n - 1);
    const int attach_depth = attach < 0 ? 0 : uniform(0, 3);
    std::vector<VertexId> start(n, kUnplaced), all(n);
    for (VertexId v = 0; v < n; ++v) {
      all[v] = v;
      if (v == attach || uniform(0, 9) == 0) start[v] = -1;
    }
    std::vector<VertexId> expected = start, actual = start;
    QuadraticReference ref{g, expected, budget};
    BalancedBuilder builder(g, actual, budget);
    bool ok = true;
    for (const auto& comp : ref.components(all, -1)) {
      ok = ref.build(comp, attach, attach_depth);
      ASSERT_EQ(builder.place(comp.front(), attach, attach_depth), ok)
          << "graph " << i;
      if (!ok) break;
    }
    if (ok) {
      ASSERT_EQ(actual, expected) << "graph " << i;
    }
    succeeded += ok;
    over_budget += ref.over_budget;
    no_root += ref.no_root;
  }
  EXPECT_GT(succeeded, 100);
  EXPECT_GT(over_budget, 100);
  EXPECT_GT(no_root, 100);
}

TEST(BalancedBuilder, TiesGoToTheSmallerIdNotTheDfsOrder) {
  // The path 0 - 3 - 1 - 2: removing 3 or 1 both leave a largest component
  // of 2. A search from 0 meets 3 first; the rule picks 1.
  Graph g(4);
  g.add_edge(0, 3);
  g.add_edge(3, 1);
  g.add_edge(1, 2);
  EXPECT_EQ(balanced_elimination_forest(g).parents(),
            (std::vector<VertexId>{1, -1, 1, 0}));
}

TEST(ExactTreedepth, KnownValues) {
  EXPECT_EQ(exact_treedepth(Graph(1)), 1);
  EXPECT_EQ(exact_treedepth(gen::clique(4)), 4);
  EXPECT_EQ(exact_treedepth(gen::star(5)), 2);
  EXPECT_EQ(exact_treedepth(gen::cycle(4)), 3);
  // td(P_n) = ceil(log2(n+1)) (paper, Section 2)
  for (int n = 1; n <= 16; ++n) {
    const int expected = static_cast<int>(std::ceil(std::log2(n + 1)));
    EXPECT_EQ(exact_treedepth(gen::path(n)), expected) << "P_" << n;
  }
}

TEST(ExactTreedepth, DisconnectedTakesMax) {
  const Graph g = gen::disjoint_union(gen::clique(3), gen::path(2));
  EXPECT_EQ(exact_treedepth(g), 3);
}

TEST(ExactTreedepthForest, ForestIsValidAndOptimal) {
  gen::Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = gen::random_connected(9, 4, rng);
    const auto [td, forest] = exact_treedepth_forest(g);
    EXPECT_TRUE(forest.valid_for(g));
    EXPECT_EQ(forest.depth(), td);
  }
}

TEST(GreedyEliminationTree, ValidSubtreeWithinDepthBound) {
  gen::Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    const Graph g = gen::random_connected(12, 6, rng);
    const int td = exact_treedepth(g);
    const auto forest = greedy_elimination_tree(g, (1 << td) - 1);
    ASSERT_TRUE(forest.has_value()) << "td=" << td;
    EXPECT_TRUE(forest->valid_for(g));
    EXPECT_TRUE(forest->is_subgraph_of(g));
    // Lemma 2.5: depth < 2^td
    EXPECT_LT(forest->depth(), 1 << td);
  }
}

TEST(GreedyEliminationTree, ReportsWhenDepthBoundExceeded) {
  // P_15 has treedepth 4; an elimination tree that is a subtree of a path
  // rooted at an endpoint is the path itself (depth 15), so with the budget
  // for d=2 (max depth 3) the construction must give up.
  const auto forest = greedy_elimination_tree(gen::path(15), (1 << 2) - 1);
  EXPECT_FALSE(forest.has_value());
}

TEST(GreedyEliminationTree, HandlesSingleVertex) {
  const auto forest = greedy_elimination_tree(Graph(1), 1);
  ASSERT_TRUE(forest.has_value());
  EXPECT_EQ(forest->depth(), 1);
}

TEST(GreedyEliminationTree, RejectsDisconnected) {
  EXPECT_THROW(
      greedy_elimination_tree(gen::disjoint_union(gen::path(2), gen::path(2)), 10),
      std::invalid_argument);
}

}  // namespace
}  // namespace dmc
