#include "graph/graph.hpp"

#include <gtest/gtest.h>

namespace dmc {
namespace {

TEST(Graph, EmptyGraph) {
  Graph g;
  EXPECT_EQ(g.num_vertices(), 0);
  EXPECT_EQ(g.num_edges(), 0);
}

TEST(Graph, AddVerticesAndEdges) {
  Graph g(3);
  EXPECT_EQ(g.num_vertices(), 3);
  const EdgeId e = g.add_edge(0, 1);
  EXPECT_EQ(e, 0);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_EQ(g.degree(0), 1);
  EXPECT_EQ(g.degree(2), 0);
  const VertexId first = g.add_vertices(2);
  EXPECT_EQ(first, 3);
  EXPECT_EQ(g.num_vertices(), 5);
}

TEST(Graph, EdgeEndpointsNormalized) {
  Graph g(4);
  const EdgeId e = g.add_edge(3, 1);
  EXPECT_EQ(g.edge(e).u, 1);
  EXPECT_EQ(g.edge(e).v, 3);
  EXPECT_EQ(g.edge(e).other(1), 3);
  EXPECT_EQ(g.edge(e).other(3), 1);
  EXPECT_THROW(g.edge(e).other(0), std::invalid_argument);
}

TEST(Graph, RejectsLoopsAndDuplicates) {
  Graph g(3);
  EXPECT_THROW(g.add_edge(1, 1), std::invalid_argument);
  g.add_edge(0, 1);
  EXPECT_THROW(g.add_edge(1, 0), std::invalid_argument);
  EXPECT_THROW(g.add_edge(0, 7), std::out_of_range);
}

TEST(Graph, EnsureEdgeIsIdempotent) {
  Graph g(3);
  const EdgeId e1 = g.ensure_edge(0, 2);
  const EdgeId e2 = g.ensure_edge(2, 0);
  EXPECT_EQ(e1, e2);
  EXPECT_EQ(g.num_edges(), 1);
}

TEST(Graph, Labels) {
  Graph g(3);
  const EdgeId e = g.add_edge(0, 1);
  EXPECT_FALSE(g.vertex_has_label("red", 0));
  g.set_vertex_label("red", 0);
  EXPECT_TRUE(g.vertex_has_label("red", 0));
  EXPECT_FALSE(g.vertex_has_label("red", 1));
  g.set_vertex_label("red", 0, false);
  EXPECT_FALSE(g.vertex_has_label("red", 0));
  g.set_edge_label("mark", e);
  EXPECT_TRUE(g.edge_has_label("mark", e));
  EXPECT_EQ(g.vertex_label_names().size(), 1u);
  EXPECT_EQ(g.edge_label_names().size(), 1u);
}

TEST(Graph, LabelsSurviveVertexGrowth) {
  Graph g(2);
  g.set_vertex_label("red", 1);
  g.add_vertices(3);
  EXPECT_TRUE(g.vertex_has_label("red", 1));
  EXPECT_FALSE(g.vertex_has_label("red", 4));
}

TEST(Graph, Weights) {
  Graph g(2);
  const EdgeId e = g.add_edge(0, 1);
  EXPECT_EQ(g.vertex_weight(0), 1);  // default
  EXPECT_EQ(g.edge_weight(e), 1);
  g.set_vertex_weight(0, -5);
  g.set_edge_weight(e, 42);
  EXPECT_EQ(g.vertex_weight(0), -5);
  EXPECT_EQ(g.edge_weight(e), 42);
}

TEST(Graph, InducedSubgraph) {
  Graph g(5);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 4);
  g.add_edge(0, 4);
  g.set_vertex_weight(2, 7);
  g.set_vertex_label("red", 2);
  const EdgeId e12 = g.edge_id(1, 2);
  g.set_edge_weight(e12, 9);
  g.set_edge_label("mark", e12);

  std::vector<VertexId> old_to_new;
  Graph sub = g.induced_subgraph({1, 2, 3}, &old_to_new);
  EXPECT_EQ(sub.num_vertices(), 3);
  EXPECT_EQ(sub.num_edges(), 2);
  EXPECT_TRUE(sub.has_edge(0, 1));  // 1-2
  EXPECT_TRUE(sub.has_edge(1, 2));  // 2-3
  EXPECT_EQ(old_to_new[1], 0);
  EXPECT_EQ(old_to_new[0], -1);
  EXPECT_EQ(sub.vertex_weight(1), 7);
  EXPECT_TRUE(sub.vertex_has_label("red", 1));
  const EdgeId ne = sub.edge_id(0, 1);
  EXPECT_EQ(sub.edge_weight(ne), 9);
  EXPECT_TRUE(sub.edge_has_label("mark", ne));
}

TEST(Graph, InducedSubgraphRejectsDuplicates) {
  Graph g(3);
  EXPECT_THROW(g.induced_subgraph({0, 0}), std::invalid_argument);
}

TEST(Graph, Neighbors) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(0, 3);
  const auto nb = g.neighbors(0);
  EXPECT_EQ(nb.size(), 3u);
}

/// A copy of `g` rebuilt edge by edge without edge `skip`: the order
/// remove_edge must reproduce.
Graph rebuilt_without(const Graph& g, EdgeId skip) {
  Graph out(g.num_vertices());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (e == skip) continue;
    const EdgeId ne = out.add_edge(g.edge(e).u, g.edge(e).v);
    out.set_edge_weight(ne, g.edge_weight(e));
    if (g.edge_has_label("mark", e)) out.set_edge_label("mark", ne);
  }
  return out;
}

TEST(Graph, RemoveEdgeMatchesARebuiltCopy) {
  // A dense graph drives long probe runs in the hash index, so the
  // backward-shift deletion is exercised across wrapped runs too.
  Graph g(40);
  for (int u = 0; u < 40; ++u)
    for (int v = u + 1; v < 40; ++v)
      if ((u * 7 + v * 13) % 3 != 0) {
        const EdgeId e = g.add_edge(u, v);
        g.set_edge_weight(e, u * 100 + v);
        if ((u + v) % 4 == 0) g.set_edge_label("mark", e);
      }
  unsigned x = 12345;
  while (g.num_edges() > 0) {
    x = x * 1103515245u + 12345u;
    const EdgeId skip = static_cast<EdgeId>((x >> 8) % g.num_edges());
    const Graph want = rebuilt_without(g, skip);
    const Edge gone = g.edge(skip);
    g.remove_edge(skip);
    ASSERT_EQ(g.num_edges(), want.num_edges());
    EXPECT_FALSE(g.has_edge(gone.u, gone.v));
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      ASSERT_EQ(g.edge(e).u, want.edge(e).u);
      ASSERT_EQ(g.edge(e).v, want.edge(e).v);
      ASSERT_EQ(g.edge_id(g.edge(e).u, g.edge(e).v), e);
      ASSERT_EQ(g.edge_weight(e), want.edge_weight(e));
      ASSERT_EQ(g.edge_has_label("mark", e), want.edge_has_label("mark", e));
    }
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      ASSERT_EQ(g.degree(v), want.degree(v));
      const auto got = g.incident(v), exp = want.incident(v);
      for (std::size_t p = 0; p < got.size(); ++p) {
        ASSERT_EQ(got[p], exp[p]);
        ASSERT_EQ(g.port_of(v, got[p].first), static_cast<int>(p));
      }
    }
  }
  EXPECT_THROW(g.remove_edge(0), std::out_of_range);
  // Removed pairs can be added again.
  EXPECT_EQ(g.add_edge(3, 4), 0);
  EXPECT_TRUE(g.has_edge(4, 3));
}

}  // namespace
}  // namespace dmc
