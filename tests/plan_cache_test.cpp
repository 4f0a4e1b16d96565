// The fold's plan cache (dist::PlanCache, src/dist/local.hpp) shares one
// compiled node plan between every vertex whose bag has the same shape.
// These cases check that its key is exact: for every vertex of a run, the
// shared plan equals a plan compiled afresh from that vertex's own local
// graph, node for node. The graphs cover a deep tree, a broad one,
// labels and weights, and a hub whose local indices exceed 255.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "bpt/plan.hpp"
#include "congest/network.hpp"
#include "dist/bags.hpp"
#include "dist/elim_tree.hpp"
#include "dist/local.hpp"
#include "graph/generators.hpp"

namespace dmc::dist {
namespace {

void expect_same_plan(const bpt::Plan& cached, const bpt::Plan& fresh,
                      int v) {
  ASSERT_EQ(cached.nodes.size(), fresh.nodes.size()) << "v=" << v;
  EXPECT_EQ(cached.root, fresh.root) << "v=" << v;
  EXPECT_EQ(cached.num_inputs, fresh.num_inputs) << "v=" << v;
  for (std::size_t i = 0; i < fresh.nodes.size(); ++i) {
    const bpt::PlanNode& a = cached.nodes[i];
    const bpt::PlanNode& b = fresh.nodes[i];
    EXPECT_EQ(a.kind, b.kind) << "v=" << v << " node " << i;
    EXPECT_EQ(a.v, b.v) << "v=" << v << " node " << i;
    EXPECT_EQ(a.w, b.w) << "v=" << v << " node " << i;
    EXPECT_EQ(a.e, b.e) << "v=" << v << " node " << i;
    EXPECT_EQ(a.input, b.input) << "v=" << v << " node " << i;
    EXPECT_EQ(a.left, b.left) << "v=" << v << " node " << i;
    EXPECT_EQ(a.right, b.right) << "v=" << v << " node " << i;
    EXPECT_EQ(a.op.rows, b.op.rows) << "v=" << v << " node " << i;
    EXPECT_EQ(a.terminals, b.terminals) << "v=" << v << " node " << i;
  }
}

/// Builds every vertex's context through one cache, as the fold does, and
/// checks each shared plan against a fresh one. Returns the number of
/// distinct plans. A nonzero `id_seed` permutes the ids, so children
/// (in vertex order) are no longer in local (id) order.
std::size_t check_every_vertex(const Graph& g, int d,
                               const std::vector<std::string>& vlabels = {},
                               const std::vector<std::string>& elabels = {},
                               unsigned id_seed = 0) {
  congest::Network net(g, {.id_seed = id_seed});
  const ElimTreeResult tree = run_elim_tree(net, d);
  EXPECT_TRUE(tree.success);
  if (!tree.success) return 0;
  const BagsResult bags = run_bags(net, tree, vlabels, elabels);
  EXPECT_TRUE(bags.run.ok());
  if (!bags.run.ok()) return 0;
  PlanCache plans;
  std::set<const bpt::Plan*> distinct;
  for (int v = 0; v < net.n(); ++v) {
    std::vector<VertexId> children;
    for (int c : tree.children[v]) children.push_back(net.id_of_vertex(c));
    const LocalContext ctx =
        make_local_context(bags.bags[v], children, vlabels, elabels, plans);
    std::vector<std::vector<VertexId>> child_bags;
    for (VertexId c : children) {
      std::vector<VertexId> cb = ctx.bag_local;
      cb.push_back(ctx.local_of(c));
      std::sort(cb.begin(), cb.end());
      child_bags.push_back(std::move(cb));
    }
    const bpt::Plan fresh =
        bpt::build_node_plan(ctx.graph, ctx.bag_local, child_bags);
    expect_same_plan(*ctx.plan, fresh, v);
    distinct.insert(ctx.plan.get());
  }
  EXPECT_EQ(distinct.size(), plans.size());
  return plans.size();
}

TEST(PlanCache, DeepPathPlansEqualFreshPlans) {
  const Graph g = gen::deeppath(2000, 4);
  const std::size_t shapes = check_every_vertex(g, 4);
  EXPECT_GT(shapes, 0u);
  EXPECT_LT(shapes, 100u);  // 2000 vertices, a handful of bag shapes
}

TEST(PlanCache, SpiderPlansEqualFreshPlans) {
  const Graph g = gen::spider(4, 40);
  EXPECT_GT(check_every_vertex(g, 4), 0u);
}

TEST(PlanCache, LabelledWeightedRandomPlansEqualFreshPlans) {
  gen::Rng rng(5);
  Graph g = gen::random_bounded_treedepth(200, 3, 0.4, rng);
  gen::randomize_weights(g, -3, 9, rng);
  for (VertexId v = 0; v < g.num_vertices(); v += 3)
    g.set_vertex_label("red", v);
  for (EdgeId e = 0; e < g.num_edges(); e += 2) g.set_edge_label("mark", e);
  EXPECT_GT(check_every_vertex(g, 3, {"red"}, {"mark"}), 0u);
  EXPECT_GT(check_every_vertex(g, 3, {"red"}, {"mark"}, 7), 0u);
}

TEST(PlanCache, StarHubPlansEqualFreshPlans) {
  // The hub's context holds its 299 or 300 children: local indices past
  // 255, which a byte-packed key would fold onto smaller ones.
  const Graph g = gen::star(300);
  congest::Network net(g);
  const ElimTreeResult tree = run_elim_tree(net, 2);
  ASSERT_TRUE(tree.success);
  std::size_t widest = 0;
  for (const auto& kids : tree.children)
    widest = std::max(widest, kids.size());
  EXPECT_GE(widest, 299u);
  EXPECT_GT(check_every_vertex(g, 2), 0u);
}

TEST(PlanCache, DeepPath10000HasFourteenShapes) {
  // The perfbench deeppath-decide graph's size class: 10^4 contexts, 14
  // compiled plans.
  EXPECT_EQ(check_every_vertex(gen::deeppath(10000, 4), 4), 14u);
}

TEST(PlanCache, SameShapeAtOtherIdsSharesOnePlan) {
  // Two bags {a, b} with edge a-b and one child between them, at
  // different global ids: one shape, one plan.
  auto bag_of = [](VertexId a, VertexId b) {
    LocalBag bag;
    bag.bag = {a, b};
    bag.weights = {1, 2};
    bag.vlabel_bits = {0, 0};
    bag.edges.push_back({0, 1, 1, 0});
    return bag;
  };
  PlanCache plans;
  const LocalContext x = make_local_context(bag_of(3, 9), {5}, {}, {}, plans);
  const LocalContext y =
      make_local_context(bag_of(100, 400), {250}, {}, {}, plans);
  EXPECT_EQ(x.plan.get(), y.plan.get());
  // The child above both bag members is another shape.
  const LocalContext z = make_local_context(bag_of(3, 9), {12}, {}, {}, plans);
  EXPECT_NE(x.plan.get(), z.plan.get());
  // So is the same bag without its edge.
  LocalBag bare = bag_of(3, 9);
  bare.edges.clear();
  const LocalContext w = make_local_context(bare, {5}, {}, {}, plans);
  EXPECT_NE(x.plan.get(), w.plan.get());
  // Input i is child i, so the children's order is part of the shape.
  const LocalContext ab =
      make_local_context(bag_of(3, 9), {5, 12}, {}, {}, plans);
  const LocalContext ba =
      make_local_context(bag_of(3, 9), {12, 5}, {}, {}, plans);
  EXPECT_NE(ab.plan.get(), ba.plan.get());
  EXPECT_EQ(ba.plan->at(0).terminals, (std::vector<VertexId>{0, 2, 3}));
  EXPECT_EQ(plans.size(), 5u);
}

TEST(PlanCache, LocalIndicesPast255KeyExactly) {
  // Bag {0} below 256 children, then bag {300} above 256 children given
  // in the order 1, ..., 255, 0. Every key entry agrees modulo 256, so
  // only a key that keeps whole indices tells the two shapes apart.
  auto lone = [](VertexId id) {
    LocalBag bag;
    bag.bag = {id};
    bag.weights = {1};
    bag.vlabel_bits = {0};
    return bag;
  };
  std::vector<VertexId> above(256), below(256);
  std::iota(above.begin(), above.end(), 1);
  std::iota(below.begin(), below.end(), 1);
  below.back() = 0;
  PlanCache plans;
  const LocalContext x = make_local_context(lone(0), above, {}, {}, plans);
  const LocalContext y = make_local_context(lone(300), below, {}, {}, plans);
  EXPECT_NE(x.plan.get(), y.plan.get());
  EXPECT_EQ(y.plan->at(y.plan->root).terminals,
            std::vector<VertexId>{256});
}

TEST(PlanCache, ChildInsideTheBagThrowsAfterTheValidShapeIsCached) {
  // A verifier can be handed a child that is already a bag member; its
  // plan cannot be built. Cached first: bag {3, 9} with edge 3-9 and
  // child 5. Then bag {3, 5, 9} with the same edge and child 5: the same
  // local vertex count, edges and child index, a different bag.
  LocalBag valid;
  valid.bag = {3, 9};
  valid.weights = {1, 1};
  valid.vlabel_bits = {0, 0};
  valid.edges.push_back({0, 1, 1, 0});
  LocalBag invalid;
  invalid.bag = {3, 5, 9};
  invalid.weights = {1, 1, 1};
  invalid.vlabel_bits = {0, 0, 0};
  invalid.edges.push_back({0, 2, 1, 0});
  PlanCache plans;
  make_local_context(valid, {5}, {}, {}, plans);
  EXPECT_THROW(make_local_context(invalid, {5}, {}, {}, plans),
               std::invalid_argument);
  EXPECT_EQ(plans.size(), 1u);
}

}  // namespace
}  // namespace dmc::dist
