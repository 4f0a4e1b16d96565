// The fold's plan cache (dist::PlanCache, src/dist/local.hpp) shares one
// compiled node plan between every vertex whose bag has the same shape.
// These cases check that its key is exact: for every vertex of a run, the
// shared plan equals a plan compiled afresh from that vertex's own local
// graph, node for node. The graphs cover a deep tree, a broad one,
// labels and weights, and a hub whose local indices exceed 255.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <numeric>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "bpt/plan.hpp"
#include "churn/engine.hpp"
#include "congest/network.hpp"
#include "dist/bags.hpp"
#include "dist/elim_tree.hpp"
#include "dist/local.hpp"
#include "graph/generators.hpp"
#include "mso/parser.hpp"

namespace dmc::dist {
namespace {

std::vector<VertexId> terminals(const bpt::Plan& plan, int node) {
  const auto t = plan.terminals(node);
  return {t.begin(), t.end()};
}

/// Rows of a node's gluing matrix (none for a K1, K2 or Input node).
std::vector<std::array<int, 2>> matrix_rows(const bpt::Plan& plan, int node) {
  return plan.at(node).kind == bpt::PlanNode::Kind::Glue
             ? plan.matrix(node).rows
             : std::vector<std::array<int, 2>>{};
}

void expect_same_plan(const bpt::Plan& cached, const bpt::Plan& fresh,
                      int v) {
  ASSERT_EQ(cached.nodes.size(), fresh.nodes.size()) << "v=" << v;
  EXPECT_EQ(cached.root, fresh.root) << "v=" << v;
  EXPECT_EQ(cached.num_inputs, fresh.num_inputs) << "v=" << v;
  for (int i = 0; i < static_cast<int>(fresh.nodes.size()); ++i) {
    const bpt::PlanNode& a = cached.nodes[i];
    const bpt::PlanNode& b = fresh.nodes[i];
    EXPECT_EQ(a.kind, b.kind) << "v=" << v << " node " << i;
    EXPECT_EQ(a.v, b.v) << "v=" << v << " node " << i;
    EXPECT_EQ(a.w, b.w) << "v=" << v << " node " << i;
    EXPECT_EQ(a.e, b.e) << "v=" << v << " node " << i;
    EXPECT_EQ(a.input, b.input) << "v=" << v << " node " << i;
    EXPECT_EQ(a.left, b.left) << "v=" << v << " node " << i;
    EXPECT_EQ(a.right, b.right) << "v=" << v << " node " << i;
    EXPECT_EQ(matrix_rows(cached, i), matrix_rows(fresh, i))
        << "v=" << v << " node " << i;
    EXPECT_EQ(terminals(cached, i), terminals(fresh, i))
        << "v=" << v << " node " << i;
  }
}

/// Vertex v's context through `plans`, as the fold builds it, with its
/// plan checked against one compiled afresh from its own local graph.
LocalContext checked_context(const congest::Network& net,
                             const ElimTreeResult& tree,
                             const std::vector<LocalBag>& bags, int v,
                             PlanCache& plans,
                             const std::vector<std::string>& vlabels = {},
                             const std::vector<std::string>& elabels = {}) {
  std::vector<VertexId> children;
  for (int c : tree.children[v]) children.push_back(net.id_of_vertex(c));
  LocalContext ctx =
      make_local_context(bags[v], children, vlabels, elabels, plans);
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
  return ctx;
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
  for (int v = 0; v < net.n(); ++v)
    distinct.insert(
        checked_context(net, tree, bags.bags, v, plans, vlabels, elabels)
            .plan.get());
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
  int widest = 0;
  for (VertexId v = 0; v < net.n(); ++v)
    widest = std::max(widest, tree.children.count(v));
  EXPECT_GE(widest, 299);
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
  EXPECT_EQ(terminals(*ba.plan, 0), (std::vector<VertexId>{0, 2, 3}));
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
  EXPECT_EQ(terminals(*y.plan, y.plan->root), std::vector<VertexId>{256});
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

/// Shapes of every vertex of the churn engine's current tree that `plans`
/// does not hold yet, and each vertex's plan checked against a fresh
/// compile. `held` maps a vertex whose shape `plans` held to that plan.
std::size_t probe_engine_tree(const churn::ChurnEngine& engine,
                              PlanCache plans,
                              std::vector<const bpt::Plan*>* held) {
  // Ids are the identity (id_seed 0), as in the engine's own network.
  const congest::Network net(engine.graph());
  const ElimTreeResult& tree = *engine.tree();
  const std::vector<LocalBag> bags = churn::bags_for_tree(net, tree, {}, {});
  std::set<const bpt::Plan*> compiled;  // by this probe, not held
  if (held != nullptr) held->assign(net.n(), nullptr);
  for (int v = 0; v < net.n(); ++v) {
    const std::size_t size = plans.size();
    const LocalContext ctx = checked_context(net, tree, bags, v, plans);
    if (plans.size() != size) compiled.insert(ctx.plan.get());
    if (held != nullptr && !compiled.count(ctx.plan.get()))
      (*held)[v] = ctx.plan.get();
  }
  return compiled.size();
}

TEST(PlanCache, ChurnEpochsCompileEachShapeOnce) {
  // A churn engine keeps its plans across epochs (dist::FoldCache): init
  // compiles one plan per shape of its tree, and an edge epoch compiles
  // only shapes no earlier epoch met. A plan already held is reused as
  // the same object, and still equals a fresh compile.
  gen::Rng rng(3);
  const Graph g = gen::random_bounded_treedepth(300, 3, 0.25, rng);
  churn::Options opts;
  opts.d = 4;
  opts.verify = false;
  churn::ChurnEngine engine(
      g,
      Query{Kind::kDecision,
            mso::parse("!exists vertex x, y, z. adj(x,y) & adj(y,z) & "
                       "adj(x,z)")},
      opts);
  ASSERT_TRUE(engine.init().ok());
  const PlanCache& plans = engine.fold_cache().plans;
  EXPECT_EQ(plans.size(), probe_engine_tree(engine, PlanCache{}, nullptr));
  EXPECT_EQ(probe_engine_tree(engine, plans, nullptr), 0u);

  std::mt19937_64 pick(3);
  std::vector<churn::ChurnEvent> deleted;
  int incremental = 0;
  for (int epoch = 0; epoch < 40; ++epoch) {
    const PlanCache before = plans;
    churn::ChurnEvent ev;
    if (!deleted.empty() && (deleted.size() >= 4 || pick() % 2 == 0)) {
      ev = deleted.back();
      deleted.pop_back();
      ev.kind = churn::ChurnEvent::Kind::kAddEdge;
    } else {
      const Graph& cur = engine.graph();
      ev.kind = churn::ChurnEvent::Kind::kDelEdge;
      const Edge e = cur.edge(static_cast<EdgeId>(pick() % cur.num_edges()));
      ev.u = e.u;
      ev.v = e.v;
      deleted.push_back(ev);
    }
    churn::StepOutcome out;
    try {
      out = engine.step({ev});
    } catch (const std::invalid_argument&) {  // a bridge: graph unchanged
      deleted.pop_back();
      continue;
    }
    ASSERT_TRUE(out.ok()) << "epoch " << epoch;
    incremental += out.status != churn::StepStatus::kRecomputed;
    std::vector<const bpt::Plan*> held_before, held_after;
    const std::size_t unseen = probe_engine_tree(engine, before, &held_before);
    // A replaying vertex's shape is the one it last folded with, so the
    // kept plans cover every vertex of the tree.
    EXPECT_EQ(probe_engine_tree(engine, plans, &held_after), 0u)
        << "epoch " << epoch;
    EXPECT_GE(plans.size(), before.size()) << "epoch " << epoch;
    EXPECT_LE(plans.size() - before.size(), unseen) << "epoch " << epoch;
    for (std::size_t v = 0; v < held_before.size(); ++v) {
      if (held_before[v] == nullptr) continue;
      EXPECT_EQ(held_after[v], held_before[v])
          << "epoch " << epoch << " recompiled the plan of vertex " << v;
    }
  }
  EXPECT_GE(incremental, 20);
}

}  // namespace
}  // namespace dmc::dist
