// End-to-end distributed protocol tests (Theorem 6.1 and Section 6):
// decision, optimization, counting, optmarked, bags, baseline — all checked
// against the sequential reference / exact oracles.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "congest/network.hpp"
#include "dist/bags.hpp"
#include "dist/baseline.hpp"
#include "dist/elim_tree.hpp"
#include "dist/query.hpp"
#include "graph/algorithms.hpp"
#include "graph/exact.hpp"
#include "graph/generators.hpp"
#include "mso/eval.hpp"
#include "mso/formulas.hpp"
#include "mso/lower.hpp"
#include "seq/courcelle.hpp"
#include "td/elimination_forest.hpp"

namespace dmc::dist {
namespace {

using mso::Sort;
namespace lib = mso::lib;

Graph btd_graph(unsigned seed, int n = 10, int d = 3, double p = 0.4) {
  gen::Rng rng(seed);
  return gen::random_bounded_treedepth(n, d, p, rng);
}

// --- bags (Lemma 5.3) ---------------------------------------------------------

TEST(DistBags, BagsMatchCanonicalDecomposition) {
  for (unsigned seed = 0; seed < 4; ++seed) {
    const Graph g = btd_graph(seed);
    congest::Network net(g, {.id_seed = seed});
    const auto tree = run_elim_tree(net, 3);
    ASSERT_TRUE(tree.success);
    const auto bags = run_bags(net, tree, {}, {});
    const EliminationForest forest(tree.parent);
    for (int v = 0; v < g.num_vertices(); ++v) {
      // Expected bag: ids of the root path of v.
      std::vector<VertexId> expected;
      for (VertexId u : forest.root_path(v))
        expected.push_back(net.id_of_vertex(u));
      std::sort(expected.begin(), expected.end());
      EXPECT_EQ(bags.bags[v].bag, expected) << "v=" << v;
      // Edges of G[B_v] present.
      int expected_edges = 0;
      for (std::size_t i = 0; i < expected.size(); ++i)
        for (std::size_t j = i + 1; j < expected.size(); ++j)
          if (g.has_edge(net.vertex_of_id(expected[i]),
                         net.vertex_of_id(expected[j])))
            ++expected_edges;
      EXPECT_EQ(static_cast<int>(bags.bags[v].edges.size()), expected_edges);
    }
  }
}

TEST(DistBags, CarriesWeightsAndLabels) {
  Graph g = gen::path(4);
  g.set_vertex_weight(0, 7);
  g.set_vertex_label("red", 0);
  g.set_edge_weight(g.edge_id(0, 1), 5);
  g.set_edge_label("mark", g.edge_id(0, 1));
  congest::Network net(g);
  const auto tree = run_elim_tree(net, 3);
  ASSERT_TRUE(tree.success);
  const auto bags = run_bags(net, tree, {"red"}, {"mark"});
  // Deepest node's bag contains everything on its root path; find a vertex
  // whose bag contains vertex 0 and check the attributes survived.
  bool checked_vertex = false, checked_edge = false;
  for (int v = 0; v < g.num_vertices(); ++v) {
    const auto& b = bags.bags[v];
    for (std::size_t i = 0; i < b.bag.size(); ++i) {
      if (net.vertex_of_id(b.bag[i]) == 0) {
        EXPECT_EQ(b.weights[i], 7);
        EXPECT_EQ(b.vlabel_bits[i], 1u);
        checked_vertex = true;
      }
    }
    for (const auto& e : b.edges) {
      const int a = net.vertex_of_id(b.bag[e.i]);
      const int bb = net.vertex_of_id(b.bag[e.j]);
      if ((a == 0 && bb == 1) || (a == 1 && bb == 0)) {
        EXPECT_EQ(e.weight, 5);
        EXPECT_EQ(e.elabel_bits, 1u);
        checked_edge = true;
      }
    }
  }
  EXPECT_TRUE(checked_vertex);
  EXPECT_TRUE(checked_edge);
}

// --- decision (Theorem 6.1) ----------------------------------------------------

// A library formula with its name. Printing shows the name only, so the test
// names ctest discovers hold no pointer values and stay the same from one
// build to the next.
struct NamedFormula {
  const char* name;
  mso::FormulaPtr formula;
  friend void PrintTo(const NamedFormula& f, std::ostream* os) {
    *os << f.name;
  }
};

class DistDecision : public ::testing::TestWithParam<NamedFormula> {};

TEST_P(DistDecision, AgreesWithBruteForce) {
  const auto& [name, formula] = GetParam();
  for (unsigned seed = 0; seed < 6; ++seed) {
    const Graph g = btd_graph(seed, 9, 3, 0.35);
    congest::Network net(g, {.id_seed = seed * 13 + 1});
    const auto outcome = run(net, {Kind::kDecision, formula}, 3);
    ASSERT_FALSE(outcome.treedepth_exceeded) << name << " seed=" << seed;
    EXPECT_EQ(outcome.holds, mso::evaluate(g, *formula))
        << name << " seed=" << seed << " " << g.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(
    FormulaLibrary, DistDecision,
    ::testing::Values(
        NamedFormula{"triangle_free", lib::triangle_free()},
        NamedFormula{"connected", lib::connected()},
        NamedFormula{"two_colorable", lib::k_colorable(2)},
        NamedFormula{"isolated_lowrank", lib::has_isolated_vertex_lowrank()}),
    [](const auto& info) { return info.param.name; });

TEST(DistDecisionSuite, AcyclicOnSmallGraphs) {
  for (unsigned seed = 0; seed < 3; ++seed) {
    const Graph g = btd_graph(seed + 50, 6, 2, 0.5);
    congest::Network net(g);
    const auto outcome = run(net, {Kind::kDecision, lib::acyclic()}, 2);
    ASSERT_FALSE(outcome.treedepth_exceeded);
    EXPECT_EQ(outcome.holds, mso::evaluate(g, *lib::acyclic()));
  }
}

TEST(DistDecisionSuite, LabeledColoring) {
  Graph g = gen::star(4);
  g.set_vertex_label("red", 0);
  for (int v = 1; v <= 4; ++v) g.set_vertex_label("blue", v);
  congest::Network net(g);
  const auto ok = run(net, {Kind::kDecision, lib::properly_2_colored()}, 2);
  ASSERT_FALSE(ok.treedepth_exceeded);
  EXPECT_TRUE(ok.holds);

  g.set_vertex_label("blue", 1, false);
  g.set_vertex_label("red", 1);
  congest::Network net2(g);
  const auto bad = run(net2, {Kind::kDecision, lib::properly_2_colored()}, 2);
  EXPECT_FALSE(bad.holds);
}

TEST(DistDecisionSuite, TreedepthBudgetRespected) {
  congest::Network net(gen::path(15));  // td 4
  const auto outcome = run(net, {Kind::kDecision, lib::connected()}, 2);
  EXPECT_TRUE(outcome.treedepth_exceeded);
}

TEST(DistDecisionSuite, RoundsIndependentOfNOnStars) {
  // Theorem 6.1: rounds depend on d and phi only.
  long rounds_small = 0, rounds_large = 0;
  {
    congest::Network net(gen::star(8));
    rounds_small =
        run(net, {Kind::kDecision, lib::connected()}, 2).total_rounds();
  }
  {
    congest::Network net(gen::star(80));
    rounds_large =
        run(net, {Kind::kDecision, lib::connected()}, 2).total_rounds();
  }
  // Bags payloads depend on bag size (= depth <= 4), not on n; identical
  // structure => identical rounds.
  EXPECT_EQ(rounds_small, rounds_large);
}

TEST(DistDecisionSuite, ClassMessagesAreSmall) {
  const Graph g = btd_graph(3, 12, 3, 0.4);
  congest::Network net(g);
  const auto outcome = run(net, {Kind::kDecision, lib::connected()}, 3);
  ASSERT_FALSE(outcome.treedepth_exceeded);
  EXPECT_GT(outcome.num_classes, 0u);
  EXPECT_LE(outcome.max_class_bits, 32);
}

// --- optimization ---------------------------------------------------------------

TEST(DistOptimization, MaxIndependentSetMatchesOracle) {
  for (unsigned seed = 0; seed < 5; ++seed) {
    gen::Rng rng(seed);
    Graph g = gen::random_bounded_treedepth(9, 3, 0.4, rng);
    gen::randomize_weights(g, 1, 5, rng);
    congest::Network net(g, {.id_seed = seed + 1});
    const auto outcome =
        run(net,
            {Kind::kMaximize, lib::independent_set(), {{"S", Sort::VertexSet}}},
            3);
    ASSERT_FALSE(outcome.treedepth_exceeded);
    ASSERT_TRUE(outcome.best_weight.has_value());
    EXPECT_EQ(*outcome.best_weight, exact::max_weight_independent_set(g))
        << "seed=" << seed;
    // Reconstructed set is independent with the claimed weight.
    Weight w = 0;
    for (VertexId v = 0; v < g.num_vertices(); ++v)
      if (outcome.vertices[v]) w += g.vertex_weight(v);
    EXPECT_EQ(w, *outcome.best_weight);
    for (const Edge& e : g.edges())
      EXPECT_FALSE(outcome.vertices[e.u] && outcome.vertices[e.v]);
  }
}

TEST(DistOptimization, MinDominatingSetMatchesOracle) {
  for (unsigned seed = 0; seed < 4; ++seed) {
    const Graph g = btd_graph(seed + 20, 8, 3, 0.35);
    congest::Network net(g);
    const auto outcome =
        run(net,
            {Kind::kMinimize, lib::dominating_set(), {{"S", Sort::VertexSet}}},
            3);
    ASSERT_FALSE(outcome.treedepth_exceeded);
    ASSERT_TRUE(outcome.best_weight.has_value());
    EXPECT_EQ(*outcome.best_weight, exact::min_weight_dominating_set(g));
    // Marked set dominates.
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      bool dominated = outcome.vertices[v];
      for (auto [w, e] : g.incident(v)) dominated |= outcome.vertices[w];
      EXPECT_TRUE(dominated) << "v=" << v;
    }
  }
}

TEST(DistOptimization, DistributedMstMatchesKruskal) {
  for (unsigned seed = 0; seed < 3; ++seed) {
    gen::Rng rng(seed + 40);
    Graph g = gen::random_bounded_treedepth(7, 3, 0.5, rng);
    for (EdgeId e = 0; e < g.num_edges(); ++e)
      g.set_edge_weight(e, 1 + static_cast<Weight>((seed * 7 + e * 13) % 9));
    congest::Network net(g);
    const auto outcome =
        run(net,
            {Kind::kMinimize, lib::spanning_connected(),
             {{"F", Sort::EdgeSet}}}, 3);
    ASSERT_FALSE(outcome.treedepth_exceeded);
    ASSERT_TRUE(outcome.best_weight.has_value());
    EXPECT_EQ(*outcome.best_weight, exact::min_weight_spanning_tree(g));
    std::vector<EdgeId> chosen;
    for (EdgeId e = 0; e < g.num_edges(); ++e)
      if (outcome.edges[e]) chosen.push_back(e);
    EXPECT_TRUE(is_spanning_tree(g, chosen)) << "seed=" << seed;
  }
}

TEST(DistOptimization, InfeasibleFormulaReportsNoSolution) {
  const Graph g = gen::path(4);
  congest::Network net(g);
  const auto f = mso::land(mso::singleton("S"), mso::empty_set("S"));
  const auto outcome =
      run(net, {Kind::kMaximize, f, {{"S", Sort::VertexSet}}}, 3);
  ASSERT_FALSE(outcome.treedepth_exceeded);
  EXPECT_FALSE(outcome.best_weight.has_value());
}

// --- counting -------------------------------------------------------------------

TEST(DistCounting, IndependentSetsMatchOracle) {
  std::vector<Graph> graphs;
  for (unsigned seed = 0; seed < 4; ++seed)
    graphs.push_back(btd_graph(seed + 60, 8, 3, 0.4));
  // 2^32 + 1 and 2^50 + 1 independent sets: totals wider than one
  // 32-bit message, sent down in fragments.
  graphs.push_back(gen::star(32));
  graphs.push_back(gen::star(50));
  for (unsigned i = 0; i < graphs.size(); ++i) {
    const Graph& g = graphs[i];
    congest::Network net(g, {.id_seed = i + 5});
    const Query q{Kind::kCount, lib::independent_set_indicator(),
                  {{"S", Sort::VertexSet}}};
    const auto outcome = run(net, q, 3);
    ASSERT_TRUE(outcome.run.ok()) << "graph " << i;
    ASSERT_FALSE(outcome.treedepth_exceeded);
    EXPECT_EQ(outcome.count, exact::count_independent_sets(g)) << "graph " << i;
  }
}

TEST(DistCounting, TrianglesMatchOracle) {
  for (unsigned seed = 0; seed < 4; ++seed) {
    const Graph g = btd_graph(seed + 70, 8, 3, 0.6);
    congest::Network net(g);
    const auto outcome =
        run(net,
            {Kind::kCount, lib::triangle_tuple(),
             {{"X", Sort::VertexSet},
              {"Y", Sort::VertexSet},
              {"Z", Sort::VertexSet}}},
            3);
    ASSERT_FALSE(outcome.treedepth_exceeded);
    EXPECT_EQ(outcome.count, 6 * exact::count_triangles(g)) << "seed=" << seed;
  }
}

// --- solve seam == full pipeline == sequential oracle ------------------------

class SolveSeam : public ::testing::TestWithParam<Kind> {};

// dist::solve over a tree and bags built by run_elim_tree / run_bags (the
// churn engine's seam) must answer exactly like dist::run and like the
// sequential engine. optmarked marks the sequential optimum, so its oracle
// answer is "satisfies optimal" at that weight.
TEST_P(SolveSeam, SolveEqualsRunAndSequentialOracle) {
  const Kind kind = GetParam();
  Graph g = btd_graph(90, 10, 3, 0.4);
  gen::Rng rng(91);
  gen::randomize_weights(g, 1, 5, rng);
  const std::vector<std::pair<std::string, Sort>> s{{"S", Sort::VertexSet}};
  Query q{kind, lib::independent_set(), s};
  if (kind == Kind::kDecision) q = {kind, lib::triangle_free()};
  if (kind == Kind::kCount) q.formula = lib::independent_set_indicator();
  if (kind == Kind::kMinimize) q.formula = lib::dominating_set();

  Outcome oracle;
  if (kind == Kind::kOptMarked) {
    const auto opt = seq::maximize(g, q.formula, "S", Sort::VertexSet);
    ASSERT_TRUE(opt.has_value());
    for (VertexId v = 0; v < g.num_vertices(); ++v)
      if (opt->vertices[v]) g.set_vertex_label("marked", v);
    oracle.kind = kind;
    oracle.holds = oracle.is_optimal = true;
    oracle.marked_weight = opt->weight;
    oracle.best_weight = opt->weight;
    describe(oracle, 0);
  } else {
    oracle = run_sequential(g, q);
  }

  congest::Network net(g, {.id_seed = 3});
  const auto tree = run_elim_tree(net, 3);
  ASSERT_TRUE(tree.success);
  const auto [vlabels, elabels] = bag_labels(q, universe_key(q).cfg);
  const auto bags = run_bags(net, tree, vlabels, elabels);
  const Outcome solved = solve(net, q, tree, bags.bags);
  ASSERT_TRUE(solved.run.ok());

  congest::Network fresh(g, {.id_seed = 3});
  const Outcome full = run(fresh, q, 3);
  ASSERT_TRUE(full.run.ok());
  EXPECT_EQ(solved.result, full.result);
  EXPECT_EQ(solved.digest, full.digest);
  EXPECT_EQ(solved.rounds_solve, full.rounds_solve);
  EXPECT_EQ(solved.result, oracle.result);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, SolveSeam,
                         ::testing::Values(Kind::kDecision, Kind::kCount,
                                           Kind::kMaximize, Kind::kMinimize,
                                           Kind::kOptMarked),
                         [](const ::testing::TestParamInfo<Kind>& info) {
                           return std::string(phase_name(info.param));
                         });

// --- free variables ---------------------------------------------------------

// A free variable declared twice has no slot layout: folded anyway, the
// count on path:4 comes out 0 (S:vset,S:eset) or 240 (S:vset,S:vset),
// where the answer over the one variable S is 15. The library rejects it
// wherever a query enters, not only in the dmc/dmcd text grammar.
TEST(FreeVariables, DeclaredTwiceIsRejected) {
  const Graph g = gen::path(4);
  const auto rejects = [](const auto& call) {
    try {
      call();
    } catch (const std::invalid_argument& e) {
      return std::string(e.what()).find("'S' declared twice") !=
             std::string::npos;
    }
    return false;
  };
  for (const Sort again : {Sort::VertexSet, Sort::EdgeSet}) {
    const Query q{Kind::kCount, lib::independent_set_indicator(),
                  {{"S", Sort::VertexSet}, {"S", again}}};
    EXPECT_TRUE(rejects([&] { mso::lower(q.formula, q.frees); }));
    EXPECT_TRUE(rejects([&] { run_sequential(g, q); }));
    congest::Network net(g);
    EXPECT_TRUE(rejects([&] { run(net, q, 3); }));
  }
}

// A replaying vertex reads neither its bag nor its bag graph (Lemma 4.3):
// with a FoldCache, bags left empty off the refold set answer exactly like
// the full bag set, and a vertex that must fold without a bag is a logic
// error, never a fold of the wrong graph.
TEST(SolveCache, ReplayingVerticesNeedNoBag) {
  for (const Kind kind : {Kind::kDecision, Kind::kCount}) {
    const Query q =
        kind == Kind::kDecision
            ? Query{kind, lib::triangle_free()}
            : Query{kind, lib::independent_set_indicator(),
                    {{"S", Sort::VertexSet}}};
    const Graph g = btd_graph(93, 14, 3, 0.4);
    congest::Network net(g, {.id_seed = 5});
    const auto tree = run_elim_tree(net, 3);
    ASSERT_TRUE(tree.success);
    // Cached class ids need one engine.
    bpt::Engine engine(universe_key(q).cfg);
    const auto [vlabels, elabels] = bag_labels(q, engine.config());
    const std::vector<LocalBag> bags =
        run_bags(net, tree, vlabels, elabels).bags;
    FoldCache warm;
    warm.reset(g.num_vertices());
    const Outcome first = solve(net, q, tree, bags, &engine, &warm);
    ASSERT_TRUE(first.run.ok());

    // Refold one leaf's root path; every other vertex replays.
    int leaf = 0;
    while (!tree.children[leaf].empty()) ++leaf;
    FoldCache with_all = warm, with_few = warm;
    std::vector<LocalBag> few(bags.size());
    for (int x = leaf; x >= 0; x = tree.parent[x]) {
      with_all.refold[x] = with_few.refold[x] = 1;
      few[x] = bags[x];
    }
    const Outcome all = solve(net, q, tree, bags, &engine, &with_all);
    const Outcome masked = solve(net, q, tree, few, &engine, &with_few);
    ASSERT_TRUE(all.run.ok());
    ASSERT_TRUE(masked.run.ok());
    EXPECT_EQ(masked.digest, all.digest) << phase_name(kind);
    EXPECT_EQ(masked.digest, first.digest) << phase_name(kind);
    EXPECT_EQ(masked.folds, all.folds) << phase_name(kind);
    EXPECT_LT(masked.folds, g.num_vertices()) << phase_name(kind);

    int bagless = 0;
    while (!few[bagless].bag.empty()) ++bagless;
    FoldCache stale = warm;
    stale.refold[bagless] = 1;
    EXPECT_THROW(solve(net, q, tree, few, &engine, &stale), std::logic_error)
        << phase_name(kind);
  }
}

// --- optmarked (Section 6) -------------------------------------------------------

TEST(DistOptMarked, AcceptsOptimalIndependentSetRejectsOthers) {
  const Graph base = btd_graph(80, 8, 3, 0.4);
  // Compute an optimal independent set sequentially and mark it.
  const auto opt =
      seq::maximize(base, lib::independent_set(), "S", Sort::VertexSet);
  ASSERT_TRUE(opt.has_value());
  {
    Graph g = base;
    for (VertexId v = 0; v < g.num_vertices(); ++v)
      if (opt->vertices[v]) g.set_vertex_label("marked", v);
    congest::Network net(g);
    const auto outcome =
        run(net,
            {Kind::kOptMarked, lib::independent_set(),
             {{"S", Sort::VertexSet}}}, 3);
    ASSERT_FALSE(outcome.treedepth_exceeded);
    EXPECT_TRUE(outcome.holds);
    EXPECT_TRUE(outcome.is_optimal);
    EXPECT_EQ(outcome.marked_weight, opt->weight);
  }
  {
    // Empty marked set: satisfies (independent) but not optimal.
    congest::Network net(base);
    const auto outcome =
        run(net,
            {Kind::kOptMarked, lib::independent_set(),
             {{"S", Sort::VertexSet}}}, 3);
    EXPECT_TRUE(outcome.holds);
    EXPECT_FALSE(outcome.is_optimal);
  }
  {
    // Mark two adjacent vertices: not even independent.
    Graph g = base;
    ASSERT_GT(g.num_edges(), 0);
    g.set_vertex_label("marked", g.edge(0).u);
    g.set_vertex_label("marked", g.edge(0).v);
    congest::Network net(g);
    const auto outcome =
        run(net,
            {Kind::kOptMarked, lib::independent_set(),
             {{"S", Sort::VertexSet}}}, 3);
    EXPECT_FALSE(outcome.holds);
    EXPECT_FALSE(outcome.is_optimal);
  }
}

TEST(DistOptMarked, VerifiesMarkedMst) {
  gen::Rng rng(90);
  Graph g = gen::random_bounded_treedepth(7, 3, 0.5, rng);
  for (EdgeId e = 0; e < g.num_edges(); ++e)
    g.set_edge_weight(e, 1 + static_cast<Weight>((e * 17) % 7));
  const auto mst = kruskal_mst(g);
  for (EdgeId e : mst) g.set_edge_label("marked", e);
  congest::Network net(g);
  const auto outcome =
      run(net,
          {Kind::kOptMarked, lib::spanning_connected(), {{"F", Sort::EdgeSet}},
           true}, 3);
  ASSERT_FALSE(outcome.treedepth_exceeded);
  EXPECT_TRUE(outcome.holds);
  EXPECT_TRUE(outcome.is_optimal);
  EXPECT_EQ(outcome.marked_weight, total_edge_weight(g, mst));
}

// --- baseline --------------------------------------------------------------------

TEST(DistBaseline, AgreesWithSequential) {
  for (unsigned seed = 0; seed < 4; ++seed) {
    const Graph g = btd_graph(seed + 100, 9, 3, 0.4);
    congest::Network net(g, {.id_seed = seed + 2});
    const auto outcome = run_gather_baseline(net, lib::triangle_free());
    EXPECT_EQ(outcome.holds, mso::evaluate(g, *lib::triangle_free()));
  }
}

TEST(DistBaseline, RoundsGrowWithN) {
  long small = 0, large = 0;
  {
    congest::Network net(gen::star(8));
    small = run_gather_baseline(net, lib::connected()).rounds;
  }
  {
    congest::Network net(gen::star(64));
    large = run_gather_baseline(net, lib::connected()).rounds;
  }
  EXPECT_GT(large, 2 * small);
}

}  // namespace
}  // namespace dmc::dist
