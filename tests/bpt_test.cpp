// Unit tests of the BPT machinery: gluing matrices, plan compilation,
// type interning, composition, Selected(), the class fold of a fixed
// assignment, and the table fold shared by COUNT and OPT.
#include <gtest/gtest.h>

#include "bpt/engine.hpp"
#include "bpt/plan.hpp"
#include "bpt/tables.hpp"
#include "graph/generators.hpp"
#include "mso/eval.hpp"
#include "mso/formulas.hpp"
#include "mso/lower.hpp"
#include "seq/courcelle.hpp"

namespace dmc::bpt {
namespace {

using mso::Sort;

TEST(Gluing, PairIndexIsTriangular) {
  // tau = 4: pairs (0,1)(0,2)(0,3)(1,2)(1,3)(2,3) -> 0..5
  EXPECT_EQ(pair_index(0, 1, 4), 0);
  EXPECT_EQ(pair_index(0, 3, 4), 2);
  EXPECT_EQ(pair_index(1, 2, 4), 3);
  EXPECT_EQ(pair_index(2, 3, 4), 5);
  EXPECT_EQ(pair_index(3, 2, 4), 5);  // order-insensitive
  // distinct indices overall
  std::set<int> seen;
  for (int i = 0; i < 5; ++i)
    for (int j = i + 1; j < 5; ++j) EXPECT_TRUE(seen.insert(pair_index(i, j, 5)).second);
}

TEST(Gluing, ValidateRejectsBadMatrices) {
  GluingMatrix empty_row;
  empty_row.rows = {{-1, -1}};
  EXPECT_THROW(empty_row.validate(1, 1), std::invalid_argument);
  GluingMatrix reused;
  reused.rows = {{0, -1}, {0, -1}};
  EXPECT_THROW(reused.validate(1, 0), std::invalid_argument);
  GluingMatrix out_of_range;
  out_of_range.rows = {{2, -1}};
  EXPECT_THROW(out_of_range.validate(1, 0), std::invalid_argument);
  GluingMatrix ok = identity_gluing(3);
  EXPECT_NO_THROW(ok.validate(3, 3));
}

TEST(Plan, MatrixForMapsSharedIds) {
  const auto m = matrix_for({2, 5, 9}, {2, 9}, {5, 9});
  ASSERT_EQ(m.rows.size(), 3u);
  EXPECT_EQ(m.rows[0], (std::array<int, 2>{0, -1}));
  EXPECT_EQ(m.rows[1], (std::array<int, 2>{-1, 0}));
  EXPECT_EQ(m.rows[2], (std::array<int, 2>{1, 1}));
  EXPECT_THROW(matrix_for({7}, {2}, {3}), std::invalid_argument);
}

TEST(Plan, BaseBagStructure) {
  // Bag {0,1,2} of a triangle: 3 K1 nodes, 2 vertex glues, 3 K2 + glues.
  const Graph g = gen::clique(3);
  Plan plan;
  const int root = append_base_bag(plan, g, {0, 1, 2});
  EXPECT_EQ(plan.at(root).terminals, (std::vector<VertexId>{0, 1, 2}));
  int k1 = 0, k2 = 0, glue = 0;
  for (const auto& n : plan.nodes) {
    k1 += n.kind == PlanNode::Kind::K1;
    k2 += n.kind == PlanNode::Kind::K2;
    glue += n.kind == PlanNode::Kind::Glue;
  }
  EXPECT_EQ(k1, 3);
  EXPECT_EQ(k2, 3);
  EXPECT_EQ(glue, 2 + 3);
  EXPECT_THROW(append_base_bag(plan, g, {2, 1}), std::invalid_argument);
  EXPECT_THROW(append_base_bag(plan, g, {}), std::invalid_argument);
}

TEST(Plan, NodePlanHasInputsInOrder) {
  const Graph g = gen::path(3);
  const Plan plan = build_node_plan(g, {0}, {{0, 1}, {0, 2}});
  EXPECT_EQ(plan.num_inputs, 2);
  int inputs_seen = 0;
  for (const auto& n : plan.nodes)
    if (n.kind == PlanNode::Kind::Input) {
      EXPECT_EQ(n.input, inputs_seen);
      ++inputs_seen;
    }
  EXPECT_EQ(inputs_seen, 2);
}

TEST(Plan, GlobalPlanRejectsInvalidDecomposition) {
  const Graph g = gen::cycle(4);
  TreeDecomposition td;
  td.parent = {-1};
  td.bags = {{0, 1}};
  EXPECT_THROW(build_global_plan(g, td), std::invalid_argument);
}

TEST(Engine, InterningIsIdempotent) {
  const auto lowered = mso::lower(mso::lib::connected());
  Engine engine(config_for(*lowered));
  const TypeId a = engine.k1(0, {});
  const TypeId b = engine.k1(0, {});
  EXPECT_EQ(a, b);
  const TypeId c = engine.k2(0, 0, 0, {});
  EXPECT_NE(a, c);
  EXPECT_EQ(c, engine.k2(0, 0, 0, {}));
}

TEST(Engine, ComposeIsDeterministicAndMemoized) {
  const auto lowered = mso::lower(mso::lib::connected());
  Engine engine(config_for(*lowered));
  const TypeId k1a = engine.k1(0, {});
  const TypeId k2a = engine.k2(0, 0, 0, {});
  GluingMatrix m;
  m.rows = {{0, 0}, {-1, 1}};  // identify k1's terminal with k2's first
  const TypeId c1 = engine.compose(m, k1a, k2a);
  const TypeId c2 = engine.compose(m, k1a, k2a);
  EXPECT_EQ(c1, c2);
  EXPECT_NE(c1, kInvalidType);
}

TEST(Engine, TypeLimitEnforced) {
  const auto lowered = mso::lower(mso::lib::triangle_free());
  Engine engine(config_for(*lowered));
  engine.set_type_limit(4);
  EXPECT_THROW(engine.k2(0, 0, 0, {}), std::runtime_error);
}

TEST(Engine, ConfigForDetectsFeatures) {
  {
    const auto cfg = config_for(*mso::lower(mso::lib::connected()));
    EXPECT_EQ(cfg.rank, 1);
    EXPECT_TRUE(cfg.features.full);     // full() used
    EXPECT_TRUE(cfg.features.border);   // border() used
    EXPECT_FALSE(cfg.features.adjsets); // no adj atomic
    EXPECT_FALSE(cfg.features.term_adj);
    EXPECT_TRUE(cfg.vertex_exts);
    EXPECT_FALSE(cfg.edge_exts);
  }
  {
    const auto cfg = config_for(*mso::lower(mso::lib::triangle_free()));
    EXPECT_EQ(cfg.rank, 3);
    EXPECT_TRUE(cfg.features.adjsets);
    EXPECT_TRUE(cfg.features.subsets);  // distinctness via sub()
    EXPECT_EQ(cfg.features.hidden_cap, 2);  // sing() guards
    // all three quantifier levels are singleton-guarded FO variables
    for (int level = 1; level <= 3; ++level)
      EXPECT_EQ(cfg.vertex_mode[level], ExtMode::SingletonOnly) << level;
  }
  {
    const std::vector<std::pair<std::string, Sort>> frees{
        {"F", Sort::EdgeSet}};
    const auto cfg =
        config_for(*mso::lower(mso::lib::spanning_connected(), frees), frees);
    EXPECT_TRUE(cfg.features.term_adj);  // edge-sort slot present
    EXPECT_TRUE(cfg.features.crosses);
  }
}

TEST(Engine, ConfigForRejectsNonLoweredFormulas) {
  EXPECT_THROW(config_for(*mso::lib::triangle_free()), std::invalid_argument);
  EXPECT_THROW(config_for(*mso::member("x", "X")), std::invalid_argument);
}

TEST(Engine, ConfigForRejectsTooManySlots) {
  // rank 9 via nested singleton quantifiers exceeds kMaxSlots.
  mso::FormulaPtr f = mso::adj("x0", "x1");
  for (int i = 8; i >= 0; --i)
    f = mso::exists("x" + std::to_string(i), Sort::Vertex, f);
  EXPECT_THROW(config_for(*mso::lower(f)), std::invalid_argument);
}

TEST(Tables, SelectedVerticesAndEdgesMatchAssignment) {
  // Use the OptSolver on a tiny graph and check the root classes' traces.
  const Graph g = gen::path(3);
  const std::vector<std::pair<std::string, Sort>> frees{{"S", Sort::VertexSet}};
  const auto lowered = mso::lower(mso::lib::independent_set(), frees);
  Engine engine(config_for(*lowered, frees));
  const auto td = seq::decomposition_for(g);
  const auto plan = build_global_plan(g, td);
  OptSolver solver(engine, plan, g);
  for (const auto& [c, w] : solver.root_table()) {
    const auto sol = solver.reconstruct(c);
    const auto selected = selected_vertices(
        engine, c, plan.at(plan.root).terminals, 0);
    // Every selected terminal must be marked in the reconstruction.
    for (VertexId v : selected) EXPECT_TRUE(sol.vertices[v]);
  }
}

TEST(Tables, FoldAssignedMatchesBruteForceClassMembership) {
  // The class of a *fixed* assignment must evaluate exactly like the brute
  // force on the same assignment.
  gen::Rng rng(77);
  const Graph g = gen::random_bounded_treedepth(6, 3, 0.5, rng);
  const std::vector<std::pair<std::string, Sort>> frees{{"S", Sort::VertexSet}};
  const auto lowered = mso::lower(mso::lib::dominating_set(), frees);
  Engine engine(config_for(*lowered, frees));
  Evaluator eval(engine, lowered, frees);
  const auto td = seq::decomposition_for(g);
  const auto plan = build_global_plan(g, td);
  for (std::uint64_t mask = 0; mask < (1u << g.num_vertices()); ++mask) {
    SlotMembership fixed;
    for (int v = 0; v < g.num_vertices(); ++v)
      fixed.vertices.push_back((mask >> v) & 1);
    const TypeId c = fold_type(engine, plan, g, {}, &fixed);
    const bool via_engine = eval.eval(c);
    const bool via_brute = mso::evaluate(g, *mso::lib::dominating_set(),
                                         {{"S", mso::Value::vertex_set(mask)}});
    EXPECT_EQ(via_engine, via_brute) << "mask=" << mask;
  }
}

TEST(Tables, CountAndOptTablesHoldTheSameClasses) {
  // COUNT and OPT are one table fold under two rule sets: they enumerate
  // the same assignments and glue pairs, so at every plan node the classes
  // present (those with at least one assignment) must coincide.
  const std::pair<mso::FormulaPtr, std::pair<std::string, Sort>> cases[] = {
      {mso::lib::dominating_set(), {"S", Sort::VertexSet}},
      {mso::lib::edge_dominating_set(), {"F", Sort::EdgeSet}},
  };
  gen::Rng rng(101);
  for (int trial = 0; trial < 3; ++trial) {
    const Graph g = gen::random_bounded_treedepth(8, 3, 0.5, rng);
    const auto plan = build_global_plan(g, seq::decomposition_for(g));
    for (const auto& [formula, free] : cases) {
      const std::vector<std::pair<std::string, Sort>> frees{free};
      Engine engine(config_for(*mso::lower(formula, frees), frees));
      const auto counts = fold_count(engine, plan, g);
      const OptSolver solver(engine, plan, g);
      for (std::size_t i = 0; i < plan.nodes.size(); ++i) {
        std::vector<TypeId> counted, optimized;
        for (const auto& [t, c] : counts[i]) counted.push_back(t);
        for (const auto& [t, w] : solver.table(static_cast<int>(i)))
          optimized.push_back(t);
        EXPECT_FALSE(counted.empty()) << "node " << i;
        EXPECT_EQ(counted, optimized)
            << "trial " << trial << " slot " << free.first << " node " << i;
      }
    }
  }
}

TEST(Tables, FoldTypeRequiresNoFreeSlots) {
  const std::vector<std::pair<std::string, Sort>> frees{{"S", Sort::VertexSet}};
  const auto lowered = mso::lower(mso::lib::independent_set(), frees);
  Engine engine(config_for(*lowered, frees));
  const Graph g = gen::path(2);
  const auto plan = build_global_plan(g, seq::decomposition_for(g));
  EXPECT_THROW(fold_type(engine, plan, g), std::invalid_argument);
}

TEST(Tables, OptSolverRejectsWrongSlotCount) {
  const auto lowered = mso::lower(mso::lib::connected());
  Engine engine(config_for(*lowered));
  const Graph g = gen::path(2);
  const auto plan = build_global_plan(g, seq::decomposition_for(g));
  EXPECT_THROW(OptSolver(engine, plan, g), std::invalid_argument);
}

TEST(Engine, AblationsPreserveVerdicts) {
  gen::Rng rng(88);
  for (int trial = 0; trial < 5; ++trial) {
    const Graph g = gen::random_bounded_treedepth(7, 2, 0.5, rng);
    const auto lowered = mso::lower(mso::lib::triangle_free());
    const auto td = seq::decomposition_for(g);
    const auto plan = build_global_plan(g, td);
    bool verdicts[3];
    std::size_t types[3];
    for (int variant = 0; variant < 3; ++variant) {
      EngineConfig cfg = config_for(*lowered);
      if (variant >= 1) cfg = without_singleton_modes(cfg);
      if (variant >= 2) cfg = without_feature_pruning(cfg);
      Engine engine(cfg);
      const TypeId root = fold_type(engine, plan, g);
      Evaluator eval(engine, lowered);
      verdicts[variant] = eval.eval(root);
      types[variant] = engine.num_types();
    }
    EXPECT_EQ(verdicts[0], verdicts[1]);
    EXPECT_EQ(verdicts[0], verdicts[2]);
    EXPECT_LE(types[0], types[1]);  // optimizations only shrink the universe
  }
}

}  // namespace
}  // namespace dmc::bpt
