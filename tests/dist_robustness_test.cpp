// Robustness sweeps for the distributed stack: adversarial id assignments,
// tight bandwidth (forcing fragmentation everywhere), and cross-checks of
// all three table protocols under the same conditions.
#include <gtest/gtest.h>

#include "bpt/engine.hpp"
#include "congest/network.hpp"
#include "dist/query.hpp"
#include "graph/exact.hpp"
#include "graph/generators.hpp"
#include "mso/eval.hpp"
#include "mso/formulas.hpp"
#include "mso/lower.hpp"

namespace dmc::dist {
namespace {

using mso::Sort;
namespace lib = mso::lib;

TEST(DistRobustness, DecisionStableUnderIdPermutations) {
  gen::Rng rng(7);
  const Graph g = gen::random_bounded_treedepth(10, 3, 0.4, rng);
  const bool truth = mso::evaluate(g, *lib::triangle_free());
  for (unsigned seed = 1; seed <= 8; ++seed) {
    congest::Network net(g, {.id_seed = seed});
    const auto out = run(net, {Kind::kDecision, lib::triangle_free()}, 3);
    ASSERT_FALSE(out.treedepth_exceeded) << "seed=" << seed;
    EXPECT_EQ(out.holds, truth) << "seed=" << seed;
  }
}

TEST(DistRobustness, OptimizationStableUnderIdPermutations) {
  gen::Rng rng(8);
  Graph g = gen::random_bounded_treedepth(9, 3, 0.4, rng);
  gen::randomize_weights(g, 1, 7, rng);
  const Weight truth = exact::max_weight_independent_set(g);
  for (unsigned seed = 1; seed <= 6; ++seed) {
    congest::Network net(g, {.id_seed = seed});
    const auto out =
        run(net,
            {Kind::kMaximize, lib::independent_set(), {{"S", Sort::VertexSet}}},
            3);
    ASSERT_FALSE(out.treedepth_exceeded);
    ASSERT_TRUE(out.best_weight.has_value()) << "seed=" << seed;
    EXPECT_EQ(*out.best_weight, truth) << "seed=" << seed;
  }
}

TEST(DistRobustness, TightBandwidthOnlyCostsRounds) {
  gen::Rng rng(9);
  const Graph g = gen::random_bounded_treedepth(10, 3, 0.4, rng);
  const bool truth = mso::evaluate(g, *lib::k_colorable(2));
  long roomy_rounds = 0, tight_rounds = 0;
  {
    congest::Network net(g, {.bandwidth_multiplier = 8, .min_bandwidth = 64});
    const auto out = run(net, {Kind::kDecision, lib::k_colorable(2)}, 3);
    ASSERT_FALSE(out.treedepth_exceeded);
    EXPECT_EQ(out.holds, truth);
    roomy_rounds = out.total_rounds();
  }
  {
    congest::Network net(g, {.bandwidth_multiplier = 1, .min_bandwidth = 16});
    const auto out = run(net, {Kind::kDecision, lib::k_colorable(2)}, 3);
    ASSERT_FALSE(out.treedepth_exceeded);
    EXPECT_EQ(out.holds, truth);
    tight_rounds = out.total_rounds();
  }
  EXPECT_GE(tight_rounds, roomy_rounds);  // fragmentation only adds rounds
}

TEST(DistRobustness, CountingStableUnderTightBandwidth) {
  gen::Rng rng(10);
  const Graph g = gen::random_bounded_treedepth(9, 3, 0.5, rng);
  const std::uint64_t truth = exact::count_triangles(g);
  congest::Network net(g, {.bandwidth_multiplier = 1, .min_bandwidth = 16,
                           .id_seed = 5});
  const auto out =
      run(net,
          {Kind::kCount, lib::triangle_tuple(),
           {{"X", Sort::VertexSet},
            {"Y", Sort::VertexSet},
            {"Z", Sort::VertexSet}}},
          3);
  ASSERT_FALSE(out.treedepth_exceeded);
  EXPECT_EQ(out.count, 6 * truth);
}

TEST(DistRobustness, LargerBudgetsAreHarmlessButSlower) {
  // A bigger d only adds rounds, never changes verdicts.
  gen::Rng rng(11);
  const Graph g = gen::random_bounded_treedepth(8, 2, 0.5, rng);
  const bool truth = mso::evaluate(g, *lib::connected());
  long prev = 0;
  for (int d = 2; d <= 4; ++d) {
    congest::Network net(g);
    const auto out = run(net, {Kind::kDecision, lib::connected()}, d);
    ASSERT_FALSE(out.treedepth_exceeded) << "d=" << d;
    EXPECT_EQ(out.holds, truth);
    EXPECT_GT(out.total_rounds(), prev);
    prev = out.total_rounds();
  }
}

TEST(DistRobustness, AllProtocolsShareOneNetworkSequentially) {
  // Stats accumulate across protocol phases on the same network object.
  gen::Rng rng(12);
  const Graph g = gen::random_bounded_treedepth(8, 3, 0.4, rng);
  congest::Network net(g);
  const auto d1 = run(net, {Kind::kDecision, lib::connected()}, 3);
  const long after_first = net.stats().rounds;
  const auto d2 =
      run(net, {Kind::kDecision, lib::has_isolated_vertex_lowrank()}, 3);
  EXPECT_GT(net.stats().rounds, after_first);
  ASSERT_FALSE(d1.treedepth_exceeded);
  ASSERT_FALSE(d2.treedepth_exceeded);
  EXPECT_EQ(d1.holds, mso::evaluate(g, *lib::connected()));
  EXPECT_EQ(d2.holds, mso::evaluate(g, *lib::has_isolated_vertex_lowrank()));
}

TEST(DistRobustness, SharedEngineAcrossInstances) {
  // Theorem 4.2: the class universe is a function of (phi, w); reusing one
  // engine across many graphs must not change verdicts.
  const auto lowered = mso::lower(lib::triangle_free());
  bpt::Engine engine(bpt::config_for(*lowered));
  gen::Rng rng(13);
  for (int trial = 0; trial < 6; ++trial) {
    const Graph g = gen::random_bounded_treedepth(8, 3, 0.5, rng);
    congest::Network net(g);
    const auto out =
        run(net, {Kind::kDecision, lib::triangle_free()}, 3, &engine);
    ASSERT_FALSE(out.treedepth_exceeded);
    EXPECT_EQ(out.holds, mso::evaluate(g, *lib::triangle_free()));
  }
}

// Algorithm 2 floods for 2^d + 1 rounds per phase, which converges only
// when td(G) <= d (Lemma 2.5). Above that it can mark every node and
// accept a tree that is not an elimination tree of G: on the 12-cycle
// (treedepth 5) at d = 3 one tree edge set misses a cycle edge, and on
// the 13-path with id seed 2 phase 0 elects two roots. dist::run must
// then report the bound as exceeded instead of folding the tree.
TEST(DistRobustness, TreesTooDeepToFoldNameTheEngineLimit) {
  // td(P12) = 4, but Algorithm 2's tree may be up to 2^4 - 1 = 15 deep.
  // Past bpt::kMaxTerminals every kind stops before the bags run and names
  // the limit, instead of failing inside the fold.
  const std::vector<std::pair<std::string, Sort>> s = {{"S", Sort::VertexSet}};
  const Query queries[] = {
      {Kind::kDecision, lib::triangle_free()},
      {Kind::kCount, lib::independent_set_indicator(), s},
      {Kind::kMaximize, lib::independent_set(), s},
      {Kind::kMinimize, lib::independent_set(), s},
      {Kind::kOptMarked, lib::independent_set(), s},
  };
  for (const Query& q : queries) {
    SCOPED_TRACE(static_cast<int>(q.kind));
    congest::Network net(gen::path(12));
    try {
      run(net, q, 4);
      ADD_FAILURE() << "a tree deeper than the engine's limit was folded";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(),
                   "tree depth 12 exceeds the fold engine's 11-terminal "
                   "limit");
    }
  }
}

TEST(DistRobustness, AcceptedInvalidTreesReportTheBoundExceeded) {
  struct Case {
    Graph g;
    unsigned id_seed;
  };
  const Case cases[] = {{gen::cycle(12), 0}, {gen::path(13), 2}};
  const std::vector<std::pair<std::string, Sort>> kS = {
      {"S", Sort::VertexSet}};
  const Query queries[] = {
      {Kind::kDecision, lib::triangle_free()},
      {Kind::kDecision, lib::connected()},
      {Kind::kCount, lib::independent_set_indicator(), kS},
      {Kind::kMaximize, lib::independent_set(), kS},
      {Kind::kMinimize, lib::vertex_cover(), kS},
      {Kind::kOptMarked, lib::independent_set(), kS},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE("n=" + std::to_string(c.g.num_vertices()));
    {
      congest::Network net(c.g, {.id_seed = c.id_seed});
      const ElimTreeResult tree = run_elim_tree(net, 3);
      ASSERT_TRUE(tree.success);
      ASSERT_NE(tree_defect(c.g, tree.parent, 3), "");
    }
    for (const Query& q : queries) {
      SCOPED_TRACE(phase_name(q.kind));
      congest::Network net(c.g, {.id_seed = c.id_seed});
      const Outcome out = run(net, q, 3);
      ASSERT_TRUE(out.run.ok());
      if (out.treedepth_exceeded) {
        EXPECT_EQ(out.result, "treedepth>3");
        EXPECT_EQ(out.exit_code(), 3);
        EXPECT_EQ(out.rounds_bags, 0);  // nothing past Algorithm 2 ran
      } else {
        ASSERT_NE(q.kind, Kind::kOptMarked);  // no sequential oracle
        EXPECT_EQ(out.result, run_sequential(c.g, q).result);
      }
    }
  }
}

}  // namespace
}  // namespace dmc::dist
