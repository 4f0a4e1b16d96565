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

}  // namespace
}  // namespace dmc::dist
