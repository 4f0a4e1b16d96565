// Sparse-vs-dense scheduler equivalence (docs/PERFORMANCE.md "Sparse
// stepping and the active set"): the event-driven round scheduler
// (NetworkConfig::sparse_stepping) must be *observationally identical* to
// dense stepping — same verdicts, same per-round trace digests, same round
// counts — across all four pipelines, while stepping strictly fewer nodes.
// Same contract for the elimination tree's change-only flooding
// (ElimTreeOptions::sparse_flood): identical tree and rounds, strictly fewer
// messages. These tests carry the `scale` ctest label so CI can run them
// standalone: ctest -L scale.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "congest/conformance.hpp"
#include "congest/network.hpp"
#include "dist/elim_tree.hpp"
#include "dist/query.hpp"
#include "graph/generators.hpp"
#include "mso/formulas.hpp"

namespace dmc {
namespace {

namespace lib = mso::lib;
using mso::Sort;

Graph btd_graph(unsigned seed, int n = 24, int d = 3) {
  gen::Rng rng(seed);
  return gen::random_bounded_treedepth(n, d, 0.4, rng);
}

struct RunResult {
  std::string verdict;
  std::vector<std::uint64_t> digests;
  long rounds = 0;
  long long active_steps = 0;
};

template <typename Fn>
RunResult run_once(const Graph& g, bool sparse, Fn&& protocol) {
  audit::RoundDigestSink sink;
  congest::NetworkConfig cfg;
  cfg.sink = &sink;
  cfg.sparse_stepping = sparse;
  congest::Network net(g, cfg);
  RunResult out;
  out.verdict = protocol(net);
  out.digests = sink.digests();
  out.rounds = net.stats().rounds;
  out.active_steps = net.stats().active_steps;
  return out;
}

/// The core equivalence harness: dense stepping is the reference; the
/// sparse scheduler must reproduce its verdict, digest stream, and round
/// count exactly.
template <typename Fn>
void expect_scheduler_invariant(const Graph& g, Fn&& protocol) {
  const RunResult ref = run_once(g, /*sparse=*/false, protocol);
  const RunResult run = run_once(g, /*sparse=*/true, protocol);
  EXPECT_EQ(run.verdict, ref.verdict);
  EXPECT_EQ(run.digests, ref.digests);
  EXPECT_EQ(run.rounds, ref.rounds);
}

TEST(ScaleEquivalence, DecisionSchedulerInvariant) {
  for (unsigned seed = 0; seed < 3; ++seed) {
    expect_scheduler_invariant(btd_graph(seed), [](congest::Network& net) {
      const auto out =
          dist::run(net, {dist::Kind::kDecision, lib::triangle_free()}, 3);
      return std::string(out.holds ? "holds" : "fails");
    });
  }
}

TEST(ScaleEquivalence, CountingSchedulerInvariant) {
  expect_scheduler_invariant(btd_graph(2, 16), [](congest::Network& net) {
    const auto out =
        dist::run(net,
                  {dist::Kind::kCount, lib::independent_set(),
                   {{"S", Sort::VertexSet}}}, 3);
    return "count=" + std::to_string(out.count);
  });
}

TEST(ScaleEquivalence, OptimizationSchedulerInvariant) {
  expect_scheduler_invariant(btd_graph(1), [](congest::Network& net) {
    const auto out =
        dist::run(net,
                  {dist::Kind::kMinimize, lib::dominating_set(),
                   {{"S", Sort::VertexSet}}}, 3);
    if (!out.best_weight) return std::string("infeasible");
    return "optimum=" + std::to_string(*out.best_weight);
  });
}

TEST(ScaleEquivalence, OptMarkedSchedulerInvariant) {
  expect_scheduler_invariant(btd_graph(4), [](congest::Network& net) {
    const auto out =
        dist::run(net,
                  {dist::Kind::kOptMarked, lib::independent_set(),
                   {{"S", Sort::VertexSet}}}, 3);
    return std::string(out.holds ? "satisfies" : "violates") +
           (out.is_optimal ? "+optimal" : "");
  });
}

TEST(ScaleEquivalence, SparseFloodSchedulerInvariant) {
  // Change-only flooding alters the message stream (that is its point) and
  // lets nodes sleep through rounds they would otherwise annotate, so its
  // traced digests are not comparable across scheduler settings; verdict
  // and round count must agree.
  auto protocol = [](congest::Network& net) {
    dist::ElimTreeOptions opts;
    opts.sparse_flood = true;
    const auto out =
        dist::run(net, {dist::Kind::kDecision, lib::triangle_free()}, 3,
                  /*engine=*/nullptr, opts);
    return std::string(out.holds ? "holds" : "fails");
  };
  const Graph g = btd_graph(3);
  const RunResult dense = run_once(g, /*sparse=*/false, protocol);
  const RunResult sparse = run_once(g, /*sparse=*/true, protocol);
  EXPECT_EQ(sparse.verdict, dense.verdict);
  EXPECT_EQ(sparse.rounds, dense.rounds);
}

TEST(ScaleEquivalence, SparseSteppingSavesWorkOnLongPaths) {
  // Algorithm 2's literal schedule floods every round, which keeps every
  // node's inbox warm — the active set can only shrink once change-only
  // flooding quiets the election. With both on, a deep-path instance is
  // quiescent almost everywhere: the active set must be a small fraction
  // of the dense n * rounds budget, at an identical verdict and round
  // count.
  const Graph g = gen::deeppath(400, 4);
  auto protocol = [](congest::Network& net) {
    dist::ElimTreeOptions opts;
    opts.sparse_flood = net.config().sparse_stepping;
    const auto out =
        dist::run(net, {dist::Kind::kDecision, lib::triangle_free()}, 4,
                  /*engine=*/nullptr, opts);
    return std::string(out.holds ? "holds" : "fails");
  };
  const RunResult dense = run_once(g, /*sparse=*/false, protocol);
  const RunResult sparse = run_once(g, /*sparse=*/true, protocol);
  EXPECT_EQ(sparse.verdict, dense.verdict);
  EXPECT_EQ(sparse.rounds, dense.rounds);
  EXPECT_EQ(dense.active_steps,
            static_cast<long long>(g.num_vertices()) * dense.rounds);
  EXPECT_LT(sparse.active_steps, dense.active_steps / 4);
}

TEST(ScaleEquivalence, SparseFloodSameTreeFewerMessages) {
  for (unsigned seed = 1; seed <= 3; ++seed) {
    const Graph g = btd_graph(seed, 32, 3);
    auto build = [&](bool sparse_flood) {
      congest::NetworkConfig cfg;
      cfg.id_seed = seed;
      cfg.sparse_stepping = true;
      congest::Network net(g, cfg);
      dist::ElimTreeOptions opts;
      opts.sparse_flood = sparse_flood;
      auto result = dist::run_elim_tree(net, 3, opts);
      return std::make_pair(std::move(result), net.stats().messages);
    };
    const auto [dense, dense_msgs] = build(false);
    const auto [sparse, sparse_msgs] = build(true);
    ASSERT_TRUE(dense.success);
    ASSERT_TRUE(sparse.success);
    EXPECT_EQ(sparse.parent, dense.parent) << "seed=" << seed;
    EXPECT_EQ(sparse.depth, dense.depth) << "seed=" << seed;
    EXPECT_EQ(sparse.rounds, dense.rounds) << "seed=" << seed;
    EXPECT_LT(sparse_msgs, dense_msgs) << "seed=" << seed;
  }
}

TEST(ScaleEquivalence, FastForwardSkipsQuietStretches) {
  // With no sink/metrics/audit, the scheduler fast-forwards through round
  // spans where every node sleeps. Same outcome, same round count — the
  // skipped rounds still count; they are just not simulated one by one.
  const Graph g = gen::spider(4, 12);
  auto run = [&](bool sparse) {
    congest::NetworkConfig cfg;
    cfg.id_seed = 7;
    cfg.sparse_stepping = sparse;
    congest::Network net(g, cfg);
    dist::ElimTreeOptions opts;
    opts.sparse_flood = sparse;
    const auto result = dist::run_elim_tree(net, 4, opts);
    return std::make_tuple(result.success, result.rounds,
                           net.stats().active_steps);
  };
  const auto [dense_ok, dense_rounds, dense_steps] = run(false);
  const auto [sparse_ok, sparse_rounds, sparse_steps] = run(true);
  EXPECT_TRUE(dense_ok);
  EXPECT_TRUE(sparse_ok);
  EXPECT_EQ(sparse_rounds, dense_rounds);
  EXPECT_LT(sparse_steps, dense_steps / 2);
}

}  // namespace
}  // namespace dmc
