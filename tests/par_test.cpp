// Determinism of the parallel engine (src/par + the threaded fold and
// simulator paths): verdicts AND round-digest streams must be identical
// across --threads 1/2/8 for all four pipelines, and the pool itself must
// survive exceptions, nesting, and uneven workloads. These tests carry the
// `par` ctest label so CI can run them standalone under TSan (-L par).
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "bpt/engine.hpp"
#include "bpt/plan.hpp"
#include "bpt/tables.hpp"
#include "congest/conformance.hpp"
#include "congest/network.hpp"
#include "dist/hfreeness.hpp"
#include "dist/query.hpp"
#include "graph/generators.hpp"
#include "mso/formulas.hpp"
#include "mso/lower.hpp"
#include "par/chunked.hpp"
#include "par/pool.hpp"
#include "seq/courcelle.hpp"

namespace dmc {
namespace {

namespace lib = mso::lib;
using mso::Sort;

// --- the pool ----------------------------------------------------------------

TEST(ParPool, CoversEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 8}) {
    std::vector<std::atomic<int>> hits(1000);
    par::parallel_for(threads, hits.size(),
                      [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParPool, PropagatesFirstException) {
  EXPECT_THROW(par::parallel_for(8, 100,
                                 [&](std::size_t i) {
                                   if (i == 37)
                                     throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  // The pool must stay usable after an exception.
  std::atomic<int> sum{0};
  par::parallel_for(8, 10, [&](std::size_t i) {
    sum.fetch_add(static_cast<int>(i));
  });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ParPool, NestedParallelForRunsInline) {
  std::atomic<int> total{0};
  par::parallel_for(4, 8, [&](std::size_t) {
    EXPECT_TRUE(par::in_parallel_region());
    // Nested call must not deadlock; it degrades to a serial loop.
    par::parallel_for(4, 8, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 64);
  EXPECT_FALSE(par::in_parallel_region());
}

TEST(ParPool, AtomicMaxAndAdd) {
  int max_val = 0;
  long long sum = 0;
  par::parallel_for(8, 100, [&](std::size_t i) {
    par::atomic_fetch_max(max_val, static_cast<int>(i));
    par::atomic_fetch_add(sum, 1LL);
  });
  EXPECT_EQ(max_val, 99);
  EXPECT_EQ(sum, 100);
}

TEST(ParChunkedVector, PushAndReadAcrossChunkBoundaries) {
  par::ChunkedVector<int> v;
  const std::size_t n = 20000;  // spans multiple 8192-element chunks
  for (std::size_t i = 0; i < n; ++i) v.push_back(static_cast<int>(i));
  ASSERT_EQ(v.size(), n);
  for (std::size_t i = 0; i < n; i += 997) EXPECT_EQ(v[i], static_cast<int>(i));
  par::ChunkedVector<int> copy(v);
  EXPECT_EQ(copy.size(), n);
  EXPECT_EQ(copy[n - 1], static_cast<int>(n - 1));
}

// --- pipeline determinism across thread counts -------------------------------

Graph btd_graph(unsigned seed, int n = 24, int d = 3) {
  gen::Rng rng(seed);
  return gen::random_bounded_treedepth(n, d, 0.4, rng);
}

struct DigestRun {
  std::vector<std::uint64_t> digests;
  std::string verdict;
};

template <typename Fn>
DigestRun digest_run(const Graph& g, int threads, Fn&& protocol) {
  audit::RoundDigestSink sink;
  congest::NetworkConfig cfg;
  cfg.sink = &sink;
  cfg.threads = threads;
  congest::Network net(g, cfg);
  DigestRun out;
  out.verdict = protocol(net);
  out.digests = sink.digests();
  return out;
}

template <typename Fn>
void expect_thread_invariant(const Graph& g, Fn&& protocol) {
  const DigestRun serial = digest_run(g, 1, protocol);
  for (int threads : {2, 8}) {
    const DigestRun run = digest_run(g, threads, protocol);
    EXPECT_EQ(run.verdict, serial.verdict) << "threads=" << threads;
    EXPECT_EQ(run.digests, serial.digests) << "threads=" << threads;
  }
}

TEST(ParDeterminism, DecisionDigestsThreadInvariant) {
  for (unsigned seed = 0; seed < 3; ++seed) {
    expect_thread_invariant(btd_graph(seed), [](congest::Network& net) {
      const auto out =
          dist::run(net, {dist::Kind::kDecision, lib::triangle_free()}, 3);
      return std::string(out.holds ? "holds" : "fails");
    });
  }
}

TEST(ParDeterminism, OptimizationDigestsThreadInvariant) {
  expect_thread_invariant(btd_graph(1), [](congest::Network& net) {
    const auto out =
        dist::run(net,
                  {dist::Kind::kMinimize, lib::dominating_set(),
                   {{"S", Sort::VertexSet}}}, 3);
    if (!out.best_weight) return std::string("infeasible");
    return "optimum=" + std::to_string(*out.best_weight);
  });
}

TEST(ParDeterminism, CountingDigestsThreadInvariant) {
  expect_thread_invariant(btd_graph(2, 16), [](congest::Network& net) {
    const auto out =
        dist::run(net,
                  {dist::Kind::kCount, lib::independent_set(),
                   {{"S", Sort::VertexSet}}}, 3);
    return "count=" + std::to_string(out.count);
  });
}

TEST(ParDeterminism, HFreenessStepDigestsThreadInvariant) {
  // Within-run stepping parallelism (NetworkConfig::threads) must keep the
  // sweep's digest stream identical; one shared sink spans all runs.
  const Graph g = gen::grid(5, 5);
  const Graph triangle = gen::clique(3);
  std::vector<std::uint64_t> serial;
  bool serial_free = false;
  for (int threads : {1, 2, 8}) {
    audit::RoundDigestSink sink;
    congest::NetworkConfig cfg;
    cfg.sink = &sink;
    cfg.threads = threads;
    const auto out = dist::run_h_freeness_grid(g, 5, 5, triangle, 4, cfg);
    if (threads == 1) {
      serial = sink.digests();
      serial_free = out.h_free;
    } else {
      EXPECT_EQ(sink.digests(), serial) << "threads=" << threads;
      EXPECT_EQ(out.h_free, serial_free);
    }
  }
}

TEST(ParDeterminism, HFreenessSweepVerdictMatchesSerial) {
  // Cross-subset sweep parallelism is verdict-identical (per-task universe
  // copies make digests incomparable, so only verdict fields are checked).
  const Graph triangle = gen::clique(3);
  for (int extra : {0, 4}) {
    gen::Rng rng(static_cast<unsigned>(50 + extra));
    const Graph g = gen::perturbed_grid(5, 5, extra, rng);
    dist::HFreenessOptions serial_opts;  // sweep_threads = 1
    const auto serial = dist::run_h_freeness_grid(
        g, 5, 5, triangle, 4, congest::NetworkConfig{}, serial_opts);
    for (int threads : {2, 8}) {
      dist::HFreenessOptions opts;
      opts.sweep_threads = threads;
      const auto out = dist::run_h_freeness_grid(
          g, 5, 5, triangle, 4, congest::NetworkConfig{}, opts);
      EXPECT_EQ(out.h_free, serial.h_free) << "threads=" << threads;
      EXPECT_EQ(out.num_subsets, serial.num_subsets);
      EXPECT_EQ(out.num_component_runs, serial.num_component_runs);
      EXPECT_EQ(out.max_run_rounds, serial.max_run_rounds);
    }
  }
}

TEST(ParDeterminism, ParallelFoldMatchesSerialClass) {
  // fold_type_parallel must land on the same hash-consed class as the
  // serial fold when run in the same engine.
  const Graph g = btd_graph(5, 32);
  const auto lowered = mso::lower(lib::triangle_free());
  const auto td = seq::decomposition_for(g);
  const auto plan = bpt::build_global_plan(g, td);
  for (int threads : {2, 8}) {
    bpt::Engine engine(bpt::config_for(*lowered));
    const bpt::TypeId parallel_root =
        bpt::fold_type_parallel(engine, plan, g, threads);
    const bpt::TypeId serial_root = bpt::fold_type(engine, plan, g);
    EXPECT_EQ(parallel_root, serial_root) << "threads=" << threads;
  }
  // threads=1 must reproduce the legacy id sequence exactly.
  bpt::Engine serial_engine(bpt::config_for(*lowered));
  const bpt::TypeId legacy = bpt::fold_type(serial_engine, plan, g);
  bpt::Engine one_thread(bpt::config_for(*lowered));
  EXPECT_EQ(bpt::fold_type_parallel(one_thread, plan, g, 1), legacy);
  EXPECT_EQ(one_thread.num_types(), serial_engine.num_types());
}

}  // namespace
}  // namespace dmc
