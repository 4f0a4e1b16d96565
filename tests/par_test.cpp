// Determinism of the parallel engine (src/par + the threaded fold and the
// H-freeness sweep): folded classes and sweep verdicts must match the
// serial path, and the pool itself must survive exceptions, nesting, and
// uneven workloads. These tests carry the `par` ctest label so CI can run
// them standalone under TSan (-L par).
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "bpt/engine.hpp"
#include "bpt/plan.hpp"
#include "bpt/tables.hpp"
#include "congest/network.hpp"
#include "dist/hfreeness.hpp"
#include "graph/generators.hpp"
#include "mso/formulas.hpp"
#include "mso/lower.hpp"
#include "par/chunked.hpp"
#include "par/pool.hpp"
#include "seq/courcelle.hpp"

namespace dmc {
namespace {

namespace lib = mso::lib;

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

// --- fold and sweep determinism across thread counts ----------------------------

Graph btd_graph(unsigned seed, int n = 24, int d = 3) {
  gen::Rng rng(seed);
  return gen::random_bounded_treedepth(n, d, 0.4, rng);
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
