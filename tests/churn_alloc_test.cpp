// Allocation bound of an incremental edge epoch (src/churn/engine.hpp). A
// clean vertex replays its cached table (Lemma 4.3), so what an epoch
// allocates must follow its refold closure, not n: a fixed number of
// per-epoch buffers plus a bounded amount per refolded vertex. The check
// runs the same seeded edge churn at two sizes under one bound
// A + B * (refold_count + 1); an epoch that allocates per vertex breaks it
// at the larger size.
//
// counting_new.hpp replaces the global operator new, so this file must be
// the only translation unit of its test binary that includes it.
#include "counting_new.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <random>
#include <utility>
#include <vector>

#include "churn/engine.hpp"
#include "graph/generators.hpp"
#include "mso/parser.hpp"

namespace dmc::churn {
namespace {

// Measured: a warm edge epoch allocates 270-460 times with a closure of 3
// vertices, ~28 more per refolded vertex beyond that, and ~1 per vertex of
// a structural rebuild's region. An epoch that builds a program and its
// child lists per vertex allocates ~1.5 times per vertex instead (~12,000
// at n = 8000), far above the bound.
constexpr long kFixed = 600;     // A: per-epoch buffers, graph copy, repair
constexpr long kPerRefold = 40;  // B: a refolded vertex's bag, context, fold

/// Connected without edge e? (untimed: the caller picks deletions with it)
bool connected_without(const Graph& g, EdgeId e) {
  std::vector<char> seen(g.num_vertices(), 0);
  std::vector<VertexId> stack{0};
  seen[0] = 1;
  int reached = 1;
  while (!stack.empty()) {
    const VertexId x = stack.back();
    stack.pop_back();
    for (const auto& [y, f] : g.incident(x)) {
      if (f == e || seen[y]) continue;
      seen[y] = 1;
      ++reached;
      stack.push_back(y);
    }
  }
  return reached == g.num_vertices();
}

struct Epochs {
  long max_allocs = 0;
  int worst_refold = 0;
  int incremental = 0;
};

/// Seeded edge churn on random_bounded_treedepth(n, 3, 0.25): pairs of
/// epochs that delete a random non-bridge edge and put it back, so the
/// graph returns to its start after each pair. The sequence runs twice
/// and only the second pass is checked: the first interns every class the
/// sequence meets, which a warm engine (the steady state of a long-lived
/// churn engine) no longer pays for.
Epochs run_edge_epochs(int n, std::uint64_t seed, int pairs) {
  gen::Rng grng(seed);
  const Graph g = gen::random_bounded_treedepth(n, 3, 0.25, grng);
  std::mt19937_64 rng(seed);
  std::vector<ChurnEvent> events;
  for (int i = 0; i < pairs; ++i) {
    EdgeId e;
    do {
      e = static_cast<EdgeId>(rng() % g.num_edges());
    } while (!connected_without(g, e));
    ChurnEvent del;
    del.kind = ChurnEvent::Kind::kDelEdge;
    del.u = g.edge(e).u;
    del.v = g.edge(e).v;
    ChurnEvent add = del;
    add.kind = ChurnEvent::Kind::kAddEdge;
    events.push_back(del);
    events.push_back(add);
  }
  Options opts;
  opts.d = 4;
  opts.verify = false;
  ChurnEngine engine(
      g,
      dist::Query{dist::Kind::kDecision,
                  mso::parse("!exists vertex x, y, z. adj(x,y) & adj(y,z) & "
                             "adj(x,z)")},
      opts);
  EXPECT_TRUE(engine.init().ok());
  for (const ChurnEvent& ev : events) EXPECT_TRUE(engine.step({ev}).ok());
  Epochs result;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const std::vector<ChurnEvent> batch{events[i]};
    const long before = g_allocations.load(std::memory_order_relaxed);
    const StepOutcome out = engine.step(batch);
    const long allocs = g_allocations.load(std::memory_order_relaxed) - before;
    EXPECT_TRUE(out.ok()) << "n=" << n << " epoch " << i;
    if (out.status == StepStatus::kRecomputed) continue;  // full: n folds
    ++result.incremental;
    EXPECT_LT(allocs, kFixed + kPerRefold * (out.refold_count + 1))
        << "n=" << n << " epoch " << i << ": " << allocs
        << " allocations for a refold closure of " << out.refold_count;
    if (allocs > result.max_allocs) {
      result.max_allocs = allocs;
      result.worst_refold = out.refold_count;
    }
  }
  return result;
}

TEST(ChurnAllocations, EdgeEpochsAllocatePerRefoldedVertexNotPerVertex) {
  for (const int n : {1000, 8000}) {
    const Epochs e = run_edge_epochs(n, 11, 12);
    EXPECT_GE(e.incremental, 20) << "n=" << n;
    std::printf("n=%d: at most %ld allocations per edge epoch (refold %d)\n",
                n, e.max_allocs, e.worst_refold);
  }
}

}  // namespace
}  // namespace dmc::churn
