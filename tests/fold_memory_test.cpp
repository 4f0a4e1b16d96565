// Heap bound of the table fold (dist::solve, src/dist/query.cpp). A vertex
// needs its bag graph and plan only for the step that composes its
// children's classes (Lemma 4.3), so the fold's live heap per vertex must
// stay far below the ~1 KB a LocalContext costs: a fold that builds every
// vertex's context before round 0 and holds it to the end breaks the bound.
//
// The elimination tree and the bags run outside the measured region; the
// region is one solve over them, from its call to its return.
//
// A hub's plan grows with its child count, so a plan node must cost a few
// words and no allocation of its own: building a node plan allocates per
// pool, not per node.
//
// This file replaces the global operator new / delete with a byte counter
// (malloc_usable_size), so it must be the only translation unit of its
// test binary that does.
#include <gtest/gtest.h>
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <numeric>
#include <string>
#include <vector>

#include "bpt/plan.hpp"
#include "congest/network.hpp"
#include "dist/bags.hpp"
#include "dist/elim_tree.hpp"
#include "dist/query.hpp"
#include "graph/generators.hpp"
#include "mso/parser.hpp"

namespace {

std::atomic<long> g_live{0};  // bytes malloc holds for operator new
std::atomic<long> g_peak{0};  // high-water mark of g_live since reset_peak
std::atomic<long> g_allocs{0};  // operator new calls

void* counted(void* p) {
  if (p == nullptr) return nullptr;
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const long live = g_live.fetch_add(static_cast<long>(malloc_usable_size(p)),
                                     std::memory_order_relaxed) +
                    static_cast<long>(malloc_usable_size(p));
  long peak = g_peak.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
  return p;
}

void uncounted(void* p) {
  if (p == nullptr) return;
  g_live.fetch_sub(static_cast<long>(malloc_usable_size(p)),
                   std::memory_order_relaxed);
  std::free(p);
}

long reset_peak() {
  const long live = g_live.load(std::memory_order_relaxed);
  g_peak.store(live, std::memory_order_relaxed);
  return live;
}

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted(std::malloc(size ? size : 1))) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted(std::malloc(size ? size : 1));
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
// The replaced operator new above allocates with malloc, so freeing with
// free() is the matching deallocation; GCC cannot see the pairing.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { uncounted(p); }
void operator delete[](void* p) noexcept { uncounted(p); }
void operator delete(void* p, std::size_t) noexcept { uncounted(p); }
void operator delete[](void* p, std::size_t) noexcept { uncounted(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  uncounted(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  uncounted(p);
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace dmc::dist {
namespace {

constexpr int kN = 20000;

/// Peak live heap of one solve of `query` over deeppath(kN, 4), in bytes
/// per vertex above the heap live at the call. The tree, the bags and an
/// empty engine are built first, outside the region; the solve fills the
/// engine's class universe inside it.
double solve_peak_per_vertex(const Query& query, const std::string& expect) {
  const Graph g = gen::deeppath(kN, 4);
  congest::Network net(g, congest::NetworkConfig{});
  ElimTreeOptions opts;
  opts.sparse_flood = true;
  const ElimTreeResult tree = run_elim_tree(net, 4, opts);
  EXPECT_TRUE(tree.success);
  bpt::Engine engine(universe_key(query).cfg);
  const auto [vlabels, elabels] = bag_labels(query, engine.config());
  const BagsResult bags = run_bags(net, tree, vlabels, elabels);
  EXPECT_TRUE(bags.run.ok());
  const long base = reset_peak();
  const Outcome out = solve(net, query, tree, bags.bags, &engine);
  const long peak = g_peak.load(std::memory_order_relaxed);
  EXPECT_EQ(out.result, expect);
  EXPECT_EQ(out.folds, kN);
  const double per_vertex = static_cast<double>(peak - base) / kN;
  std::printf("%s on deeppath:%d:4: peak fold heap %.0f B per vertex\n",
              phase_name(query.kind), kN, per_vertex);
  return per_vertex;
}

// Measured on deeppath:20000:4 (cold engine): a fold that builds every
// vertex's context before round 0 and holds it to the end peaks at 1,937 B
// per vertex (decide) and 2,189 B (count); one that builds each context
// when its vertex folds, and drops it after, peaks at 1,072 B and 1,138 B
// while each plan node owns its terminal and matrix vectors (~620 B of the
// decide's are the seven spine hubs' plans: each hub has ~n/7 leaf
// children, so its plan grows with n). Flat plans (one node array and
// plan-wide pools) peak at 564 B and 737 B.
constexpr double kDecideBound = 700;
constexpr double kCountBound = 900;

TEST(FoldMemory, TriangleFreeDecidePeakHeapPerVertex) {
  const Query q{Kind::kDecision,
                mso::parse("!exists vertex x, y, z. adj(x,y) & adj(y,z) & "
                           "adj(x,z)")};
  EXPECT_LT(solve_peak_per_vertex(q, "holds"), kDecideBound);
}

TEST(FoldMemory, CountPeakHeapPerVertex) {
  const Query q = parse_query(Kind::kCount, "sing(S)", "", "", "S:vset");
  EXPECT_LT(solve_peak_per_vertex(q, "count=" + std::to_string(kN)),
            kCountBound);
}

struct PlanBuild {
  long allocations = 0;  // operator new calls during the build
  long live_bytes = 0;   // heap the returned plan holds
  std::size_t nodes = 0;
};

/// One bpt::build_node_plan for the bag {0, ..., 7} of a path with
/// `children` children, child i's bag being the path plus vertex 8 + i.
/// The graph and the child bags are built outside the measured region.
PlanBuild measure_plan_build(int children) {
  Graph g(8 + children);
  for (VertexId v = 0; v + 1 < 8; ++v) g.add_edge(v, v + 1);
  std::vector<VertexId> bag(8);
  std::iota(bag.begin(), bag.end(), 0);
  std::vector<std::vector<VertexId>> child_bags(children, bag);
  for (int i = 0; i < children; ++i) child_bags[i].push_back(8 + i);
  const long allocs = g_allocs.load(std::memory_order_relaxed);
  const long live = g_live.load(std::memory_order_relaxed);
  const bpt::Plan plan = bpt::build_node_plan(g, bag, child_bags);
  PlanBuild out;
  out.allocations = g_allocs.load(std::memory_order_relaxed) - allocs;
  out.live_bytes = g_live.load(std::memory_order_relaxed) - live;
  out.nodes = plan.nodes.size();
  std::printf("node plan, %d children: %zu nodes, %ld allocations, "
              "%.0f B per node\n",
              children, out.nodes, out.allocations,
              static_cast<double>(out.live_bytes) / out.nodes);
  return out;
}

// Measured with per-node terminal and matrix vectors: 4,000 children make
// 15,004 more allocations than 1,000 (20,069 against 5,065), and the plan
// holds 196-197 B per node. Flat plans allocate per pool and per distinct
// matrix: 59 allocations at either size, 52 B per node.
TEST(FoldMemory, PlanBuildAllocatesPerPoolNotPerNode) {
  const PlanBuild small = measure_plan_build(1000);
  const PlanBuild large = measure_plan_build(4000);
  EXPECT_LE(large.allocations - small.allocations, 40);
  EXPECT_LE(static_cast<double>(small.live_bytes) / small.nodes, 96.0);
  EXPECT_LE(static_cast<double>(large.live_bytes) / large.nodes, 96.0);
}

}  // namespace
}  // namespace dmc::dist
