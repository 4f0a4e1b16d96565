// E2 — Lemma 5.3: top-down bag construction in O(2^d) payload rounds per
// level; bag payload sizes depend on the tree depth, not on n. Also times
// what the fold makes of the bags: every vertex's local context, with
// one plan compiled per bag shape (google-benchmark entry).
#include <benchmark/benchmark.h>

#include "bench_util.hpp"
#include "congest/network.hpp"
#include "dist/bags.hpp"
#include "dist/elim_tree.hpp"
#include "dist/local.hpp"
#include "graph/generators.hpp"

using namespace dmc;

namespace {

void report_bags() {
  bench::header("E2: distributed canonical bags (Lemma 5.3)",
                "Claim C9: rounds scale with the elimination-tree depth "
                "(payloads are O(|B| log n + |B|^2) bits, fragmented); "
                "independent of n for fixed depth.");

  bench::columns({"family", "n", "d", "tree_depth", "rounds", "max_bag"});
  for (int n : {16, 64, 256}) {
    for (int d : {2, 3, 4}) {
      gen::Rng rng(11);
      const Graph g = gen::random_bounded_treedepth(n, d, 0.3, rng);
      congest::Network net(g);
      const auto tree = dist::run_elim_tree(net, d);
      if (!tree.success) continue;
      int depth = 0;
      for (int x : tree.depth) depth = std::max(depth, x);
      const auto bags = dist::run_bags(net, tree, {}, {});
      std::size_t max_bag = 0;
      for (const auto& b : bags.bags) max_bag = std::max(max_bag, b.bag.size());
      bench::row(std::string("btd"), (long long)n, (long long)d,
                 (long long)depth, (long long)bags.rounds, (long long)max_bag);
    }
  }
}

// Builds and frees every vertex's fold context of deeppath(n, 4), as
// dist::run_fold does before a decide: the bag graph of each vertex and
// the plan of each bag shape. `plans` counts the distinct plans compiled.
void BM_NodeContexts(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  congest::Network net(gen::deeppath(n, 4));
  const auto tree = dist::run_elim_tree(net, 4);
  const auto bags = dist::run_bags(net, tree, {}, {});
  if (!tree.success || !bags.run.ok()) {
    state.SkipWithError("elimination tree or bags failed");
    return;
  }
  std::vector<std::vector<VertexId>> children(n);
  for (int v = 0; v < n; ++v)
    for (int c : tree.children[v]) children[v].push_back(net.id_of_vertex(c));
  const std::vector<std::string> no_labels;
  std::size_t plans = 0;
  for (auto _ : state) {
    dist::PlanCache cache;
    std::vector<dist::LocalContext> contexts;
    contexts.reserve(n);
    for (int v = 0; v < n; ++v)
      contexts.push_back(dist::make_local_context(
          bags.bags[v], children[v], no_labels, no_labels, cache));
    benchmark::DoNotOptimize(contexts.data());
    plans = cache.size();
  }
  state.counters["plans"] = static_cast<double>(plans);
}
BENCHMARK(BM_NodeContexts)->Arg(1000)->Arg(10000);

}  // namespace

int main(int argc, char** argv) {
  report_bags();
  bench::run_benchmarks(argc, argv);
  return 0;
}
