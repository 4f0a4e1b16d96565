// Distributed minimum spanning tree as MSO optimization (Theorem 6.1).
//
// The MST is min phi(F) for phi(F) = "F is spanning and connected"
// (Section 4 of the paper lists MST among the expressible problems; with
// strictly positive weights no optimal solution contains a cycle, so the
// rank-1 connectivity formula suffices). The selected edges are marked by
// the top-down phase of Algorithm 1; we verify against Kruskal.
#include <cstdio>

#include "congest/network.hpp"
#include "dist/query.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "mso/formulas.hpp"

using namespace dmc;

int main() {
  gen::Rng rng(2026);
  Graph g = gen::random_bounded_treedepth(/*n=*/18, /*d=*/3, 0.45, rng);
  gen::randomize_weights(g, 1, 20, rng);
  std::printf("network: n=%d m=%d (treedepth <= 3)\n", g.num_vertices(),
              g.num_edges());

  congest::Network net(g, {.id_seed = 7});
  const auto outcome =
      dist::run(net,
                {dist::Kind::kMinimize, mso::lib::spanning_connected(),
                 {{"F", mso::Sort::EdgeSet}}}, /*d=*/3);
  if (outcome.treedepth_exceeded || !outcome.best_weight) {
    std::printf("failed to solve\n");
    return 1;
  }
  std::printf("distributed MST weight: %lld in %ld rounds\n",
              static_cast<long long>(*outcome.best_weight),
              outcome.total_rounds());

  std::vector<EdgeId> chosen;
  for (EdgeId e = 0; e < g.num_edges(); ++e)
    if (outcome.edges[e]) chosen.push_back(e);
  std::printf("selected %zu edges; spanning tree: %s\n", chosen.size(),
              is_spanning_tree(g, chosen) ? "yes" : "NO");

  const auto kruskal = kruskal_mst(g);
  const Weight reference = total_edge_weight(g, kruskal);
  std::printf("Kruskal reference weight: %lld -> %s\n",
              static_cast<long long>(reference),
              reference == *outcome.best_weight ? "MATCH" : "MISMATCH");
  return reference == *outcome.best_weight ? 0 : 1;
}
