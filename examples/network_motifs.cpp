// Motif detection on a planar-style network via low-treedepth
// decompositions (Theorem 7.2 + Corollary 7.3), plus distributed triangle
// counting (Section 6).
//
// The network is a perturbed grid (bounded expansion). H-freeness for the
// triangle motif runs the Corollary 7.3 pipeline: partition into f(p)
// parts, decide H-freeness on every union of p parts in parallel.
#include <cstdio>

#include "congest/network.hpp"
#include "dist/hfreeness.hpp"
#include "dist/query.hpp"
#include "graph/exact.hpp"
#include "graph/generators.hpp"
#include "mso/formulas.hpp"

using namespace dmc;

int main() {
  const int side = 7;
  gen::Rng rng(5);
  const Graph g = gen::perturbed_grid(side, side, /*extra=*/9, rng);
  std::printf("planar-style network: %d x %d grid + diagonals (n=%d, m=%d)\n",
              side, side, g.num_vertices(), g.num_edges());

  const Graph triangle = gen::clique(3);
  const auto out = dist::run_h_freeness_grid(g, side, side, triangle, 4);
  std::printf(
      "Corollary 7.3 pipeline: %d part-subsets, %d component runs,\n"
      "  max %ld rounds per run (flat in n), verdict: %s\n",
      out.num_subsets, out.num_component_runs, out.max_run_rounds,
      out.h_free ? "triangle-free" : "contains a triangle");
  const bool oracle = exact::contains_subgraph(g, triangle);
  std::printf("VF2-style oracle: %s -> %s\n",
              oracle ? "contains a triangle" : "triangle-free",
              out.h_free == !oracle ? "MATCH" : "MISMATCH");

  // Distributed triangle *counting* needs bounded treedepth of the whole
  // network, so run it on a bounded-treedepth subsample instead.
  gen::Rng rng2(6);
  const Graph h = gen::random_bounded_treedepth(30, 3, 0.5, rng2);
  congest::Network net(h);
  const auto count =
      dist::run(net,
          {dist::Kind::kCount, mso::lib::triangle_tuple(),
           {{"X", mso::Sort::VertexSet},
            {"Y", mso::Sort::VertexSet},
            {"Z", mso::Sort::VertexSet}}},
          3);
  std::printf(
      "\ntriangle counting on btd(30,3): %llu triangles in %ld rounds "
      "(oracle %llu)\n",
      static_cast<unsigned long long>(count.count / 6), count.total_rounds(),
      static_cast<unsigned long long>(exact::count_triangles(h)));
  return out.h_free == !oracle && count.count / 6 == exact::count_triangles(h)
             ? 0
             : 1;
}
