// E6 — Section 6 (optmarked): distributed verification that a marked set is
// an optimal solution, in the same g(d, phi) rounds as optimization.
#include "bench_util.hpp"
#include "congest/network.hpp"
#include "dist/query.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "mso/formulas.hpp"
#include "seq/courcelle.hpp"

using namespace dmc;

int main() {
  bench::header("E6: distributed optmarked verification (Section 6)",
                "Claim C12: the root accepts iff the marked set satisfies "
                "phi and matches the optimum; O(1) rounds for fixed d.");

  std::printf("\n-- marked maximum independent set --\n");
  bench::columns({"n", "marking", "rounds", "satisfies", "optimal"});
  for (int n : {10, 20, 40}) {
    gen::Rng rng(29);
    const Graph base = gen::random_bounded_treedepth(n, 3, 0.35, rng);
    const auto opt = seq::maximize(base, mso::lib::independent_set(), "S",
                                   mso::Sort::VertexSet);
    if (!opt) continue;
    // optimal marking
    {
      Graph g = base;
      for (VertexId v = 0; v < n; ++v)
        if (opt->vertices[v]) g.set_vertex_label("marked", v);
      congest::Network net(g);
      const auto out =
          dist::run(net,
                    {dist::Kind::kOptMarked, mso::lib::independent_set(),
                     {{"S", mso::Sort::VertexSet}}}, 3);
      bench::row((long long)n, std::string("optimal"), out.total_rounds(),
                 (long long)out.holds, (long long)out.is_optimal);
    }
    // empty marking (feasible but suboptimal)
    {
      congest::Network net(base);
      const auto out =
          dist::run(net,
                    {dist::Kind::kOptMarked, mso::lib::independent_set(),
                     {{"S", mso::Sort::VertexSet}}}, 3);
      bench::row((long long)n, std::string("empty"), out.total_rounds(),
                 (long long)out.holds, (long long)out.is_optimal);
    }
  }

  std::printf("\n-- marked minimum spanning tree --\n");
  bench::columns({"n", "marking", "rounds", "satisfies", "optimal"});
  for (int n : {8, 16, 32}) {
    gen::Rng rng(31);
    Graph g = gen::random_bounded_treedepth(n, 3, 0.4, rng);
    for (EdgeId e = 0; e < g.num_edges(); ++e)
      g.set_edge_weight(e, 1 + (e * 23) % 13);
    for (EdgeId e : kruskal_mst(g)) g.set_edge_label("marked", e);
    congest::Network net(g);
    const auto out =
        dist::run(net,
                  {dist::Kind::kOptMarked, mso::lib::spanning_connected(),
                   {{"F", mso::Sort::EdgeSet}}, true}, 3);
    bench::row((long long)n, std::string("kruskal"), out.total_rounds(),
               (long long)out.holds, (long long)out.is_optimal);
  }
  return 0;
}
