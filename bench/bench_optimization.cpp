// E4 — Theorem 6.1 (optimization): max/min phi(S) in g(d, phi) rounds;
// OPT-table payloads are |C| entries of O(log n) bits. We sweep n on a
// fixed-treedepth family and report rounds, table sizes, and the optimum
// (cross-checked against the exact oracle for small n).
#include "bench_util.hpp"
#include "congest/network.hpp"
#include "dist/query.hpp"
#include "graph/exact.hpp"
#include "graph/generators.hpp"
#include "mso/formulas.hpp"

using namespace dmc;

int main() {
  bench::header(
      "E4: distributed MSO optimization (Theorem 6.1)",
      "Claim C11: rounds g(d, phi) flat in n; bottom-up payloads of |C| "
      "O(log n)-bit entries; reconstructed optimum matches the oracle.");

  std::printf("\n-- max independent set (rank 0) --\n");
  bench::columns({"n", "rounds", "opt", "oracle", "tbl_entries", "|C|"});
  for (int n : {12, 24, 48, 96, 192}) {
    gen::Rng rng(5);
    Graph g = gen::random_bounded_treedepth(n, 3, 0.3, rng);
    gen::randomize_weights(g, 1, 5, rng);
    congest::Network net(g);
    const auto out =
        dist::run(net,
                  {dist::Kind::kMaximize, mso::lib::independent_set(),
                   {{"S", mso::Sort::VertexSet}}}, 3);
    if (out.treedepth_exceeded || !out.best_weight) continue;
    const long long oracle =
        n <= 24 ? exact::max_weight_independent_set(g) : -1;
    bench::row((long long)n, out.total_rounds(), (long long)*out.best_weight,
               oracle, (long long)out.max_table_entries,
               (long long)out.num_classes);
  }

  std::printf("\n-- min dominating set (rank 1) --\n");
  bench::columns({"n", "rounds", "opt", "oracle", "tbl_entries", "|C|"});
  for (int n : {12, 24, 48, 96}) {
    gen::Rng rng(9);
    const Graph g = gen::random_bounded_treedepth(n, 3, 0.3, rng);
    congest::Network net(g);
    const auto out =
        dist::run(net,
                  {dist::Kind::kMinimize, mso::lib::dominating_set(),
                   {{"S", mso::Sort::VertexSet}}}, 3);
    if (out.treedepth_exceeded || !out.best_weight) continue;
    const long long oracle =
        n <= 24 ? exact::min_weight_dominating_set(g) : -1;
    bench::row((long long)n, out.total_rounds(), (long long)*out.best_weight,
               oracle, (long long)out.max_table_entries,
               (long long)out.num_classes);
  }

  std::printf("\n-- distributed MST: min spanning-connected F (rank 1) --\n");
  bench::columns({"n", "rounds", "opt", "kruskal", "tbl_entries"});
  for (int n : {10, 20, 40}) {
    gen::Rng rng(13);
    Graph g = gen::random_bounded_treedepth(n, 3, 0.4, rng);
    for (EdgeId e = 0; e < g.num_edges(); ++e)
      g.set_edge_weight(e, 1 + (e * 37) % 11);
    congest::Network net(g);
    const auto out =
        dist::run(net,
                  {dist::Kind::kMinimize, mso::lib::spanning_connected(),
                   {{"F", mso::Sort::EdgeSet}}}, 3);
    if (out.treedepth_exceeded || !out.best_weight) continue;
    bench::row((long long)n, out.total_rounds(), (long long)*out.best_weight,
               (long long)exact::min_weight_spanning_tree(g),
               (long long)out.max_table_entries);
  }
  return 0;
}
