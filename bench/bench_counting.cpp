// E5 — Section 6 (counting): COUNT tables give triangle / independent-set
// counting in O(1) rounds on bounded-treedepth graphs; counts match the
// exact oracles.
#include "bench_util.hpp"
#include "congest/network.hpp"
#include "dist/query.hpp"
#include "graph/exact.hpp"
#include "graph/generators.hpp"
#include "mso/formulas.hpp"

using namespace dmc;

int main() {
  bench::header("E5: distributed counting (Section 6)",
                "Claim C13: count phi in O(1) rounds; triangle count = "
                "assignments / 6; values match the exact oracle.");

  std::printf("\n-- triangle counting --\n");
  bench::columns({"n", "rounds", "triangles", "oracle", "|C|"});
  for (int n : {10, 20, 40, 80}) {
    gen::Rng rng(3);
    const Graph g = gen::random_bounded_treedepth(n, 3, 0.5, rng);
    congest::Network net(g);
    const auto out =
        dist::run(net,
            {dist::Kind::kCount, mso::lib::triangle_tuple(),
             {{"X", mso::Sort::VertexSet},
              {"Y", mso::Sort::VertexSet},
              {"Z", mso::Sort::VertexSet}}},
            3);
    if (out.treedepth_exceeded) continue;
    bench::row((long long)n, out.total_rounds(), (long long)(out.count / 6),
               (long long)exact::count_triangles(g),
               (long long)out.num_classes);
  }

  std::printf("\n-- independent-set counting --\n");
  bench::columns({"n", "rounds", "count", "oracle"});
  for (int n : {10, 16, 22}) {
    gen::Rng rng(17);
    const Graph g = gen::random_bounded_treedepth(n, 3, 0.4, rng);
    congest::Network net(g);
    const auto out =
        dist::run(net,
                  {dist::Kind::kCount, mso::lib::independent_set_indicator(),
                   {{"S", mso::Sort::VertexSet}}}, 3);
    if (out.treedepth_exceeded) continue;
    bench::row((long long)n, out.total_rounds(), (long long)out.count,
               (long long)exact::count_independent_sets(g));
  }
  return 0;
}
