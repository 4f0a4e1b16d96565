// Optimization + optmarked verification (Theorem 6.1 and Section 6).
//
// First the network solves max independent set distributively; then the
// solution is installed as the "marked" label and an independent optmarked
// run produces a distributed proof that the configuration is optimal —
// the paper's "is the marked set a maximum independent set?" scenario.
#include <cstdio>

#include "congest/network.hpp"
#include "dist/query.hpp"
#include "graph/generators.hpp"
#include "mso/formulas.hpp"

using namespace dmc;

int main() {
  gen::Rng rng(99);
  Graph g = gen::random_bounded_treedepth(16, 3, 0.4, rng);
  gen::randomize_weights(g, 1, 9, rng);
  std::printf("network: n=%d m=%d, weighted vertices\n", g.num_vertices(),
              g.num_edges());

  // Phase 1: solve max independent set.
  std::vector<bool> solution;
  Weight value = 0;
  {
    congest::Network net(g);
    const auto out =
        dist::run(net,
                  {dist::Kind::kMaximize, mso::lib::independent_set(),
                   {{"S", mso::Sort::VertexSet}}}, 3);
    if (out.treedepth_exceeded || !out.best_weight) return 1;
    solution = out.vertices;
    value = *out.best_weight;
    std::printf("max independent set: weight %lld in %ld rounds\n",
                static_cast<long long>(value), out.total_rounds());
  }

  // Phase 2: verify the configuration with optmarked.
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    if (solution[v]) g.set_vertex_label("marked", v);
  {
    congest::Network net(g);
    const auto out =
        dist::run(net,
                  {dist::Kind::kOptMarked, mso::lib::independent_set(),
                   {{"S", mso::Sort::VertexSet}}}, 3);
    std::printf(
        "optmarked: satisfies=%s optimal=%s (marked %lld vs best %lld), "
        "%ld rounds\n",
        out.holds ? "yes" : "no", out.is_optimal ? "yes" : "no",
        static_cast<long long>(out.marked_weight),
        static_cast<long long>(out.best_weight.value_or(0)),
        out.total_rounds());
    if (!out.holds || !out.is_optimal) return 1;
  }

  // Phase 3: perturb the marking — the verifier must reject.
  {
    Graph bad = g;
    for (VertexId v = 0; v < bad.num_vertices(); ++v)
      bad.set_vertex_label("marked", v, false);
    congest::Network net(bad);  // empty marking: feasible but not optimal
    const auto out =
        dist::run(net,
                  {dist::Kind::kOptMarked, mso::lib::independent_set(),
                   {{"S", mso::Sort::VertexSet}}}, 3);
    std::printf("empty marking rejected as optimal: %s\n",
                !out.is_optimal ? "yes" : "NO");
    if (out.is_optimal) return 1;
  }
  return 0;
}
