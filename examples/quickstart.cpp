// Quickstart: parse an MSO formula, check it on a graph sequentially
// (Courcelle via the BPT engine), then run the full distributed pipeline
// (Algorithm 2 + Lemma 5.3 + Theorem 6.1) in the CONGEST simulator and
// compare verdicts and round counts.
//
//   ./quickstart [formula]
//
// Default formula: triangle-freeness. The formula must be closed; see
// src/mso/parser.hpp for the grammar.
#include <cstdio>
#include <string>

#include "congest/network.hpp"
#include "dist/query.hpp"
#include "graph/generators.hpp"
#include "mso/parser.hpp"
#include "seq/courcelle.hpp"

using namespace dmc;

int main(int argc, char** argv) {
  const std::string text =
      argc > 1 ? argv[1]
               : "!exists vertex x, y, z. adj(x,y) & adj(y,z) & adj(x,z)";
  std::printf("formula: %s\n", text.c_str());
  const mso::FormulaPtr formula = mso::parse(text);

  // A small network of bounded treedepth: cliques hanging off a hub.
  const Graph g = gen::star_of_cliques(/*k=*/3, /*size=*/3);
  std::printf("graph:   %s\n", g.to_string().c_str());

  // 1. Sequential check (Algorithm 1 on a canonical tree decomposition).
  const bool seq_verdict = seq::decide(g, formula);
  std::printf("sequential verdict: %s\n", seq_verdict ? "holds" : "fails");

  // 2. Distributed check in the CONGEST simulator (treedepth budget d=3).
  congest::Network net(g, {.id_seed = 1});
  const auto outcome =
      dist::run(net, {dist::Kind::kDecision, formula}, /*d=*/3);
  if (outcome.treedepth_exceeded) {
    std::printf("distributed: treedepth budget exceeded\n");
    return 1;
  }
  std::printf("distributed verdict: %s\n", outcome.holds ? "holds" : "fails");
  std::printf(
      "rounds: %ld total (elim tree %ld + bags %ld + up/down %ld)\n",
      outcome.total_rounds(), outcome.rounds_elim, outcome.rounds_bags,
      outcome.rounds_solve);
  std::printf("class universe |C| = %zu, class messages <= %d bits\n",
              outcome.num_classes, outcome.max_class_bits);
  std::printf("network stats: %ld messages, %lld bits, bandwidth %d b/edge\n",
              net.stats().messages, net.stats().total_bits, net.bandwidth());
  return seq_verdict == outcome.holds ? 0 : 1;
}
