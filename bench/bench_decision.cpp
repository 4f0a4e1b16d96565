// E3 — Theorem 6.1 (decision): MSO model checking in O(2^{2d}) rounds,
// independent of n, vs the gather-at-root baseline whose rounds grow
// linearly with n. The crossover is the headline "shape" of the paper.
#include "bench_util.hpp"
#include "congest/network.hpp"
#include "dist/baseline.hpp"
#include "dist/query.hpp"
#include "graph/generators.hpp"
#include "mso/formulas.hpp"

using namespace dmc;

int main() {
  bench::header(
      "E3: distributed MSO decision vs gather baseline (Theorem 6.1)",
      "Claim C10: protocol rounds are O(2^{2d}) and flat in n; the "
      "baseline grows ~linearly; messages carry ceil(log|C|)-bit classes.");

  struct Case {
    const char* name;
    mso::FormulaPtr formula;
  };
  const Case cases[] = {
      {"connected", mso::lib::connected()},
      {"isolated", mso::lib::has_isolated_vertex_lowrank()},
      {"triangle_free", mso::lib::triangle_free()},
  };

  for (const Case& c : cases) {
    std::printf("\n-- formula: %s --\n", c.name);
    bench::columns({"n", "proto_rounds", "base_rounds", "holds", "|C|",
                    "class_bits"});
    // Traced sweep: attribute the protocol's rounds to its pipeline stages
    // (elim-tree / bags / decide) to show each stays flat in n.
    obs::CurveTable stages;
    for (int n : {16, 32, 64, 128, 256}) {
      gen::Rng rng(23);
      const Graph g = gen::random_bounded_treedepth(n, 3, 0.25, rng);
      long proto_rounds = 0, base_rounds = 0;
      bool holds = false;
      std::size_t classes = 0;
      int cbits = 0;
      {
        obs::TraceBuffer trace;
        congest::NetworkConfig cfg;
        cfg.sink = &trace;
        congest::Network net(g, cfg);
        const auto out = dist::run(net, {dist::Kind::kDecision, c.formula}, 3);
        if (out.treedepth_exceeded) continue;
        proto_rounds = out.total_rounds();
        holds = out.holds;
        classes = out.num_classes;
        cbits = out.max_class_bits;
        bench::curve_from_phases(stages, n, obs::summarize(trace),
                                 /*depth=*/1);
      }
      {
        congest::Network net(g);
        base_rounds = dist::run_gather_baseline(net, c.formula).rounds;
      }
      bench::row((long long)n, proto_rounds, base_rounds, (long long)holds,
                 (long long)classes, (long long)cbits);
    }
    std::printf("\nprotocol rounds per stage (traced):\n%s",
                stages.format("n").c_str());
  }
  return 0;
}
