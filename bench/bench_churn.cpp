// E15 — churn repair: incremental re-solve cost vs from-scratch recompute.
//
// Each sweep point builds a ChurnEngine on a random bounded-treedepth
// graph, pays the full distributed pipeline once (init), then applies a
// deterministic sequence of seeded churn events. An incremental epoch
// repairs the elimination tree coordinator-side (zero distributed
// prologue rounds — Lemma 2.4: the canonical bags are determined by the
// tree), re-folds only the dirty set's ancestor closure, and replays the
// cached BPT tables everywhere else. The claim under measurement: the
// epoch's distributed rounds and BPT folds track the refold closure, not
// n — while every completed epoch's verdict digest stays equal to the
// from-scratch oracle ("never silently wrong").
//
// All values are simulator round counts / fold counts, not wall-clock
// times, so the rows are bit-deterministic and gate-able (bench_gate.py
// against bench/baselines/BENCH_E15.json).
#include <cstdio>
#include <string>

#include "bench_util.hpp"
#include "churn/engine.hpp"
#include "churn/script.hpp"
#include "graph/generators.hpp"
#include "mso/formulas.hpp"

using namespace dmc;

int main() {
  bench::header(
      "E15: churn repair — incremental epochs vs from-scratch recompute",
      "Claim: a churn epoch spends zero distributed prologue rounds (tree "
      "repaired coordinator-side, bags replayed) and re-folds only the "
      "dirty ancestor closure; rounds and folds track the closure, not n, "
      "and every completed epoch digest-matches the from-scratch oracle.");

  bench::columns({"n", "event", "status", "refold", "rounds", "folds",
                  "oracle"});
  for (int n : {16, 32, 64, 128}) {
    gen::Rng rng(23);
    const Graph g = gen::random_bounded_treedepth(n, 3, 0.25, rng);
    churn::Options opts;
    opts.d = 4;  // headroom: seeded edge inserts may deepen the tree
    churn::ChurnEngine engine(
        g, {dist::Kind::kDecision, mso::lib::triangle_free()}, opts);

    const churn::StepOutcome init = engine.init();
    if (!init.ok()) {
      std::printf("E15 FAILED: init degraded at n=%d\n", n);
      return 1;
    }
    bench::row((long long)n, "init", churn::to_string(init.status),
               init.refold_count, init.rounds, init.folds,
               init.verified ? (init.digest_ok ? "match" : "MISMATCH")
                             : "skip");

    for (int k = 0; k < 4; ++k) {
      const churn::ChurnEvent ev = churn::random_event(engine.graph(), 7, k);
      const churn::StepOutcome out = engine.step({ev});
      const char* oracle = out.verified
                               ? (out.digest_ok ? "match" : "MISMATCH")
                               : "skip";
      bench::row((long long)n, churn::format_event(ev),
                 churn::to_string(out.status), out.refold_count, out.rounds,
                 out.folds, oracle);
      if (out.verified && !out.digest_ok) {
        std::printf("E15 FAILED: digest mismatch at n=%d event %s\n", n,
                    churn::format_event(ev).c_str());
        return 1;
      }
      if (!out.ok()) {
        std::printf("E15 FAILED: fault-free epoch degraded at n=%d\n", n);
        return 1;
      }
    }
  }

  std::printf(
      "\nReading: `refold` is the dirty ancestor closure an incremental "
      "epoch re-folds (n on init/full recomputes); `rounds` excludes the "
      "distributed prologue a from-scratch run pays (compare the init "
      "row of the same n). `oracle` is the per-epoch digest check against "
      "a clean from-scratch re-solve.\n");
  return 0;
}
