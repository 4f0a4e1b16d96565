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
// All values but epoch_ms are simulator round counts / fold counts, so the
// rows are bit-deterministic and gate-able (bench_gate.py against
// bench/baselines/BENCH_E15.json); epoch_ms is wall-clock, a timing field
// the gate skips unless given --timing-tolerance.
#include <chrono>
#include <cstdio>
#include <string>
#include <utility>

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
                  "oracle", "epoch_ms"});
  // n = 16..128 share one graph seed; n = 5000 is perfbench's churn-edges
  // graph, where a refold closure is a sliver of n and epoch_ms shows
  // what an epoch costs the coordinator beyond its closure; n = 50000 (same
  // generator and seed) shows how that cost grows with n.
  const std::pair<int, unsigned> points[] = {
      {16, 23}, {32, 23}, {64, 23}, {128, 23}, {5000, 5000}, {50000, 5000}};
  for (const auto& [n, seed] : points) {
    gen::Rng rng(seed);
    const Graph g = gen::random_bounded_treedepth(n, 3, 0.25, rng);
    const dist::Query query{dist::Kind::kDecision, mso::lib::triangle_free()};
    churn::Options opts;
    opts.d = 4;  // headroom: seeded edge inserts may deepen the tree
    churn::ChurnEngine engine(g, query, opts);
    // An unverified twin runs the same epochs, so epoch_ms times the epoch
    // without the oracle re-solve that verification adds.
    opts.verify = false;
    churn::ChurnEngine twin(g, query, opts);
    auto timed = [](auto&& epoch) {
      const auto t0 = std::chrono::steady_clock::now();
      const churn::StepOutcome out = epoch();
      const double ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
      return std::pair(out, ms);
    };

    const churn::StepOutcome init = engine.init();
    const auto [twin_init, init_ms] = timed([&] { return twin.init(); });
    if (!init.ok() || twin_init.digest != init.digest) {
      std::printf("E15 FAILED: init degraded or twin diverged at n=%d\n", n);
      return 1;
    }
    bench::row((long long)n, "init", churn::to_string(init.status),
               init.refold_count, init.rounds, init.folds,
               init.verified ? (init.digest_ok ? "match" : "MISMATCH")
                             : "skip",
               init_ms);

    for (int k = 0; k < 4; ++k) {
      const churn::ChurnEvent ev = churn::random_event(engine.graph(), 7, k);
      const churn::StepOutcome out = engine.step({ev});
      const auto [twin_out, ms] = timed([&] { return twin.step({ev}); });
      const char* oracle = out.verified
                               ? (out.digest_ok ? "match" : "MISMATCH")
                               : "skip";
      bench::row((long long)n, churn::format_event(ev),
                 churn::to_string(out.status), out.refold_count, out.rounds,
                 out.folds, oracle, ms);
      if (out.verified && !out.digest_ok) {
        std::printf("E15 FAILED: digest mismatch at n=%d event %s\n", n,
                    churn::format_event(ev).c_str());
        return 1;
      }
      if (!out.ok()) {
        std::printf("E15 FAILED: fault-free epoch degraded at n=%d\n", n);
        return 1;
      }
      if (twin_out.digest != out.digest || twin_out.folds != out.folds) {
        std::printf("E15 FAILED: unverified twin diverged at n=%d\n", n);
        return 1;
      }
    }
  }

  std::printf(
      "\nReading: `refold` is the dirty ancestor closure an incremental "
      "epoch re-folds (n on init/full recomputes); `rounds` excludes the "
      "distributed prologue a from-scratch run pays (compare the init "
      "row of the same n). `oracle` is the per-epoch digest check against "
      "a clean from-scratch re-solve. `epoch_ms` is the wall time of the "
      "same epoch on an unverified twin engine (wall-clock: bench_gate.py "
      "compares it only under --timing-tolerance).\n");
  return 0;
}
