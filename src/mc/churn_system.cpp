#include "mc/churn_system.hpp"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "churn/engine.hpp"
#include "churn/script.hpp"
#include "mso/formulas.hpp"

namespace dmc::mc {

namespace {

/// A 4-cycle that loses edge 0-1 in epoch 1, on the decision pipeline.
/// `lossless` scenarios must complete and verify every epoch and fold a
/// schedule-independent digest; otherwise (a crash in every epoch network)
/// where the crash lands decides which epochs survive, so only the
/// taxonomy invariants hold and the per-epoch oracle stays off (verify
/// only runs on completed epochs anyway, and crash episodes rarely
/// complete).
CongestScenario churn_episode(bool lossless) {
  CongestScenario s;
  s.audit = false;  // the pipelines' codecs are the audit suite's (-L audit)
  s.check_digest = lossless;
  s.max_rounds = 2048;
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 0);
  dist::Query query;
  query.kind = dist::Kind::kDecision;
  query.formula = mso::lib::triangle_free();
  // Deleting a cycle edge leaves the 4-path: connectivity holds, td stays
  // within budget, and the repair takes the rule-3 (edge change) path.
  s.body = [lossless, g = std::move(g), query = std::move(query),
            script = churn::parse_churn_script("del=0-1")](
               const congest::NetworkConfig& cfg, Execution& e) {
    churn::Options copts;
    copts.d = 3;
    copts.verify = lossless;
    copts.net = cfg;
    churn::ChurnEngine engine(g, query, copts);
    const std::vector<churn::StepOutcome> outs = engine.run(script);

    std::uint64_t digest = kFnvBasis;
    bool degraded = false;
    for (std::size_t i = 0; i < outs.size(); ++i) {
      const churn::StepOutcome& out = outs[i];
      const std::string epoch = "epoch " + std::to_string(i);
      if (!out.ok()) {
        degraded = true;
        // RunOutcome taxonomy: a degraded epoch must carry the degraded
        // network outcome that defeated it, never a completed one.
        if (out.run.status == congest::RunStatus::kCompleted)
          e.violations.push_back(
              epoch + " degraded with a completed RunOutcome (taxonomy)");
        if (lossless)
          e.violations.push_back(epoch + " degraded (" +
                                 congest::to_string(out.run.status) +
                                 ") under a lossless fault plan");
        continue;
      }
      if (out.verified && !out.digest_ok)
        e.violations.push_back(
            epoch + ": incremental digest diverged from the from-scratch "
                    "oracle under this schedule (" +
            out.note + ")");
      // Fold only schedule-independent facts: the verdict digest, how the
      // epoch was obtained, and the refold footprint (the repair runs
      // coordinator-side on the graph alone). Round counts legitimately
      // vary with defers/retransmits and stay out.
      digest = fold64(digest, out.digest);
      digest = fold64(digest, static_cast<std::uint64_t>(out.status));
      digest = fold64(digest, static_cast<std::uint64_t>(out.refold_count));
    }
    e.outcome = degraded ? "degraded" : "completed";
    e.digest = digest;
  };
  return s;
}

}  // namespace

CongestScenario scenario_churn_repair() {
  CongestScenario s = churn_episode(/*lossless=*/true);
  s.name = "churn-repair";
  s.description =
      "4-cycle edge deletion under lossless hooked transport: the "
      "incremental repair epoch must complete, digest-match the "
      "from-scratch oracle, and keep its refold footprint on every "
      "interleaving";
  return s;
}

CongestScenario scenario_churn_crash() {
  CongestScenario s = churn_episode(/*lossless=*/false);
  s.name = "churn-crash";
  s.description =
      "churn-repair with node 1 crash-stopping at round 2 in every epoch "
      "network: each epoch either completes or degrades with the crash "
      "taxonomy, at every explored crash position";
  s.plan.crashes.push_back(congest::CrashFault{1, 2});
  return s;
}

}  // namespace dmc::mc
