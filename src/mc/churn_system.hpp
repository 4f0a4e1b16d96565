// Churn-repair model-checking scenarios (dmc-mc).
//
// A ChurnScenario runs a full churn::ChurnEngine episode — init, then one
// scripted mutation batch per epoch, each with incremental elimination-tree
// repair and cache replay — on the reliable-transport fault path with a
// SchedulerHook installed. Every frame delivery, link defer, early
// retransmit firing, and crash position across *all* of the episode's
// epoch networks becomes a choice point the explorer drives; the clean
// oracle networks the engine uses for digest verification are deliberately
// schedule-free (verify_step copies only the id seed), so the oracle is a
// fixed reference inside every interleaving.
//
// Invariants checked on each execution:
//   - no exception escapes the engine (structured degradation only);
//   - a degraded epoch carries a degraded RunOutcome status (taxonomy);
//   - a completed, oracle-verified epoch digest-matches the from-scratch
//     recomputation (repair is never silently wrong under adversarial
//     schedules);
//   - for lossless scenarios (must_complete): every epoch completes and
//     verifies, and the episode digest is schedule-independent.
//
// DPOR structure is inherited from the congest model: the process of a
// link action is its directed link, opposite directions of one edge are
// dependent through the piggybacked-ack state, crashes are dependent with
// every action on an incident edge. Choice points from different epochs
// never race (epoch networks are constructed and torn down sequentially),
// which DPOR discovers by itself — the vector-clock ordering makes every
// cross-epoch pair causally related.
#pragma once

#include <string>

#include "churn/engine.hpp"
#include "churn/script.hpp"
#include "congest/faults.hpp"
#include "congest/sched_hook.hpp"
#include "graph/graph.hpp"
#include "mc/explorer.hpp"

namespace dmc::mc {

struct ChurnScenario {
  std::string name;
  std::string description;
  Graph graph;
  dist::Query query;
  churn::ChurnScript script;
  congest::FaultPlan plan;  // lossless by default; crashes are explored
  int d = 2;
  /// Lossless scenarios must complete and verify every epoch; crash
  /// scenarios legitimately degrade depending on where the crash lands.
  bool must_complete = true;
  /// Off when the outcome is schedule-dependent (crash positioning).
  bool check_digest = true;
  /// Per-epoch from-scratch oracle comparison inside each execution
  /// (churn::Options::verify). The oracle networks are schedule-free, so
  /// this pins every interleaving to one external reference — keep it on
  /// for lossless scenarios, off for crash ones (verify only runs on
  /// completed epochs anyway, and crash episodes rarely complete).
  bool verify = true;
  int max_rounds = 2048;
  int stall_quiet_rounds = 4;
};

class ChurnSystem : public System {
 public:
  struct Options {
    int defer_bound = 1;
    int extra_tx_bound = 1;
  };

  ChurnSystem(ChurnScenario scenario, Options options);

  Execution run(const PickFn& pick) override;
  bool dependent(const Action& a, const Action& b) const override;
  std::string name() const override { return scenario_.name; }

 private:
  Action to_action(const congest::SchedChoice& choice) const;

  ChurnScenario scenario_;
  Options options_;
};

/// The built-in churn scenarios (registered in scenarios.cpp):
ChurnScenario scenario_churn_repair();
ChurnScenario scenario_churn_crash();

}  // namespace dmc::mc
