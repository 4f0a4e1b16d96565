// The dmc-mc System for every scenario on the hooked reliable transport.
//
// A CongestScenario runs on the reliable-transport fault path with a
// SchedulerHook installed (congest/sched_hook.hpp): every frame delivery,
// link defer, early retransmit-timer firing, and crash event becomes a
// choice point the explorer (explorer.hpp) drives. The scenario supplies
// the network configuration parts (fault plan, audit, round limits) and
// one body; CongestSystem builds the hooked config from them and runs the
// body once per execution — stateless replay. The body constructs what it
// runs from scratch: the 2–3-node program scenarios below run one Network
// and check the programs' final states; the churn scenarios
// (churn_system.hpp) run a whole churn::ChurnEngine episode, whose epoch
// networks all carry the hook. Every execution ends with a canonical
// digest that must be identical on every interleaving whenever the
// scenario declares its outcome schedule-independent.
//
// DPOR structure: the *process* of a link action (deliver / defer /
// retransmit) is its directed link. Delivery on a link also touches the
// reverse channel's piggybacked-ack state, so the two directions of one
// edge are dependent (distinct processes — no program order relates
// them) while distinct edges commute. A crash's process is the crashed
// node; it is dependent with every action on an incident edge. Choice
// points of different networks (a churn episode's epochs) never race: the
// networks run one after another, so DPOR sees them causally ordered.
// Adversary budgets (ScenarioOptions: defers and extra transmissions per
// execution) keep the optional-action branching finite.
#pragma once

#include <functional>
#include <string>

#include "congest/faults.hpp"
#include "congest/network.hpp"
#include "mc/explorer.hpp"
#include "mc/scenarios.hpp"

namespace dmc::mc {

struct CongestScenario {
  std::string name;
  std::string description;
  /// Lossless links: the nondeterminism is the hook's. Crashes and the
  /// planted ordering bug (FaultPlan::mc_planted_ack_before_dup_check,
  /// the dmc-mc --self-check target) go here.
  congest::FaultPlan plan;
  /// Wire-format audit on every interleaving (declared-vs-encoded bits).
  bool audit = true;
  /// Off when the outcome legitimately depends on the schedule (crash
  /// positioning); the body's checks are then the only cross-schedule
  /// invariant.
  bool check_digest = true;
  int max_rounds = 48;
  int stall_quiet_rounds = 4;
  /// One execution under `cfg`, the hooked transport config: fills the
  /// outcome, violations and digest of the Execution.
  std::function<void(const congest::NetworkConfig& cfg, Execution&)> body;
};

class CongestSystem : public System {
 public:
  CongestSystem(CongestScenario scenario, ScenarioOptions options);

  Execution run(const PickFn& pick) override;
  bool dependent(const Action& a, const Action& b) const override;
  std::string name() const override { return scenario_.name; }

 private:
  CongestScenario scenario_;
  ScenarioOptions options_;
};

/// The built-in program scenarios (see scenarios.cpp for the registry):
CongestScenario scenario_transport_pair(bool planted_bug);
CongestScenario scenario_transport_chain3();
CongestScenario scenario_transport_crash3();

}  // namespace dmc::mc
