// Churn-repair model-checking scenarios (dmc-mc).
//
// A churn scenario is a CongestScenario (congest_system.hpp) whose body
// runs a full churn::ChurnEngine episode — init, then one scripted
// mutation batch per epoch, each with incremental elimination-tree repair
// and cache replay — under the hooked transport config. Every frame
// delivery, link defer, early retransmit firing, and crash position across
// *all* of the episode's epoch networks becomes a choice point the
// explorer drives; the clean oracle networks the engine uses for digest
// verification are deliberately schedule-free (verify_step copies only the
// id seed), so the oracle is a fixed reference inside every interleaving.
// An episode is 790–890 choice points deep: explore it with a depth bound
// of at least 1024.
//
// Invariants checked on each execution:
//   - no exception escapes the engine (structured degradation only);
//   - a degraded epoch carries a degraded RunOutcome status (taxonomy);
//   - a completed, oracle-verified epoch digest-matches the from-scratch
//     recomputation (repair is never silently wrong under adversarial
//     schedules);
//   - for lossless scenarios: every epoch completes and verifies, and the
//     episode digest is schedule-independent.
#pragma once

#include "mc/congest_system.hpp"

namespace dmc::mc {

/// The built-in churn scenarios (registered in scenarios.cpp):
CongestScenario scenario_churn_repair();
CongestScenario scenario_churn_crash();

}  // namespace dmc::mc
