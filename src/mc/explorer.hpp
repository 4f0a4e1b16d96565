// Stateless model checking with dynamic partial-order reduction (dmc-mc).
//
// A System under test is anything that can re-execute itself from its
// initial state while routing every nondeterministic decision through a
// pick callback. There are two: CongestSystem (congest_system.*) runs
// every scenario on the hooked reliable transport — the program scenarios
// and the churn episodes alike — through the SchedulerHook seam of
// src/congest/sched_hook.hpp, and ServeSystem (serve_system.*) runs the
// serve scheduler's admission/deadline/drain state machine.
// Executions are *replayed*, never checkpointed — the classic stateless
// approach of VeriSoft/SimGrid — so the System needs no snapshot support,
// only determinism: the same picks must produce the same run.
//
// The explorer enumerates bounded schedule spaces depth-first:
//
//   - Each choice point becomes a tree node holding the enabled actions.
//   - Dynamic partial-order reduction (persistent-set flavored): a race —
//     two dependent actions of different processes, the later one enabled
//     at the earlier point — adds the later action's *process* to the
//     earlier node's backtrack set; exploring a process means exploring
//     every enabled action of that process (delivering a link's frame vs.
//     holding it back are alternatives of the same process). Commuting
//     actions on independent processes are explored in one order only —
//     that is the reduction.
//   - Optional (adversary-injected) actions — link defers and early
//     retransmit-timer firings — never occur in a default run and hence
//     never appear in races; each is branched into directly (by action
//     key, so the process's mandatory alternatives are not dragged in),
//     and the budget filtering in the System keeps that finite. Sleep
//     sets prune re-exploring an action that an earlier sibling branch
//     already covered.
//
// Every execution counts toward ExplorerOptions::max_schedules, completed
// or pruned at the depth bound, so a bound that prunes every execution
// still stops at the cap (and ExploreResult::schedules reads 0).
//
// Safety checks per execution: System-reported invariant violations,
// uncaught exceptions, and cross-schedule digest equality (the canonical
// end-state digest of the first execution is the reference; any
// divergence is a schedule-dependent outcome). Violating executions are
// captured as counterexamples replayable via sched_trace.hpp.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace dmc::mc {

/// One schedulable transition at a choice point, in System-neutral form.
struct Action {
  /// Stable semantic identity within its choice point across replays
  /// (never an index; indices are not stable across sibling branches).
  std::uint64_t key = 0;
  /// DPOR process/group id. Actions of one process are mutually
  /// dependent; exploring the process explores all of them.
  int process = 0;
  /// Optional actions (defers, early retransmits) may be collectively
  /// declined at a choice point; mandatory ones (deliveries, crashes)
  /// may not.
  bool optional_action = false;
  /// Crash-like: dependent with every action touching node `u`.
  bool crash = false;
  /// Touched node ids, -1 when not node-scoped (serve model).
  int u = -1, v = -1;
  /// System-private discriminator (the action kind), for dependence
  /// relations finer than process identity.
  int tag = 0;
  std::string label;
};

/// A recorded choice point: what was enabled, what was taken. chosen == -1
/// means the (all-optional) set was declined.
struct Step {
  std::vector<Action> enabled;
  int chosen = -1;
};

/// Thrown by a pick callback to abandon the current execution (depth
/// bound). Deliberately NOT derived from std::exception so a System's
/// defensive catch blocks let it propagate to the explorer.
struct PruneExecution {};

/// Outcome of one execution, reported by the System.
struct Execution {
  std::vector<std::string> violations;
  std::uint64_t digest = 0;
  /// False when the scenario's outcome is legitimately schedule-dependent
  /// (crash positioning, deadline expiry) and digests must not be compared.
  bool digest_valid = false;
  std::string outcome;
};

using PickFn = std::function<int(const std::vector<Action>&)>;

/// The FNV-1a fold every System builds its Execution::digest with.
constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;
inline std::uint64_t fold64(std::uint64_t h, std::uint64_t x) {
  return (h ^ x) * 1099511628211ull;
}

class System {
 public:
  virtual ~System() = default;
  /// One execution from the initial state; every nondeterministic choice
  /// is resolved by `pick` (whose PruneExecution must propagate).
  /// Deterministic: equal pick sequences must yield equal runs.
  virtual Execution run(const PickFn& pick) = 0;
  virtual bool dependent(const Action& a, const Action& b) const = 0;
  virtual std::string name() const = 0;
};

struct ExplorerOptions {
  /// Off = full enumeration (every process backtracked everywhere, no
  /// sleep sets) — the baseline the reduction factor is measured against.
  bool dpor = true;
  /// Max choice points per execution; deeper runs are pruned (counted,
  /// not explored further).
  int depth_bound = 512;
  /// Hard cap on executions, completed and pruned alike; exploration stops
  /// (hit_schedule_cap) there.
  long max_schedules = 20000;
  bool stop_on_violation = false;
  int max_counterexamples = 4;
};

struct Counterexample {
  std::vector<Step> steps;
  std::vector<std::string> violations;
  std::string outcome;
};

struct ExploreResult {
  long schedules = 0;  // completed executions
  long pruned = 0;     // abandoned at the depth bound
  long violations = 0; // violation messages across all executions
  long max_depth = 0;  // deepest choice-point count seen
  bool hit_schedule_cap = false;
  bool digest_divergence = false;
  bool have_reference_digest = false;
  std::uint64_t reference_digest = 0;
  std::vector<Counterexample> counterexamples;

  bool clean() const { return violations == 0 && !digest_divergence; }
};

ExploreResult explore(System& system, const ExplorerOptions& options);

/// One entry of a replayable schedule (sched_trace.hpp round-trips these).
struct TraceEntry {
  bool decline = false;     // the step declined an all-optional set
  std::uint64_t key = 0;    // Action::key of the taken transition
  std::string label;        // human-readable; ignored on replay
};

std::vector<TraceEntry> to_trace(const std::vector<Step>& steps);

struct ReplayResult {
  Execution exec;
  std::vector<Step> steps;  // what actually ran
  bool diverged = false;    // a trace key was absent from the enabled set
  std::string divergence;
};

/// Re-executes one recorded schedule: each trace entry is matched by
/// action key against the enabled set; past the trace end (or on
/// divergence) the default policy applies (first mandatory action, else
/// decline).
ReplayResult replay(System& system, const std::vector<TraceEntry>& trace);

}  // namespace dmc::mc
