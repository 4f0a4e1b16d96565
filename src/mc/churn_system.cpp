#include "mc/churn_system.hpp"

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "mso/formulas.hpp"

namespace dmc::mc {

namespace {

std::uint64_t fold64(std::uint64_t h, std::uint64_t x) {
  h ^= x;
  h *= 1099511628211ull;
  return h;
}

constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;

/// Crash processes live above every edge process (scenario graphs are
/// tiny; edge ids are small). Same convention as congest_system.cpp.
constexpr int kCrashProcessBase = 1'000'000;

/// SchedulerHook adapter; mirrors the one in congest_system.cpp (which is
/// file-local by design — each System owns its budget semantics): filters
/// optional offers by the per-execution adversary budgets before the
/// choice point is recorded, forwards runtime invariant breaches.
class Hook : public congest::SchedulerHook {
 public:
  Hook(const ChurnSystem::Options& opts, const PickFn& pick,
       const std::function<Action(const congest::SchedChoice&)>& to_action,
       std::vector<std::string>& violations)
      : pick_(pick),
        to_action_(to_action),
        violations_(violations),
        defers_left_(opts.defer_bound),
        extra_tx_left_(opts.extra_tx_bound) {}

  int choose(long /*physical_round*/,
             const std::vector<congest::SchedChoice>& enabled) override {
    using Kind = congest::SchedChoice::Kind;
    std::vector<int> offered;  // index into `enabled`
    std::vector<Action> actions;
    for (int i = 0; i < static_cast<int>(enabled.size()); ++i) {
      const congest::SchedChoice& c = enabled[i];
      if (c.kind == Kind::kDefer && defers_left_ <= 0) continue;
      if (c.kind == Kind::kRetransmit && extra_tx_left_ <= 0) continue;
      offered.push_back(i);
      actions.push_back(to_action_(c));
    }
    if (offered.empty()) return -1;  // only budget-exhausted options left
    const int picked = pick_(actions);
    if (picked < 0) return -1;
    const congest::SchedChoice& taken = enabled[offered[picked]];
    if (taken.kind == Kind::kDefer) defers_left_ -= 1;
    if (taken.kind == Kind::kRetransmit) extra_tx_left_ -= 1;
    return offered[picked];
  }

  void note_violation(const std::string& what) override {
    violations_.push_back(what);
  }

 private:
  const PickFn& pick_;
  const std::function<Action(const congest::SchedChoice&)>& to_action_;
  std::vector<std::string>& violations_;
  int defers_left_;
  int extra_tx_left_;
};

}  // namespace

ChurnSystem::ChurnSystem(ChurnScenario scenario, Options options)
    : scenario_(std::move(scenario)), options_(options) {}

Action ChurnSystem::to_action(const congest::SchedChoice& c) const {
  Action a;
  a.key = c.key();
  a.label = c.label();
  using Kind = congest::SchedChoice::Kind;
  a.tag = static_cast<int>(c.kind);
  a.optional_action = c.kind == Kind::kDefer || c.kind == Kind::kRetransmit;
  if (c.kind == Kind::kCrash) {
    a.crash = true;
    a.u = static_cast<int>(c.src);
    a.process = kCrashProcessBase + static_cast<int>(c.src);
  } else {
    a.u = static_cast<int>(c.src);
    a.v = static_cast<int>(c.dst);
    a.process = c.link;
  }
  return a;
}

Execution ChurnSystem::run(const PickFn& pick) {
  Execution e;
  std::function<Action(const congest::SchedChoice&)> conv =
      [this](const congest::SchedChoice& c) { return to_action(c); };
  Hook hook(options_, pick, conv, e.violations);

  churn::Options copts;
  copts.d = scenario_.d;
  copts.verify = scenario_.verify;
  copts.net.max_rounds = scenario_.max_rounds;
  copts.net.stall_quiet_rounds = scenario_.stall_quiet_rounds;
  copts.net.faults = scenario_.plan;  // engages the hooked transport path
  copts.net.scheduler = &hook;

  churn::ChurnEngine engine(scenario_.graph, scenario_.query, copts);
  std::vector<churn::StepOutcome> outs;
  try {
    outs = engine.run(scenario_.script);
  } catch (const std::exception& ex) {
    // Churn degradation is structured (StepStatus::kDegraded); an escaped
    // exception is itself the bug. PruneExecution is not a std::exception
    // and passes through to the explorer untouched.
    e.violations.push_back(std::string("churn engine exception: ") +
                           ex.what());
    e.outcome = "exception";
    return e;
  }

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
      if (scenario_.must_complete)
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
  e.digest_valid = scenario_.check_digest;
  return e;
}

bool ChurnSystem::dependent(const Action& a, const Action& b) const {
  // Same relation as CongestSystem: every epoch's network is the same
  // reliable-transport runtime, and choice points of different epochs are
  // causally ordered (the networks run sequentially), so per-epoch edge
  // reasoning carries over unchanged.
  if (a.process == b.process) return true;
  if (a.crash && b.crash) return true;
  if (a.crash) return b.u == a.u || b.v == a.u;
  if (b.crash) return a.u == b.u || a.v == b.u;
  if (a.u != b.v || a.v != b.u) return false;  // distinct edges commute
  using Kind = congest::SchedChoice::Kind;
  const auto ka = static_cast<Kind>(a.tag), kb = static_cast<Kind>(b.tag);
  return (ka == Kind::kDeliver && kb == Kind::kRetransmit) ||
         (ka == Kind::kRetransmit && kb == Kind::kDeliver);
}

// --- scenarios ---------------------------------------------------------

ChurnScenario scenario_churn_repair() {
  ChurnScenario s;
  s.name = "churn-repair";
  s.description =
      "4-cycle edge deletion under lossless hooked transport: the "
      "incremental repair epoch must complete, digest-match the "
      "from-scratch oracle, and keep its refold footprint on every "
      "interleaving";
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 0);
  s.graph = std::move(g);
  s.query.kind = dist::Kind::kDecision;
  s.query.formula = mso::lib::triangle_free();
  // Deleting a cycle edge leaves the 4-path: connectivity holds, td stays
  // within budget, and the repair takes the rule-3 (edge change) path.
  s.script = churn::parse_churn_script("del=0-1");
  s.d = 3;
  return s;
}

ChurnScenario scenario_churn_crash() {
  ChurnScenario s = scenario_churn_repair();
  s.name = "churn-crash";
  s.description =
      "churn-repair with node 1 crash-stopping at round 2 in every epoch "
      "network: each epoch either completes or degrades with the crash "
      "taxonomy, at every explored crash position";
  s.plan.crashes.push_back(congest::CrashFault{1, 2});
  // Where the crash lands among the deliveries decides which epochs (and
  // which fallbacks) survive; only the taxonomy invariants hold.
  s.must_complete = false;
  s.check_digest = false;
  s.verify = false;
  return s;
}

}  // namespace dmc::mc
