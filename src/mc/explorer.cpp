// DPOR exploration driver (see explorer.hpp for the algorithm sketch).
#include "mc/explorer.hpp"

#include <map>
#include <set>
#include <stdexcept>
#include <utility>

namespace dmc::mc {

namespace {

int default_choice(const std::vector<Action>& enabled) {
  for (int i = 0; i < static_cast<int>(enabled.size()); ++i)
    if (!enabled[i].optional_action) return i;
  return -1;  // all optional: decline
}

/// One node of the (implicit) schedule tree, kept only along the current
/// DFS path — the stateless-exploration memory footprint is O(depth).
struct Node {
  std::vector<Action> enabled;
  int chosen = -1;
  std::set<int> backtrack;                 // processes still to explore
  std::set<std::uint64_t> force;           // optional actions to branch into
  std::map<std::uint64_t, Action> done;    // actions already explored here
  std::map<std::uint64_t, Action> sleep;   // covered by earlier siblings
};

class Driver {
 public:
  Driver(System& sys, const ExplorerOptions& o) : sys_(sys), o_(o) {}

  ExploreResult go() {
    run_one(0);
    dfs(0);
    return std::move(result_);
  }

 private:
  bool stopped() const {
    return result_.hit_schedule_cap ||
           (o_.stop_on_violation && result_.violations > 0);
  }

  /// Sleep set a fresh node at depth d inherits: the parent's sleep and
  /// already-explored siblings, minus everything dependent on the action
  /// the parent just took (a dependent action "wakes up").
  std::map<std::uint64_t, Action> inherited_sleep(std::size_t d) const {
    std::map<std::uint64_t, Action> out;
    if (d == 0 || !o_.dpor) return out;
    const Node& parent = stack_[d - 1];
    const Action* taken =
        parent.chosen >= 0 ? &parent.enabled[parent.chosen] : nullptr;
    auto keep = [&](const std::pair<const std::uint64_t, Action>& e) {
      if (taken != nullptr && e.first == taken->key) return;
      if (taken != nullptr && sys_.dependent(e.second, *taken)) return;
      out.emplace(e.first, e.second);
    };
    for (const auto& e : parent.sleep) keep(e);
    for (const auto& e : parent.done) keep(e);
    return out;
  }

  int pick(const std::vector<Action>& enabled) {
    const std::size_t d = depth_;
    if (static_cast<int>(d) >= o_.depth_bound) throw PruneExecution{};
    if (d < follow_) {
      // Replaying the established prefix: the System must be
      // deterministic, so the enabled set must match what we recorded.
      Node& nd = stack_[d];
      if (nd.enabled.size() != enabled.size() ||
          (nd.chosen >= 0 && enabled[nd.chosen].key !=
                                 nd.enabled[nd.chosen].key))
        throw std::runtime_error(
            "mc explorer: nondeterministic replay at choice point " +
            std::to_string(d) + " of " + sys_.name());
      depth_ += 1;
      return nd.chosen;
    }
    Node nd;
    nd.enabled = enabled;
    nd.sleep = inherited_sleep(d);
    // Default policy: the first mandatory action not known to be covered
    // by an earlier sibling branch; every-mandatory-asleep falls back to
    // the first one (conservative: we never prune a continuation, sleep
    // sets only stop us *branching* into covered actions).
    int choice = -1, fallback = -1;
    for (int i = 0; i < static_cast<int>(enabled.size()); ++i) {
      if (enabled[i].optional_action) continue;
      if (fallback < 0) fallback = i;
      if (nd.sleep.find(enabled[i].key) == nd.sleep.end()) {
        choice = i;
        break;
      }
    }
    if (choice < 0) choice = fallback;
    nd.chosen = choice;
    if (choice >= 0) nd.done.emplace(enabled[choice].key, enabled[choice]);
    // Branch seeding. DPOR: optional (adversary-injected) actions never
    // occur in default runs and hence never appear in races — branch into
    // each of them directly, by key (seeding their *process* would drag
    // every mandatory alternative of the process along and degenerate to
    // full enumeration; the System's budgets bound the per-key seeding).
    // Full enumeration: every process, everywhere.
    for (const Action& a : enabled) {
      if (!o_.dpor)
        nd.backtrack.insert(a.process);
      else if (a.optional_action)
        nd.force.insert(a.key);
    }
    if (o_.dpor && choice >= 0) seed_coenabled(nd, enabled[choice]);
    stack_.push_back(std::move(nd));
    depth_ += 1;
    return choice;
  }

  /// Persistent-set seeding at the choice point itself: every enabled
  /// action of another process that is dependent with the taken one gets
  /// its process backtracked. Pure race analysis over *executed* actions
  /// cannot see these when the taken action disables its rival — e.g. a
  /// crash clears the in-flight frames of incident links, so the
  /// deliver-before-crash order never shows up as an executed race.
  void seed_coenabled(Node& nd, const Action& taken) {
    for (const Action& a : nd.enabled)
      if (a.process != taken.process && sys_.dependent(a, taken))
        nd.backtrack.insert(a.process);
  }

  /// Executes the System following stack_[0..follow) and materializing
  /// fresh nodes beyond; accounts the execution and runs race analysis.
  void run_one(std::size_t follow) {
    depth_ = 0;
    follow_ = follow;
    bool pruned = false;
    Execution e;
    try {
      e = sys_.run([this](const std::vector<Action>& en) { return pick(en); });
    } catch (const PruneExecution&) {
      pruned = true;
    } catch (const std::exception& ex) {
      e.violations.push_back(std::string("uncaught exception: ") + ex.what());
      e.outcome = "exception";
    }
    // A branch may end shallower than the prefix that spawned it (e.g. a
    // crash choice shortens the run): drop nodes the run never reached.
    if (stack_.size() > depth_) stack_.resize(depth_);
    if (static_cast<long>(depth_) > result_.max_depth)
      result_.max_depth = static_cast<long>(depth_);
    // Pruned executions count toward the cap too: a depth bound below
    // every execution's depth would otherwise never reach it. A pruned
    // execution's Execution stays empty (no digest, no violations).
    (pruned ? result_.pruned : result_.schedules) += 1;
    if (result_.schedules + result_.pruned >= o_.max_schedules)
      result_.hit_schedule_cap = true;
    if (e.digest_valid) {
      if (!result_.have_reference_digest) {
        result_.have_reference_digest = true;
        result_.reference_digest = e.digest;
      } else if (e.digest != result_.reference_digest) {
        result_.digest_divergence = true;
        e.violations.push_back(
            "digest divergence: schedule-dependent outcome (got " +
            std::to_string(e.digest) + ", reference " +
            std::to_string(result_.reference_digest) + ")");
      }
    }
    if (!e.violations.empty()) {
      result_.violations += static_cast<long>(e.violations.size());
      if (static_cast<int>(result_.counterexamples.size()) <
          o_.max_counterexamples) {
        Counterexample cx;
        for (const Node& nd : stack_)
          cx.steps.push_back(Step{nd.enabled, nd.chosen});
        cx.violations = e.violations;
        cx.outcome = e.outcome;
        result_.counterexamples.push_back(std::move(cx));
      }
    }
    if (o_.dpor) race_analysis(follow);
  }

  /// For every freshly executed action, find the latest earlier dependent
  /// action of a different process — a race: both orders may matter — and
  /// add the later action's process to the earlier node's backtrack set.
  void race_analysis(std::size_t follow) {
    for (std::size_t j = follow == 0 ? 1 : follow; j < stack_.size(); ++j) {
      const Node& nj = stack_[j];
      if (nj.chosen < 0) continue;
      const Action& aj = nj.enabled[nj.chosen];
      for (std::size_t i = j; i-- > 0;) {
        Node& ni = stack_[i];
        if (ni.chosen < 0) continue;
        const Action& ai = ni.enabled[ni.chosen];
        if (!sys_.dependent(ai, aj)) continue;
        // Same process: aj is causally after ai, no race (and anything
        // before ai is shadowed). Different process: a reversible race.
        if (ai.process != aj.process) {
          bool proc_enabled_at_i = false;
          for (const Action& a : ni.enabled)
            if (a.process == aj.process) {
              proc_enabled_at_i = true;
              break;
            }
          if (proc_enabled_at_i) {
            ni.backtrack.insert(aj.process);
          } else {
            // aj's process was not yet enabled at i: explore the enabled
            // processes dependent with aj. (The classic fallback adds
            // *every* enabled process; in these systems enabling is
            // order-insensitive across independent processes — the
            // transport barrier needs all links delivered in any order,
            // a serve Take is enabled by queue-dependent Submits — so
            // independent reversals reach equivalent states and only the
            // dependent ones can matter.)
            for (const Action& a : ni.enabled)
              if (sys_.dependent(a, aj)) ni.backtrack.insert(a.process);
          }
        }
        break;
      }
    }
  }

  void dfs(std::size_t d) {
    if (stopped() || d >= stack_.size()) return;
    dfs(d + 1);
    for (;;) {
      if (stopped()) return;
      int idx = -1;
      {
        Node& nd = stack_[d];
        for (int i = 0; i < static_cast<int>(nd.enabled.size()); ++i) {
          const Action& a = nd.enabled[i];
          if (nd.backtrack.find(a.process) == nd.backtrack.end() &&
              nd.force.find(a.key) == nd.force.end())
            continue;
          if (nd.done.find(a.key) != nd.done.end()) continue;
          if (nd.sleep.find(a.key) != nd.sleep.end()) continue;
          idx = i;
          break;
        }
        if (idx < 0) return;
        nd.done.emplace(nd.enabled[idx].key, nd.enabled[idx]);
        nd.chosen = idx;
        if (o_.dpor) seed_coenabled(nd, nd.enabled[idx]);
      }
      stack_.resize(d + 1);
      run_one(d + 1);
      dfs(d + 1);
    }
  }

  System& sys_;
  const ExplorerOptions& o_;
  std::vector<Node> stack_;
  std::size_t depth_ = 0;   // choice points taken in the current run
  std::size_t follow_ = 0;  // prefix length the current run must replay
  ExploreResult result_;
};

}  // namespace

ExploreResult explore(System& system, const ExplorerOptions& options) {
  return Driver(system, options).go();
}

std::vector<TraceEntry> to_trace(const std::vector<Step>& steps) {
  std::vector<TraceEntry> out;
  out.reserve(steps.size());
  for (const Step& s : steps) {
    TraceEntry e;
    if (s.chosen < 0) {
      e.decline = true;
    } else {
      e.key = s.enabled[s.chosen].key;
      e.label = s.enabled[s.chosen].label;
    }
    out.push_back(std::move(e));
  }
  return out;
}

ReplayResult replay(System& system, const std::vector<TraceEntry>& trace) {
  ReplayResult r;
  std::size_t depth = 0;
  try {
    r.exec = system.run([&](const std::vector<Action>& enabled) -> int {
      int choice;
      if (depth < trace.size() && !r.diverged) {
        const TraceEntry& want = trace[depth];
        if (want.decline) {
          choice = -1;
        } else {
          choice = -1;
          for (int i = 0; i < static_cast<int>(enabled.size()); ++i)
            if (enabled[i].key == want.key) {
              choice = i;
              break;
            }
          if (choice < 0) {
            r.diverged = true;
            r.divergence = "trace entry " + std::to_string(depth) + " (" +
                           want.label + ") not enabled; falling back to the "
                           "default policy";
            choice = default_choice(enabled);
          }
        }
      } else {
        choice = default_choice(enabled);
      }
      r.steps.push_back(Step{enabled, choice});
      depth += 1;
      return choice;
    });
  } catch (const std::exception& ex) {
    r.exec.violations.push_back(std::string("uncaught exception: ") +
                                ex.what());
    r.exec.outcome = "exception";
  }
  return r;
}

}  // namespace dmc::mc
