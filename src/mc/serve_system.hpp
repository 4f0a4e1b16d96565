// Model-checked serve scheduler: admission / deadline / drain.
//
// The threaded serve::Scheduler (src/serve/scheduler.*) and this model
// share the same queueing core — serve::core::GroupQueue and
// serve::core::expired_in_queue (src/serve/sched_core.hpp) — so the
// interleavings explored here exercise the exact group-batching,
// admission-bound, and stop-drain logic the daemon runs, minus the
// thread plumbing. Time is a virtual clock advanced by explicit Tick
// actions, which is what makes deadline expiry schedulable.
//
// Actions (one process per worker, plus submit / tick / stop processes):
//
//   Submit    the client submits the next query of the scenario script
//   Take(w)   idle worker w pops the oldest group whose key no worker is
//             running (expired tasks answer "deadline" at take time and
//             never execute); enabled only while such a group exists
//   Finish(w) worker w completes its batch ("ok" responses) and finishes
//             its key, which may make that key's next group runnable
//   Tick      the virtual clock advances one unit        [optional]
//   Stop      drain begins: admission closes             [optional]
//
// Invariants checked on every interleaving: every query gets exactly one
// response; a task expired at take time never executes; the queue depth
// never exceeds the admission bound; groups leave the queue in creation
// (FIFO) order, skipping groups whose key is running; no two workers hold
// a batch of one key (key affinity: one engine writer); once stopped, no
// submission is admitted; at quiescence nothing is left unanswered
// (drain completeness).
#pragma once

#include <string>
#include <vector>

#include "mc/explorer.hpp"

namespace dmc::mc {

class ServeSystem : public System {
 public:
  struct Query {
    std::string key;            // batching group
    long long deadline_rel = 0; // 0 = none; else expires at submit + rel
  };

  struct Config {
    int max_queue = 2;
    int workers = 2;
    int ticks = 2;  // virtual-clock budget per execution
    std::vector<Query> queries;  // submitted in script order
  };

  /// The default dmc-mc scenario: three queries in two groups, one with a
  /// tight deadline, two workers, admission bound 2.
  static Config default_config();

  explicit ServeSystem(Config config);

  Execution run(const PickFn& pick) override;
  bool dependent(const Action& a, const Action& b) const override;
  std::string name() const override { return "serve-sched"; }

 private:
  Config config_;
};

}  // namespace dmc::mc
