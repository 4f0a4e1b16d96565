#include "mc/serve_system.hpp"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "serve/sched_core.hpp"

namespace dmc::mc {

namespace {

std::uint64_t fold_str(std::uint64_t h, const std::string& s) {
  for (char c : s) h = fold64(h, static_cast<unsigned char>(c));
  return h;
}

// Action kinds, carried in Action::tag.
enum ActKind : int {
  kSubmit = 0,
  kTake = 1,
  kFinish = 2,
  kTick = 3,
  kStop = 4,
};

// DPOR processes. Submit/tick/stop are each their own serial process;
// worker w owns both its Take and its Finish (causally ordered).
constexpr int kSubmitProc = 1;
constexpr int kTickProc = 2;
constexpr int kStopProc = 3;
constexpr int kWorkerProcBase = 10;

Action make_action(ActKind kind, int worker, int detail,
                   const std::string& label) {
  Action a;
  std::uint64_t h = kFnvBasis;
  h = fold64(h, static_cast<std::uint64_t>(kind));
  h = fold64(h, static_cast<std::uint64_t>(worker + 1));
  h = fold64(h, static_cast<std::uint64_t>(detail + 1));
  a.key = h;
  a.tag = kind;
  a.label = label;
  switch (kind) {
    case kSubmit: a.process = kSubmitProc; break;
    case kTick: a.process = kTickProc; a.optional_action = true; break;
    case kStop: a.process = kStopProc; a.optional_action = true; break;
    case kTake:
    case kFinish: a.process = kWorkerProcBase + worker; break;
  }
  return a;
}

}  // namespace

ServeSystem::Config ServeSystem::default_config() {
  Config c;
  c.max_queue = 2;
  c.workers = 2;
  c.ticks = 2;
  c.queries = {{"alpha", 0}, {"alpha", 2}, {"beta", 1}};
  return c;
}

ServeSystem::ServeSystem(Config config) : config_(std::move(config)) {}

Execution ServeSystem::run(const PickFn& pick) {
  Execution e;

  struct MTask {
    int id = -1;
    long long deadline_abs = 0;
  };
  struct Worker {
    bool busy = false;
    std::string key;  // group of the batch in hand
    std::vector<MTask> batch;
    long long take_clock = 0;
  };

  serve::core::GroupQueue<MTask> queue(
      static_cast<std::size_t>(config_.max_queue));
  long long clock = 0;
  int ticks_left = config_.ticks;
  std::size_t next_submit = 0;
  bool stopped = false;
  std::vector<Worker> workers(config_.workers);
  std::vector<std::string> responses(config_.queries.size());
  // Shadow of the queue's group creation order and of the keys whose
  // batch a worker holds: the FIFO-with-affinity oracle.
  std::deque<std::string> fifo_order;
  std::set<std::string> fifo_present;
  std::set<std::string> running;

  auto respond = [&](int id, const std::string& status) {
    if (!responses[id].empty())
      e.violations.push_back("query " + std::to_string(id) +
                             " answered twice: '" + responses[id] +
                             "' then '" + status + "'");
    responses[id] = status;
  };

  for (;;) {
    std::vector<Action> enabled;
    if (next_submit < config_.queries.size()) {
      const Query& q = config_.queries[next_submit];
      enabled.push_back(make_action(
          kSubmit, -1, static_cast<int>(next_submit),
          "submit #" + std::to_string(next_submit) + " group=" + q.key));
    }
    for (int w = 0; w < config_.workers; ++w) {
      if (!workers[w].busy && queue.runnable())
        enabled.push_back(
            make_action(kTake, w, 0, "take worker=" + std::to_string(w)));
      if (workers[w].busy)
        enabled.push_back(
            make_action(kFinish, w, 0, "finish worker=" + std::to_string(w)));
    }
    if (ticks_left > 0)
      enabled.push_back(make_action(kTick, -1, config_.ticks - ticks_left,
                                    "tick t=" + std::to_string(clock + 1)));
    if (!stopped)
      enabled.push_back(make_action(kStop, -1, 0, "stop (begin drain)"));
    if (enabled.empty()) break;
    const int picked = pick(enabled);
    if (picked < 0) break;  // all-optional set declined: quiescent
    const Action& act = enabled[picked];

    switch (static_cast<ActKind>(act.tag)) {
      case kSubmit: {
        const Query& q = config_.queries[next_submit];
        const int id = static_cast<int>(next_submit);
        next_submit += 1;
        MTask t;
        t.id = id;
        t.deadline_abs = q.deadline_rel > 0 ? clock + q.deadline_rel : 0;
        if (queue.push(q.key, t)) {
          if (stopped)
            e.violations.push_back("query " + std::to_string(id) +
                                   " admitted after stop");
          if (queue.queued() > static_cast<std::size_t>(config_.max_queue))
            e.violations.push_back(
                "admission bound exceeded: " + std::to_string(queue.queued()) +
                " queued, bound " + std::to_string(config_.max_queue));
          if (fifo_present.insert(q.key).second) fifo_order.push_back(q.key);
        } else {
          respond(id, "overloaded");
        }
        break;
      }
      case kTake: {
        const int w = act.process - kWorkerProcBase;
        auto [key, batch] = queue.pop_group();
        // The oldest group whose key no worker is running.
        const auto oldest =
            std::find_if(fifo_order.begin(), fifo_order.end(),
                         [&](const std::string& k) { return !running.count(k); });
        if (oldest == fifo_order.end() || *oldest != key)
          e.violations.push_back(
              "group-FIFO violated: took group '" + key +
              "', oldest runnable is '" +
              (oldest == fifo_order.end() ? std::string("<none>") : *oldest) +
              "'");
        if (oldest != fifo_order.end() && *oldest == key)
          fifo_order.erase(oldest);
        fifo_present.erase(key);
        for (int o = 0; o < config_.workers; ++o)
          if (o != w && workers[o].busy && workers[o].key == key)
            e.violations.push_back("key affinity violated: workers " +
                                   std::to_string(o) + " and " +
                                   std::to_string(w) +
                                   " both hold a batch of group '" + key + "'");
        Worker& worker = workers[w];
        worker.key = key;
        worker.take_clock = clock;
        for (MTask& t : batch) {
          if (serve::core::expired_in_queue(t.deadline_abs, clock))
            respond(t.id, "deadline");
          else
            worker.batch.push_back(t);
        }
        worker.busy = !worker.batch.empty();
        // A wholly expired batch never runs: the worker finishes its key
        // at once, as Scheduler::worker_loop does after run_batch.
        if (worker.busy)
          running.insert(key);
        else
          queue.finish(key);
        break;
      }
      case kFinish: {
        const int w = act.process - kWorkerProcBase;
        Worker& worker = workers[w];
        for (const MTask& t : worker.batch) {
          if (serve::core::expired_in_queue(t.deadline_abs, worker.take_clock))
            e.violations.push_back("query " + std::to_string(t.id) +
                                   " was expired at take time but executed");
          respond(t.id, "ok");
        }
        worker.batch.clear();
        worker.busy = false;
        running.erase(worker.key);
        queue.finish(worker.key);
        break;
      }
      case kTick:
        ticks_left -= 1;
        clock += 1;
        break;
      case kStop:
        queue.stop();
        stopped = true;
        break;
    }
  }

  // Quiescence: nothing queued (Take is mandatory while a worker is idle
  // and a group is runnable; Finish, mandatory too, makes a waiting
  // group runnable), no worker busy, all queries submitted — so every
  // query must have exactly one response.
  for (std::size_t i = 0; i < responses.size(); ++i)
    if (responses[i].empty())
      e.violations.push_back("query " + std::to_string(i) +
                             " never answered (drain incomplete)");
  e.outcome = stopped ? "drained" : "quiescent";
  std::uint64_t digest = kFnvBasis;
  for (const std::string& r : responses) digest = fold_str(digest, r);
  e.digest = digest;
  // Tick placement legitimately decides deadline-vs-ok outcomes; the
  // response multiset is schedule-dependent by design.
  e.digest_valid = false;
  return e;
}

bool ServeSystem::dependent(const Action& a, const Action& b) const {
  if (a.process == b.process) return true;
  // Finish touches its worker's private batch, the response slots of its
  // own queries, and the queue's running keys — which decide what a Take
  // may pop. So Finish interferes with Take only; every other pair of
  // distinct processes shares the queue, clock or stop flag.
  if (a.tag == kFinish || b.tag == kFinish)
    return a.tag == kTake || b.tag == kTake;
  return true;
}

}  // namespace dmc::mc
