// Pure scheduling core of the session scheduler (scheduler.hpp).
//
// The threaded Scheduler's queueing discipline — bounded admission, FIFO
// over group keys, whole-group draining, key affinity, stop semantics,
// and the expired-in-queue deadline test — is extracted here as plain data
// structures with no locks, threads, or clocks. Two clients share it:
//
//   - serve::Scheduler wraps a GroupQueue in its mutex and drives it from
//     worker threads (the production path);
//   - the dmc-mc serve model (src/mc/serve_system.*) drives the very same
//     code single-threaded under a virtual clock, exhaustively exploring
//     submit/take/finish/tick orderings and checking the admission /
//     deadline / drain / affinity invariants on every interleaving.
//
// Keeping the discipline in one place is what makes the model checking
// meaningful: a bug found (or proven absent) in the model is a statement
// about the code the daemon actually runs, not about a re-implementation.
#pragma once

#include <algorithm>
#include <cstddef>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace dmc::serve::core {

/// A query whose deadline passed while it sat in the queue is answered
/// `deadline` without being run; started queries are never preempted, so
/// this is the only place the deadline is consulted. `deadline_abs` <= 0
/// means no deadline. Time unit is whatever the caller's clock uses
/// (milliseconds in the daemon, virtual ticks in the model checker).
inline bool expired_in_queue(long long deadline_abs, long long now) {
  return deadline_abs > 0 && now > deadline_abs;
}

/// Bounded multi-group FIFO queue: tasks are grouped by key (the
/// universe-cache key in the daemon), groups are drained whole in the
/// order they were first created, and total admitted depth is capped.
///
/// Key affinity: a popped key is *running* until finish(key). While it
/// runs, its key cannot be popped again; tasks of that key admitted in
/// the meantime form its next group, which waits. So at most one batch
/// per key runs at a time, and the daemon's engine for that key has one
/// writer. Not thread-safe by design — callers provide their own
/// synchronization (or none, in the model checker).
template <typename Task>
class GroupQueue {
 public:
  GroupQueue() = default;
  explicit GroupQueue(std::size_t max_queue) { set_capacity(max_queue); }

  /// Admission cap in tasks across all groups; clamped to >= 1.
  void set_capacity(std::size_t max_queue) {
    max_queue_ = max_queue < 1 ? 1 : max_queue;
  }

  /// Admission. False = stopped or full; the caller answers `overloaded`.
  bool push(const std::string& key, Task task) {
    if (stopping_ || queued_ >= max_queue_) return false;
    auto [it, inserted] = groups_.try_emplace(key);
    if (inserted) order_.push_back(key);
    it->second.push_back(std::move(task));
    ++queued_;
    return true;
  }

  /// Removes and returns, whole, the oldest group (creation order) whose
  /// key is not running, and marks that key running.
  /// Precondition: runnable().
  std::pair<std::string, std::vector<Task>> pop_group() {
    const auto pos = std::find_if(order_.begin(), order_.end(),
                                  [this](const std::string& k) {
                                    return running_.count(k) == 0;
                                  });
    std::string key = std::move(*pos);
    order_.erase(pos);
    running_.insert(key);
    auto it = groups_.find(key);
    std::vector<Task> batch = std::move(it->second);
    groups_.erase(it);
    queued_ -= batch.size();
    return {std::move(key), std::move(batch)};
  }

  /// The batch of `key` popped last is done: the key may be popped again.
  void finish(const std::string& key) { running_.erase(key); }

  /// Refuse all further admission; queued tasks remain for draining.
  void stop() { stopping_ = true; }

  /// Some queued group's key is not running, so pop_group() may be called.
  bool runnable() const {
    return std::any_of(order_.begin(), order_.end(),
                       [this](const std::string& k) {
                         return running_.count(k) == 0;
                       });
  }
  bool empty() const { return order_.empty(); }
  bool stopping() const { return stopping_; }
  std::size_t queued() const { return queued_; }
  std::size_t capacity() const { return max_queue_; }

 private:
  std::size_t max_queue_ = 1;
  std::map<std::string, std::vector<Task>> groups_;
  std::deque<std::string> order_;  // group keys, creation order
  std::set<std::string> running_;  // keys popped and not yet finished
  std::size_t queued_ = 0;
  bool stopping_ = false;
};

}  // namespace dmc::serve::core
