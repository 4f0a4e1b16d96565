// dmc::par — the sanctioned thread handle.
//
// A daemon needs a handful of long-running service threads (an accept
// loop, scheduler workers). Those come from here: the dmc-lint
// `raw-thread` rule bans std::thread everywhere outside src/par, so every
// thread in the repository is a par::Thread, named at its call site and
// joined by its owner. There is no pool and no parallel loop: each BPT
// engine is written by one thread at a time (src/bpt/engine.hpp).
#pragma once

#include <functional>
#include <thread>
#include <utility>

namespace dmc::par {

class Thread {
 public:
  Thread() = default;
  explicit Thread(std::function<void()> fn) : t_(std::move(fn)) {}
  Thread(Thread&&) = default;
  Thread& operator=(Thread&& other) {
    join();
    t_ = std::move(other.t_);
    return *this;
  }
  Thread(const Thread&) = delete;
  Thread& operator=(const Thread&) = delete;
  ~Thread() { join(); }

  bool joinable() const { return t_.joinable(); }
  void join() {
    if (t_.joinable()) t_.join();
  }

 private:
  std::thread t_;
};

}  // namespace dmc::par
