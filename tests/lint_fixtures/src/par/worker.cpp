// dmc-lint --self-test fixture: the raw-thread rule must NOT fire under
// src/par — par::Thread is the one owner of std::thread. The
// naked-condvar-wait rule has no exempt tree, so it fires here as
// anywhere else. Never compiled.
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

struct ThreadLike {
  std::thread t;
  void spawn() { t = std::thread([] {}); }
  ~ThreadLike() {
    if (t.joinable()) t.join();
  }
};

unsigned default_threads() { return std::thread::hardware_concurrency(); }

void wait_once(std::condition_variable& cv, std::unique_lock<std::mutex>& lk) {
  cv.wait(lk);  // lint-expect: naked-condvar-wait
}
