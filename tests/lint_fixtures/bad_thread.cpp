// dmc-lint --self-test fixture for the raw-thread rule.
//
// Never compiled — scanned by the lint_fixtures ctest entry. Raw thread
// primitives outside src/par must be flagged; the suppression comment and
// the pool-owned copy of this pattern (src/par/worker.cpp next to this
// corpus) must stay clean.
#include <future>
#include <thread>

void fan_out() {
  std::thread worker([] {});  // lint-expect: raw-thread
  worker.join();
  std::jthread scoped([] {});  // lint-expect: raw-thread
  auto f = std::async([] { return 1; });  // lint-expect: raw-thread
  f.get();
  std::thread tolerated([] {});  // dmc-lint: allow(raw-thread)
  tolerated.join();
}

// std::thread::hardware_concurrency is still a raw-thread mention: callers
// should use par::hardware_threads() so the threads=0 default is uniform.
unsigned probe() {
  return std::thread::hardware_concurrency();  // lint-expect: raw-thread
}
