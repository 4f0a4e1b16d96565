#include "par/pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "metrics/metrics.hpp"

namespace dmc::par {

int hardware_threads() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<int>(hc);
}

namespace {

thread_local bool tls_in_job = false;

long long ns_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

using Body = std::function<void(std::size_t)>;

// The one process-wide pool. Workers are spawned lazily (never more than
// hardware_threads() - 1, but at least one so single-core hosts still get
// real interleaving under TSan) and parked on a condition variable between
// jobs. A generation counter broadcasts each job; the caller participates
// and then waits for every activated worker to drain.
class Pool {
 public:
  static Pool& instance() {
    static Pool pool;
    return pool;
  }

  void run(int want_helpers, std::size_t n, const Body& body) {
    // One job at a time; concurrent top-level callers queue here.
    std::lock_guard<std::mutex> job_guard(job_mutex_);
    // Metrics (disabled = one null check per *job*, never per task). The
    // chunk counter pointer is published to workers under m_ with the rest
    // of the job fields; busy time is accumulated by every participant and
    // idle time derived from the job's wall-clock span after the join.
    metrics::Registry* const reg = metrics::global();
    std::chrono::steady_clock::time_point job_t0;
    std::unique_lock<std::mutex> lk(m_);
    ensure_workers(want_helpers);
    const int helpers =
        std::min<int>(want_helpers, static_cast<int>(workers_.size()));
    body_ = &body;
    n_ = n;
    next_.store(0, std::memory_order_relaxed);
    cancelled_.store(false, std::memory_order_relaxed);
    error_ = nullptr;
    chunk_ = std::max<std::size_t>(
        1, n / (static_cast<std::size_t>(helpers + 1) * 8));
    chunks_ctr_ = nullptr;
    if (reg != nullptr) {
      reg->counter("par.jobs").add(1);
      reg->counter("par.tasks").add(static_cast<long long>(n));
      chunks_ctr_ = &reg->counter("par.chunks");
      busy_ns_.store(0, std::memory_order_relaxed);
      job_t0 = std::chrono::steady_clock::now();
    }
    active_ = helpers;
    pending_ = helpers;
    ++generation_;
    cv_.notify_all();
    lk.unlock();

    tls_in_job = true;
    work();
    tls_in_job = false;

    lk.lock();
    done_cv_.wait(lk, [&] { return pending_ == 0; });
    body_ = nullptr;
    if (reg != nullptr) {
      const long long busy = busy_ns_.load(std::memory_order_relaxed);
      const long long span = ns_since(job_t0) * (helpers + 1);
      reg->counter("par.worker.busy_ns").add(busy);
      reg->counter("par.worker.idle_ns").add(span > busy ? span - busy : 0);
    }
    if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
  }

 private:
  Pool() = default;

  ~Pool() {
    {
      std::lock_guard<std::mutex> lk(m_);
      shutdown_ = true;
      cv_.notify_all();
    }
    for (auto& t : workers_) t.join();
  }

  void ensure_workers(int want) {
    const int cap = std::max(1, hardware_threads() - 1);
    const int target = std::min(want, cap);
    while (static_cast<int>(workers_.size()) < target) {
      const int index = static_cast<int>(workers_.size());
      workers_.emplace_back([this, index] { worker_main(index); });
    }
  }

  void worker_main(int index) {
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lk(m_);
    for (;;) {
      cv_.wait(lk, [&] {
        return shutdown_ || (generation_ != seen && index < active_);
      });
      if (shutdown_) return;
      seen = generation_;
      lk.unlock();
      tls_in_job = true;
      work();
      tls_in_job = false;
      lk.lock();
      if (--pending_ == 0) done_cv_.notify_all();
    }
  }

  void work() {
    if (chunks_ctr_ == nullptr) {
      work_loop(nullptr);
      return;
    }
    long claims = 0;
    const auto t0 = std::chrono::steady_clock::now();
    work_loop(&claims);
    chunks_ctr_->add(claims);
    busy_ns_.fetch_add(ns_since(t0), std::memory_order_relaxed);
  }

  void work_loop(long* claims) {
    for (;;) {
      if (cancelled_.load(std::memory_order_relaxed)) return;
      const std::size_t begin = next_.fetch_add(chunk_, std::memory_order_relaxed);
      if (begin >= n_) return;
      if (claims != nullptr) ++*claims;
      const std::size_t end = std::min(n_, begin + chunk_);
      for (std::size_t i = begin; i < end; ++i) {
        if (cancelled_.load(std::memory_order_relaxed)) return;
        try {
          (*body_)(i);
        } catch (...) {
          std::lock_guard<std::mutex> eg(error_mutex_);
          if (!error_) error_ = std::current_exception();
          cancelled_.store(true, std::memory_order_relaxed);
          return;
        }
      }
    }
  }

  std::mutex job_mutex_;  // serializes whole jobs

  std::mutex m_;  // guards everything below except the job fields
  std::condition_variable cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> workers_;
  std::uint64_t generation_ = 0;
  int active_ = 0;
  int pending_ = 0;
  bool shutdown_ = false;

  // Job fields: written under m_ before the generation bump, read by
  // participants without m_ while the job runs.
  const Body* body_ = nullptr;
  std::size_t n_ = 0;
  std::size_t chunk_ = 1;
  metrics::Counter* chunks_ctr_ = nullptr;  // null while metrics disabled
  std::atomic<long long> busy_ns_{0};       // per job, all participants
  std::atomic<std::size_t> next_{0};
  std::atomic<bool> cancelled_{false};
  std::mutex error_mutex_;
  std::exception_ptr error_;
};

}  // namespace

bool in_parallel_region() { return tls_in_job; }

void parallel_for(int threads, std::size_t n, const Body& body) {
  if (threads <= 0) threads = hardware_threads();
  if (threads <= 1 || n <= 1 || tls_in_job) {
    if (metrics::Registry* const reg = metrics::global()) {
      // Nested/serial fallbacks can be hot (every nested call inside a
      // running job lands here), so the handle is cached per thread and
      // only re-resolved when the global registry changes.
      thread_local metrics::Registry* cached_reg = nullptr;
      thread_local metrics::Counter* serial_ctr = nullptr;
      if (cached_reg != reg) {
        cached_reg = reg;
        serial_ctr = &reg->counter("par.serial_inline");
      }
      serial_ctr->add(1);
    }
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  Pool::instance().run(threads - 1, n, body);
}

}  // namespace dmc::par
