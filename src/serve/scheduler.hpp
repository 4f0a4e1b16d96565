// Session scheduler: bounded admission + same-universe batching.
//
// Queries are admitted into a bounded queue; admission failure is an
// explicit `overloaded` response (backpressure), never unbounded growth.
// Queued queries are grouped by their engine key — (printed lowered
// formula, engine config), the universe-cache key — and a worker drains a
// whole group at a time against ONE engine leased from the shared
// UniverseTier. That is the serving-side payoff of Theorem 4.2: the type
// universe depends only on (φ, slot layout), so a batch of same-key
// queries pays universe construction once and runs the remaining queries
// warm, while different-key groups proceed in parallel on other workers.
//
// Key affinity: while a worker runs a key's batch, no other worker takes
// that key; its later arrivals form the key's next batch, which waits
// (core::GroupQueue). Each engine therefore has one writer at a time,
// and no worker parks in the tier's exclusive lease.
//
// Deadlines: each query may carry deadline_ms, counted from admission. A
// query whose deadline passed before a worker reached it is answered
// `deadline` with the CLI's round-budget code (6, docs/ROBUSTNESS.md) —
// the serving analogue of a degraded outcome — without being run. Started
// queries are never preempted; per-query `max_rounds` bounds in-run cost
// and degrades with the same code.
//
// Metrics (docs/SERVING.md): serve.queue.depth/.peak, serve.admission.
// accepted/rejected, serve.batch.size, serve.deadline.expired,
// serve.responses, serve.latency_ms.<verb> histograms.
#pragma once

#include <condition_variable>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "bpt/universe_tier.hpp"
#include "metrics/metrics.hpp"
#include "obs/spans.hpp"
#include "par/thread.hpp"
#include "serve/exec.hpp"
#include "serve/json.hpp"
#include "serve/sched_core.hpp"

namespace dmc::serve {

struct SchedulerOptions {
  int workers = 2;
  int max_queue = 64;  // admission bound (queries, across all groups)
  /// Directory for per-query flight-recorder dumps ("" = disabled). A
  /// worker whose query ends degraded (deadline/crash, codes 6/7) writes
  /// the network's last-events ring there as flight-<id>.jsonl.
  std::string flight_dir;
};

class Scheduler {
 public:
  /// Delivers one response object for a submitted query. Invoked from a
  /// worker thread; must be thread-safe (Connection::write_line is).
  using Respond = std::function<void(const JsonObject&)>;

  /// Receives each answered query's completed span log (worker thread;
  /// must be thread-safe). The server parks them in its SpanStore for
  /// the `trace <id>` verb.
  using SpanSink = std::function<void(obs::SpanLog&&)>;

  Scheduler(SchedulerOptions opts, bpt::UniverseTier& tier);
  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  void start();
  /// Stops accepting and wakes the workers; already-admitted queries are
  /// drained (answered) before the workers exit. Idempotent.
  void stop();

  /// Installs the span sink. Call before start(); not thread-safe against
  /// running workers.
  void set_span_sink(SpanSink sink) { span_sink_ = std::move(sink); }

  /// Admission. False = queue full: the caller answers `overloaded`.
  /// After stop(), admission always fails.
  bool submit(Prepared p, Respond respond);

  /// Queries currently admitted but not yet started (tests/metrics).
  std::size_t queued() const;

 private:
  struct Task {
    Prepared prepared;
    Respond respond;
    long long admit_ms = 0;
    long long deadline_abs_ms = 0;  // 0 = none
  };

  void worker_loop();
  void run_batch(std::vector<Task> batch);
  void set_depth_locked();

  SchedulerOptions opts_;
  bpt::UniverseTier& tier_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  /// The queueing discipline itself (bounded admission, group FIFO, stop
  /// semantics) lives in sched_core.hpp, shared with — and exhaustively
  /// schedule-checked by — the dmc-mc serve model. Guarded by mu_.
  core::GroupQueue<Task> queue_;
  bool started_ = false;
  std::vector<par::Thread> workers_;
  SpanSink span_sink_;
  // Metric handles (null when no registry installed).
  metrics::Counter* met_accepted_ = nullptr;
  metrics::Counter* met_rejected_ = nullptr;
  metrics::Counter* met_deadline_ = nullptr;
  metrics::Counter* met_responses_ = nullptr;
  metrics::Counter* met_batches_ = nullptr;
  metrics::Gauge* met_depth_ = nullptr;
  metrics::Gauge* met_peak_ = nullptr;
  metrics::Histogram* met_batch_size_ = nullptr;
  metrics::Counter* met_flight_dumps_ = nullptr;
  std::map<std::string, metrics::Histogram*> met_latency_;
};

/// Full response assembly for an executed query (also used by the
/// deadline path with a synthetic result). When `spans` is non-null the
/// response carries a `"spans"` object: the query's flattened latency
/// breakdown (queue_ms, universe_ms, exec_ms, total_ms) — the summary
/// view of the same SpanLog the `trace <id>` verb returns in full.
JsonObject make_response(const Query& q, const QueryResult& r,
                         bool engine_warm, std::size_t batch_size,
                         long long queue_ms,
                         const obs::SpanLog* spans = nullptr);

}  // namespace dmc::serve
