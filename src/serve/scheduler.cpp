// Session scheduler (see scheduler.hpp).
#include "serve/scheduler.hpp"

#include <cctype>
#include <utility>

#include "bpt/universe_cache.hpp"
#include "dist/query.hpp"
#include "metrics/metrics.hpp"
#include "obs/atomic_file.hpp"
#include "serve/io.hpp"

namespace dmc::serve {

namespace {

/// Grouping key: same inputs as the DMCU cache key, so "one batch" is
/// exactly "one shareable universe".
std::string group_key(const Prepared& p) {
  return p.formula_text + "#" +
         std::to_string(bpt::config_hash(p.cfg));
}

/// Flight dump file name for a query id; non-filename characters are
/// folded to '_' (client tags are arbitrary strings).
std::string flight_file_name(const std::string& id) {
  std::string safe;
  for (const char c : id)
    safe += std::isalnum(static_cast<unsigned char>(c)) || c == '-' ||
                    c == '_'
                ? c
                : '_';
  if (safe.empty()) safe = "query";
  return "flight-" + safe + ".jsonl";
}

}  // namespace

JsonObject make_response(const Query& q, const QueryResult& r,
                         bool engine_warm, std::size_t batch_size,
                         long long queue_ms, const obs::SpanLog* spans) {
  JsonObject o = response_base(q.id, r.status, r.code);
  o["verb"] = q.verb;
  o["result"] = r.result;
  o["digest"] = r.digest;
  if (!r.witness.empty()) o["witness"] = r.witness;
  o["rounds"] = r.rounds;
  o["classes"] = static_cast<long long>(r.num_classes);
  o["warm"] = engine_warm;
  o["batch"] = static_cast<long long>(batch_size);
  o["queue_ms"] = queue_ms;
  if (spans != nullptr) {
    JsonObject s;
    s["queue_ms"] = spans->duration_ms("queue");
    s["universe_ms"] = spans->duration_ms("universe");
    s["exec_ms"] = spans->duration_ms("exec");
    s["total_ms"] = spans->duration_ms("query");
    o["spans"] = std::move(s);
  }
  return o;
}

Scheduler::Scheduler(SchedulerOptions opts, bpt::UniverseTier& tier)
    : opts_(opts), tier_(tier) {
  if (opts_.workers < 1) opts_.workers = 1;
  if (opts_.max_queue < 1) opts_.max_queue = 1;
  queue_.set_capacity(static_cast<std::size_t>(opts_.max_queue));
  if (metrics::Registry* reg = metrics::global()) {
    met_accepted_ = &reg->counter("serve.admission.accepted");
    met_rejected_ = &reg->counter("serve.admission.rejected");
    met_deadline_ = &reg->counter("serve.deadline.expired");
    met_responses_ = &reg->counter("serve.responses");
    met_batches_ = &reg->counter("serve.batches");
    met_depth_ = &reg->gauge("serve.queue.depth");
    met_peak_ = &reg->gauge("serve.queue.peak");
    met_batch_size_ = &reg->histogram("serve.batch.size");
    met_flight_dumps_ = &reg->counter("serve.flight.dumps");
    for (const char* verb : {"decide", "maximize", "minimize", "count"})
      met_latency_[verb] =
          &reg->histogram(std::string("serve.latency_ms.") + verb);
  }
}

Scheduler::~Scheduler() {
  stop();
  workers_.clear();  // par::Thread joins on destruction
}

void Scheduler::start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (started_) return;
  started_ = true;
  for (int i = 0; i < opts_.workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

void Scheduler::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.stop();
  }
  cv_.notify_all();
}

std::size_t Scheduler::queued() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.queued();
}

void Scheduler::set_depth_locked() {
  if (met_depth_) met_depth_->set(static_cast<long long>(queue_.queued()));
  if (met_peak_) met_peak_->max_of(static_cast<long long>(queue_.queued()));
}

bool Scheduler::submit(Prepared p, Respond respond) {
  const long long now = io::now_ms();
  Task t;
  t.admit_ms = now;
  t.deadline_abs_ms = p.q.deadline_ms > 0 ? now + p.q.deadline_ms : 0;
  t.respond = std::move(respond);
  const std::string key = group_key(p);
  t.prepared = std::move(p);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!queue_.push(key, std::move(t))) {
      if (met_rejected_) met_rejected_->add();
      return false;
    }
    set_depth_locked();
    if (met_accepted_) met_accepted_->add();
  }
  cv_.notify_one();
  return true;
}

void Scheduler::worker_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock, [this] { return queue_.stopping() || !queue_.empty(); });
    if (queue_.empty()) {
      if (queue_.stopping()) return;  // drained
      continue;
    }
    auto [key, batch] = queue_.pop_group();
    set_depth_locked();
    lock.unlock();
    run_batch(key, std::move(batch));
    lock.lock();
  }
}

void Scheduler::run_batch(const std::string& key, std::vector<Task> batch) {
  (void)key;
  if (met_batches_) met_batches_->add();
  if (met_batch_size_)
    met_batch_size_->record(static_cast<long long>(batch.size()));
  // Expired-in-queue tasks are answered first, before any engine work:
  // a batch that expired wholesale must not trigger a universe
  // construction it will never use.
  std::vector<Task> live;
  live.reserve(batch.size());
  for (Task& t : batch) {
    const long long now = io::now_ms();
    if (core::expired_in_queue(t.deadline_abs_ms, now)) {
      // Answered without running, with the round-budget degraded code —
      // see header comment. The span log records the whole life of the
      // query as queue wait.
      QueryResult r;
      r.status = "deadline";
      r.code = kDeadlineExit;
      r.result = "degraded: deadline expired in queue";
      r.digest = dist::result_digest(r.result);
      obs::SpanLog log(t.prepared.q.id);
      const int root = log.open_at("query", t.admit_ms);
      const int qspan = log.open_at("queue", t.admit_ms, root);
      log.close_at(qspan, now);
      log.close_at(root, now);
      if (met_deadline_) met_deadline_->add();
      if (met_responses_) met_responses_->add();
      const JsonObject resp = make_response(t.prepared.q, r, false,
                                            batch.size(), now - t.admit_ms,
                                            &log);
      // Sink before respond (same contract as the live path below).
      if (span_sink_) span_sink_(std::move(log));
      if (t.respond) t.respond(resp);
    } else {
      live.push_back(std::move(t));
    }
  }
  if (live.empty()) return;

  const Prepared& head = live.front().prepared;
  const long long acq_start = io::now_ms();
  const bpt::UniverseTier::Lease lease =
      tier_.acquire(head.formula_text, head.cfg);
  const long long acq_end = io::now_ms();
  for (std::size_t i = 0; i < live.size(); ++i) {
    Task& t = live[i];
    const long long start = io::now_ms();
    const QueryResult r = execute(t.prepared, lease.engine.get());
    const long long done = io::now_ms();
    // One causally-linked timeline per query: queue wait, then (for the
    // batch head only — batch-mates ride the same lease) the universe
    // acquire, then execution. All children of one "query" root span.
    obs::SpanLog log(t.prepared.q.id);
    const int root = log.open_at("query", t.admit_ms);
    const int qspan = log.open_at("queue", t.admit_ms, root);
    log.close_at(qspan, i == 0 ? acq_start : start);
    if (i == 0) {
      const int uspan = log.open_at("universe", acq_start, root);
      // The tier's own breakdown: time parked behind another builder/
      // saver, then this acquire's construct/disk-load (absent on a warm
      // hit — "universe" collapses to the lock handoff).
      if (lease.wait_ms > 0) {
        const int w = log.open_at("tier_wait", acq_start, uspan);
        log.close_at(w, acq_start + lease.wait_ms);
      }
      if (!lease.warm) {
        const int b = log.open_at(lease.disk_hit ? "disk_load" : "build",
                                  acq_end - lease.build_ms, uspan);
        log.close_at(b, acq_end);
      }
      log.close_at(uspan, acq_end);
    }
    const int espan = log.open_at("exec", start, root);
    log.close_at(espan, done);
    log.close_at(root, done);
    // warm from this query's view: the engine pre-existed the batch, or
    // an earlier batch member already built/loaded it.
    const JsonObject resp = make_response(
        t.prepared.q, r, lease.warm || i > 0, batch.size(),
        start - t.admit_ms, &log);
    // Degraded outcome: persist the query network's flight ring next to
    // the response so "exit 7" comes with its last-events story.
    if (!opts_.flight_dir.empty() && r.code >= 5 && !r.flight.empty()) {
      std::string err;
      obs::write_file_atomic(
          opts_.flight_dir + "/" + flight_file_name(t.prepared.q.id),
          r.flight, &err);
      if (met_flight_dumps_) met_flight_dumps_->add();
    }
    const auto lat = met_latency_.find(t.prepared.q.verb);
    if (lat != met_latency_.end()) lat->second->record(done - t.admit_ms);
    if (met_responses_) met_responses_->add();
    // Sink before respond: a client that fires `trace <id>` the moment it
    // reads the response must find the span log already retained.
    if (span_sink_) span_sink_(std::move(log));
    if (t.respond) t.respond(resp);
  }
  tier_.release(lease);
}

}  // namespace dmc::serve
