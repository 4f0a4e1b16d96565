#include "congest/network.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <random>
#include <stdexcept>

#include "congest/net_metrics.hpp"
#include "congest/reliable.hpp"
#include "congest/wire.hpp"
#include "graph/algorithms.hpp"

namespace dmc::congest {

namespace {
// Sentinels for Network::wake_request_: kNoWake = the node made no request
// this step (stays restless); kSleepForever = sleep until traffic.
constexpr int kNoWake = -1;
constexpr int kSleepForever = std::numeric_limits<int>::max();
}  // namespace

const char* to_string(RunStatus status) {
  switch (status) {
    case RunStatus::kCompleted:
      return "completed";
    case RunStatus::kRoundLimit:
      return "round-limit";
    case RunStatus::kCrashed:
      return "crashed";
  }
  return "?";
}

int id_bits(int n) {
  return std::max(1, static_cast<int>(std::bit_width(static_cast<unsigned>(std::max(1, n - 1)))));
}

int count_bits(std::uint64_t value) {
  return std::max(1, static_cast<int>(std::bit_width(value)));
}

VertexId NodeCtx::id() const { return net_.ids_[vertex_]; }
int NodeCtx::degree() const { return net_.graph_.degree(vertex_); }
int NodeCtx::n() const { return net_.n(); }
int NodeCtx::round() const { return net_.round_; }
int NodeCtx::bandwidth() const { return net_.bandwidth_; }
bool NodeCtx::traced() const { return net_.traced(); }

void NodeCtx::annotate(std::string_view name) {
  net_.annotate(name);
}

VertexId NodeCtx::neighbor_id(int port) const {
  return net_.ids_[net_.graph_.incident(vertex_).at(port).first];
}

int NodeCtx::port_of(VertexId id) const {
  if (id < 0 || id >= static_cast<VertexId>(net_.vertex_of_id_.size()))
    return -1;
  return net_.graph_.port_of(vertex_, net_.vertex_of_id_[id]);
}

void NodeCtx::send(int port, Message msg) {
  if (port < 0 || port >= net_.graph_.degree(vertex_))
    throw std::out_of_range("NodeCtx::send: bad port");
  Message& out = net_.out_slot(vertex_, port);
  if (Network::engaged(out))
    throw std::logic_error("NodeCtx::send: port already used this round");
  if (msg.bits <= 0)
    throw std::invalid_argument(
        "NodeCtx::send: message of payload type " +
        audit::payload_type_name(msg.value) + " declares " +
        std::to_string(msg.bits) +
        " bits; every message must declare a positive bit size (bits = 0 "
        "would ride free in the bandwidth accounting)");
  if (msg.bits > net_.bandwidth_)
    throw std::invalid_argument(
        "NodeCtx::send: message exceeds CONGEST bandwidth (" +
        std::to_string(msg.bits) + " > " + std::to_string(net_.bandwidth_) +
        " bits); fragment it");
  if (net_.cfg_.audit) net_.audit_send(vertex_, port, msg);
  NetworkStats& stats = net_.stats_;
  stats.messages += 1;
  stats.total_bits += msg.bits;
  stats.max_message_bits = std::max(stats.max_message_bits, msg.bits);
  net_.round_max_message_bits_ =
      std::max(net_.round_max_message_bits_, msg.bits);
  if (net_.metrics_ != nullptr) net_.note_send_metrics(vertex_, port, msg.bits);
  out = std::move(msg);
  // Perfect-path delivery walks exactly the links sent on this round; the
  // fault paths scan their channel tables instead and never drain the list.
  if (net_.fault_rt_ == nullptr)
    net_.sent_links_[net_.sent_count_++] = net_.link_of(vertex_, port);
}

void NodeCtx::send_all(const Message& msg) {
  for (int port = 0; port < degree(); ++port) send(port, msg);
}

void NodeCtx::send_unreliable(int port, Message msg) {
  send(port, std::move(msg));  // validation + accounting first
  if (net_.fault_rt_ != nullptr) net_.fault_rt_->note_best_effort(vertex_, port);
}

const Message* NodeCtx::recv(int port) const {
  if (port < 0 || port >= net_.graph_.degree(vertex_))
    throw std::out_of_range("NodeCtx::recv: bad port");
  const Message& m = net_.inbox_[net_.link_of(vertex_, port)];
  return Network::engaged(m) ? &m : nullptr;
}

void NodeCtx::wake_at(int round) {
  // A wake in the past (or present) is a request to keep stepping.
  if (round <= net_.round_) return;
  net_.sched_request(vertex_, round);
}

void NodeCtx::sleep() { net_.sched_request(vertex_, kSleepForever); }

void NodeCtx::note_reassembly_depth(int depth) {
  if (net_.metrics_ != nullptr) net_.metrics_->reassembly_depth->max_of(depth);
}

void Network::audit_send(int vertex, int port, const Message& msg) {
  audit::WireContext ctx;
  ctx.n = n();
  ctx.bandwidth = bandwidth_;
  audit::AuditOutcome outcome;
  try {
    outcome = audit::audit_payload(msg.value, msg.bits, ctx);
  } catch (const audit::WireError& e) {
    throw std::invalid_argument(
        std::string(e.what()) + " [sender id " +
        std::to_string(ids_[vertex]) + ", port " + std::to_string(port) +
        ", round " + std::to_string(round_) + "]");
  }
  stats_.audited_messages += 1;
  stats_.encoded_bits += outcome.encoded_bits;
  // Order-insensitive within the round: sum of per-message hashes.
  const VertexId receiver = ids_[graph_.incident(vertex).at(port).first];
  std::uint64_t h = audit::mix64(outcome.content_hash,
                                 static_cast<std::uint64_t>(ids_[vertex]));
  h = audit::mix64(h, static_cast<std::uint64_t>(receiver));
  h = audit::mix64(h, (static_cast<std::uint64_t>(msg.bits) << 32) |
                          static_cast<std::uint64_t>(outcome.encoded_bits));
  audit_round_acc_ += h;
}

Network::Network(const Graph& g, NetworkConfig cfg)
    : graph_(g), cfg_(cfg), flight_(cfg.flight_capacity) {
  if (g.num_vertices() == 0)
    throw std::invalid_argument("Network: empty graph");
  if (!is_connected(g))
    throw std::invalid_argument("Network: CONGEST networks are connected");
  bandwidth_ = std::max(cfg_.min_bandwidth,
                        cfg_.bandwidth_multiplier * id_bits(g.num_vertices()));
  ids_.resize(g.num_vertices());
  std::iota(ids_.begin(), ids_.end(), 0);
  if (cfg_.id_seed != 0) {
    std::mt19937_64 rng(cfg_.id_seed);
    std::shuffle(ids_.begin(), ids_.end(), rng);
  }
  vertex_of_id_.resize(g.num_vertices());
  for (int v = 0; v < g.num_vertices(); ++v) vertex_of_id_[ids_[v]] = v;
  // Our private copy of the graph serves every per-round incidence query;
  // finalize its CSR arena now so run() never hits the lazy rebuild (the
  // per-round path stays allocation-free).
  graph_.finalize();
  const int n_ = graph_.num_vertices();
  link_offset_.resize(n_ + 1, 0);
  for (int v = 0; v < n_; ++v)
    link_offset_[v + 1] = link_offset_[v] + graph_.degree(v);
  const int links = link_offset_.back();
  inbox_.resize(links);
  outbox_.resize(links);
  peer_link_.resize(links, -1);
  link_src_.resize(links, -1);
  for (int v = 0; v < n_; ++v) {
    const auto& inc = graph_.incident(v);
    for (int port = 0; port < static_cast<int>(inc.size()); ++port) {
      const int l = link_of(v, port);
      link_src_[l] = v;
      const VertexId w = inc[port].first;
      peer_link_[l] = link_of(w, graph_.port_of(w, v));
    }
  }
  // Pre-size every per-round buffer to its worst case so run() performs no
  // allocation on the perfect path (the obs/metrics zero-allocation tests
  // pin this down).
  sent_links_.resize(links);
  inbox_links_.reserve(links);
  sched_done_.resize(n_, 0);
  sched_asleep_.resize(n_, 0);
  wake_request_.resize(n_, kNoWake);
  wake_heap_.reserve(n_);
  restless_.reserve(n_);
  restless_pos_.resize(n_, -1);
  active_.reserve(n_);
  pending_active_.reserve(2 * static_cast<std::size_t>(links));
  active_mark_.resize(n_, 0);
  if (cfg_.metrics == nullptr) cfg_.metrics = metrics::global();
  if (cfg_.metrics != nullptr) {
    metrics_ = std::make_unique<detail::NetMetrics>();
    metrics_->resolve(*cfg_.metrics);
    // Per-link round accumulators exist only while metrics are on; the
    // disabled path allocates nothing beyond the fixed tables above.
    link_round_bits_.assign(links, 0);
    link_round_msgs_.assign(links, 0);
    link_total_bits_.assign(links, 0);
  }
  if (cfg_.faults.has_value())
    fault_rt_ = std::make_unique<detail::FaultRuntime>(*this, *cfg_.faults);
}

std::size_t Network::memory_bytes() const {
  const std::size_t n_ = static_cast<std::size_t>(n());
  const std::size_t links = inbox_.size();
  std::size_t total = 0;
  total += (ids_.size() + vertex_of_id_.size()) * sizeof(VertexId);
  total += link_offset_.size() * sizeof(int);
  total += (peer_link_.size() + link_src_.size()) * sizeof(int);
  total += 2 * links * sizeof(Message);          // inbox_ + outbox_
  total += links * sizeof(int);                  // sent_links_
  total += links * sizeof(int);                  // inbox_links_ (reserved)
  total += 2 * links * sizeof(int);              // pending_active_ (reserved)
  total += n_ * (2 * sizeof(char) + 4 * sizeof(int));  // scheduler arrays
  total += n_ * (sizeof(std::pair<int, int>) + sizeof(int));  // heap + active
  total += (link_round_bits_.size() + link_total_bits_.size()) *
               sizeof(long long) +
           link_round_msgs_.size() * sizeof(long);
  return total;
}

void Network::sched_reset() {
  const int n_ = n();
  std::fill(sched_done_.begin(), sched_done_.end(), 0);
  std::fill(sched_asleep_.begin(), sched_asleep_.end(), 0);
  std::fill(wake_request_.begin(), wake_request_.end(), kNoWake);
  wake_heap_.clear();
  // Every node starts restless: the first round steps everyone, exactly
  // like dense stepping, and the first note_stepped() settles the flags.
  restless_.clear();
  for (int v = 0; v < n_; ++v) {
    restless_.push_back(v);
    restless_pos_[v] = v;
  }
  active_.clear();
  pending_active_.clear();
  std::fill(active_mark_.begin(), active_mark_.end(), 0);
  active_stamp_ = 0;
  sched_done_count_ = 0;
}

void Network::restless_add(int v) {
  if (restless_pos_[v] >= 0) return;
  restless_pos_[v] = static_cast<int>(restless_.size());
  restless_.push_back(v);
}

void Network::restless_remove(int v) {
  const int pos = restless_pos_[v];
  if (pos < 0) return;
  const int last = restless_.back();
  restless_[pos] = last;
  restless_pos_[last] = pos;
  restless_.pop_back();
  restless_pos_[v] = -1;
}

void Network::sched_request(int v, int round) {
  if (!cfg_.sparse_stepping) return;
  int& req = wake_request_[v];
  req = (req == kNoWake) ? round : std::min(req, round);
}

void Network::sched_activate(int v) { pending_active_.push_back(v); }

void Network::sched_build_active() {
  active_.clear();
  const int stamp = ++active_stamp_;
  auto push = [&](int v) {
    if (active_mark_[v] == stamp) return;
    active_mark_[v] = stamp;
    active_.push_back(v);
  };
  for (int v : restless_) push(v);
  const auto later = [](const std::pair<int, int>& a,
                        const std::pair<int, int>& b) { return a > b; };
  while (!wake_heap_.empty() && wake_heap_.front().first <= round_) {
    push(wake_heap_.front().second);
    std::pop_heap(wake_heap_.begin(), wake_heap_.end(), later);
    wake_heap_.pop_back();
  }
  for (int v : pending_active_) push(v);
  pending_active_.clear();
  // Ascending: the active set is stepped in the same (per-vertex) order
  // dense stepping would, so annotation streams and any order-sensitive
  // protocol bug reproduce identically. A dense set is cheaper to collect
  // by scanning the stamps (O(n)) than to sort (O(k log k)).
  const std::size_t k = active_.size();
  if (k * std::bit_width(k) > static_cast<std::size_t>(n())) {
    active_.clear();
    for (int v = 0, n_ = n(); v < n_; ++v)
      if (active_mark_[v] == stamp) active_.push_back(v);
  } else {
    std::sort(active_.begin(), active_.end());
  }
}

void Network::sched_note_stepped(int v, bool done_now) {
  const int req = wake_request_[v];
  wake_request_[v] = kNoWake;
  if (done_now != (sched_done_[v] != 0)) {
    sched_done_[v] = done_now ? 1 : 0;
    sched_done_count_ += done_now ? 1 : -1;
  }
  if (req != kNoWake) {
    sched_asleep_[v] = 1;
    restless_remove(v);
    if (req != kSleepForever) {
      wake_heap_.emplace_back(req, v);
      std::push_heap(wake_heap_.begin(), wake_heap_.end(),
                     [](const std::pair<int, int>& a,
                        const std::pair<int, int>& b) { return a > b; });
    }
  } else {
    sched_asleep_[v] = 0;
    if (done_now)
      restless_remove(v);
    else
      restless_add(v);
  }
}

void Network::note_send_metrics(int vertex, int port, int bits) {
  metrics_->messages->add(1);
  metrics_->bits->add(bits);
  const int link = link_offset_[vertex] + port;
  link_round_bits_[link] += bits;
  link_round_msgs_[link] += 1;
}

void Network::metrics_skip_rounds(long skip) {
  detail::NetMetrics& m = *metrics_;
  auto refresh_utilization = [&] {
    const long long links = static_cast<long long>(link_round_bits_.size());
    if (links > 0 && bandwidth_ > 0)
      m.utilization_permille->set(m.cum_bits * 1000 /
                                  (links * bandwidth_ * m.metric_rounds));
  };
  if (cfg_.metrics_interval <= 0 || !cfg_.metrics_flush) {
    m.rounds->add(skip);
    m.metric_rounds += skip;
    refresh_utilization();
    return;
  }
  // Replay each crossed flush boundary with the round counters it would
  // have seen, so periodic snapshots of a fast-forwarded run match the
  // round-by-round execution snapshot for snapshot.
  long remaining = skip;
  while (remaining > 0) {
    const long to_boundary =
        cfg_.metrics_interval - (m.metric_rounds % cfg_.metrics_interval);
    const long step = std::min(to_boundary, remaining);
    m.rounds->add(step);
    m.metric_rounds += step;
    remaining -= step;
    refresh_utilization();
    if (m.metric_rounds % cfg_.metrics_interval == 0)
      cfg_.metrics_flush(m.metric_rounds);
  }
}

void Network::metrics_round_end() {
  detail::NetMetrics& m = *metrics_;
  m.rounds->add(1);
  m.metric_rounds += 1;
  long long round_bits = 0;
  const int links = static_cast<int>(link_round_bits_.size());
  for (int l = 0; l < links; ++l) {
    if (link_round_msgs_[l] == 0) continue;  // idle link: no sample
    const long long b = link_round_bits_[l];
    m.link_round_bits->record(b);
    m.link_round_msgs->record(link_round_msgs_[l]);
    round_bits += b;
    link_total_bits_[l] += b;
    m.link_max_bits->max_of(link_total_bits_[l]);
    link_round_bits_[l] = 0;
    link_round_msgs_[l] = 0;
  }
  m.cum_bits += round_bits;
  if (links > 0 && bandwidth_ > 0)
    m.utilization_permille->set(
        m.cum_bits * 1000 /
        (static_cast<long long>(links) * bandwidth_ * m.metric_rounds));
  if (cfg_.metrics_interval > 0 && cfg_.metrics_flush &&
      m.metric_rounds % cfg_.metrics_interval == 0)
    cfg_.metrics_flush(m.metric_rounds);
}

Network::~Network() = default;

void Network::phase_begin(std::string_view name) {
  flight_.record_phase(round_, static_cast<int>(span_stack_.size()),
                       /*end=*/false, name);
  if (cfg_.sink == nullptr) {
    // No trace events, but fault-aware / phase-tracking networks still
    // maintain the span stack so degraded outcomes can name their phase.
    if (cfg_.track_phases || fault_rt_ != nullptr)
      span_stack_.emplace_back(name);
    return;
  }
  close_annotation();
  obs::PhaseEvent ev;
  ev.kind = obs::PhaseEvent::Kind::Begin;
  ev.name = std::string(name);
  ev.round = round_;
  ev.depth = static_cast<int>(span_stack_.size());
  span_stack_.push_back(ev.name);
  cfg_.sink->phase(ev);
}

void Network::phase_end() {
  if (cfg_.sink == nullptr) {
    if ((cfg_.track_phases || fault_rt_ != nullptr) && !span_stack_.empty()) {
      flight_.record_phase(round_, static_cast<int>(span_stack_.size()) - 1,
                           /*end=*/true, span_stack_.back());
      span_stack_.pop_back();
    }
    return;
  }
  if (!span_stack_.empty())
    flight_.record_phase(round_, static_cast<int>(span_stack_.size()) - 1,
                         /*end=*/true, span_stack_.back());
  if (span_stack_.empty())
    throw std::logic_error("Network::phase_end: no open phase");
  close_annotation();
  obs::PhaseEvent ev;
  ev.kind = obs::PhaseEvent::Kind::End;
  ev.name = span_stack_.back();
  ev.round = round_;
  ev.depth = static_cast<int>(span_stack_.size()) - 1;
  span_stack_.pop_back();
  cfg_.sink->phase(ev);
}

void Network::annotate(std::string_view name) {
  if (cfg_.sink == nullptr || name == annotation_) return;
  close_annotation();
  obs::PhaseEvent ev;
  ev.kind = obs::PhaseEvent::Kind::Begin;
  ev.name = std::string(name);
  ev.round = round_;
  ev.depth = static_cast<int>(span_stack_.size());
  annotation_ = ev.name;
  cfg_.sink->phase(ev);
}

void Network::close_annotation() {
  if (cfg_.sink == nullptr || annotation_.empty()) return;
  obs::PhaseEvent ev;
  ev.kind = obs::PhaseEvent::Kind::End;
  ev.name = std::move(annotation_);
  ev.round = round_;
  ev.depth = static_cast<int>(span_stack_.size());
  annotation_.clear();
  cfg_.sink->phase(ev);
}

long Network::run(std::vector<std::unique_ptr<NodeProgram>>& programs) {
  RunOutcome outcome = run_outcome(programs);
  switch (outcome.status) {
    case RunStatus::kCompleted:
      return outcome.rounds;
    case RunStatus::kRoundLimit: {
      std::string msg = "Network::run: round limit exceeded";
      if (!outcome.stalled_phase.empty())
        msg += " in phase '" + outcome.stalled_phase + "'";
      throw RoundLimitError(msg, std::move(outcome));
    }
    case RunStatus::kCrashed: {
      std::string msg = "Network::run: " +
                        std::to_string(outcome.crashed.size()) +
                        " node(s) crash-stopped; outputs untrusted";
      if (!outcome.stalled_phase.empty())
        msg += " (stalled in phase '" + outcome.stalled_phase + "')";
      throw CrashedError(msg, std::move(outcome));
    }
  }
  return outcome.rounds;
}

RunOutcome Network::run_outcome(
    std::vector<std::unique_ptr<NodeProgram>>& programs) {
  if (static_cast<int>(programs.size()) != n())
    throw std::invalid_argument("Network::run: one program per vertex needed");
  if (cfg_.sparse_stepping) sched_reset();
  if (fault_rt_ != nullptr) return fault_rt_->run(programs);
  return run_perfect(programs);
}

void Network::step_programs(
    std::vector<std::unique_ptr<NodeProgram>>& programs) {
  const int n_ = n();
  const bool reverse = cfg_.step_order == NetworkConfig::StepOrder::kReverse;
  for (int i = 0; i < n_; ++i) {
    const int v = reverse ? n_ - 1 - i : i;
    NodeCtx ctx(*this, v);
    programs[v]->on_round(ctx);
  }
}

void Network::step_active(std::vector<std::unique_ptr<NodeProgram>>& programs) {
  const int count = static_cast<int>(active_.size());
  const bool reverse = cfg_.step_order == NetworkConfig::StepOrder::kReverse;
  for (int i = 0; i < count; ++i) {
    const int v = active_[reverse ? count - 1 - i : i];
    NodeCtx ctx(*this, v);
    programs[v]->on_round(ctx);
  }
}

RunOutcome Network::run_perfect(
    std::vector<std::unique_ptr<NodeProgram>>& programs) {
  const int n_ = n();
  obs::TraceSink* const sink = cfg_.sink;
  long prev_messages = stats_.messages;
  long long prev_bits = stats_.total_bits;
  {
    obs::RunInfo info;
    info.n = n_;
    info.bandwidth = bandwidth_;
    info.first_round = round_;
    flight_.record_run_begin(info);
    if (sink != nullptr) sink->run_begin(info);
  }
  long rounds_this_run = 0;
  const bool sparse = cfg_.sparse_stepping;
  // Bulk round skip: a stretch of rounds with an empty active set is a
  // pure clock advance — jump straight to the next wake. Observers no
  // longer forfeit the skip: a trace sink gets one coalesced
  // QuiescentEvent (expanded to per-round events by sinks that need
  // them), metrics get the equivalent bulk fold (metrics_skip_rounds).
  // Only the audit digest still forces round-by-round execution: it runs
  // per-round logic whose absence would change its output.
  const bool can_fast_forward = sparse && !cfg_.audit;
  for (;;) {
    if (sparse) {
      sched_build_active();
      if (can_fast_forward && active_.empty()) {
        // Nobody restless, no traffic, no due wake. Termination is not
        // being missed: had all nodes been done with no sends, the
        // previous round's completion check would have broken out.
        const long next_wake = wake_heap_.empty()
                                   ? std::numeric_limits<long>::max()
                                   : wake_heap_.front().first;
        const long to_cap =
            static_cast<long>(cfg_.max_rounds) + 1 - rounds_this_run;
        const long skip = std::min(next_wake - round_, to_cap);
        // Counts are constant for the whole stretch: nothing steps during
        // quiescence, and the wake contract forces any node whose done()
        // flips on the clock to wake at the flip round — it would be in
        // the heap, bounding `skip`.
        obs::QuiescentEvent ev;
        ev.first_round = round_;
        ev.skipped_rounds = skip;
        ev.active_nodes = n_ - sched_done_count_;
        ev.done_nodes = sched_done_count_;
        round_ += static_cast<int>(skip);
        rounds_this_run += skip;
        stats_.rounds += skip;
        flight_.record_quiescent(ev);
        if (metrics_ != nullptr) metrics_skip_rounds(skip);
        if (sink != nullptr) sink->quiescent(ev);
        if (rounds_this_run > cfg_.max_rounds) {
          if (sink != nullptr) {
            close_annotation();
            sink->run_end();
          }
          flight_.record_run_end(round_);
          RunOutcome outcome;
          outcome.status = RunStatus::kRoundLimit;
          outcome.rounds = rounds_this_run;
          outcome.virtual_rounds = rounds_this_run;
          for (const std::string& name : span_stack_) {
            if (!outcome.stalled_phase.empty()) outcome.stalled_phase += '/';
            outcome.stalled_phase += name;
          }
          return outcome;
        }
        sched_build_active();  // the skipped-to round's wakes are now due
      }
    }
    // Step the active set (or every node when dense). Rounds are
    // simultaneous in the model, so the step order must be immaterial;
    // kReverse exists so the conformance harness can prove that for each
    // protocol.
    if (sparse)
      step_active(programs);
    else
      step_programs(programs);
    stats_.active_steps +=
        sparse ? static_cast<long long>(active_.size()) : n_;
    // Check completion *after* the step (so final outputs are set). Sparse
    // runs keep an incremental done count, traced or not (done() is
    // re-evaluated only when a node steps — the wake contract in
    // NodeCtx::wake_at makes that exact, and the scale-labelled tests pin
    // RoundEvent::done_nodes to dense stepping's per-round scan); an O(n)
    // scan per traced round would sink million-vertex traced runs.
    bool all_done = true;
    int done_count = 0;
    if (sparse) {
      for (int v : active_) {
        NodeCtx ctx(*this, v);
        sched_note_stepped(v, programs[v]->done(ctx));
      }
      done_count = sched_done_count_;
      all_done = sched_done_count_ == n_;
    } else if (sink == nullptr) {
      for (int v = 0; v < n_ && all_done; ++v) {
        NodeCtx ctx(*this, v);
        all_done = programs[v]->done(ctx);
      }
    } else {
      for (int v = 0; v < n_; ++v) {
        NodeCtx ctx(*this, v);
        if (programs[v]->done(ctx))
          ++done_count;
        else
          all_done = false;
      }
    }
    // Deliver: clear last round's consumed inbox slots, then walk exactly
    // the links sent on this round — outbox of u's port to w lands in w's
    // reverse slot. A quiet round costs nothing.
    for (const int l : inbox_links_) inbox_[l] = Message{};
    inbox_links_.clear();
    const int sent = sent_count_;
    sent_count_ = 0;
    const bool any_message = sent > 0;
    for (int i = 0; i < sent; ++i) {
      const int l = sent_links_[i];
      const int pl = peer_link_[l];
      inbox_[pl] = std::move(outbox_[l]);
      outbox_[l] = Message{};
      inbox_links_.push_back(pl);
      if (sparse) {
        sched_activate(link_src_[pl]);  // receiver reads it next round
        sched_activate(link_src_[l]);   // sender stays hot one more round
      }
    }
    ++round_;
    ++rounds_this_run;
    stats_.rounds += 1;
    if (metrics_ != nullptr) metrics_round_end();
    if (cfg_.audit) {
      audit_digest_ = audit::mix64(audit_digest_, audit_round_acc_);
      audit_round_acc_ = 0;
    }
    {
      // The flight recorder keeps its own delta baselines: it records on
      // every path, traced or not.
      obs::RoundEvent ev;
      ev.round = round_ - 1;
      ev.messages = stats_.messages - flight_prev_messages_;
      ev.bits = stats_.total_bits - flight_prev_bits_;
      ev.max_message_bits = round_max_message_bits_;
      // Dense untraced runs short-circuit the done scan; -1 marks the
      // count as unknown in the dump.
      const bool counted = sparse || sink != nullptr;
      ev.active_nodes = counted ? n_ - done_count : -1;
      ev.done_nodes = counted ? done_count : -1;
      flight_.record_round(ev);
      flight_prev_messages_ = stats_.messages;
      flight_prev_bits_ = stats_.total_bits;
    }
    if (sink != nullptr) {
      obs::RoundEvent ev;
      ev.round = round_ - 1;
      ev.messages = stats_.messages - prev_messages;
      ev.bits = stats_.total_bits - prev_bits;
      ev.max_message_bits = round_max_message_bits_;
      ev.active_nodes = n_ - done_count;
      ev.done_nodes = done_count;
      sink->round(ev);
      prev_messages = stats_.messages;
      prev_bits = stats_.total_bits;
    }
    round_max_message_bits_ = 0;  // per-round for the flight recorder too
    if (all_done && !any_message) break;
    if (rounds_this_run > cfg_.max_rounds) {
      if (sink != nullptr) {
        close_annotation();
        sink->run_end();
      }
      flight_.record_run_end(round_);
      RunOutcome outcome;
      outcome.status = RunStatus::kRoundLimit;
      outcome.rounds = rounds_this_run;
      outcome.virtual_rounds = rounds_this_run;
      if (!span_stack_.empty()) {
        for (const std::string& name : span_stack_) {
          if (!outcome.stalled_phase.empty()) outcome.stalled_phase += '/';
          outcome.stalled_phase += name;
        }
      }
      return outcome;
    }
  }
  if (sink != nullptr) {
    close_annotation();  // protocol annotations never outlive their run
    sink->run_end();
  }
  flight_.record_run_end(round_);
  RunOutcome outcome;
  outcome.status = RunStatus::kCompleted;
  outcome.rounds = rounds_this_run;
  outcome.virtual_rounds = rounds_this_run;
  return outcome;
}

}  // namespace dmc::congest
