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

namespace detail {
[[gnu::cold]] void throw_bad_port(const char* where) {
  throw std::out_of_range(std::string(where) + ": bad port");
}
}  // namespace detail

int NodeCtx::port_of(VertexId id) const {
  if (id < 0 || id >= static_cast<VertexId>(net_.vertex_of_id_.size()))
    return -1;
  return net_.graph_.port_of(vertex_, net_.vertex_of_id_[id]);
}

namespace {
// The send checks' throws, out of line so post() stays small enough to
// inline into every send path.
[[noreturn, gnu::cold]] void throw_used_port() {
  throw std::logic_error("NodeCtx::send: port already used this round");
}

[[noreturn, gnu::cold]] void throw_bad_bits(const Message& msg) {
  throw std::invalid_argument(
      "NodeCtx::send: message of payload type " +
      audit::payload_type_name(msg.value) + " declares " +
      std::to_string(msg.bits) +
      " bits; every message must declare a positive bit size (bits = 0 "
      "would ride free in the bandwidth accounting)");
}

[[noreturn, gnu::cold]] void throw_over_bandwidth(int bits, int bandwidth) {
  throw std::invalid_argument(
      "NodeCtx::send: message exceeds CONGEST bandwidth (" +
      std::to_string(bits) + " > " + std::to_string(bandwidth) +
      " bits); fragment it");
}
}  // namespace

[[gnu::always_inline]] inline void Network::post(int vertex, int port,
                                                  Message msg) {
  // Only this sender writes the receiver's slot, so the slot itself tells
  // whether the port was used this round.
  const int slot = peer_link_[checked_link(vertex, port, "NodeCtx::send")];
  Message& out = outbox_[slot];
  if (engaged(out)) throw_used_port();
  if (msg.bits <= 0) throw_bad_bits(msg);
  if (msg.bits > bandwidth_) throw_over_bandwidth(msg.bits, bandwidth_);
  if (cfg_.audit) audit_send(vertex, port, msg);
  stats_.messages += 1;
  stats_.total_bits += msg.bits;
  stats_.max_message_bits = std::max(stats_.max_message_bits, msg.bits);
  round_max_message_bits_ = std::max(round_max_message_bits_, msg.bits);
  if (metrics_ != nullptr) {
    // The used-port check above caps a directed link at one message a
    // round, so this message is the link's whole load for the round.
    detail::NetMetrics& m = *metrics_;
    m.round_bits.record(msg.bits);
    m.round_msgs.record(1);
    m.cum_bits += msg.bits;
    long long& total = link_total_bits_[link_of(vertex, port)];
    total += msg.bits;
    m.hottest_link_bits = std::max(m.hottest_link_bits, total);
  }
  out = std::move(msg);
  // Perfect-path delivery clears exactly the slots written this round; the
  // reliable transport scans its channel table instead and never drains
  // the list.
  if (fault_rt_ == nullptr) sent_links_[sent_count_++] = slot;
}

void NodeCtx::send(int port, Message msg) {
  net_.post(vertex_, port, std::move(msg));
}

void NodeCtx::send_all(const Message& msg) {
  for (int port = 0, deg = degree(); port < deg; ++port)
    net_.post(vertex_, port, msg);
}

void NodeCtx::wake_at(int round) {
  // A wake in the past (or present) is a request to keep stepping.
  if (round <= net_.round_) return;
  net_.sched_request(vertex_, round);
}

void NodeCtx::sleep() { net_.sched_request(vertex_, kSleepForever); }

void NodeCtx::note_reassembly_depth(int depth) {
  if (net_.metrics_ == nullptr) return;
  long long& deepest = net_.metrics_->max_reassembly_depth;
  deepest = std::max<long long>(deepest, depth);
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

Network::Network(Graph g, NetworkConfig cfg)
    : graph_(std::move(g)),
      cfg_(std::move(cfg)) {
  derive();
}

void Network::reset(Graph g) {
  graph_ = std::move(g);
  derive();
}

void Network::derive() {
  const int n_ = graph_.num_vertices();
  if (n_ == 0) throw std::invalid_argument("Network: empty graph");
  // Our private copy of the graph serves every per-round incidence query;
  // finalize its CSR arena now so run_outcome() never hits the lazy rebuild
  // (the per-round path stays allocation-free).
  graph_.finalize();
  // Connectivity: one BFS with the scheduler's step list as its queue and
  // its stamps as the visited marks (both re-initialised below), so a
  // re-derive allocates nothing for the check.
  active_mark_.assign(n_, 0);
  active_.clear();
  active_.reserve(n_);
  active_.push_back(0);
  active_mark_[0] = 1;
  for (std::size_t i = 0; i < active_.size(); ++i)
    for (const VertexId w : graph_.neighbors(active_[i]))
      if (!active_mark_[w]) {
        active_mark_[w] = 1;
        active_.push_back(w);
      }
  if (static_cast<int>(active_.size()) != n_)
    throw std::invalid_argument("Network: CONGEST networks are connected");
  bandwidth_ = std::max(cfg_.min_bandwidth,
                        cfg_.bandwidth_multiplier * id_bits(n_));
  ids_.resize(n_);
  std::iota(ids_.begin(), ids_.end(), 0);
  if (cfg_.id_seed != 0) {
    std::mt19937_64 rng(cfg_.id_seed);
    std::shuffle(ids_.begin(), ids_.end(), rng);
  }
  vertex_of_id_.resize(n_);
  for (int v = 0; v < n_; ++v) vertex_of_id_[ids_[v]] = v;
  stats_.reset();
  round_ = 0;
  clock_ = 0;
  run_first_clock_ = 0;
  round_max_message_bits_ = 0;
  audit_digest_ = 0;
  audit_round_acc_ = 0;
  link_offset_.resize(n_ + 1);
  link_offset_[0] = 0;
  for (int v = 0; v < n_; ++v)
    link_offset_[v + 1] = link_offset_[v] + graph_.degree(v);
  const int links = link_offset_.back();
  inbox_.assign(links, Message{});
  outbox_.assign(links, Message{});
  peer_link_.resize(links);
  link_src_.resize(links);
  // Each edge shows up as exactly two directed links; pair them by edge id
  // (no endpoint lookups).
  std::vector<int> link_of_edge(graph_.num_edges(), -1);
  for (int v = 0; v < n_; ++v) {
    const auto& inc = graph_.incident(v);
    for (int port = 0; port < static_cast<int>(inc.size()); ++port) {
      const int l = link_of(v, port);
      link_src_[l] = v;
      int& other = link_of_edge[inc[port].second];
      if (other < 0) {
        other = l;
      } else {
        peer_link_[l] = other;
        peer_link_[other] = l;
      }
    }
  }
  // Pre-size every per-round buffer to its worst case so run_outcome()
  // performs no allocation on the perfect path (the obs/metrics
  // zero-allocation tests pin this down).
  sent_links_.resize(links);
  sent_count_ = 0;
  inbox_links_.resize(links);
  inbox_count_ = 0;
  sched_done_.assign(n_, 0);
  sched_asleep_.assign(n_, 0);
  wake_request_.assign(n_, kNoWake);
  wake_heap_.clear();
  wake_heap_.reserve(n_);
  restless_.clear();
  restless_.reserve(n_);
  restless_pos_.assign(n_, -1);
  active_.clear();
  active_.reserve(n_);
  pending_active_.clear();
  pending_active_.reserve(2 * static_cast<std::size_t>(links));
  active_mark_.assign(n_, 0);
  active_stamp_ = 0;
  sched_done_count_ = 0;
  span_stack_.clear();
  annotation_.clear();
  metrics::Registry* registry =
      cfg_.metrics != nullptr ? cfg_.metrics : metrics::global();
  metrics_.reset();
  link_total_bits_.clear();
  if (registry != nullptr) {
    metrics_ = std::make_unique<detail::NetMetrics>();
    metrics_->resolve(*registry);
    // Per-link totals exist only while metrics are on; the disabled path
    // allocates nothing beyond the fixed tables above.
    link_total_bits_.assign(links, 0);
  }
  flight_.clear();
  fault_rt_.reset();
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
  total += links * sizeof(int);                  // inbox_links_
  total += 2 * links * sizeof(int);              // pending_active_ (reserved)
  total += n_ * (2 * sizeof(char) + 4 * sizeof(int));  // scheduler arrays
  total += n_ * (sizeof(std::pair<int, int>) + sizeof(int));  // heap + active
  total += link_total_bits_.size() * sizeof(long long);
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
  const auto later = [](const std::pair<int, int>& a,
                        const std::pair<int, int>& b) { return a > b; };
  auto pop_due = [&](auto&& push) {
    while (!wake_heap_.empty() && wake_heap_.front().first <= round_) {
      push(wake_heap_.front().second);
      std::pop_heap(wake_heap_.begin(), wake_heap_.end(), later);
      wake_heap_.pop_back();
    }
  };
  const int n_ = n();
  if (static_cast<int>(restless_.size()) == n_) {
    // Everyone is restless (a dense flood's whole election): the set is
    // 0..n-1, whatever wakes fall due. An ascending n-vertex list already
    // is exactly that, so a run of such rounds rewrites nothing.
    pop_due([](int) {});
    pending_active_.clear();
    if (static_cast<int>(active_.size()) != n_) {
      active_.resize(n_);
      std::iota(active_.begin(), active_.end(), 0);
    }
    return;
  }
  active_.clear();
  const int stamp = ++active_stamp_;
  auto push = [&](int v) {
    if (active_mark_[v] == stamp) return;
    active_mark_[v] = stamp;
    active_.push_back(v);
  };
  for (int v : restless_) push(v);
  pop_due(push);
  for (int v : pending_active_) push(v);
  pending_active_.clear();
  // Ascending: the active set is stepped in the same (per-vertex) order
  // dense stepping would, so annotation streams and any order-sensitive
  // protocol bug reproduce identically. A dense set is cheaper to collect
  // by scanning the stamps (O(n)) than to sort (O(k log k)).
  const std::size_t k = active_.size();
  if (k * std::bit_width(k) > static_cast<std::size_t>(n_)) {
    active_.clear();
    for (int v = 0; v < n_; ++v)
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

void Network::metrics_publish(long clock) {
  metrics_->publish(stats_, clock, static_cast<long long>(inbox_.size()),
                    bandwidth_);
}

void Network::metrics_skip_rounds(long skip) {
  if (cfg_.metrics_interval <= 0 || !cfg_.metrics_flush) return;
  // Replay each crossed flush boundary with the round count it would have
  // seen, so periodic snapshots of a fast-forwarded run match the
  // round-by-round execution snapshot for snapshot.
  const long interval = cfg_.metrics_interval;
  for (long r = (stats_.rounds - skip) / interval * interval + interval;
       r <= stats_.rounds; r += interval) {
    metrics_publish(r);
    cfg_.metrics_flush(r);
  }
}

void Network::metrics_round_end() {
  if (cfg_.metrics_interval > 0 && cfg_.metrics_flush &&
      stats_.rounds % cfg_.metrics_interval == 0) {
    metrics_publish(stats_.rounds);
    cfg_.metrics_flush(stats_.rounds);
  }
}

Network::~Network() = default;

void Network::phase_begin(std::string_view name) {
  const int depth = static_cast<int>(span_stack_.size());
  flight_.record_phase(round_, depth, /*end=*/false, name);
  close_annotation();
  span_stack_.emplace_back(name);
  if (cfg_.sink == nullptr) return;
  obs::PhaseEvent ev;
  ev.kind = obs::PhaseEvent::Kind::Begin;
  ev.name = span_stack_.back();
  ev.round = round_;
  ev.depth = depth;
  cfg_.sink->phase(ev);
}

void Network::phase_end() {
  if (span_stack_.empty())
    throw std::logic_error("Network::phase_end: no open phase");
  const int depth = static_cast<int>(span_stack_.size()) - 1;
  flight_.record_phase(round_, depth, /*end=*/true, span_stack_.back());
  close_annotation();
  if (cfg_.sink != nullptr) {
    obs::PhaseEvent ev;
    ev.kind = obs::PhaseEvent::Kind::End;
    ev.name = span_stack_.back();
    ev.round = round_;
    ev.depth = depth;
    cfg_.sink->phase(ev);
  }
  span_stack_.pop_back();
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

RunOutcome Network::run_outcome(std::span<NodeProgram* const> programs) {
  if (static_cast<int>(programs.size()) != n())
    throw std::invalid_argument(
        "Network::run_outcome: one program per vertex needed");
  // Publishes the run's metrics however it ends: completed, degraded or
  // thrown out of by a program.
  struct PublishOnExit {
    Network& net;
    ~PublishOnExit() {
      if (net.metrics_ != nullptr) net.metrics_publish(net.stats_.rounds);
    }
  } publish_on_exit{*this};
  sched_reset();
  begin_run();
  if (fault_rt_ == nullptr) return run_rounds</*kFaulty=*/false>(programs);
  return run_rounds</*kFaulty=*/true>(programs);
}

void Network::begin_run() {
  obs::RunInfo info;
  info.n = n();
  info.bandwidth = bandwidth_;
  info.first_round = clock_;
  flight_.record_run_begin(info);
  if (cfg_.sink != nullptr) cfg_.sink->run_begin(info);
  run_first_clock_ = clock_;
  round_base_messages_ = stats_.messages;
  round_base_bits_ = stats_.total_bits;
}

void Network::close_round(int done_count) {
  stats_.rounds += 1;
  if (metrics_ != nullptr) metrics_round_end();
  obs::RoundEvent ev;
  ev.round = clock_++;
  ev.messages = stats_.messages - round_base_messages_;
  ev.bits = stats_.total_bits - round_base_bits_;
  ev.max_message_bits = round_max_message_bits_;
  ev.active_nodes = done_count < 0 ? -1 : n() - done_count;
  ev.done_nodes = done_count;
  flight_.record_round(ev);
  if (cfg_.sink != nullptr) cfg_.sink->round(ev);
  round_base_messages_ = stats_.messages;
  round_base_bits_ = stats_.total_bits;
  round_max_message_bits_ = 0;
}

void Network::skip_quiescent(long skip) {
  // Counts are constant for the whole stretch: nothing steps during
  // quiescence, and the wake contract forces any node whose done() flips
  // on the clock to wake at the flip round, which bounds `skip`.
  obs::QuiescentEvent ev;
  ev.first_round = round_;
  ev.skipped_rounds = skip;
  ev.active_nodes = n() - sched_done_count_;
  ev.done_nodes = sched_done_count_;
  round_ += static_cast<int>(skip);
  clock_ += skip;
  stats_.rounds += skip;
  flight_.record_quiescent(ev);
  if (metrics_ != nullptr) metrics_skip_rounds(skip);
  if (cfg_.sink != nullptr) cfg_.sink->quiescent(ev);
}

RunOutcome Network::end_run(RunStatus status, long virtual_rounds,
                            bool stalled) {
  RunOutcome outcome;
  outcome.status = status;
  outcome.rounds = clock_ - run_first_clock_;
  outcome.virtual_rounds = virtual_rounds;
  if (stalled) {
    for (const std::string& name : span_stack_) {
      if (!outcome.stalled_phase.empty()) outcome.stalled_phase += '/';
      outcome.stalled_phase += name;
    }
  }
  if (fault_rt_ != nullptr) {
    outcome.crashed = fault_rt_->crashed_ids_;
    // Fault-path dumps name a degraded ending in a note; the perfect
    // path's round-limit dump has none.
    if (status != RunStatus::kCompleted)
      flight_.note(clock_, to_string(status));
  }
  flight_.record_run_end(clock_);
  if (cfg_.sink != nullptr) {
    close_annotation();  // protocol annotations never outlive their run
    cfg_.sink->run_end();
  }
  return outcome;
}

template <bool kSkipCrashed>
void Network::step(std::span<NodeProgram* const> programs) {
  // Rounds are simultaneous in the model, so the step order must be
  // immaterial; kReverse exists so the conformance harness can prove that
  // for each protocol.
  const int count = static_cast<int>(active_.size());
  const bool reverse = cfg_.step_order == NetworkConfig::StepOrder::kReverse;
  for (int i = 0; i < count; ++i) {
    const int v = active_[reverse ? count - 1 - i : i];
    if constexpr (kSkipCrashed) {
      if (fault_rt_->crashed_[v]) continue;
    }
    NodeCtx ctx(*this, v);
    programs[v]->on_round(ctx);
    if constexpr (kSkipCrashed) stats_.active_steps += 1;
  }
  if constexpr (!kSkipCrashed) stats_.active_steps += count;
}

void Network::clear_inbox() {
  for (int i = 0; i < inbox_count_; ++i) inbox_[inbox_links_[i]] = Message{};
  inbox_count_ = 0;
}

detail::Carried Network::deliver_perfect(bool sparse, int done_count) {
  // Every message already sits in its receiver's slot: swapping the
  // mailboxes delivers them all, and a quiet round costs nothing.
  std::swap(inbox_, outbox_);
  std::swap(inbox_links_, sent_links_);
  inbox_count_ = sent_count_;
  sent_count_ = 0;
  // Traffic wakes the receiver (it reads next round) and keeps the sender
  // hot one more round. A restless vertex steps next round anyway, and
  // restless_ is final here, so only the others are queued.
  if (sparse && static_cast<int>(restless_.size()) < n()) {
    for (int i = 0; i < inbox_count_; ++i) {
      const int l = inbox_links_[i];
      const int receiver = link_src_[l];
      const int sender = link_src_[peer_link_[l]];
      if (restless_pos_[receiver] < 0) sched_activate(receiver);
      if (restless_pos_[sender] < 0) sched_activate(sender);
    }
  }
  close_round(done_count);
  const bool sent = inbox_count_ > 0;
  return {.closed = true, .in_motion = sent};
}

template <bool kFaulty>
RunOutcome Network::run_rounds(std::span<NodeProgram* const> programs) {
  detail::FaultRuntime* const rt = fault_rt_.get();
  const int n_ = n();
  const int first_round = round_;
  const bool sparse = cfg_.sparse_stepping;
  // A degraded ending (stall or round cap) reports the crash-stops, if any.
  const auto degraded = [&] {
    if constexpr (kFaulty) {
      if (!rt->crashed_ids_.empty()) return RunStatus::kCrashed;
    }
    return RunStatus::kRoundLimit;
  };
  // Bulk round skip (perfect path only): a stretch of rounds with an
  // empty active set is a pure clock advance — jump straight to the next
  // wake. A trace sink gets one coalesced QuiescentEvent, metrics the
  // equivalent bulk fold. The audit digest runs per-round logic, so it
  // still forces round-by-round execution; the reliable transport pays
  // marker frames for quiet rounds, so it steps them too.
  const bool can_fast_forward = !kFaulty && sparse && !cfg_.audit;
  int quiet = 0;  // consecutive protocol rounds without progress (faults)
  for (;;) {
    int live = n_;
    if constexpr (kFaulty) {
      rt->apply_scheduled_crashes();
      live -= static_cast<int>(rt->crashed_ids_.size());
      if (live == 0)
        return end_run(RunStatus::kCrashed, round_ - first_round, true);
    }
    sched_build_active();
    if (can_fast_forward && active_.empty()) {
      // Nobody restless, no traffic, no due wake. Termination is not
      // being missed: had all nodes been done with no sends, the previous
      // round's completion check would have ended the run.
      const long next_wake = wake_heap_.empty()
                                 ? std::numeric_limits<long>::max()
                                 : wake_heap_.front().first;
      const long to_cap = static_cast<long>(cfg_.max_rounds) + 1 -
                          (clock_ - run_first_clock_);
      skip_quiescent(std::min(next_wake - round_, to_cap));
      if (over_round_cap()) break;
      sched_build_active();  // the skipped-to round's wakes are now due
    }
    step<kFaulty>(programs);
    // Completion is checked *after* the step, so final outputs are set,
    // and counts live (not crashed) nodes only. Sparse runs keep an
    // incremental done count, traced or not: done() is re-evaluated only
    // when a node steps — the wake contract in NodeCtx::wake_at makes
    // that exact, and the scale-labelled tests pin RoundEvent::done_nodes
    // to dense stepping's per-round scan. Dense untraced perfect runs stop
    // at the first unfinished node and leave the count unknown (-1).
    int done_count = -1;
    bool all_done = true;
    if (sparse) {
      for (int v : active_) {
        if constexpr (kFaulty) {
          if (rt->crashed_[v]) continue;
        }
        NodeCtx ctx(*this, v);
        sched_note_stepped(v, programs[v]->done(ctx));
      }
      done_count = sched_done_count_;
      all_done = done_count == live;
    } else if (kFaulty || cfg_.sink != nullptr) {
      done_count = 0;
      for (int v = 0; v < n_; ++v) {
        if constexpr (kFaulty) {
          if (rt->crashed_[v]) continue;
        }
        NodeCtx ctx(*this, v);
        if (programs[v]->done(ctx)) ++done_count;
      }
      all_done = done_count == live;
    } else {
      for (int v = 0; v < n_ && all_done; ++v) {
        NodeCtx ctx(*this, v);
        all_done = programs[v]->done(ctx);
      }
    }
    clear_inbox();  // the step consumed last round's deliveries
    detail::Carried carried;
    if constexpr (kFaulty)
      carried = rt->carry_reliable(done_count, all_done);
    else
      carried = deliver_perfect(sparse, done_count);
    if (cfg_.audit) {  // one fold per protocol round, on every transport
      audit_digest_ = audit::mix64(audit_digest_, audit_round_acc_);
      audit_round_acc_ = 0;
    }
    if (carried.closed) ++round_;
    if (all_done && !carried.in_motion)
      return end_run(kFaulty && !rt->crashed_ids_.empty()
                         ? RunStatus::kCrashed
                         : RunStatus::kCompleted,
                     round_ - first_round, false);
    // Fault-mode stall detector; the perfect path has none. A frame
    // barrier counts its own quiet physical rounds and reports `stalled`.
    if constexpr (kFaulty) {
      if (carried.closed) quiet = carried.in_motion || all_done ? 0 : quiet + 1;
      if (carried.stalled || quiet >= cfg_.stall_quiet_rounds)
        return end_run(degraded(), round_ - first_round, true);
    }
    if (over_round_cap()) break;
  }
  return end_run(degraded(), round_ - first_round, true);
}

}  // namespace dmc::congest
