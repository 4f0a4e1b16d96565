// Synchronous CONGEST model simulator (paper Section 1, model paragraph).
//
// The network is a connected simple graph. Every node runs the same
// NodeProgram; computation proceeds in synchronous rounds. In each round a
// node may send one message per incident edge; the simulator enforces a
// per-edge-per-round bandwidth of B = max(kMinBandwidth, c * ceil(log2 n))
// bits and rejects oversized sends (protocols fragment large payloads, see
// fragment.hpp, paying Theta(k / log n) rounds for k-bit messages as the
// paper prescribes).
//
// Node identifiers are an arbitrary permutation of 0..n-1 scaled into an
// O(log n)-bit space (adversarial-ish ids are exercised by seeding the
// permutation); programs must only rely on ids, their ports, and n.
//
// Message payloads are C++ values (congest::Payload, payload.hpp) with a
// *declared* bit size; the declared size is what the bandwidth accounting
// uses. This is the standard simulation compromise: semantics by value,
// costs by declaration, with the declaration rules documented per protocol.
// One-word payloads (ids, flood / report / adopt messages, class ids,
// verdicts) ride inline in the Message, so the per-message path neither
// allocates nor makes an indirect call.
//
// The simulator steps nodes serially. A round of the protocols in scope is
// about a millisecond of work, so a per-round fork/join costs more than it
// saves (docs/PERFORMANCE.md §2).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "congest/faults.hpp"
#include "congest/payload.hpp"
#include "graph/graph.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/trace.hpp"

namespace dmc::metrics {
class Registry;  // src/metrics/metrics.hpp: aggregate counters/histograms
}

namespace dmc::congest {

class SchedulerHook;  // sched_hook.hpp: dmc-mc schedule-exploration seam

namespace detail {
struct FaultRuntime;  // reliable.hpp: fault-injecting / reliable-transport runs
struct NetMetrics;    // net_metrics.hpp: resolved metric handles of a network
}

struct Message {
  Payload value;
  int bits = 0;

  Message() = default;
  Message(Payload v, int b) : value(std::move(v)), bits(b) {}
};

static_assert(sizeof(Message) == 24, "one-word messages stay three words");

/// Declared bit sizes used across the protocols.
int id_bits(int n);                    // one node identifier
int count_bits(std::uint64_t value);   // a varint-style counter / weight

struct NetworkConfig {
  /// Bandwidth multiplier: B = max(min_bandwidth, multiplier * ceil(log2 n)).
  int bandwidth_multiplier = 2;
  int min_bandwidth = 32;
  /// Seed for the id permutation; 0 = identity ids.
  unsigned id_seed = 0;
  /// Hard cap on rounds per run() call (guards non-terminating protocols).
  int max_rounds = 1'000'000;
  /// Optional trace sink (not owned; must outlive the network). When null
  /// — the default — run() takes no tracing branches and performs no
  /// allocation for observability.
  obs::TraceSink* sink = nullptr;
  /// Wire-format audit mode (src/congest/wire.hpp): every send encodes its
  /// payload through the registered codec and fails fast on unregistered
  /// payload types, declared-vs-encoded size mismatches, and encode/decode
  /// round-trip divergence. Declared sizes stay the accounting currency;
  /// audit mode proves them achievable. Off by default (it re-encodes
  /// every message).
  bool audit = false;
  /// Order in which nodes are stepped within a round. The CONGEST model
  /// makes rounds simultaneous, so a conforming protocol must behave
  /// identically either way — the conformance harness (conformance.hpp)
  /// runs both to expose cross-node shared state.
  enum class StepOrder { kForward, kReverse };
  StepOrder step_order = StepOrder::kForward;
  /// Maintain the driver phase span stack even without a trace sink, so a
  /// degraded run can name the phase it stalled in (RunOutcome::
  /// stalled_phase; the dmc CLI turns this on). Implied by `faults`. Off by
  /// default: the untraced perfect path stays allocation-free and ignores
  /// the phase API entirely.
  bool track_phases = false;
  /// Fault injection (faults.hpp). Engaging this switches run() onto the
  /// fault-tolerant delivery path: by default the reliable-transport shim
  /// (reliable.hpp) carries every protocol step over the lossy links, so
  /// protocols run unmodified; with FaultPlan::raw_transport the faults hit
  /// the protocol messages directly. Disengaged (the default), the perfect
  /// delivery path is byte-for-byte the pre-fault simulator.
  std::optional<FaultPlan> faults = std::nullopt;
  /// Fault-mode stall detector: a run that makes no protocol progress (no
  /// payload traffic, nodes not done) for this many consecutive protocol
  /// rounds stops with a degraded outcome instead of burning max_rounds.
  /// Generous default: quiet stretches of honest protocols (e.g. the
  /// elimination-tree phase schedule) are far shorter on the graphs in
  /// scope.
  int stall_quiet_rounds = 1024;
  /// Aggregate metrics registry (src/metrics/metrics.hpp; not owned, must
  /// outlive the network). nullptr — the default — falls back to
  /// metrics::global(); when that is null too every metrics branch is
  /// skipped and the per-round path performs no allocation for metrics
  /// (the same contract as the null trace sink).
  metrics::Registry* metrics = nullptr;
  /// With metrics active and metrics_interval > 0, metrics_flush(rounds)
  /// is invoked every metrics_interval simulated rounds — the periodic
  /// snapshot dump of `dmc --metrics-interval R` for long runs.
  int metrics_interval = 0;
  std::function<void(long rounds)> metrics_flush;
  /// Schedule-exploration seam (sched_hook.hpp; not owned, must outlive
  /// the network). Only honored on the reliable-transport fault path:
  /// when non-null, frame deliveries, defers, adversarial retransmit-timer
  /// firings, and crash events become choice points resolved by the hook
  /// instead of the fixed loop order. Null — the default — is byte for
  /// byte the legacy behavior on every path. The dmc-mc explorer
  /// (src/mc/) is the only intended installer.
  SchedulerHook* scheduler = nullptr;
  /// Read by nothing: the simulator steps serially. Kept only because the
  /// perfbench adapters assign it; it goes with them (ROADMAP "Fold
  /// follow-ups").
  int threads = 1;
  /// Sparse event-driven rounds (docs/PERFORMANCE.md, "Sparse stepping and
  /// the active set"). A node is stepped in a round only if it (a) received
  /// traffic at the end of the previous round, (b) sent last round, (c) has
  /// a pending NodeCtx::wake_at/sleep expiry, or (d) is not yet done and
  /// never opted into sleeping. Quiescent done nodes cost zero. Message
  /// traffic, stats, digests, and round counts are identical to dense
  /// stepping for conforming protocols (rounds are simultaneous, so a step
  /// that neither reads traffic nor changes state is unobservable); the
  /// scale-labelled tests assert that equivalence pipeline by pipeline.
  /// false = legacy dense stepping (every node, every round).
  bool sparse_stepping = true;
  /// Capacity of the always-on flight recorder (obs/flight_recorder.hpp):
  /// the last N round/fault/phase events retained for post-mortem dumps of
  /// degraded runs. The ring is pre-allocated once in the constructor and
  /// recording is a few POD stores per round, so the zero-allocation and
  /// determinism contracts are unaffected.
  std::size_t flight_capacity = obs::FlightRecorder::kDefaultCapacity;
};

struct NetworkStats {
  long rounds = 0;
  long messages = 0;
  long long total_bits = 0;
  int max_message_bits = 0;
  /// Node steps actually executed (on_round invocations). Dense stepping
  /// makes this n * rounds; the sparse scheduler makes it the active-set
  /// total — the gap is the work the event-driven path saved (E16 gates
  /// it as a deterministic bench column).
  long long active_steps = 0;
  /// Audit-mode counters: messages cross-checked through their codec and
  /// their true (measured) encoded bits. encoded_bits <= total_bits always;
  /// the gap is the declared slack. Both stay 0 with audit off.
  long audited_messages = 0;
  long long encoded_bits = 0;
  /// Fault-mode counters (all stay 0 on the perfect path). `rounds` above
  /// counts *physical* rounds; `messages`/`total_bits` keep counting the
  /// protocol-level (logical) sends, so the gap between them and the frame
  /// counters below is exactly the transport overhead.
  long frames = 0;            // reliable-transport frames transmitted
  long retransmissions = 0;   // frames beyond the first per link per step
  long marker_frames = 0;     // payload-less frames (round advance only)
  long long frame_bits = 0;   // physical bits incl. transport headers
  long faults_dropped = 0;
  long faults_duplicated = 0;
  long faults_corrupted = 0;
  long faults_delayed = 0;
  int crashes = 0;

  void reset() { *this = NetworkStats{}; }
};

/// How a run ended. Anything but kCompleted is a *degraded* outcome: the
/// protocol's outputs must not be trusted as a verdict (the graceful
/// alternative to an uncaught exception — or worse, a silently wrong
/// answer).
enum class RunStatus {
  kCompleted,   // all nodes done; outputs valid
  kRoundLimit,  // max_rounds exhausted or the run stalled without crashes
  kCrashed,     // crash-stop faults occurred; outputs untrusted
};

const char* to_string(RunStatus status);

struct RunOutcome {
  RunStatus status = RunStatus::kCompleted;
  /// Physical rounds this run consumed (the cost currency; equals the
  /// protocol rounds on the perfect path, exceeds them under the reliable
  /// transport, which spends extra rounds retransmitting).
  long rounds = 0;
  /// Protocol steps executed (what NodeCtx::round() advanced by).
  long virtual_rounds = 0;
  /// Innermost driver phase path (e.g. "decide") when a degraded run
  /// stopped; empty for completed runs or when no phase was open.
  std::string stalled_phase;
  /// Ids of nodes crash-stopped by the end of the run.
  std::vector<VertexId> crashed;

  bool ok() const { return status == RunStatus::kCompleted; }
};

/// Thrown by the legacy Network::run() wrapper on a degraded outcome (both
/// derive from std::runtime_error, preserving the historical contract that
/// run() throws std::runtime_error when max_rounds is exhausted). Callers
/// wanting graceful degradation use run_outcome() instead.
class RoundLimitError : public std::runtime_error {
 public:
  explicit RoundLimitError(const std::string& msg, RunOutcome outcome_)
      : std::runtime_error(msg), outcome(std::move(outcome_)) {}
  RunOutcome outcome;
};

class CrashedError : public std::runtime_error {
 public:
  explicit CrashedError(const std::string& msg, RunOutcome outcome_)
      : std::runtime_error(msg), outcome(std::move(outcome_)) {}
  RunOutcome outcome;
};

class Network;

/// Per-node view during a round.
class NodeCtx {
 public:
  /// This node's unique identifier (not its graph index).
  VertexId id() const;
  int degree() const;
  /// Number of nodes in the network (standard CONGEST knowledge).
  int n() const;
  /// Identifier of the neighbor on `port` (nodes learn neighbor ids in one
  /// preprocessing round; provided directly for convenience).
  VertexId neighbor_id(int port) const;
  /// Port leading to the neighbor with identifier `id`, or -1.
  int port_of(VertexId id) const;
  int round() const;
  /// Per-edge-per-round bandwidth in bits.
  int bandwidth() const;

  /// True iff a trace sink is configured. Protocols that build annotation
  /// names dynamically should gate the formatting on this.
  bool traced() const;
  /// Labels the network's current protocol step for the trace (a span
  /// nested under the innermost driver phase). Network-global and
  /// deduplicated: annotating the current name again is a no-op, a new
  /// name closes the previous annotation span. No-op when untraced.
  void annotate(std::string_view name);

  /// Queues a message on `port` for delivery next round. Throws if a
  /// message was already queued on this port this round or if `bits`
  /// exceeds the bandwidth. Under the reliable transport the delivery is
  /// guaranteed (retransmitted until it lands); under raw faulty transport
  /// it is subject to the fault plan.
  void send(int port, Message msg);
  void send_all(const Message& msg);
  /// Best-effort variant: under the reliable transport the payload rides
  /// only the first transmission — if that frame is lost, the receiver sees
  /// nothing (the round still advances). Identical to send() on the perfect
  /// path. Protocol code in src/dist/ that bypasses the reliable shim this
  /// way must carry a dmc-lint allow(raw-send) suppression.
  void send_unreliable(int port, Message msg);

  /// Message received from `port` at the end of the previous round, or
  /// nullptr. The pointer aliases the network's flat mailbox slot and is
  /// valid until the end of the current round.
  const Message* recv(int port) const;

  /// Sparse-stepping hints (no-ops under dense stepping; see
  /// NetworkConfig::sparse_stepping). wake_at(round) requests that this
  /// node not be stepped again until the given round (in NodeCtx::round()
  /// units); sleep() requests no further steps at all. Either way the node
  /// is woken early by incoming traffic, and the request lasts only until
  /// its next step — a phase-scheduled protocol re-arms its wake each time
  /// it runs. Contract: a sleeping node whose done() answer flips on the
  /// round clock must wake_at() the flip round, or round counts can drift
  /// from dense stepping.
  void wake_at(int round);
  void sleep();

  /// Reports the current reassembly backlog of one FragmentReassembler
  /// port (partially received + completed-but-undelivered messages) into
  /// the congest.reassembly.max_depth gauge. No-op without metrics.
  void note_reassembly_depth(int depth);

 private:
  friend class Network;
  friend struct detail::FaultRuntime;
  NodeCtx(Network& net, int vertex) : net_(net), vertex_(vertex) {}
  Network& net_;
  int vertex_;
};

/// A distributed algorithm: one instance per node, stepped every round.
class NodeProgram {
 public:
  virtual ~NodeProgram() = default;
  /// Executes one round: inspect ctx.recv(), update state, ctx.send().
  /// Round 0 is the first invocation (no messages yet).
  virtual void on_round(NodeCtx& ctx) = 0;
  /// True when this node has finished the protocol (it may keep being
  /// stepped while others finish; sends after done are allowed).
  virtual bool done(const NodeCtx& ctx) const = 0;
};

class Network {
 public:
  Network(const Graph& g, NetworkConfig cfg = {});
  ~Network();  // out of line: detail::FaultRuntime is incomplete here

  int n() const { return graph_.num_vertices(); }
  int bandwidth() const { return bandwidth_; }
  const Graph& graph() const { return graph_; }
  const NetworkStats& stats() const { return stats_; }
  void reset_stats() { stats_.reset(); }

  VertexId id_of_vertex(int vertex) const { return ids_[vertex]; }
  int vertex_of_id(VertexId id) const { return vertex_of_id_.at(id); }

  /// Steady-state bytes the network itself holds per simulated graph —
  /// mailboxes, link tables, id maps, scheduler state — excluding the
  /// graph structure (Graph::memory_bytes) and any protocol state. Logical
  /// sizes, so the figure is deterministic for a given graph (the E16
  /// bytes-per-vertex budget gates it).
  std::size_t memory_bytes() const;

  /// Rolling digest of all audited message traffic (audit mode only; 0
  /// otherwise). Per round the digest folds an order-insensitive sum of
  /// per-message hashes (sender id, receiver id, declared bits, encoded
  /// payload bits), so two executions that send the same messages in any
  /// within-round order digest identically — the comparison backbone of
  /// the determinism checker in conformance.hpp.
  std::uint64_t audit_digest() const { return audit_digest_; }

  /// Runs one protocol to completion (all programs done) under the round
  /// cap; `programs[v]` is the program of graph vertex v. The caller keeps
  /// ownership (protocol outputs are read from the programs afterwards).
  /// Returns the number of rounds this run took (stats accumulate across
  /// runs). Throws std::runtime_error if max_rounds is exceeded — a
  /// RoundLimitError — and CrashedError on crash-stop faults; prefer
  /// run_outcome() where degraded outcomes are expected.
  long run(std::vector<std::unique_ptr<NodeProgram>>& programs);

  /// Like run(), but degraded endings come back as a structured RunOutcome
  /// instead of an exception: round-budget exhaustion and crash-stop faults
  /// report their status, per-phase progress (stalled_phase), and the
  /// crashed node set. Protocol outputs are only meaningful when
  /// outcome.ok().
  RunOutcome run_outcome(std::vector<std::unique_ptr<NodeProgram>>& programs);

  /// Tracing (all no-ops when no sink is configured). Driver code brackets
  /// protocol stages in named spans; spans nest and must close in LIFO
  /// order (prefer the PhaseScope RAII helper). phase_end closes any open
  /// NodeCtx annotation first, so annotations never leak across phases.
  bool traced() const { return cfg_.sink != nullptr; }
  /// The configuration this network was built with.
  const NetworkConfig& config() const { return cfg_; }
  /// The always-on ring of recent events (rounds, faults, phases,
  /// quiescent skips). Tools dump it when a run ends degraded; see
  /// docs/OBSERVABILITY.md "Flight recorder".
  const obs::FlightRecorder& flight_recorder() const { return flight_; }
  obs::FlightRecorder& flight_recorder() { return flight_; }
  void phase_begin(std::string_view name);
  void phase_end();
  void annotate(std::string_view name);

 private:
  friend class NodeCtx;
  friend struct detail::FaultRuntime;

  /// The perfect (fault-free) delivery loop — the original simulator path,
  /// kept branch- and allocation-free when untraced.
  RunOutcome run_perfect(std::vector<std::unique_ptr<NodeProgram>>& programs);

  /// Steps all programs once in cfg_.step_order.
  void step_programs(std::vector<std::unique_ptr<NodeProgram>>& programs);
  /// Steps exactly the vertices in active_ (ascending; kReverse iterates it
  /// backwards).
  void step_active(std::vector<std::unique_ptr<NodeProgram>>& programs);

  // --- active-set scheduler (cfg_.sparse_stepping) -------------------------
  // A vertex is *restless* while it has neither finished nor asked to
  // sleep: restless vertices step every round, exactly like dense stepping.
  // Everything else steps only on a trigger: delivered traffic, a send it
  // made last round, or a due wake_at(). All bookkeeping runs between the
  // step and delivery.
  void sched_reset();
  /// Active set of the round: restless + due wakes + pending triggers, in
  /// ascending vertex order. A dense set (k * log2(k) > n for k vertices)
  /// is collected by scanning the stamp array, a sparse one is sorted.
  void sched_build_active();
  void sched_note_stepped(int v, bool done_now);  // consume wake request
  void sched_activate(int v);         // queue a trigger for the next round
  void sched_request(int v, int round);  // NodeCtx::wake_at / sleep backend
  void restless_add(int v);
  void restless_remove(int v);

  /// Flat-mailbox accessors shared with the fault runtime. A slot is
  /// engaged iff bits > 0 (send() rejects non-positive declared sizes, so
  /// 0 is a free sentinel); disengaging assigns Message{}.
  int link_of(int v, int port) const { return link_offset_[v] + port; }
  Message& out_slot(int v, int port) { return outbox_[link_of(v, port)]; }
  Message& in_slot(int v, int port) { return inbox_[link_of(v, port)]; }
  static bool engaged(const Message& m) { return m.bits > 0; }

  void close_annotation();
  /// Metrics hooks, all no-ops when metrics_ is null. note_send_metrics
  /// accumulates per-message counters and per-link round loads;
  /// metrics_round_end folds the round's link loads into the congestion
  /// histograms, refreshes the utilization / max-loaded-link gauges, and
  /// drives the periodic flush.
  void note_send_metrics(int vertex, int port, int bits);
  void metrics_round_end();
  /// Bulk metrics fold for a fast-forwarded quiescent stretch: `skip`
  /// rounds with zero traffic on every link. Equivalent to calling
  /// metrics_round_end() `skip` times (round counter, utilization
  /// denominator, and every crossed metrics_interval flush boundary) at
  /// O(flush boundaries) cost instead of O(skip * links).
  void metrics_skip_rounds(long skip);
  /// Audit-mode conformance check of one outgoing message (wire.hpp);
  /// throws std::invalid_argument with sender/port/round context on any
  /// violation and folds the message into the round digest accumulator.
  void audit_send(int vertex, int port, const Message& msg);

  Graph graph_;
  NetworkConfig cfg_;
  int bandwidth_;
  std::vector<VertexId> ids_;           // vertex -> id
  std::vector<int> vertex_of_id_;       // id -> vertex
  NetworkStats stats_;
  int round_ = 0;
  int round_max_message_bits_ = 0;  // reset per round while traced
  // Audit digest state (see audit_digest()); touched only when cfg_.audit.
  std::uint64_t audit_digest_ = 0;
  std::uint64_t audit_round_acc_ = 0;
  // --- flat link-indexed mailboxes -----------------------------------------
  // Directed link l = link_offset_[v] + port names (vertex v, port). The
  // mailboxes are two flat Message arrays over those links — one cache-
  // friendly arena each instead of n per-vertex vectors — and delivery
  // walks only the links actually sent on this round (sent_links_), so a
  // quiet network pays nothing per round. peer_link_[l] is the same edge
  // seen from the other endpoint; link_src_[l] recovers the owning vertex.
  std::vector<Message> inbox_, outbox_;  // size L = sum of degrees
  std::vector<int> peer_link_;           // directed link -> reverse link
  std::vector<int> link_src_;            // directed link -> source vertex
  std::vector<int> sent_links_;          // links sent on this round (dense cap L)
  int sent_count_ = 0;                   // cursor into sent_links_
  std::vector<int> inbox_links_;         // engaged inbox slots to clear next round
  // --- active-set scheduler state (see sched_* above) ----------------------
  std::vector<char> sched_done_;     // last observed done() per vertex
  std::vector<char> sched_asleep_;   // vertex holds an unconsumed sleep/wake
  std::vector<int> wake_request_;    // per-vertex request written during a step
  std::vector<std::pair<int, int>> wake_heap_;  // (round, vertex) min-heap
  std::vector<int> restless_;        // compact list: !done && !asleep
  std::vector<int> restless_pos_;    // vertex -> index in restless_ (-1 absent)
  std::vector<int> active_;          // this round's step list, ascending
  std::vector<int> pending_active_;  // traffic/sent triggers for next round
  std::vector<int> active_mark_;     // dedup stamps for active_ building
  int active_stamp_ = 0;
  int sched_done_count_ = 0;
  // Trace state: driver span stack + the current annotation sub-span
  // ("" = none). Touched only when cfg_.sink != nullptr.
  std::vector<std::string> span_stack_;
  std::string annotation_;
  // Fault-mode runtime (reliable.hpp); null unless cfg_.faults is engaged,
  // so the perfect path pays one pointer test per phase call and nothing
  // per round.
  std::unique_ptr<detail::FaultRuntime> fault_rt_;
  // Metrics state; metrics_ is null (and the vectors stay empty) unless a
  // registry is configured, so the disabled path pays one pointer test
  // per send / round and allocates nothing.
  std::unique_ptr<detail::NetMetrics> metrics_;
  std::vector<int> link_offset_;            // vertex -> first directed link
                                            // (size n+1; always built)
  std::vector<long long> link_round_bits_;  // per directed link, this round
  std::vector<long> link_round_msgs_;       // (metrics-only accumulators)
  std::vector<long long> link_total_bits_;  // per directed link, lifetime
  // Always-on post-mortem ring (cfg_.flight_capacity POD slots, allocated
  // once here). Fed on every path — perfect, fault, fast-forward — so a
  // degraded run can always be dumped.
  obs::FlightRecorder flight_;
  long long flight_prev_bits_ = 0;  // recorder's own round-delta baselines
  long flight_prev_messages_ = 0;
};

/// RAII driver span: opens a named phase on construction, closes it (and
/// any annotation under it) on destruction. Free when the network is
/// untraced.
class PhaseScope {
 public:
  PhaseScope(Network& net, std::string_view name) : net_(net) {
    net_.phase_begin(name);
  }
  ~PhaseScope() { net_.phase_end(); }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  Network& net_;
};

}  // namespace dmc::congest
