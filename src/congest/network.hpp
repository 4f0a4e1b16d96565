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
#include <span>
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
struct NetMetrics;    // net_metrics.hpp: metric handles and state of a network

/// What a transport reports to the run loop after carrying one virtual
/// round's messages.
struct Carried {
  /// The virtual round closed. False only when the round cap or a stall
  /// cut the reliable transport's frame barrier short.
  bool closed = true;
  /// Messages are still on their way, so the run cannot complete yet. In
  /// a closed round this means traffic moved, which resets the fault
  /// path's stall count.
  bool in_motion = false;
  /// The frame barrier completed no link for stall_quiet_rounds physical
  /// rounds in a row: the run ends degraded.
  bool stalled = false;
};

/// Throws std::out_of_range("<where>: bad port"); kept out of line and cold
/// so the inline accessors' bounds checks stay one compare and a branch.
[[noreturn]] void throw_bad_port(const char* where);
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
  /// Hard cap on rounds per run_outcome() call (guards non-terminating
  /// protocols).
  int max_rounds = 1'000'000;
  /// Optional trace sink (not owned; must outlive the network). When null
  /// — the default — run_outcome() takes no tracing branches and performs
  /// no allocation for observability. Rounds, phases, faults and quiescent
  /// skips reach the sink as the same events the flight ring records.
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
  /// Fault injection (faults.hpp). Engaging this makes run_outcome() hand
  /// each round's messages to the reliable-transport shim (reliable.hpp)
  /// instead of the perfect mailbox swap: it carries every protocol step
  /// over the lossy links, so protocols run unmodified. Disengaged (the
  /// default), delivery is the perfect path's swap, byte for byte the
  /// pre-fault simulator.
  std::optional<FaultPlan> faults = std::nullopt;
  /// Fault-mode stall detector: a run that makes no protocol progress (no
  /// payload traffic, nodes not done) for this many consecutive protocol
  /// rounds stops with a degraded outcome instead of burning max_rounds.
  /// So does a reliable-transport frame barrier in which no link completes
  /// for this many consecutive physical rounds. Generous default: quiet
  /// stretches of honest protocols (e.g. the elimination-tree phase
  /// schedule) are far shorter on the graphs in scope.
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
  std::function<void(long rounds)> metrics_flush = {};
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

class Network;

/// Per-node view during a round. The per-message accessors are defined
/// inline below the Network class; a bad port throws std::out_of_range.
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
  /// guaranteed (retransmitted until it lands).
  void send(int port, Message msg);
  /// send() on every port in ascending order, with the same checks: a
  /// throw on port p leaves ports 0..p-1 sent and counted.
  void send_all(const Message& msg);

  /// Message received from `port` at the end of the previous round, or
  /// nullptr. The pointer aliases the network's inbox slot and is valid
  /// until the end of the current round.
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
  /// port (1 while a message is being reassembled, else 0) for the
  /// congest.reassembly.max_depth gauge. No-op without metrics.
  void note_reassembly_depth(int depth);

 private:
  friend class Network;
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

/// The non-owning pointers Network::run_outcome takes, one per vertex in
/// vertex order, over programs held by value (one contiguous vector per
/// run) or by owning pointer.
template <class Programs>
std::vector<NodeProgram*> program_ptrs(Programs& programs) {
  std::vector<NodeProgram*> ptrs;
  ptrs.reserve(std::size(programs));
  for (auto& p : programs) {
    if constexpr (requires { p.get(); })
      ptrs.push_back(p.get());
    else
      ptrs.push_back(&p);
  }
  return ptrs;
}

class Network {
 public:
  /// Takes its own copy of the graph (pass an rvalue to move it in).
  /// Throws std::invalid_argument on an empty or disconnected graph.
  Network(Graph g, NetworkConfig cfg = {});
  ~Network();  // out of line: detail::FaultRuntime is incomplete here

  /// Moves to graph `g`: every piece of per-graph state (ids, link tables,
  /// mailboxes, scheduler arrays, metrics handles, fault runtime, flight
  /// ring, round and stats counters) is re-derived by the routine the
  /// constructor runs, reusing this network's buffers, so the result
  /// behaves exactly like Network(std::move(g), config()). Same throws as
  /// the constructor; after a throw the network must be reset with a valid
  /// graph before it runs again.
  void reset(Graph g);
  /// Re-derives on the current graph: a network that has run behaves like
  /// a freshly constructed one again.
  void reset() { derive(); }

  int n() const { return graph_.num_vertices(); }
  int bandwidth() const { return bandwidth_; }
  const Graph& graph() const { return graph_; }
  const NetworkStats& stats() const { return stats_; }

  VertexId id_of_vertex(int vertex) const { return ids_[vertex]; }
  int vertex_of_id(VertexId id) const { return vertex_of_id_.at(id); }

  /// Steady-state bytes the network itself holds per simulated graph —
  /// mailboxes, link tables, id maps, scheduler state — excluding the
  /// graph structure (Graph::memory_bytes) and any protocol state. Logical
  /// sizes, so the figure is deterministic for a given graph (the E16
  /// bytes-per-vertex budget gates it).
  std::size_t memory_bytes() const;

  /// Rolling digest of all audited message traffic (audit mode only; 0
  /// otherwise). Per protocol round the digest folds an order-insensitive
  /// sum of per-message hashes (sender id, receiver id, declared bits,
  /// encoded payload bits), so two executions that send the same messages
  /// in any within-round order digest identically — the comparison
  /// backbone of the determinism checker in conformance.hpp. The reliable
  /// transport folds per virtual round, so a crash-free faulty run digests
  /// exactly like the fault-free one.
  std::uint64_t audit_digest() const { return audit_digest_; }

  /// Runs one protocol to completion (all programs done) under the round
  /// cap; `programs[v]` is the program of graph vertex v. The pointers are
  /// non-owning: the caller holds the programs however it likes (one
  /// contiguous vector per run, see program_ptrs) and reads the protocol
  /// outputs from them afterwards, which are only meaningful when
  /// outcome.ok(). Degraded endings come back in the RunOutcome: an
  /// exhausted round budget or a stall (kRoundLimit) and crash-stop faults
  /// (kCrashed) report their status, physical rounds, the open phase
  /// (stalled_phase) and the crashed node set; stats accumulate across
  /// runs. An exception a program raises (a bad port, an oversize send)
  /// propagates unchanged. With metrics on, the run's metrics reach the
  /// registry when it returns or throws (and at each metrics_interval
  /// flush before that).
  RunOutcome run_outcome(std::span<NodeProgram* const> programs);

  /// True iff a trace sink is configured.
  bool traced() const { return cfg_.sink != nullptr; }
  /// The configuration this network was built with (`metrics` as given:
  /// null still means metrics::global(), resolved at each (re)build).
  const NetworkConfig& config() const { return cfg_; }
  /// The always-on ring of recent events (rounds, faults, phases,
  /// quiescent skips). Tools dump it when a run ends degraded; see
  /// docs/OBSERVABILITY.md "Flight recorder".
  const obs::FlightRecorder& flight_recorder() const { return flight_; }
  obs::FlightRecorder& flight_recorder() { return flight_; }
  /// Driver phases, kept on every network: the flight ring records each
  /// begin and end, a degraded RunOutcome names the open path
  /// (stalled_phase), and a sink gets PhaseEvents. Spans nest and must
  /// close in LIFO order (prefer the PhaseScope RAII helper); phase_end
  /// without an open phase throws std::logic_error. Phase calls happen
  /// between runs, so run_outcome() itself stays allocation-free. phase_end
  /// closes any open NodeCtx annotation first, so annotations never leak
  /// across phases; annotate() is a no-op without a sink.
  void phase_begin(std::string_view name);
  void phase_end();
  void annotate(std::string_view name);

 private:
  friend class NodeCtx;
  friend struct detail::FaultRuntime;

  /// Derives all per-graph state from graph_ and cfg_ (constructor and
  /// reset()).
  void derive();

  // --- the one run loop -----------------------------------------------------
  // run_rounds owns every virtual round on every path: apply due crashes,
  // build the active set (or fast-forward a quiescent stretch), step the
  // live nodes, count the done ones, hand the round's outbox to the
  // transport, fold the audit digest, advance round_, and test completion,
  // stall and the round cap. Only the delivery differs: the perfect path
  // swaps the mailboxes and closes one round; under a fault plan
  // (kFaulty) the reliable transport runs its frame barrier, closing one
  // or more physical rounds (reliable.hpp).
  template <bool kFaulty>
  RunOutcome run_rounds(std::span<NodeProgram* const> programs);
  /// Steps the vertices in active_ (ascending; kReverse iterates it
  /// backwards), skipping crashed ones when kSkipCrashed.
  template <bool kSkipCrashed>
  void step(std::span<NodeProgram* const> programs);
  /// Clears the inbox slots delivered last round (inbox_links_).
  void clear_inbox();
  /// Perfect delivery: swaps the mailboxes, queues the traffic triggers
  /// and closes the round.
  detail::Carried deliver_perfect(bool sparse, int done_count);
  /// True once this run has used more than max_rounds physical rounds.
  bool over_round_cap() const {
    return clock_ - run_first_clock_ > cfg_.max_rounds;
  }

  // --- the one event path ---------------------------------------------------
  // The run loop and the transports report through these routines, so
  // each kind of event is built once and handed to the flight ring, the
  // trace sink and the metrics alike.
  /// Opens a run at clock_: RunInfo to the ring and the sink, and the
  /// round-delta baseline set to the current stats.
  void begin_run();
  /// Closes physical round clock_ and advances it: counts the round in
  /// stats_, folds the metrics, then builds one RoundEvent (deltas against
  /// the baseline, which it advances) for the ring and the sink.
  /// done_count < 0 means the done count is unknown (dense untraced
  /// perfect rounds skip the full scan); the event then carries -1 for
  /// both counts.
  void close_round(int done_count);
  /// Fast-forwards `skip` quiescent rounds from round_ (perfect path,
  /// sparse stepping): one QuiescentEvent to the ring and the sink, and the
  /// metrics' bulk fold.
  void skip_quiescent(long skip);
  /// Closes the run: RunOutcome (its physical rounds counted on clock_),
  /// its stalled_phase (the open span path, when `stalled`), its crashed
  /// ids, the ring's run end and the sink's.
  RunOutcome end_run(RunStatus status, long virtual_rounds, bool stalled);

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

  /// The one send path behind send and send_all: checks the port, the
  /// port's use this round, the declared size and the bandwidth (in that
  /// order), does the accounting (stats, the round's largest message,
  /// metrics, audit) and writes the receiver's outbox slot.
  void post(int vertex, int port, Message msg);

  /// Directed link of (v, port). A mailbox slot is engaged iff bits > 0
  /// (post() rejects non-positive declared sizes, so 0 is a free
  /// sentinel); disengaging assigns Message{}.
  int link_of(int v, int port) const { return link_offset_[v] + port; }
  /// link_of() for a port from protocol code: a bad port throws
  /// std::out_of_range naming `where`.
  int checked_link(int v, int port, const char* where) const {
    const int first = link_offset_[v];
    if (port < 0 || port >= link_offset_[v + 1] - first)
      detail::throw_bad_port(where);
    return first + port;
  }
  static bool engaged(const Message& m) { return m.bits > 0; }
  /// Fault-transport delivery: puts `msg` in inbox slot `link` (the
  /// receiver's end of the edge) and lists the slot for clear_inbox().
  void deposit(int link, Message msg) {
    inbox_[link] = std::move(msg);
    inbox_links_[inbox_count_++] = link;
  }

  void close_annotation();
  /// Metrics hooks, called only when metrics_ is set; they record into the
  /// network's own NetMetrics fields, never the registry.
  /// post() records each message's link load (the congestion histograms,
  /// the link's total and the hottest-link maximum) as it is sent.
  /// metrics_round_end, called after stats_.rounds advanced, drives the
  /// periodic flush.
  void metrics_round_end();
  /// The fold for a fast-forwarded quiescent stretch of `skip` rounds with
  /// no traffic, called after stats_.rounds advanced by `skip`: publishes
  /// and flushes at every crossed metrics_interval boundary with the round
  /// count it would have seen round by round. O(flush boundaries).
  void metrics_skip_rounds(long skip);
  /// Publishes the metrics recorded so far as of round `clock` (see
  /// NetMetrics::publish).
  void metrics_publish(long clock);
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
  int round_ = 0;    // protocol (virtual) round: NodeCtx::round()
  long clock_ = 0;   // physical round; equals round_ on the perfect path
  long run_first_clock_ = 0;  // clock_ when the current run began
  int round_max_message_bits_ = 0;  // largest send of the open round
  // Audit digest state (see audit_digest()); touched only when cfg_.audit.
  std::uint64_t audit_digest_ = 0;
  std::uint64_t audit_round_acc_ = 0;
  // --- receiver-indexed mailboxes ----------------------------------------
  // Directed link l = link_offset_[v] + port names (vertex v, port): the
  // slot in which v receives from the neighbor on that port. The mailboxes
  // are two flat Message arrays over those links. A send from u to w
  // writes outbox_[l'] where l' = peer_link_[u's link] is w's end of the
  // edge, so delivery moves nothing: after each step the run loop clears
  // last round's delivered inbox slots (inbox_links_), the perfect path
  // swaps the two arrays, and the list of slots written this round
  // (sent_links_) becomes the next round's list to clear. The fault
  // transports instead take the queued messages out of the outbox and
  // deposit() what arrives. A quiet network pays nothing per round.
  // link_src_[l] recovers the owning vertex.
  std::vector<Message> inbox_, outbox_;  // size L = sum of degrees
  std::vector<int> peer_link_;           // directed link -> reverse link
  std::vector<int> link_src_;            // directed link -> source vertex
  std::vector<int> sent_links_;    // outbox slots written this round (cap L)
  int sent_count_ = 0;             // cursor into sent_links_
  std::vector<int> inbox_links_;   // delivered inbox slots to clear (cap L)
  int inbox_count_ = 0;            // cursor into inbox_links_
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
  // Driver span stack (every network) + the current annotation sub-span
  // ("" = none; touched only when cfg_.sink != nullptr).
  std::vector<std::string> span_stack_;
  std::string annotation_;
  // Fault-mode runtime (reliable.hpp); null unless cfg_.faults is engaged,
  // so the perfect path pays one pointer test per send.
  std::unique_ptr<detail::FaultRuntime> fault_rt_;
  // Metrics state; metrics_ is null (and link_total_bits_ stays empty)
  // unless a registry is configured, so the disabled path pays one pointer
  // test per send / round and allocates nothing.
  std::unique_ptr<detail::NetMetrics> metrics_;
  std::vector<int> link_offset_;            // vertex -> first directed link
                                            // (size n+1; always built)
  std::vector<long long> link_total_bits_;  // per directed link, lifetime
                                            // (metrics only)
  // Always-on post-mortem ring (FlightRecorder::kDefaultCapacity POD
  // slots, allocated once here). Fed on every path — perfect, fault, fast-forward — so a
  // degraded run can always be dumped.
  obs::FlightRecorder flight_;
  // Stats at the last round close (or run begin): RoundEvent deltas.
  long round_base_messages_ = 0;
  long long round_base_bits_ = 0;
};

inline VertexId NodeCtx::id() const { return net_.ids_[vertex_]; }
inline int NodeCtx::degree() const {
  return net_.link_offset_[vertex_ + 1] - net_.link_offset_[vertex_];
}
inline int NodeCtx::n() const { return net_.n(); }
inline int NodeCtx::round() const { return net_.round_; }
inline int NodeCtx::bandwidth() const { return net_.bandwidth_; }
inline bool NodeCtx::traced() const { return net_.traced(); }

inline void NodeCtx::annotate(std::string_view name) {
  // Re-annotating the current step, the common case, costs a compare.
  if (net_.traced() && name != net_.annotation_) net_.annotate(name);
}

inline VertexId NodeCtx::neighbor_id(int port) const {
  const int link = net_.checked_link(vertex_, port, "NodeCtx::neighbor_id");
  return net_.ids_[net_.link_src_[net_.peer_link_[link]]];
}

inline const Message* NodeCtx::recv(int port) const {
  const Message& m =
      net_.inbox_[net_.checked_link(vertex_, port, "NodeCtx::recv")];
  return Network::engaged(m) ? &m : nullptr;
}

/// RAII driver span: opens a named phase on construction, closes it (and
/// any annotation under it) on destruction.
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
