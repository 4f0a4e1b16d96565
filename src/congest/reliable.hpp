// Reliable transport + fault-injecting delivery for the CONGEST simulator.
//
// When NetworkConfig::faults is engaged, Network::run() swaps its perfect
// delivery loop for one of the two runtimes declared here:
//
//   - Reliable transport (the default): every protocol step becomes a
//     *virtual round*. Stepping the programs fills the outboxes as usual;
//     the transport then carries one sequence-numbered frame per directed
//     link (the queued payload, or an empty marker when the port is
//     silent) across the faulty physical links — retransmitting on a
//     bounded-exponential-backoff timer, suppressing duplicates by
//     sequence number, discarding corruption-flagged frames like checksum
//     failures, and piggybacking acknowledgements on the reverse-direction
//     frames — until every live link has delivered its frame. Only then
//     does the next virtual round begin, so NodeCtx::round() advances
//     exactly as on a perfect network and every protocol runs unmodified;
//     the fault tax is paid purely in *physical* rounds
//     (NetworkStats::rounds, RunOutcome::rounds). On a fault-free link the
//     shim costs nothing: one physical round per virtual round.
//
//     Modeling notes: the end-of-step barrier is the simulator acting as
//     an omniscient synchronizer (it sees deliveries; real deployments
//     would run a termination-detection layer), and the fixed
//     kTransportHeaderBits frame header (sequence/ack/flags/checksum)
//     rides alongside the payload rather than shrinking the protocol's
//     bandwidth — headers are accounted in NetworkStats::frame_bits, not
//     charged against the CONGEST budget, so declared protocol costs stay
//     comparable with the perfect path.
//
//   - Raw transport (FaultPlan::raw_transport): protocol messages travel
//     the faulty links directly — dropped, duplicated, delayed (at most
//     one delivery per directed link per round, earliest first, so
//     reordering stays bounded), or delivered as a CorruptedPayload
//     marker. For degradation experiments; verdicts are untrusted.
//
// Both runtimes implement crash-stop faults (crashed nodes are silenced
// and excluded from completion) and a quiet-stretch stall detector, and
// end with a structured RunOutcome instead of an exception. See
// docs/ROBUSTNESS.md for the protocol stack and the overhead model.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "congest/faults.hpp"
#include "congest/network.hpp"
#include "congest/sched_hook.hpp"

namespace dmc::congest {

/// Declared size of the reliable-transport frame header: sequence number,
/// cumulative ack, payload/marker flag, and checksum. Fixed-width by
/// design — the sequence field wraps within a window bounded by the
/// in-flight depth (classic sliding-window sizing), so it does not grow
/// with the round count.
inline constexpr int kTransportHeaderBits = 16;

/// Retransmit timer (in physical rounds): first retry after kInitialRto,
/// doubling up to kMaxRto ("bounded exponential backoff").
inline constexpr int kInitialRto = 2;
inline constexpr int kMaxRto = 16;

namespace detail {

/// Fault-mode execution engine, owned by Network (one per network,
/// persistent across run() calls so crash state and the physical round
/// clock carry over a protocol pipeline).
struct FaultRuntime {
  FaultRuntime(Network& net, const FaultPlan& plan);

  RunOutcome run(std::vector<std::unique_ptr<NodeProgram>>& programs);

  /// Flags the message just queued on (vertex, port) as best-effort
  /// (NodeCtx::send_unreliable): its payload rides only the first
  /// transmission.
  void note_best_effort(int vertex, int port);

  // One directed link per (vertex, port) pair, both directions distinct.
  struct Link {
    int u = 0, uport = 0;  // sender side
    int v = 0, vport = 0;  // receiver side
    int reverse = 0;       // link index of (v,vport) -> (u,uport)
  };

  // Reliable-transport channel state, per directed link, per virtual round.
  struct Channel {
    long seq = -1;          // virtual round this frame belongs to
    bool active = false;    // participates in the current barrier
    bool has_payload = false;
    bool best_effort = false;
    Message payload;
    int payload_bits = 0;
    bool delivered = false;  // receiver completed this link's frame
    bool acked = false;      // sender saw the (piggybacked) ack
    /// The frame's payload actually landed in the receiver's inbox.
    /// Tracked for the hook-mode barrier-integrity invariant: a completed
    /// barrier whose non-best-effort payload channel never deposited is a
    /// transport bug (the planted --self-check bug manufactures exactly
    /// that). Maintained on every path; only checked under a hook.
    bool payload_deposited = false;
    long next_tx = 0;        // physical round of the next (re)transmission
    long first_tx = 0;       // physical round of the first transmission
    int rto = kInitialRto;
    int tx_count = 0;
  };

  // A transmitted frame copy travelling the physical link.
  struct InFlight {
    long due = 0;           // physical round it becomes deliverable
    long order = 0;         // global send order; earliest delivers first
    long seq = 0;           // reliable: channel seq at transmit time
    long ack_seq = -1;      // reliable: piggybacked cumulative ack
    bool corrupt = false;
    bool with_payload = false;
    Message payload;        // raw transport only (reliable reads the channel)
  };

  RunOutcome run_reliable(std::vector<std::unique_ptr<NodeProgram>>& programs);
  RunOutcome run_raw(std::vector<std::unique_ptr<NodeProgram>>& programs);

  /// Crash-stops every plan entry scheduled at or before the current
  /// physical round (idempotent); deactivates channels touching the node.
  void apply_scheduled_crashes();
  /// Crash-stops one node id now (shared by the scheduled sweep above and
  /// the hook's kCrash choice). No-op for absent or already-crashed ids.
  void crash_node(VertexId id);
  void emit_fault(obs::FaultEvent::Kind kind, long round, VertexId src,
                  VertexId dst, int detail_value);
  /// Applies the injector to one reliable-transport frame; queues the
  /// surviving copies on flight_[link].
  void launch(int link, long seq, long ack_seq, bool with_payload,
              std::uint64_t salt);
  /// Delivers at most one due frame per link — the earliest-sent one;
  /// later due copies wait a round, which is what keeps reordering
  /// bounded. Returns how many frames landed.
  int deliver_due(long now,
                  const std::function<void(int link, InFlight& copy)>& handler);
  /// Hook-mode replacement for the apply_scheduled_crashes + deliver_due
  /// pair (sched_hook.hpp): pending crashes, due-frame deliveries, per-link
  /// defers, and early retransmit-timer firings become choice points
  /// resolved by net_.cfg_.scheduler, one at a time, until the round's
  /// choice set is exhausted. Per-link delivery stays capped at one frame
  /// per round (the same bounded-reordering model as deliver_due).
  void deliver_with_hook(
      long now, const std::function<void(int link, InFlight& copy)>& handler);

  Network& net_;
  FaultInjector injector_;
  std::vector<Link> links_;
  std::vector<std::vector<int>> link_of_;   // [vertex][port] -> link index
  std::vector<Channel> channels_;           // reliable mode, per link
  std::vector<std::vector<InFlight>> flight_;  // per link
  std::vector<std::vector<char>> best_effort_;  // [vertex][port], per step
  std::vector<char> crashed_;               // per vertex, persistent
  std::vector<VertexId> crashed_ids_;
  std::size_t next_crash_ = 0;              // into plan crashes (sorted)
  std::vector<CrashFault> schedule_;        // plan crashes, sorted by round
  long physical_round_ = 0;                 // persistent across runs
  long order_counter_ = 0;
  bool any_best_effort_ = false;
};

}  // namespace detail
}  // namespace dmc::congest
