// Reliable transport + fault-injecting delivery for the CONGEST simulator.
//
// Network::run_rounds is the one run loop on every path; when
// NetworkConfig::faults is engaged, the loop hands each virtual round's
// outbox to the reliable transport declared here instead of swapping the
// mailboxes.
//
// Every protocol step becomes a *virtual round*. Stepping the programs
// fills the outboxes as usual; the transport then carries one
// sequence-numbered frame per directed link (the queued payload, or an
// empty marker when the port is silent) across the faulty physical links —
// retransmitting on a bounded-exponential-backoff timer, suppressing
// duplicates by sequence number, discarding corruption-flagged frames like
// checksum failures, and piggybacking acknowledgements on the
// reverse-direction frames — until every live link has delivered its
// frame. Only then does the next virtual round begin, so NodeCtx::round()
// advances exactly as on a perfect network, every message arrives exactly
// once and in order, and every protocol runs unmodified; the fault tax is
// paid purely in *physical* rounds (NetworkStats::rounds,
// RunOutcome::rounds). On a fault-free link the shim costs nothing: one
// physical round per virtual round.
//
// Modeling notes: the end-of-step barrier is the simulator acting as an
// omniscient synchronizer (it sees deliveries; real deployments would run
// a termination-detection layer), and the fixed kTransportHeaderBits frame
// header (sequence/ack/flags/checksum) rides alongside the payload rather
// than shrinking the protocol's bandwidth — headers are accounted in
// NetworkStats::frame_bits, not charged against the CONGEST budget, so
// declared protocol costs stay comparable with the perfect path.
//
// The transport implements crash-stop faults (crashed nodes are silenced
// and excluded from completion); the run loop adds a quiet-stretch stall
// detector and ends with a structured RunOutcome instead of an exception.
// See docs/ROBUSTNESS.md for the protocol stack and the overhead model.
#pragma once

#include <cstdint>
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

/// Fault-mode transport, owned by Network (one per network, persistent
/// across run_outcome() calls so crash state carries over a protocol
/// pipeline).
/// Directed link k is Network's link k: it leaves link_src_[k] and lands
/// in inbox slot peer_link_[k], the reverse link.
struct FaultRuntime {
  FaultRuntime(Network& net, const FaultPlan& plan);

  // Channel state, per directed link, per virtual round.
  struct Channel {
    long seq = -1;          // virtual round this frame belongs to
    bool active = false;    // participates in the current barrier
    bool has_payload = false;
    Message payload;
    int payload_bits = 0;
    bool delivered = false;  // receiver completed this link's frame
    bool acked = false;      // sender saw the (piggybacked) ack
    /// The frame's payload actually landed in the receiver's inbox.
    /// Tracked for the hook-mode barrier-integrity invariant: a completed
    /// barrier whose payload channel never deposited is a transport bug
    /// (the planted --self-check bug manufactures exactly that).
    /// Maintained on every path; only checked under a hook.
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
    long seq = 0;           // channel seq at transmit time
    long ack_seq = -1;      // piggybacked cumulative ack
    bool corrupt = false;
    bool with_payload = false;  // the payload itself stays on the channel
  };

  /// Reliable delivery of one virtual round: loads every live link's frame
  /// from the outbox, then runs the frame barrier — transmit, close a
  /// physical round, deliver — until every live link delivered (at least
  /// one physical round), the round cap cuts it, or it stalls: no link
  /// completes for stall_quiet_rounds physical rounds in a row. A round
  /// where every live node is done and nothing is queued settles in one
  /// round.
  Carried carry_reliable(int done_count, bool all_done);

  /// Crash-stops every plan entry scheduled at or before the current
  /// physical round (idempotent); deactivates channels touching the node.
  void apply_scheduled_crashes();
  /// Crash-stops one node id now (shared by the scheduled sweep above and
  /// the hook's kCrash choice). No-op for absent or already-crashed ids.
  void crash_node(VertexId id);
  void emit_fault(obs::FaultEvent::Kind kind, long round, VertexId src,
                  VertexId dst, int detail_value);
  /// Applies the injector to one frame; queues the surviving copies on
  /// flight_[link].
  void launch(int link, long seq, long ack_seq, bool with_payload,
              std::uint64_t salt);
  /// Puts one surviving copy of a transmission on `link`'s wire, `delay`
  /// rounds late, and records its faults: a duplicate announces itself, a
  /// primary its delay, then either its corruption.
  void queue_copy(int link, InFlight copy, bool duplicate, int delay,
                  bool corrupt);
  /// Records a transmission on `link` lost to a drop.
  void note_drop(int link);
  /// Ids of the sender and the receiver of directed link `link`.
  VertexId src_id(int link) const { return net_.ids_[net_.link_src_[link]]; }
  VertexId dst_id(int link) const {
    return net_.ids_[net_.link_src_[net_.peer_link_[link]]];
  }
  /// Transmits channel `link`'s frame (first send or retransmission) and
  /// rearms its backoff timer.
  void transmit(int link);
  /// Reliable receive of one frame copy: ack, duplicate suppression, and
  /// the payload deposit.
  void receive_frame(int link, InFlight& copy);
  /// Index of the earliest-sent copy on `link` that is due at `now`, or -1.
  int earliest_due(int link, long now) const;
  /// Holds every copy on `link` due at `now` back one round.
  void hold_due(int link, long now);
  /// Takes copy `index` off `link`; the link's other due copies wait a
  /// round (one delivery per directed link per round).
  InFlight take_due(int link, long now, int index);
  /// Receives at most one due frame per link — the earliest-sent one;
  /// later due copies wait a round, which is what keeps reordering
  /// bounded.
  void deliver_due(long now);
  /// Hook-mode replacement for the apply_scheduled_crashes + deliver_due
  /// pair (sched_hook.hpp): pending crashes, due-frame deliveries, per-link
  /// defers, and early retransmit-timer firings become choice points
  /// resolved by net_.cfg_.scheduler, one at a time, until the round's
  /// choice set is exhausted. Per-link delivery stays capped at one frame
  /// per round (the same bounded-reordering model as deliver_due).
  void deliver_with_hook(long now);

  Network& net_;
  FaultInjector injector_;
  std::vector<Channel> channels_;           // per link
  std::vector<std::vector<InFlight>> flight_;  // per link
  std::vector<char> crashed_;               // per vertex, persistent
  std::vector<VertexId> crashed_ids_;
  std::size_t next_crash_ = 0;              // into plan crashes (sorted)
  std::vector<CrashFault> schedule_;        // plan crashes, sorted by round
  long order_counter_ = 0;
};

}  // namespace detail
}  // namespace dmc::congest
