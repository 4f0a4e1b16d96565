// Fragmentation of large logical messages over the CONGEST bandwidth.
//
// A k-bit logical payload costs ceil(k / B) rounds on one edge (the paper's
// Theta(k / log n) remark). The simulator transfers C++ values, so
// fragmentation is modeled: the sender emits ceil(k / (B - header)) chunk
// messages of which only the last carries the value; the receiver exposes
// the value when the final chunk arrives. Both the perfect network and the
// reliable transport deliver each port's chunks once and in order, and the
// receiver checks that they did: a chunk out of sequence is a transport
// bug, reported by a std::logic_error rather than absorbed.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "congest/network.hpp"

namespace dmc::congest {

/// Chunk wire format. The sequencing fields ride inside the declared
/// kHeaderBits chunk header (message sequence within a sliding window,
/// chunk index, chunk count); the receiver checks each chunk against them.
struct Fragment {
  Payload value;  // engaged only on the final chunk
  /// Declared size of the whole logical payload (the `bits` passed to
  /// FragmentSender::enqueue). The audit layer checks the carried value's
  /// true encoded size against this — the chunk stream was budgeted from
  /// it — rather than against the final chunk's own declared bits.
  long logical_bits = 0;
  /// Per-(sender, port) logical message sequence number.
  std::uint32_t msg_seq = 0;
  int chunk = 0;        // chunk index within the message
  int num_chunks = 1;   // total chunks of the message
};

/// Sender side: queue logical payloads per port, pump one chunk per round.
/// Pending payloads sit in one list ordered by (port, enqueue order), so a
/// node that sends on a few of many ports pays for those payloads only.
class FragmentSender {
 public:
  /// Per-chunk framing overhead (sequencing / last-chunk marker).
  static constexpr int kHeaderBits = 8;

  /// Queues a logical payload of `bits` bits for `port`.
  void enqueue(int port, Payload value, long bits) {
    if (bits <= 0) bits = 1;
    if (port >= static_cast<int>(next_seq_.size())) next_seq_.resize(port + 1);
    const auto at = std::upper_bound(
        pending_.begin(), pending_.end(), port,
        [](int p, const Pending& q) { return p < q.port; });
    pending_.insert(at, Pending{std::move(value), bits, bits,
                                next_seq_[port]++, 0, port});
  }

  bool empty() const { return pending_.empty(); }

  /// Sends one chunk of the oldest payload of each port that has one, in
  /// ascending port order; call once per round. Every chunk must make real
  /// payload progress, so the bandwidth has to exceed the chunk header —
  /// otherwise the ceil(k / (B - header)) round accounting would silently
  /// degrade to meaningless 1-bit chunks.
  void pump(NodeCtx& ctx) {
    if (empty()) return;
    if (ctx.bandwidth() <= kHeaderBits)
      throw std::logic_error(
          "FragmentSender::pump: bandwidth (" +
          std::to_string(ctx.bandwidth()) + " bits) must exceed the " +
          std::to_string(kHeaderBits) +
          "-bit chunk header; raise NetworkConfig::min_bandwidth");
    const int payload_budget = ctx.bandwidth() - kHeaderBits;
    std::size_t kept = 0;
    int last_port = -1;
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      Pending& p = pending_[i];
      if (p.port != last_port) {  // the port's oldest payload
        last_port = p.port;
        const long chunk_bits = std::min<long>(p.bits_left, payload_budget);
        p.bits_left -= chunk_bits;
        Fragment frag;
        frag.logical_bits = p.total_bits;
        frag.msg_seq = p.msg_seq;
        frag.chunk = p.chunks_sent++;
        frag.num_chunks = static_cast<int>(
            (p.total_bits + payload_budget - 1) / payload_budget);
        if (p.bits_left <= 0) frag.value = std::move(p.value);
        ctx.send(p.port, Message(std::move(frag),
                                 static_cast<int>(chunk_bits) + kHeaderBits));
      }
      if (p.bits_left > 0) {
        if (kept != i) pending_[kept] = std::move(p);
        ++kept;
      }
    }
    pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(kept),
                   pending_.end());
  }

 private:
  struct Pending {
    Payload value;
    long bits_left = 0;
    long total_bits = 0;
    std::uint32_t msg_seq = 0;
    int chunks_sent = 0;
    int port = 0;
  };
  std::vector<Pending> pending_;         // by (port, enqueue order)
  std::vector<std::uint32_t> next_seq_;  // per port
};

/// Receiver side: reassembles each port's chunks in order and surfaces a
/// logical payload when its final chunk arrives. Chunks must arrive
/// exactly once and in sequence; a duplicated, skipped or reordered chunk
/// throws std::logic_error naming the port and the sequence numbers.
class FragmentReassembler {
 public:
  /// Examines this round's message on `port`; returns the logical payload
  /// its final chunk completes, if any. Call in every round that delivers
  /// to `port`.
  std::optional<Payload> poll(NodeCtx& ctx, int port) {
    const Message* msg = ctx.recv(port);
    const Fragment* frag =
        msg != nullptr ? msg->value.get_if<Fragment>() : nullptr;
    // Ports that never carried a chunk hold no state (a hub's many
    // single-message ports stay free).
    if (frag == nullptr && port >= static_cast<int>(ports_.size()))
      return std::nullopt;
    if (port >= static_cast<int>(ports_.size())) ports_.resize(port + 1);
    PortState& state = ports_[port];
    // The backlog is the one message being reassembled, if any.
    ctx.note_reassembly_depth(frag != nullptr || state.next_chunk > 0 ? 1 : 0);
    if (frag == nullptr) return std::nullopt;
    if (frag->msg_seq != state.next_seq || frag->chunk != state.next_chunk)
      throw std::logic_error(
          "FragmentReassembler: port " + std::to_string(port) +
          " expected msg_seq " + std::to_string(state.next_seq) + " chunk " +
          std::to_string(state.next_chunk) + ", got msg_seq " +
          std::to_string(frag->msg_seq) + " chunk " +
          std::to_string(frag->chunk));
    if (frag->chunk + 1 < frag->num_chunks) {
      state.next_chunk += 1;
      return std::nullopt;
    }
    state.next_seq += 1;
    state.next_chunk = 0;
    return frag->value;
  }

 private:
  struct PortState {
    std::uint32_t next_seq = 0;  // msg_seq of the message in progress
    int next_chunk = 0;          // its next chunk index
  };

  std::vector<PortState> ports_;
};

}  // namespace dmc::congest
