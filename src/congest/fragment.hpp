// Fragmentation of large logical messages over the CONGEST bandwidth.
//
// A k-bit logical payload costs ceil(k / B) rounds on one edge (the paper's
// Theta(k / log n) remark). The simulator transfers C++ values, so
// fragmentation is modeled: the sender emits ceil(k / (B - header)) chunk
// messages of which only the last carries the value; the receiver exposes
// the value when the final chunk arrives. Chunks on one port are delivered
// in order, one per round.
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
/// chunk index, chunk count) — they are what makes reassembly robust to
/// the duplicated and reordered deliveries a faulty transport can produce
/// (faults.hpp).
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

/// Polls the message on `port` this round for a completed logical payload.
/// Only sound on a perfect (in-order, exactly-once) network: a duplicated
/// final chunk would surface the payload twice, a lost interior chunk goes
/// unnoticed. Protocol code uses FragmentReassembler, which is robust to
/// both; this helper remains for unit tests of the perfect path.
inline std::optional<Payload> poll_fragment(NodeCtx& ctx, int port) {
  const Message* msg = ctx.recv(port);
  if (msg == nullptr) return std::nullopt;
  const Fragment* frag = msg->value.get_if<Fragment>();
  if (frag == nullptr || !frag->value.has_value()) return std::nullopt;
  return frag->value;
}

/// Receiver-side reassembly hardened against faulty delivery: chunk
/// insertion is idempotent (keyed by message sequence number and chunk
/// index, so duplicates are absorbed), chunks may arrive in any order, and
/// completed messages are surfaced exactly once, in sequence order — at
/// most one per poll, matching the one-logical-message-per-round cadence
/// of the perfect path. Messages whose chunks never all arrive (raw lossy
/// transport) are simply never surfaced; under the reliable transport
/// every message completes.
class FragmentReassembler {
 public:
  /// Examines this round's message on `port`; returns a completed logical
  /// payload when one is deliverable in order. Call once per round per
  /// port (like poll_fragment).
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
    if (frag != nullptr) absorb(state, *frag);
    ctx.note_reassembly_depth(
        static_cast<int>(state.partials.size() + state.ready.size()));
    // Surface the next in-sequence completed message, if any.
    for (std::size_t i = 0; i < state.ready.size(); ++i) {
      if (state.ready[i].seq != state.next_deliver) continue;
      Payload value = std::move(state.ready[i].value);
      state.ready.erase(state.ready.begin() + i);
      state.next_deliver += 1;
      return value;
    }
    return std::nullopt;
  }

 private:
  struct Partial {
    std::uint32_t seq = 0;
    std::vector<bool> have;  // chunk index -> received
    int have_count = 0;
    Payload value;
  };
  struct Ready {
    std::uint32_t seq = 0;
    Payload value;
  };
  struct PortState {
    std::uint32_t next_deliver = 0;  // next msg_seq to surface
    std::vector<Partial> partials;
    std::vector<Ready> ready;
  };

  void absorb(PortState& state, const Fragment& frag) {
    if (frag.msg_seq < state.next_deliver) return;  // stale duplicate
    for (const Ready& r : state.ready)
      if (r.seq == frag.msg_seq) return;  // completed, awaiting delivery
    Partial* partial = nullptr;
    for (Partial& p : state.partials)
      if (p.seq == frag.msg_seq) partial = &p;
    if (partial == nullptr) {
      state.partials.push_back(Partial{});
      partial = &state.partials.back();
      partial->seq = frag.msg_seq;
      partial->have.assign(std::max(frag.num_chunks, 1), false);
    }
    if (frag.chunk < 0 || frag.chunk >= static_cast<int>(partial->have.size()))
      return;  // malformed header (e.g. forged under corruption): ignore
    if (partial->have[frag.chunk]) return;  // duplicate chunk: idempotent
    partial->have[frag.chunk] = true;
    partial->have_count += 1;
    if (frag.value.has_value() && !partial->value.has_value())
      partial->value = frag.value;
    if (partial->have_count == static_cast<int>(partial->have.size())) {
      Ready done;
      done.seq = partial->seq;
      done.value = std::move(partial->value);
      for (std::size_t i = 0; i < state.partials.size(); ++i)
        if (state.partials[i].seq == done.seq) {
          state.partials.erase(state.partials.begin() + i);
          break;
        }
      state.ready.push_back(std::move(done));
    }
  }

  std::vector<PortState> ports_;
};

}  // namespace dmc::congest
