#include "congest/reliable.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "congest/net_metrics.hpp"

namespace dmc::congest {

std::string SchedChoice::label() const {
  std::string s;
  switch (kind) {
    case Kind::kDeliver:
      s = "deliver";
      break;
    case Kind::kDefer:
      s = "defer";
      break;
    case Kind::kRetransmit:
      s = "retransmit";
      break;
    case Kind::kCrash:
      return "crash node=" + std::to_string(src);
  }
  s += " link=" + std::to_string(link) + " " + std::to_string(src) + "->" +
       std::to_string(dst);
  if (kind != Kind::kRetransmit) s += " order=" + std::to_string(order);
  s += " seq=" + std::to_string(seq);
  if (with_payload) s += " payload";
  if (stale) s += " stale";
  return s;
}

}  // namespace dmc::congest

namespace dmc::congest::detail {

FaultRuntime::FaultRuntime(Network& net, const FaultPlan& plan)
    : net_(net), injector_(plan) {
  const std::size_t links = net_.inbox_.size();
  channels_.resize(links);
  flight_.resize(links);
  crashed_.assign(net_.n(), 0);
  schedule_ = injector_.plan().crashes;
  std::stable_sort(schedule_.begin(), schedule_.end(),
                   [](const CrashFault& a, const CrashFault& b) {
                     return a.round < b.round;
                   });
}

void FaultRuntime::emit_fault(obs::FaultEvent::Kind kind, long round,
                              VertexId src, VertexId dst, int detail_value) {
  obs::FaultEvent ev;
  ev.kind = kind;
  ev.round = round;
  ev.src = src;
  ev.dst = dst;
  ev.detail = detail_value;
  // The flight recorder sees every fault even when untraced — it is the
  // post-mortem story of a degraded run.
  net_.flight_.record_fault(ev);
  if (net_.cfg_.sink != nullptr) net_.cfg_.sink->fault(ev);
}

void FaultRuntime::crash_node(VertexId id) {
  if (id < 0 || id >= static_cast<VertexId>(net_.vertex_of_id_.size()))
    return;  // id not present in this network
  const int v = net_.vertex_of_id_[id];
  if (crashed_[v]) return;
  crashed_[v] = 1;
  crashed_ids_.push_back(id);
  net_.stats_.crashes += 1;
  // The run loop's done count covers live nodes only.
  if (net_.sched_done_[v]) {
    net_.sched_done_[v] = 0;
    net_.sched_done_count_ -= 1;
  }
  emit_fault(obs::FaultEvent::Kind::Crash, net_.clock_, id, -1, 0);
  // Crash-stop cuts the node's links: queued sends vanish and frames on
  // the wire to/from it are lost; live links stop waiting on it.
  for (int k = net_.link_offset_[v]; k < net_.link_offset_[v + 1]; ++k) {
    const int rev = net_.peer_link_[k];
    net_.outbox_[rev] = Message{};
    channels_[k].active = false;
    channels_[rev].active = false;
    flight_[k].clear();
    flight_[rev].clear();
  }
}

void FaultRuntime::apply_scheduled_crashes() {
  while (next_crash_ < schedule_.size() &&
         schedule_[next_crash_].round <= net_.clock_)
    crash_node(schedule_[next_crash_++].node);
}

void FaultRuntime::launch(int link, long seq, long ack_seq, bool with_payload,
                          std::uint64_t salt) {
  const FaultInjector::Fate fate =
      injector_.fate(src_id(link), dst_id(link), net_.clock_, salt);
  InFlight copy;
  copy.seq = seq;
  copy.ack_seq = ack_seq;
  copy.with_payload = with_payload;
  if (fate.drop) {
    note_drop(link);
  } else {
    copy.order = order_counter_++;
    queue_copy(link, copy, /*duplicate=*/false, fate.delay, fate.corrupt);
  }
  if (fate.duplicate) {
    copy.order = order_counter_++;
    queue_copy(link, copy, /*duplicate=*/true, fate.dup_delay,
               fate.dup_corrupt);
  }
}

void FaultRuntime::queue_copy(int link, InFlight copy, bool duplicate,
                              int delay, bool corrupt) {
  const long now = net_.clock_;
  const VertexId src = src_id(link), dst = dst_id(link);
  copy.due = now + 1 + delay;
  copy.corrupt = corrupt;
  if (duplicate) {
    net_.stats_.faults_duplicated += 1;
    emit_fault(obs::FaultEvent::Kind::Duplicate, now, src, dst, delay);
  } else if (delay > 0) {
    net_.stats_.faults_delayed += 1;
    emit_fault(obs::FaultEvent::Kind::Delay, now, src, dst, delay);
  }
  if (corrupt) {
    net_.stats_.faults_corrupted += 1;
    emit_fault(obs::FaultEvent::Kind::Corrupt, now, src, dst, 0);
  }
  flight_[link].push_back(std::move(copy));
}

void FaultRuntime::note_drop(int link) {
  net_.stats_.faults_dropped += 1;
  emit_fault(obs::FaultEvent::Kind::Drop, net_.clock_, src_id(link),
             dst_id(link), 0);
}

void FaultRuntime::transmit(int link) {
  Channel& ch = channels_[link];
  const long now = net_.clock_;
  ch.tx_count += 1;
  if (ch.tx_count == 1) ch.first_tx = now;
  net_.stats_.frames += 1;
  net_.stats_.frame_bits += kTransportHeaderBits + ch.payload_bits;
  if (!ch.has_payload) net_.stats_.marker_frames += 1;
  if (ch.tx_count > 1) net_.stats_.retransmissions += 1;
  const Channel& rev = channels_[net_.peer_link_[link]];
  const long ack_seq = (rev.active && rev.delivered) ? rev.seq : ch.seq - 1;
  launch(link, ch.seq, ack_seq, ch.has_payload,
         static_cast<std::uint64_t>(ch.tx_count));
  ch.next_tx = now + ch.rto;
  ch.rto = std::min(ch.rto * 2, kMaxRto);
}

void FaultRuntime::receive_frame(int link, InFlight& copy) {
  Channel& ch = channels_[link];
  const int rev_link = net_.peer_link_[link];
  if (crashed_[net_.link_src_[rev_link]]) return;
  if (copy.corrupt) return;  // checksum failure: discarded, retried
  // Piggybacked cumulative ack quiets the reverse sender.
  Channel& rev = channels_[rev_link];
  if (rev.active && !rev.acked && copy.ack_seq >= rev.seq) {
    rev.acked = true;
    if (net_.metrics_ != nullptr && rev.tx_count > 0)
      net_.metrics_->ack_rounds.record(net_.clock_ - rev.first_tx);
  }
  // Duplicate / stale suppression by sequence number. The planted
  // --self-check bug (FaultPlan::mc_planted_ack_before_dup_check) weakens
  // the staleness half of the guard — the ack above was already
  // processed, and a delayed copy from an *earlier* virtual round now
  // slips through and completes the channel without depositing the
  // current payload. Only an adversarial ordering (early retransmit of a
  // marker frame, then delivery of the stale copy ahead of the genuine one
  // next round) exposes it.
  const bool suppress =
      injector_.plan().mc_planted_ack_before_dup_check
          ? (!ch.active || copy.seq > ch.seq || ch.delivered)
          : (!ch.active || copy.seq != ch.seq || ch.delivered);
  if (suppress) {
    if (net_.metrics_ != nullptr) net_.metrics_->dups += 1;
    return;
  }
  ch.delivered = true;
  if (copy.with_payload) {
    net_.deposit(rev_link, std::move(ch.payload));
    ch.payload_deposited = true;
    // Traffic wakes the receiver for the next virtual round.
    if (net_.cfg_.sparse_stepping)
      net_.sched_activate(net_.link_src_[rev_link]);
  }
}

int FaultRuntime::earliest_due(int link, long now) const {
  const std::vector<InFlight>& fl = flight_[link];
  int best = -1;
  for (int i = 0; i < static_cast<int>(fl.size()); ++i) {
    if (fl[i].due > now) continue;
    if (best < 0 || fl[i].order < fl[best].order) best = i;
  }
  return best;
}

void FaultRuntime::hold_due(int link, long now) {
  for (InFlight& copy : flight_[link])
    if (copy.due <= now) copy.due = now + 1;
}

FaultRuntime::InFlight FaultRuntime::take_due(int link, long now, int index) {
  // One delivery per directed link per round; other due copies queue
  // behind it (bounded reordering, never starvation).
  hold_due(link, now);
  std::vector<InFlight>& fl = flight_[link];
  InFlight copy = std::move(fl[index]);
  fl.erase(fl.begin() + index);
  return copy;
}

void FaultRuntime::deliver_due(long now) {
  for (int k = 0; k < static_cast<int>(flight_.size()); ++k) {
    if (flight_[k].empty()) continue;
    const int best = earliest_due(k, now);
    if (best < 0) continue;
    InFlight copy = take_due(k, now, best);
    receive_frame(k, copy);
  }
}

void FaultRuntime::deliver_with_hook(long now) {
  SchedulerHook* const hook = net_.cfg_.scheduler;
  const int links = static_cast<int>(flight_.size());
  // Per-phase bookkeeping: a link that delivered *or* was deferred is done
  // for this round (same one-frame-per-link cap as deliver_due), and a
  // forced retransmit is offered at most once per link per round so the
  // choice set stays finite without an explorer-side bound.
  std::vector<char> settled(links, 0);
  std::vector<char> fired(links, 0);
  for (;;) {
    std::vector<SchedChoice> enabled;
    // Pending crash-stop faults: the adversary positions each crash before
    // or after any subset of the round's deliveries. Mandatory — the hook
    // may not decline a set containing one.
    for (std::size_t c = next_crash_; c < schedule_.size(); ++c) {
      if (schedule_[c].round > now) break;
      const CrashFault& crash = schedule_[c];
      if (crash.node < 0 ||
          crash.node >= static_cast<VertexId>(net_.vertex_of_id_.size()))
        continue;
      if (crashed_[net_.vertex_of_id_[crash.node]]) continue;
      SchedChoice ch;
      ch.kind = SchedChoice::Kind::kCrash;
      ch.src = crash.node;
      enabled.push_back(ch);
    }
    // Due frames: per link, the earliest-sent copy may be delivered
    // (mandatory eventually) or the whole link held back a round (optional).
    for (int k = 0; k < links; ++k) {
      if (settled[k]) continue;
      const int best = earliest_due(k, now);
      if (best < 0) continue;
      const InFlight& copy = flight_[k][best];
      SchedChoice d;
      d.kind = SchedChoice::Kind::kDeliver;
      d.link = k;
      d.order = copy.order;
      d.seq = copy.seq;
      d.src = src_id(k);
      d.dst = dst_id(k);
      d.with_payload = copy.with_payload;
      d.stale = channels_[k].active && copy.seq < channels_[k].seq;
      enabled.push_back(d);
      SchedChoice h = d;
      h.kind = SchedChoice::Kind::kDefer;
      enabled.push_back(h);
    }
    // Adversarial early retransmit-timer firings (optional): any armed,
    // un-acked channel whose timer would *not* fire naturally this round.
    for (int k = 0; k < links; ++k) {
      const Channel& ch = channels_[k];
      if (fired[k] || !ch.active || ch.acked || crashed_[net_.link_src_[k]])
        continue;
      if (ch.tx_count < 1 || now >= ch.next_tx) continue;
      SchedChoice r;
      r.kind = SchedChoice::Kind::kRetransmit;
      r.link = k;
      r.seq = ch.seq;
      r.src = src_id(k);
      r.dst = dst_id(k);
      r.with_payload = ch.has_payload;
      enabled.push_back(r);
    }
    if (enabled.empty()) return;
    const int pick = hook->choose(now, enabled);
    if (pick < 0) return;  // declined an all-optional remainder
    const SchedChoice& c = enabled[static_cast<std::size_t>(pick)];
    switch (c.kind) {
      case SchedChoice::Kind::kCrash:
        crash_node(c.src);
        break;
      case SchedChoice::Kind::kDeliver: {
        const int best = earliest_due(c.link, now);
        if (best < 0) break;  // hook raced a stale choice; nothing due
        InFlight copy = take_due(c.link, now, best);
        receive_frame(c.link, copy);
        settled[c.link] = 1;
        break;
      }
      case SchedChoice::Kind::kDefer:
        hold_due(c.link, now);
        settled[c.link] = 1;
        break;
      case SchedChoice::Kind::kRetransmit:
        transmit(c.link);
        fired[c.link] = 1;
        break;
    }
  }
}

Carried FaultRuntime::carry_reliable(int done_count, bool all_done) {
  const int links = static_cast<int>(channels_.size());
  // Load this virtual round's frame onto every live-to-live channel: the
  // queued payload or an empty marker.
  bool any_payload = false;
  for (int k = 0; k < links; ++k) {
    Channel& ch = channels_[k];
    const int u = net_.link_src_[k];
    const int rev = net_.peer_link_[k];
    Message& slot = net_.outbox_[rev];
    if (crashed_[u] || crashed_[net_.link_src_[rev]]) {
      slot = Message{};
      ch.active = false;
      continue;
    }
    ch.seq = net_.round_;
    ch.active = true;
    ch.has_payload = Network::engaged(slot);
    if (ch.has_payload) {
      ch.payload = std::move(slot);
      slot = Message{};
      ch.payload_bits = ch.payload.bits;
      any_payload = true;
      // The sender made progress this round: keep it in next round's
      // active set (same trigger as the perfect path's sent-last-round).
      if (net_.cfg_.sparse_stepping) net_.sched_activate(u);
    } else {
      ch.payload = Message{};
      ch.payload_bits = 0;
    }
    ch.delivered = false;
    ch.acked = false;
    ch.payload_deposited = false;
    ch.next_tx = net_.clock_;
    ch.rto = kInitialRto;
    ch.tx_count = 0;
  }
  if (all_done && !any_payload) {
    // Settle round: everyone finished and nothing is queued — mirror the
    // perfect path's final (message-free) round.
    net_.close_round(done_count);
    return {};
  }
  // Transport the frames over the faulty physical links until every live
  // link delivered (the synchronizer barrier). Cost: >= 1 physical round.
  // A barrier that completes no link for stall_quiet_rounds physical rounds
  // in a row (every frame lost, say) stalls rather than run to the cap.
  int pending = links;  // live links not yet delivered
  int quiet = 0;        // consecutive physical rounds completing none
  for (;;) {
    for (int k = 0; k < links; ++k) {
      const Channel& ch = channels_[k];
      if (!ch.active || ch.acked || crashed_[net_.link_src_[k]]) continue;
      if (net_.clock_ >= ch.next_tx) transmit(k);
    }
    net_.close_round(done_count);
    if (net_.cfg_.scheduler == nullptr) {
      apply_scheduled_crashes();
      deliver_due(net_.clock_);
    } else {
      deliver_with_hook(net_.clock_);
      // Retire schedule entries the hook executed as kCrash choices (and
      // apply any it was never offered, e.g. absent ids): idempotent.
      apply_scheduled_crashes();
    }
    const int still_pending = static_cast<int>(
        std::count_if(channels_.begin(), channels_.end(),
                      [](const Channel& ch) {
                        return ch.active && !ch.delivered;
                      }));
    if (still_pending == 0) break;
    quiet = still_pending < pending ? 0 : quiet + 1;
    pending = still_pending;
    if (quiet >= net_.cfg_.stall_quiet_rounds)
      return {.closed = false, .in_motion = true, .stalled = true};
    if (net_.over_round_cap()) return {.closed = false, .in_motion = true};
  }
  // Barrier-integrity invariant (hook mode only): a completed barrier must
  // have deposited every live payload.
  if (net_.cfg_.scheduler != nullptr) {
    for (int k = 0; k < links; ++k) {
      const Channel& ch = channels_[k];
      if (ch.active && ch.has_payload && !ch.payload_deposited)
        net_.cfg_.scheduler->note_violation(
            "transport barrier completed without depositing payload: link " +
            std::to_string(src_id(k)) + "->" + std::to_string(dst_id(k)) +
            " vround " + std::to_string(ch.seq));
    }
  }
  return {.closed = true, .in_motion = any_payload};
}

}  // namespace dmc::congest::detail
