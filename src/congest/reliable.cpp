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
  const Graph& g = net_.graph_;
  const int n = g.num_vertices();
  link_of_.resize(n);
  for (int v = 0; v < n; ++v) {
    const auto& inc = g.incident(v);
    link_of_[v].resize(inc.size(), -1);
    for (int port = 0; port < static_cast<int>(inc.size()); ++port) {
      Link link;
      link.u = v;
      link.uport = port;
      link.v = inc[port].first;
      link_of_[v][port] = static_cast<int>(links_.size());
      links_.push_back(link);
    }
  }
  // Resolve receiver-side ports and reverse links in a second pass.
  for (Link& link : links_) {
    const auto& vinc = g.incident(link.v);
    for (int port = 0; port < static_cast<int>(vinc.size()); ++port) {
      if (vinc[port].first == link.u) {
        link.vport = port;
        link.reverse = link_of_[link.v][port];
        break;
      }
    }
  }
  channels_.resize(links_.size());
  flight_.resize(links_.size());
  best_effort_.resize(n);
  for (int v = 0; v < n; ++v) best_effort_[v].resize(g.degree(v), 0);
  crashed_.assign(n, 0);
  schedule_ = injector_.plan().crashes;
  std::stable_sort(schedule_.begin(), schedule_.end(),
                   [](const CrashFault& a, const CrashFault& b) {
                     return a.round < b.round;
                   });
}

void FaultRuntime::note_best_effort(int vertex, int port) {
  best_effort_[vertex][port] = 1;
  any_best_effort_ = true;
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

std::string FaultRuntime::phase_path() const {
  std::string path;
  for (const std::string& name : net_.span_stack_) {
    if (!path.empty()) path += '/';
    path += name;
  }
  return path;
}

void FaultRuntime::crash_node(VertexId id) {
  if (id < 0 || id >= static_cast<VertexId>(net_.vertex_of_id_.size()))
    return;  // id not present in this network
  const int v = net_.vertex_of_id_[id];
  if (crashed_[v]) return;
  crashed_[v] = 1;
  crashed_ids_.push_back(id);
  net_.stats_.crashes += 1;
  emit_fault(obs::FaultEvent::Kind::Crash, physical_round_, id, -1, 0);
  // Crash-stop cuts the node's links: queued sends vanish and frames on
  // the wire to/from it are lost; live links stop waiting on it.
  for (int port = 0; port < net_.graph_.degree(v); ++port)
    net_.out_slot(v, port) = Message{};
  for (int port = 0; port < static_cast<int>(link_of_[v].size()); ++port) {
    const int out = link_of_[v][port];
    channels_[out].active = false;
    channels_[links_[out].reverse].active = false;
    flight_[out].clear();
    flight_[links_[out].reverse].clear();
  }
}

void FaultRuntime::apply_scheduled_crashes() {
  while (next_crash_ < schedule_.size() &&
         schedule_[next_crash_].round <= physical_round_)
    crash_node(schedule_[next_crash_++].node);
}

void FaultRuntime::launch(int link, long seq, long ack_seq, bool with_payload,
                          std::uint64_t salt) {
  const Link& L = links_[link];
  const VertexId src = net_.ids_[L.u];
  const VertexId dst = net_.ids_[L.v];
  const long now = physical_round_;
  const FaultInjector::Fate fate = injector_.fate(src, dst, now, salt);
  if (fate.drop) {
    net_.stats_.faults_dropped += 1;
    emit_fault(obs::FaultEvent::Kind::Drop, now, src, dst, 0);
  } else {
    InFlight copy;
    copy.due = now + 1 + fate.delay;
    copy.order = order_counter_++;
    copy.seq = seq;
    copy.ack_seq = ack_seq;
    copy.corrupt = fate.corrupt;
    copy.with_payload = with_payload;
    if (fate.delay > 0) {
      net_.stats_.faults_delayed += 1;
      emit_fault(obs::FaultEvent::Kind::Delay, now, src, dst, fate.delay);
    }
    if (fate.corrupt) {
      net_.stats_.faults_corrupted += 1;
      emit_fault(obs::FaultEvent::Kind::Corrupt, now, src, dst, 0);
    }
    flight_[link].push_back(std::move(copy));
  }
  if (fate.duplicate) {
    InFlight copy;
    copy.due = now + 1 + fate.dup_delay;
    copy.order = order_counter_++;
    copy.seq = seq;
    copy.ack_seq = ack_seq;
    copy.corrupt = fate.dup_corrupt;
    copy.with_payload = with_payload;
    net_.stats_.faults_duplicated += 1;
    emit_fault(obs::FaultEvent::Kind::Duplicate, now, src, dst, fate.dup_delay);
    if (fate.dup_corrupt) {
      net_.stats_.faults_corrupted += 1;
      emit_fault(obs::FaultEvent::Kind::Corrupt, now, src, dst, 0);
    }
    flight_[link].push_back(std::move(copy));
  }
}

int FaultRuntime::deliver_due(
    long now, const std::function<void(int link, InFlight& copy)>& handler) {
  int delivered = 0;
  for (int k = 0; k < static_cast<int>(links_.size()); ++k) {
    auto& fl = flight_[k];
    if (fl.empty()) continue;
    int best = -1;
    for (int i = 0; i < static_cast<int>(fl.size()); ++i) {
      if (fl[i].due > now) continue;
      if (best < 0 || fl[i].order < fl[best].order) best = i;
    }
    if (best < 0) continue;
    // One delivery per directed link per round; other due copies queue
    // behind it (bounded reordering, never starvation).
    for (auto& copy : fl)
      if (copy.due <= now) copy.due = now + 1;
    InFlight winner = std::move(fl[best]);
    fl.erase(fl.begin() + best);
    handler(k, winner);
    ++delivered;
  }
  return delivered;
}

void FaultRuntime::deliver_with_hook(
    long now, const std::function<void(int link, InFlight& copy)>& handler) {
  SchedulerHook* const hook = net_.cfg_.scheduler;
  // Per-phase bookkeeping: a link that delivered *or* was deferred is done
  // for this round (same one-frame-per-link cap as deliver_due), and a
  // forced retransmit is offered at most once per link per round so the
  // choice set stays finite without an explorer-side bound.
  std::vector<char> settled(links_.size(), 0);
  std::vector<char> fired(links_.size(), 0);
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
    for (int k = 0; k < static_cast<int>(links_.size()); ++k) {
      if (settled[k]) continue;
      const auto& fl = flight_[k];
      int best = -1;
      for (int i = 0; i < static_cast<int>(fl.size()); ++i) {
        if (fl[i].due > now) continue;
        if (best < 0 || fl[i].order < fl[best].order) best = i;
      }
      if (best < 0) continue;
      SchedChoice d;
      d.kind = SchedChoice::Kind::kDeliver;
      d.link = k;
      d.order = fl[best].order;
      d.seq = fl[best].seq;
      d.src = net_.ids_[links_[k].u];
      d.dst = net_.ids_[links_[k].v];
      d.with_payload = fl[best].with_payload;
      d.stale = channels_[k].active && fl[best].seq < channels_[k].seq;
      enabled.push_back(d);
      SchedChoice h = d;
      h.kind = SchedChoice::Kind::kDefer;
      enabled.push_back(h);
    }
    // Adversarial early retransmit-timer firings (optional): any armed,
    // un-acked channel whose timer would *not* fire naturally this round.
    for (int k = 0; k < static_cast<int>(links_.size()); ++k) {
      const Channel& ch = channels_[k];
      if (fired[k] || !ch.active || ch.acked || crashed_[links_[k].u])
        continue;
      if (ch.tx_count < 1 || now >= ch.next_tx) continue;
      SchedChoice r;
      r.kind = SchedChoice::Kind::kRetransmit;
      r.link = k;
      r.seq = ch.seq;
      r.src = net_.ids_[links_[k].u];
      r.dst = net_.ids_[links_[k].v];
      r.with_payload = ch.has_payload && !ch.best_effort;
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
        auto& fl = flight_[c.link];
        int best = -1;
        for (int i = 0; i < static_cast<int>(fl.size()); ++i) {
          if (fl[i].due > now) continue;
          if (best < 0 || fl[i].order < fl[best].order) best = i;
        }
        if (best < 0) break;  // hook raced a stale choice; nothing due
        for (auto& copy : fl)
          if (copy.due <= now) copy.due = now + 1;
        InFlight winner = std::move(fl[best]);
        fl.erase(fl.begin() + best);
        handler(c.link, winner);
        settled[c.link] = 1;
        break;
      }
      case SchedChoice::Kind::kDefer:
        for (auto& copy : flight_[c.link])
          if (copy.due <= now) copy.due = now + 1;
        settled[c.link] = 1;
        break;
      case SchedChoice::Kind::kRetransmit: {
        Channel& ch = channels_[c.link];
        ch.tx_count += 1;
        const bool carry =
            ch.has_payload && (!ch.best_effort || ch.tx_count == 1);
        net_.stats_.frames += 1;
        net_.stats_.frame_bits +=
            kTransportHeaderBits + (carry ? ch.payload_bits : 0);
        if (!ch.has_payload) net_.stats_.marker_frames += 1;
        net_.stats_.retransmissions += 1;
        if (net_.metrics_ != nullptr) {
          NetMetrics& m = *net_.metrics_;
          m.frames->add(1);
          m.frame_bits->add(kTransportHeaderBits +
                            (carry ? ch.payload_bits : 0));
          if (!ch.has_payload) m.marker_frames->add(1);
          m.retransmissions->add(1);
        }
        const Channel& rev = channels_[links_[c.link].reverse];
        const long ack_seq =
            (rev.active && rev.delivered) ? rev.seq : ch.seq - 1;
        launch(c.link, ch.seq, ack_seq, carry,
               static_cast<std::uint64_t>(ch.tx_count));
        ch.next_tx = now + ch.rto;
        ch.rto = std::min(ch.rto * 2, kMaxRto);
        fired[c.link] = 1;
        break;
      }
    }
  }
}

RunOutcome FaultRuntime::finish(RunStatus status, long physical,
                                long virtual_rounds, bool stalled) {
  RunOutcome outcome;
  outcome.status = status;
  outcome.rounds = physical;
  outcome.virtual_rounds = virtual_rounds;
  outcome.crashed = crashed_ids_;
  if (stalled) outcome.stalled_phase = phase_path();
  if (status != RunStatus::kCompleted)
    net_.flight_.note(physical_round_, to_string(status));
  net_.flight_.record_run_end(physical_round_);
  if (net_.cfg_.sink != nullptr) {
    net_.close_annotation();
    net_.cfg_.sink->run_end();
  }
  return outcome;
}

RunOutcome FaultRuntime::run(
    std::vector<std::unique_ptr<NodeProgram>>& programs) {
  {
    obs::RunInfo info;
    info.n = net_.n();
    info.bandwidth = net_.bandwidth_;
    info.first_round = physical_round_;
    net_.flight_.record_run_begin(info);
    if (net_.cfg_.sink != nullptr) net_.cfg_.sink->run_begin(info);
  }
  return injector_.plan().raw_transport ? run_raw(programs)
                                        : run_reliable(programs);
}

RunOutcome FaultRuntime::run_reliable(
    std::vector<std::unique_ptr<NodeProgram>>& programs) {
  const int n = net_.n();
  obs::TraceSink* const sink = net_.cfg_.sink;
  const bool reverse =
      net_.cfg_.step_order == NetworkConfig::StepOrder::kReverse;
  long prev_messages = net_.stats_.messages;
  long long prev_bits = net_.stats_.total_bits;
  long physical = 0;
  long vrounds = 0;
  int quiet = 0;

  auto tick = [&](int done_count) {
    physical_round_ += 1;
    physical += 1;
    net_.stats_.rounds += 1;
    if (net_.metrics_ != nullptr) net_.metrics_round_end();
    {
      obs::RoundEvent ev;
      ev.round = physical_round_ - 1;
      ev.messages = net_.stats_.messages - net_.flight_prev_messages_;
      ev.bits = net_.stats_.total_bits - net_.flight_prev_bits_;
      ev.max_message_bits = net_.round_max_message_bits_;
      ev.active_nodes = n - done_count;
      ev.done_nodes = done_count;
      net_.flight_.record_round(ev);
      net_.flight_prev_messages_ = net_.stats_.messages;
      net_.flight_prev_bits_ = net_.stats_.total_bits;
    }
    if (sink != nullptr) {
      obs::RoundEvent ev;
      ev.round = physical_round_ - 1;
      ev.messages = net_.stats_.messages - prev_messages;
      ev.bits = net_.stats_.total_bits - prev_bits;
      ev.max_message_bits = net_.round_max_message_bits_;
      ev.active_nodes = n - done_count;
      ev.done_nodes = done_count;
      sink->round(ev);
      prev_messages = net_.stats_.messages;
      prev_bits = net_.stats_.total_bits;
    }
    net_.round_max_message_bits_ = 0;
  };

  for (;;) {
    apply_scheduled_crashes();

    // Step every live *active* node: one *virtual* round (NodeCtx::round()
    // is the virtual clock, so fixed-schedule protocols run unmodified).
    // The active-set scheduler applies here too — crashed nodes are
    // filtered at step time, and channel loads / payload deposits below
    // queue the traffic triggers.
    const bool sparse = net_.cfg_.sparse_stepping;
    if (sparse) {
      net_.sched_build_active();
      const int count = static_cast<int>(net_.active_.size());
      for (int i = 0; i < count; ++i) {
        const int v = net_.active_[reverse ? count - 1 - i : i];
        if (crashed_[v]) continue;
        NodeCtx ctx(net_, v);
        programs[v]->on_round(ctx);
        net_.stats_.active_steps += 1;
        net_.sched_note_stepped(v, programs[v]->done(ctx));
      }
    } else {
      for (int i = 0; i < n; ++i) {
        const int v = reverse ? n - 1 - i : i;
        if (crashed_[v]) continue;
        NodeCtx ctx(net_, v);
        programs[v]->on_round(ctx);
        net_.stats_.active_steps += 1;
      }
    }
    int live = 0;
    for (int v = 0; v < n; ++v)
      if (!crashed_[v]) ++live;
    if (live == 0) return finish(RunStatus::kCrashed, physical, vrounds, true);

    bool all_done = true;
    int done_count = 0;
    for (int v = 0; v < n; ++v) {
      if (crashed_[v]) continue;
      NodeCtx ctx(net_, v);
      if (programs[v]->done(ctx))
        ++done_count;
      else
        all_done = false;
    }

    // Load this virtual round's frame onto every live-to-live channel (the
    // queued payload or an empty marker) and wipe the inboxes the step
    // just consumed.
    for (Message& slot : net_.inbox_)
      if (Network::engaged(slot)) slot = Message{};
    bool any_payload = false;
    for (int k = 0; k < static_cast<int>(links_.size()); ++k) {
      Channel& ch = channels_[k];
      const Link& L = links_[k];
      Message& slot = net_.out_slot(L.u, L.uport);
      if (crashed_[L.u] || crashed_[L.v]) {
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
        if (sparse) net_.sched_activate(L.u);
      } else {
        ch.payload = Message{};
        ch.payload_bits = 0;
      }
      ch.best_effort = best_effort_[L.u][L.uport] != 0;
      ch.delivered = false;
      ch.acked = false;
      ch.payload_deposited = false;
      ch.next_tx = physical_round_;
      ch.rto = kInitialRto;
      ch.tx_count = 0;
    }
    if (any_best_effort_) {
      for (auto& row : best_effort_) std::fill(row.begin(), row.end(), 0);
      any_best_effort_ = false;
    }

    if (all_done && !any_payload) {
      // Settle round: everyone finished and nothing is queued — mirror the
      // perfect loop's final (message-free) round and stop.
      tick(done_count);
      net_.round_ += 1;
      vrounds += 1;
      return finish(
          crashed_ids_.empty() ? RunStatus::kCompleted : RunStatus::kCrashed,
          physical, vrounds, false);
    }

    // Transport the frames over the faulty physical links until every live
    // link delivered (the synchronizer barrier). Cost: >= 1 physical round.
    for (;;) {
      for (int k = 0; k < static_cast<int>(links_.size()); ++k) {
        Channel& ch = channels_[k];
        const Link& L = links_[k];
        if (!ch.active || ch.acked || crashed_[L.u]) continue;
        if (physical_round_ < ch.next_tx) continue;
        ch.tx_count += 1;
        if (ch.tx_count == 1) ch.first_tx = physical_round_;
        const bool carry =
            ch.has_payload && (!ch.best_effort || ch.tx_count == 1);
        net_.stats_.frames += 1;
        net_.stats_.frame_bits +=
            kTransportHeaderBits + (carry ? ch.payload_bits : 0);
        if (!ch.has_payload) net_.stats_.marker_frames += 1;
        if (ch.tx_count > 1) net_.stats_.retransmissions += 1;
        if (net_.metrics_ != nullptr) {
          NetMetrics& m = *net_.metrics_;
          m.frames->add(1);
          m.frame_bits->add(kTransportHeaderBits +
                            (carry ? ch.payload_bits : 0));
          if (!ch.has_payload) m.marker_frames->add(1);
          if (ch.tx_count > 1) m.retransmissions->add(1);
        }
        const Channel& rev = channels_[L.reverse];
        const long ack_seq =
            (rev.active && rev.delivered) ? rev.seq : ch.seq - 1;
        launch(k, ch.seq, ack_seq, carry,
               static_cast<std::uint64_t>(ch.tx_count));
        ch.next_tx = physical_round_ + ch.rto;
        ch.rto = std::min(ch.rto * 2, kMaxRto);
      }

      tick(done_count);

      const bool planted = injector_.plan().mc_planted_ack_before_dup_check;
      auto deliver_handler = [&](int k, InFlight& copy) {
        Channel& ch = channels_[k];
        const Link& L = links_[k];
        if (crashed_[L.v]) return;
        if (copy.corrupt) return;  // checksum failure: discarded, retried
        // Piggybacked cumulative ack quiets the reverse sender.
        Channel& rev = channels_[L.reverse];
        if (rev.active && !rev.acked && copy.ack_seq >= rev.seq) {
          rev.acked = true;
          if (net_.metrics_ != nullptr && rev.tx_count > 0)
            net_.metrics_->ack_latency->record(physical_round_ - rev.first_tx);
        }
        // Duplicate / stale suppression by sequence number. The planted
        // --self-check bug (FaultPlan::mc_planted_ack_before_dup_check)
        // weakens the staleness half of the guard — the ack above was
        // already processed, and a delayed copy from an *earlier* virtual
        // round now slips through and completes the channel without
        // depositing the current payload. Only an adversarial ordering
        // (early retransmit of a marker frame, then delivery of the stale
        // copy ahead of the genuine one next round) exposes it.
        const bool suppress =
            planted ? (!ch.active || copy.seq > ch.seq || ch.delivered)
                    : (!ch.active || copy.seq != ch.seq || ch.delivered);
        if (suppress) {
          if (net_.metrics_ != nullptr) net_.metrics_->dup_suppressed->add(1);
          return;
        }
        ch.delivered = true;
        if (copy.with_payload) {
          net_.in_slot(L.v, L.vport) = std::move(ch.payload);
          ch.payload_deposited = true;
          // Traffic wakes the receiver for the next virtual round.
          if (net_.cfg_.sparse_stepping) net_.sched_activate(L.v);
        }
      };

      if (net_.cfg_.scheduler == nullptr) {
        apply_scheduled_crashes();
        deliver_due(physical_round_, deliver_handler);
      } else {
        deliver_with_hook(physical_round_, deliver_handler);
        // Retire schedule entries the hook executed as kCrash choices (and
        // apply any it was never offered, e.g. absent ids): idempotent.
        apply_scheduled_crashes();
      }

      bool all_delivered = true;
      for (const Channel& ch : channels_)
        if (ch.active && !ch.delivered) {
          all_delivered = false;
          break;
        }
      if (all_delivered) {
        // Barrier-integrity invariant (hook mode only): a completed
        // barrier must have deposited every live non-best-effort payload.
        if (net_.cfg_.scheduler != nullptr) {
          for (int k = 0; k < static_cast<int>(links_.size()); ++k) {
            const Channel& ch = channels_[k];
            if (ch.active && ch.has_payload && !ch.best_effort &&
                !ch.payload_deposited)
              net_.cfg_.scheduler->note_violation(
                  "transport barrier completed without depositing payload: "
                  "link " +
                  std::to_string(net_.ids_[links_[k].u]) + "->" +
                  std::to_string(net_.ids_[links_[k].v]) + " vround " +
                  std::to_string(ch.seq));
          }
        }
        break;
      }
      if (physical > net_.cfg_.max_rounds)
        return finish(RunStatus::kRoundLimit, physical, vrounds, true);
    }

    net_.round_ += 1;  // the virtual clock advances only after the barrier
    vrounds += 1;
    if (!any_payload && !all_done)
      ++quiet;
    else
      quiet = 0;
    if (quiet >= net_.cfg_.stall_quiet_rounds)
      return finish(
          crashed_ids_.empty() ? RunStatus::kRoundLimit : RunStatus::kCrashed,
          physical, vrounds, true);
    if (physical > net_.cfg_.max_rounds)
      return finish(RunStatus::kRoundLimit, physical, vrounds, true);
  }
}

RunOutcome FaultRuntime::run_raw(
    std::vector<std::unique_ptr<NodeProgram>>& programs) {
  const int n = net_.n();
  obs::TraceSink* const sink = net_.cfg_.sink;
  const bool reverse =
      net_.cfg_.step_order == NetworkConfig::StepOrder::kReverse;
  long prev_messages = net_.stats_.messages;
  long long prev_bits = net_.stats_.total_bits;
  long physical = 0;
  int quiet = 0;

  for (;;) {
    apply_scheduled_crashes();

    // Raw transport steps dense: messages ride the faulty links directly,
    // so a receiver cannot be told apart from a non-receiver until the
    // in-flight queue drains — the active-set optimization stays on the
    // perfect and reliable paths.
    int live = 0;
    for (int i = 0; i < n; ++i) {
      const int v = reverse ? n - 1 - i : i;
      if (crashed_[v]) continue;
      ++live;
      NodeCtx ctx(net_, v);
      programs[v]->on_round(ctx);
      net_.stats_.active_steps += 1;
    }
    if (live == 0)
      return finish(RunStatus::kCrashed, physical, physical, true);

    bool all_done = true;
    int done_count = 0;
    for (int v = 0; v < n; ++v) {
      if (crashed_[v]) continue;
      NodeCtx ctx(net_, v);
      if (programs[v]->done(ctx))
        ++done_count;
      else
        all_done = false;
    }

    // Launch this round's messages straight onto the faulty links.
    bool any_send = false;
    for (int k = 0; k < static_cast<int>(links_.size()); ++k) {
      const Link& L = links_[k];
      Message& slot = net_.out_slot(L.u, L.uport);
      if (!Network::engaged(slot)) continue;
      if (crashed_[L.u]) {
        slot = Message{};
        continue;
      }
      any_send = true;
      const VertexId src = net_.ids_[L.u];
      const VertexId dst = net_.ids_[L.v];
      const FaultInjector::Fate fate =
          injector_.fate(src, dst, physical_round_, 0);
      if (fate.duplicate) {
        InFlight copy;
        copy.due = physical_round_ + 1 + fate.dup_delay;
        copy.order = order_counter_ + 1;  // behind the primary copy
        copy.corrupt = fate.dup_corrupt;
        copy.with_payload = true;
        copy.payload = slot;  // copied before the primary moves it
        net_.stats_.faults_duplicated += 1;
        emit_fault(obs::FaultEvent::Kind::Duplicate, physical_round_, src, dst,
                   fate.dup_delay);
        if (fate.dup_corrupt) {
          net_.stats_.faults_corrupted += 1;
          emit_fault(obs::FaultEvent::Kind::Corrupt, physical_round_, src, dst,
                     0);
        }
        flight_[k].push_back(std::move(copy));
      }
      if (fate.drop) {
        net_.stats_.faults_dropped += 1;
        emit_fault(obs::FaultEvent::Kind::Drop, physical_round_, src, dst, 0);
      } else {
        InFlight copy;
        copy.due = physical_round_ + 1 + fate.delay;
        copy.order = order_counter_;
        copy.corrupt = fate.corrupt;
        copy.with_payload = true;
        copy.payload = std::move(slot);
        if (fate.delay > 0) {
          net_.stats_.faults_delayed += 1;
          emit_fault(obs::FaultEvent::Kind::Delay, physical_round_, src, dst,
                     fate.delay);
        }
        if (fate.corrupt) {
          net_.stats_.faults_corrupted += 1;
          emit_fault(obs::FaultEvent::Kind::Corrupt, physical_round_, src, dst,
                     0);
        }
        flight_[k].push_back(std::move(copy));
      }
      order_counter_ += 2;
      slot = Message{};
    }

    physical_round_ += 1;
    physical += 1;
    net_.round_ += 1;  // raw mode: protocol clock == physical clock
    net_.stats_.rounds += 1;
    if (net_.metrics_ != nullptr) net_.metrics_round_end();
    {
      obs::RoundEvent ev;
      ev.round = physical_round_ - 1;
      ev.messages = net_.stats_.messages - net_.flight_prev_messages_;
      ev.bits = net_.stats_.total_bits - net_.flight_prev_bits_;
      ev.max_message_bits = net_.round_max_message_bits_;
      ev.active_nodes = n - done_count;
      ev.done_nodes = done_count;
      net_.flight_.record_round(ev);
      net_.flight_prev_messages_ = net_.stats_.messages;
      net_.flight_prev_bits_ = net_.stats_.total_bits;
    }
    if (sink != nullptr) {
      obs::RoundEvent ev;
      ev.round = physical_round_ - 1;
      ev.messages = net_.stats_.messages - prev_messages;
      ev.bits = net_.stats_.total_bits - prev_bits;
      ev.max_message_bits = net_.round_max_message_bits_;
      ev.active_nodes = n - done_count;
      ev.done_nodes = done_count;
      sink->round(ev);
      prev_messages = net_.stats_.messages;
      prev_bits = net_.stats_.total_bits;
    }
    net_.round_max_message_bits_ = 0;

    for (Message& slot : net_.inbox_)
      if (Network::engaged(slot)) slot = Message{};
    const int delivered =
        deliver_due(physical_round_, [&](int k, InFlight& copy) {
          const Link& L = links_[k];
          if (crashed_[L.v]) return;
          if (copy.corrupt)
            // Detectably garbled: the payload arrives as a CorruptedPayload
            // marker of the same declared size; a cast to the real type
            // fails and robust receivers ignore it.
            net_.in_slot(L.v, L.vport) =
                Message(CorruptedPayload{}, copy.payload.bits);
          else
            net_.in_slot(L.v, L.vport) = std::move(copy.payload);
        });

    bool flight_empty = true;
    for (const auto& fl : flight_)
      if (!fl.empty()) {
        flight_empty = false;
        break;
      }

    if (all_done && !any_send && flight_empty)
      return finish(
          crashed_ids_.empty() ? RunStatus::kCompleted : RunStatus::kCrashed,
          physical, physical, false);
    if (!any_send && delivered == 0 && flight_empty && !all_done)
      ++quiet;
    else
      quiet = 0;
    if (quiet >= net_.cfg_.stall_quiet_rounds)
      return finish(
          crashed_ids_.empty() ? RunStatus::kRoundLimit : RunStatus::kCrashed,
          physical, physical, true);
    if (physical > net_.cfg_.max_rounds)
      return finish(RunStatus::kRoundLimit, physical, physical, true);
  }
}

}  // namespace dmc::congest::detail
