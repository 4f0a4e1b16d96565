// Resolved metric handles of one Network (internal to src/congest).
//
// The Network constructor resolves every congest/transport instrument
// once against the configured registry (NetworkConfig::metrics, falling
// back to metrics::global()) and keeps the handles here, so the per-send
// and per-round update paths are pointer dereferences plus relaxed
// atomics — never a registry lookup. The whole struct exists only when a
// registry is configured; Network::metrics_ stays null otherwise and
// every instrumentation site is a single pointer test.
//
// Counter totals are deliberately mirrors of NetworkStats fields
// (congest.messages == stats.messages, transport.frames == stats.frames,
// ...): tools/dmc.cpp reconciles the two after every metrics run, so an
// instrumentation site that drifts from its stats twin fails loudly.
#pragma once

#include "metrics/metrics.hpp"

namespace dmc::congest::detail {

struct NetMetrics {
  // CONGEST layer (mirrors of NetworkStats rounds/messages/total_bits).
  metrics::Counter* rounds = nullptr;
  metrics::Counter* messages = nullptr;
  metrics::Counter* bits = nullptr;
  // Per-directed-link congestion: one histogram sample per link per round
  // in which that link carried protocol traffic.
  metrics::Histogram* link_round_bits = nullptr;
  metrics::Histogram* link_round_msgs = nullptr;
  metrics::Gauge* link_max_bits = nullptr;        // lifetime max per link
  metrics::Gauge* utilization_permille = nullptr; // bits / (links*B*rounds)
  metrics::Gauge* reassembly_depth = nullptr;     // max reassembly backlog
  // Reliable-transport layer (mirrors of the NetworkStats frame counters;
  // all stay 0 on the perfect path).
  metrics::Counter* frames = nullptr;
  metrics::Counter* frame_bits = nullptr;
  metrics::Counter* marker_frames = nullptr;
  metrics::Counter* retransmissions = nullptr;
  metrics::Counter* dup_suppressed = nullptr;
  metrics::Histogram* ack_latency = nullptr;  // physical rounds tx -> ack

  // Round-end fold state (touched serially, between steps).
  long metric_rounds = 0;      // rounds folded since construction
  long long cum_bits = 0;      // protocol bits folded since construction

  void resolve(metrics::Registry& reg) {
    rounds = &reg.counter("congest.rounds");
    messages = &reg.counter("congest.messages");
    bits = &reg.counter("congest.bits");
    link_round_bits = &reg.histogram("congest.link.round_bits");
    link_round_msgs = &reg.histogram("congest.link.round_messages");
    link_max_bits = &reg.gauge("congest.link.max_bits");
    utilization_permille = &reg.gauge("congest.bandwidth.utilization_permille");
    reassembly_depth = &reg.gauge("congest.reassembly.max_depth");
    frames = &reg.counter("transport.frames");
    frame_bits = &reg.counter("transport.frame_bits");
    marker_frames = &reg.counter("transport.marker_frames");
    retransmissions = &reg.counter("transport.retransmissions");
    dup_suppressed = &reg.counter("transport.dup_suppressed");
    ack_latency = &reg.histogram("transport.ack_latency_rounds");
  }
};

}  // namespace dmc::congest::detail
