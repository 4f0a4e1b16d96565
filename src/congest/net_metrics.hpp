// Metric state of one Network (internal to src/congest).
//
// The Network constructor resolves every congest/transport instrument
// once against the configured registry (NetworkConfig::metrics, falling
// back to metrics::global()) and keeps the handles here. The whole struct
// exists only when a registry is configured; Network::metrics_ stays null
// otherwise and every instrumentation site is a single pointer test.
//
// Nothing on the per-message or per-round path touches the registry.
// Those paths record into the plain fields below, and publish() moves
// what changed into the shared instruments at two points: when a run
// returns (or throws) and just before each metrics_interval flush. The
// registry is therefore exact at every point anyone reads it — after a
// run and in every periodic snapshot — and lags a running network only
// in between.
//
// The counters are derived, not kept: congest.messages / congest.bits and
// the transport.* frame counters are published as NetworkStats deltas,
// and congest.rounds as the advance of the network's round clock. They
// cannot drift from their stats twins, which tools/dmc.cpp still checks
// after every metrics run.
#pragma once

#include "congest/network.hpp"
#include "metrics/metrics.hpp"

namespace dmc::congest::detail {

struct NetMetrics {
  // --- registry handles ----------------------------------------------------
  // CONGEST layer.
  metrics::Counter* rounds = nullptr;
  metrics::Counter* messages = nullptr;
  metrics::Counter* bits = nullptr;
  // Per-directed-link congestion: one histogram sample per link per round
  // in which that link carried protocol traffic.
  metrics::Histogram* link_round_bits = nullptr;
  metrics::Histogram* link_round_msgs = nullptr;
  metrics::Gauge* link_max_bits = nullptr;        // largest per-link total
  metrics::Gauge* utilization_permille = nullptr; // bits / (links*B*rounds)
  metrics::Gauge* reassembly_depth = nullptr;     // max reassembly backlog
  // Reliable-transport layer (all stay 0 on the perfect path).
  metrics::Counter* frames = nullptr;
  metrics::Counter* frame_bits = nullptr;
  metrics::Counter* marker_frames = nullptr;
  metrics::Counter* retransmissions = nullptr;
  metrics::Counter* dup_suppressed = nullptr;
  metrics::Histogram* ack_latency = nullptr;  // physical rounds tx -> ack

  // --- local state, touched serially by the owning network -----------------
  // Samples and counts since the last publish.
  metrics::LocalHistogram round_bits, round_msgs, ack_rounds;
  long long dups = 0;
  // Lifetime values (the gauges take their maximum).
  long long hottest_link_bits = 0;  // largest cumulative bits of one link
  long long max_reassembly_depth = 0;
  long long cum_bits = 0;           // protocol bits folded since construction
  // What the registry already holds from this network.
  NetworkStats published;
  long published_rounds = 0;

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

  /// Moves everything recorded since the last publish into the registry.
  /// `clock` is the round count to publish (the network's rounds, or a
  /// flush boundary inside a fast-forwarded stretch); `links` and
  /// `bandwidth` size the utilization denominator. Never throws.
  void publish(const NetworkStats& stats, long clock, long long links,
               int bandwidth) {
    const long new_rounds = clock - published_rounds;
    rounds->add(new_rounds);
    published_rounds = clock;
    messages->add(stats.messages - published.messages);
    bits->add(stats.total_bits - published.total_bits);
    frames->add(stats.frames - published.frames);
    frame_bits->add(stats.frame_bits - published.frame_bits);
    marker_frames->add(stats.marker_frames - published.marker_frames);
    retransmissions->add(stats.retransmissions - published.retransmissions);
    published = stats;
    link_round_bits->merge(round_bits);
    link_round_msgs->merge(round_msgs);
    ack_latency->merge(ack_rounds);
    round_bits.clear();
    round_msgs.clear();
    ack_rounds.clear();
    dup_suppressed->add(dups);
    dups = 0;
    link_max_bits->max_of(hottest_link_bits);
    reassembly_depth->max_of(max_reassembly_depth);
    // The gauge is last-writer-wins across networks sharing a registry:
    // only a network whose clock moved overwrites it.
    if (new_rounds > 0 && links > 0 && bandwidth > 0)
      utilization_permille->set(cum_bits * 1000 /
                                (links * bandwidth * clock));
  }
};

}  // namespace dmc::congest::detail
