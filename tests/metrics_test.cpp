// Tests for dmc::metrics — the aggregate metrics layer.
//
// The pinned invariants:
//   - a Registry name is a stable identity: re-requesting returns the same
//     instrument, requesting it as a different kind throws;
//   - Histogram log2 bucket edges are exact at the powers of two;
//   - with no registry configured, Network::run() performs no allocation
//     (the same zero-overhead-when-disabled contract as the obs null sink);
//   - concurrent increments from a par::parallel_for job lose nothing
//     (run under TSan by the `par` ctest label);
//   - after a full dist pipeline, the congest.* / transport.* counters
//     reconcile exactly with NetworkStats — same invariant the CLI's
//     "metrics check" asserts (tools/dmc.cpp).
#include "metrics/metrics.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <limits>
#include <memory>
#include <new>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "congest/faults.hpp"
#include "congest/network.hpp"
#include "dist/query.hpp"
#include "graph/generators.hpp"
#include "mso/formulas.hpp"
#include "par/pool.hpp"

#include "counting_new.hpp"

namespace dmc {
namespace {

using congest::Network;
using congest::NetworkConfig;
using congest::NodeCtx;
using congest::NodeProgram;

TEST(MetricsRegistry, SameNameSameInstrument) {
  metrics::Registry reg;
  metrics::Counter& a = reg.counter("congest.rounds");
  metrics::Counter& b = reg.counter("congest.rounds");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(reg.size(), 1u);
  a.add(3);
  b.add(4);
  EXPECT_EQ(a.value(), 7);
}

TEST(MetricsRegistry, KindCollisionThrows) {
  metrics::Registry reg;
  reg.counter("x.y");
  EXPECT_THROW(reg.gauge("x.y"), std::invalid_argument);
  EXPECT_THROW(reg.histogram("x.y"), std::invalid_argument);
  reg.histogram("x.h");
  EXPECT_THROW(reg.counter("x.h"), std::invalid_argument);
}

TEST(MetricsRegistry, RejectsMalformedNames) {
  metrics::Registry reg;
  for (const char* bad :
       {"", ".x", "x.", "a..b", "Upper.case", "sp ace", "dash-ed"})
    EXPECT_THROW(reg.counter(bad), std::invalid_argument) << bad;
  // The full documented alphabet is accepted.
  EXPECT_NO_THROW(reg.counter("az09_.separated.name_2"));
}

TEST(MetricsHistogram, BucketEdgesAtPowersOfTwo) {
  // Bucket 0: v <= 0. Bucket i >= 1: 2^(i-1) <= v < 2^i.
  EXPECT_EQ(metrics::Histogram::bucket_of(-7), 0);
  EXPECT_EQ(metrics::Histogram::bucket_of(0), 0);
  EXPECT_EQ(metrics::Histogram::bucket_of(1), 1);
  for (int i = 1; i < 62; ++i) {
    const long long lo = 1LL << (i - 1);
    EXPECT_EQ(metrics::Histogram::bucket_of(lo), i) << "lo, i=" << i;
    EXPECT_EQ(metrics::Histogram::bucket_of(2 * lo - 1), i) << "hi, i=" << i;
  }
  // The last bucket absorbs everything too wide to classify.
  EXPECT_EQ(metrics::Histogram::bucket_of(std::numeric_limits<long long>::max()),
            metrics::Histogram::kBuckets - 1);
  // Inclusive upper edges mirror the same boundaries.
  EXPECT_EQ(metrics::Histogram::bucket_upper(0), 0);
  EXPECT_EQ(metrics::Histogram::bucket_upper(1), 1);
  EXPECT_EQ(metrics::Histogram::bucket_upper(5), 31);
  EXPECT_EQ(metrics::Histogram::bucket_upper(metrics::Histogram::kBuckets - 1),
            std::numeric_limits<long long>::max());
}

TEST(MetricsHistogram, RecordAggregatesCountSumMax) {
  metrics::Histogram h;
  for (long long v : {0LL, 1LL, 2LL, 3LL, 4LL, 100LL}) h.record(v);
  EXPECT_EQ(h.count(), 6);
  EXPECT_EQ(h.sum(), 110);
  EXPECT_EQ(h.max(), 100);
  EXPECT_EQ(h.bucket(0), 1);  // 0
  EXPECT_EQ(h.bucket(1), 1);  // 1
  EXPECT_EQ(h.bucket(2), 2);  // 2, 3
  EXPECT_EQ(h.bucket(3), 1);  // 4
  EXPECT_EQ(h.bucket(7), 1);  // 100 in [64, 128)
}

TEST(MetricsGauge, MaxOfIsRunningMax) {
  metrics::Gauge g;
  g.max_of(5);
  g.max_of(3);
  EXPECT_EQ(g.value(), 5);
  g.max_of(9);
  EXPECT_EQ(g.value(), 9);
  g.set(2);  // set() is unconditional
  EXPECT_EQ(g.value(), 2);
}

TEST(MetricsExport, PrometheusTextFormat) {
  metrics::Registry reg;
  reg.counter("congest.rounds").add(12);
  reg.gauge("congest.link.max_bits").set(48);
  metrics::Histogram& h = reg.histogram("transport.ack_latency_rounds");
  h.record(1);
  h.record(3);
  std::ostringstream out;
  reg.write_prometheus(out);
  const std::string s = out.str();
  EXPECT_NE(s.find("# TYPE dmc_congest_rounds counter\n"), std::string::npos);
  EXPECT_NE(s.find("dmc_congest_rounds 12\n"), std::string::npos);
  EXPECT_NE(s.find("# TYPE dmc_congest_link_max_bits gauge\n"),
            std::string::npos);
  EXPECT_NE(s.find("dmc_congest_link_max_bits 48\n"), std::string::npos);
  // Histogram buckets are cumulative and end with +Inf == _count.
  EXPECT_NE(s.find("dmc_transport_ack_latency_rounds_bucket{le=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(s.find("dmc_transport_ack_latency_rounds_bucket{le=\"3\"} 2\n"),
            std::string::npos);
  EXPECT_NE(s.find("dmc_transport_ack_latency_rounds_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(s.find("dmc_transport_ack_latency_rounds_sum 4\n"),
            std::string::npos);
  EXPECT_NE(s.find("dmc_transport_ack_latency_rounds_count 2\n"),
            std::string::npos);
}

TEST(MetricsExport, JsonFieldsAreSpliceable) {
  metrics::Registry reg;
  reg.counter("bpt.folds").add(2);
  reg.histogram("congest.link.round_bits").record(7);
  std::ostringstream out;
  reg.write_json_fields(out);
  // Must parse when wrapped in braces; spot-check the flat keys.
  const std::string s = "{" + out.str() + "}";
  EXPECT_NE(s.find("\"bpt.folds\":2"), std::string::npos);
  EXPECT_NE(s.find("\"congest.link.round_bits.count\":1"), std::string::npos);
  EXPECT_NE(s.find("\"congest.link.round_bits.sum\":7"), std::string::npos);
  EXPECT_NE(s.find("\"congest.link.round_bits.max\":7"), std::string::npos);
}

TEST(MetricsDisabled, NetworkRunDoesNotAllocate) {
  // Mirror of ObsTrace.DisabledPathDoesNotAllocatePerRound: with neither a
  // per-network registry nor a global one, every metrics branch is a single
  // skipped null check and run() must not allocate at all.
  ASSERT_EQ(metrics::global(), nullptr);
  class Quiet : public NodeProgram {
   public:
    void on_round(NodeCtx&) override {}
    bool done(const NodeCtx& ctx) const override { return ctx.round() >= 64; }
  };
  const Graph g = gen::cycle(8);
  Network net(g);  // no registry, no sink
  std::vector<std::unique_ptr<NodeProgram>> programs;
  for (int v = 0; v < 8; ++v) programs.push_back(std::make_unique<Quiet>());

  const long before = g_allocations.load(std::memory_order_relaxed);
  const long rounds = net.run(programs);
  const long after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_GE(rounds, 64);
  EXPECT_EQ(after - before, 0)
      << "metrics-disabled Network::run() allocated " << (after - before)
      << " times over " << rounds << " rounds";
}

TEST(MetricsConcurrent, ParallelIncrementsLoseNothing) {
  // Counter adds and histogram records race from a parallel_for job; the
  // totals must be exact. The `par` ctest label runs this under TSan.
  metrics::Registry reg;
  metrics::Counter& ctr = reg.counter("test.hits");
  metrics::Gauge& peak = reg.gauge("test.peak");
  metrics::Histogram& h = reg.histogram("test.sizes");
  constexpr std::size_t kN = 10'000;
  par::parallel_for(4, kN, [&](std::size_t i) {
    ctr.add(1);
    peak.max_of(static_cast<long long>(i));
    h.record(static_cast<long long>(i % 37));
  });
  EXPECT_EQ(ctr.value(), static_cast<long long>(kN));
  EXPECT_EQ(peak.value(), static_cast<long long>(kN - 1));
  EXPECT_EQ(h.count(), static_cast<long long>(kN));
  long long bucket_total = 0;
  for (int i = 0; i < metrics::Histogram::kBuckets; ++i)
    bucket_total += h.bucket(i);
  EXPECT_EQ(bucket_total, static_cast<long long>(kN));
}

/// Runs the decision pipeline with a per-network registry and asserts the
/// congest.*/transport.* counters reconcile exactly with NetworkStats.
void expect_reconciled(const NetworkConfig& base_cfg) {
  metrics::Registry reg;
  NetworkConfig cfg = base_cfg;
  cfg.metrics = &reg;
  Network net(gen::path(8), cfg);
  const auto out =
      dist::run(net, {dist::Kind::kDecision, mso::lib::connected()}, 4);
  ASSERT_FALSE(out.treedepth_exceeded);
  const congest::NetworkStats& stats = net.stats();
  EXPECT_EQ(reg.counter("congest.rounds").value(), stats.rounds);
  EXPECT_EQ(reg.counter("congest.messages").value(), stats.messages);
  EXPECT_EQ(reg.counter("congest.bits").value(), stats.total_bits);
  EXPECT_EQ(reg.counter("transport.frames").value(), stats.frames);
  EXPECT_EQ(reg.counter("transport.frame_bits").value(), stats.frame_bits);
  EXPECT_EQ(reg.counter("transport.marker_frames").value(),
            stats.marker_frames);
  EXPECT_EQ(reg.counter("transport.retransmissions").value(),
            stats.retransmissions);
  // The per-link histograms cover every message and bit exactly once.
  EXPECT_EQ(reg.histogram("congest.link.round_bits").sum(), stats.total_bits);
  EXPECT_EQ(reg.histogram("congest.link.round_messages").sum(),
            stats.messages);
}

TEST(MetricsReconcile, PerfectPathMatchesNetworkStats) {
  NetworkConfig cfg;
  cfg.id_seed = 42;
  expect_reconciled(cfg);
}

TEST(MetricsReconcile, FaultedPathMatchesNetworkStats) {
  NetworkConfig cfg;
  cfg.id_seed = 42;
  cfg.faults = congest::parse_fault_plan("drop=0.1,dup=0.05,seed=7");
  expect_reconciled(cfg);
}

TEST(MetricsReconcile, ZeroFaultTransportMatchesNetworkStats) {
  NetworkConfig cfg;
  cfg.id_seed = 42;
  cfg.faults = congest::FaultPlan{};  // transport on, nothing injected
  expect_reconciled(cfg);
}

}  // namespace
}  // namespace dmc
