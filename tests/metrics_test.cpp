// Tests for dmc::metrics — the aggregate metrics layer.
//
// The pinned invariants:
//   - a Registry name is a stable identity: re-requesting returns the same
//     instrument, requesting it as a different kind throws;
//   - Histogram log2 bucket edges are exact at the powers of two;
//   - with no registry configured, Network::run_outcome() performs no
//     allocation (the same zero-overhead-when-disabled contract as the obs
//     null sink);
//   - concurrent increments from four par::Threads lose nothing
//     (run under TSan by the `par` ctest label);
//   - after a full dist pipeline, the congest.* / transport.* counters
//     reconcile exactly with NetworkStats — same invariant the CLI's
//     "metrics check" asserts (tools/dmc.cpp) — also when two networks
//     share one registry from two threads and when a program throws;
//   - MetricsPin.*: the registry after each protocol run and every
//     periodic snapshot reproduce digests recorded before networks
//     batched their metrics per run.
#include "metrics/metrics.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <new>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "congest/faults.hpp"
#include "congest/network.hpp"
#include "dist/bags.hpp"
#include "dist/elim_tree.hpp"
#include "dist/query.hpp"
#include "graph/generators.hpp"
#include "mso/formulas.hpp"
#include "par/thread.hpp"

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

TEST(MetricsHistogram, MergeEqualsRecordingEachSample) {
  metrics::Histogram direct, merged;
  metrics::LocalHistogram local;
  for (long long v : {0LL, 1LL, 5LL, 5LL, 64LL, -3LL}) {
    direct.record(v);
    local.record(v);
  }
  merged.record(200);
  direct.record(200);
  merged.merge(local);
  merged.merge(metrics::LocalHistogram{});  // an empty merge is a no-op
  EXPECT_EQ(merged.count(), direct.count());
  EXPECT_EQ(merged.sum(), direct.sum());
  EXPECT_EQ(merged.max(), direct.max());
  for (int i = 0; i < metrics::Histogram::kBuckets; ++i)
    EXPECT_EQ(merged.bucket(i), direct.bucket(i)) << "bucket " << i;
  local.clear();
  metrics::Histogram empty;
  empty.merge(local);
  EXPECT_EQ(empty.count(), 0);
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
  // skipped null check and run_outcome() must not allocate at all.
  ASSERT_EQ(metrics::global(), nullptr);
  class Quiet : public NodeProgram {
   public:
    void on_round(NodeCtx&) override {}
    bool done(const NodeCtx& ctx) const override { return ctx.round() >= 64; }
  };
  const Graph g = gen::cycle(8);
  Network net(g);  // no registry, no sink
  std::vector<Quiet> programs(8);
  const std::vector<NodeProgram*> ptrs = congest::program_ptrs(programs);

  const long before = g_allocations.load(std::memory_order_relaxed);
  const congest::RunOutcome out = net.run_outcome(ptrs);
  const long after = g_allocations.load(std::memory_order_relaxed);
  const long rounds = out.rounds;
  EXPECT_TRUE(out.ok());
  EXPECT_GE(rounds, 64);
  EXPECT_EQ(after - before, 0)
      << "metrics-disabled Network::run_outcome() allocated "
      << (after - before) << " times over " << rounds << " rounds";
}

TEST(MetricsConcurrent, ParallelIncrementsLoseNothing) {
  // Counter adds and histogram records race from four threads, each
  // taking every fourth index; the totals must be exact. The `par` ctest
  // label runs this under TSan.
  metrics::Registry reg;
  metrics::Counter& ctr = reg.counter("test.hits");
  metrics::Gauge& peak = reg.gauge("test.peak");
  metrics::Histogram& h = reg.histogram("test.sizes");
  constexpr std::size_t kN = 10'000;
  constexpr std::size_t kThreads = 4;
  {
    std::vector<par::Thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t)
      threads.emplace_back([&, t] {
        for (std::size_t i = t; i < kN; i += kThreads) {
          ctr.add(1);
          peak.max_of(static_cast<long long>(i));
          h.record(static_cast<long long>(i % 37));
        }
      });
  }  // par::Thread joins on destruction
  EXPECT_EQ(ctr.value(), static_cast<long long>(kN));
  EXPECT_EQ(peak.value(), static_cast<long long>(kN - 1));
  EXPECT_EQ(h.count(), static_cast<long long>(kN));
  long long bucket_total = 0;
  for (int i = 0; i < metrics::Histogram::kBuckets; ++i)
    bucket_total += h.bucket(i);
  EXPECT_EQ(bucket_total, static_cast<long long>(kN));
}

/// The congest.* / transport.* counters of `reg` against `stats`.
void expect_counters_equal(metrics::Registry& reg,
                           const congest::NetworkStats& stats) {
  EXPECT_EQ(reg.counter("congest.rounds").value(), stats.rounds);
  EXPECT_EQ(reg.counter("congest.messages").value(), stats.messages);
  EXPECT_EQ(reg.counter("congest.bits").value(), stats.total_bits);
  EXPECT_EQ(reg.counter("transport.frames").value(), stats.frames);
  EXPECT_EQ(reg.counter("transport.frame_bits").value(), stats.frame_bits);
  EXPECT_EQ(reg.counter("transport.marker_frames").value(),
            stats.marker_frames);
  EXPECT_EQ(reg.counter("transport.retransmissions").value(),
            stats.retransmissions);
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
  expect_counters_equal(reg, stats);
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

TEST(MetricsConcurrent, TwoNetworksShareOneRegistry) {
  // Two networks, one perfect and one under the reliable transport, run
  // the elimination tree and the bags at once into one registry. The
  // registry's totals must be the sums of the two networks' stats. The
  // `par` ctest label runs this under TSan.
  metrics::Registry reg;
  auto make = [&](const char* faults, unsigned seed) {
    NetworkConfig cfg;
    cfg.id_seed = seed;
    cfg.metrics = &reg;
    if (faults != nullptr) cfg.faults = congest::parse_fault_plan(faults);
    gen::Rng rng(seed);
    return std::make_unique<Network>(
        gen::random_bounded_treedepth(40, 3, 0.4, rng), cfg);
  };
  auto perfect = make(nullptr, 3);
  auto faulty = make("drop=0.05,dup=0.05,seed=9", 4);
  auto work = [](Network& net) {
    const dist::ElimTreeResult tree = dist::run_elim_tree(net, 3);
    ASSERT_TRUE(tree.success);
    dist::run_bags(net, tree, {}, {});
  };
  {
    par::Thread a([&] { work(*perfect); });
    par::Thread b([&] { work(*faulty); });
  }
  congest::NetworkStats sum;
  for (const Network* net : {perfect.get(), faulty.get()}) {
    const congest::NetworkStats& s = net->stats();
    sum.rounds += s.rounds;
    sum.messages += s.messages;
    sum.total_bits += s.total_bits;
    sum.frames += s.frames;
    sum.frame_bits += s.frame_bits;
    sum.marker_frames += s.marker_frames;
    sum.retransmissions += s.retransmissions;
  }
  EXPECT_GT(sum.frames, 0);
  expect_counters_equal(reg, sum);
  EXPECT_EQ(reg.histogram("congest.link.round_messages").sum(), sum.messages);
  EXPECT_EQ(reg.histogram("congest.link.round_bits").sum(), sum.total_bits);
}

TEST(MetricsReconcile, ProgramThrowingMidRunStillPublishes) {
  // Floods every port each round and throws in round 5: the partial run's
  // traffic must reach the registry all the same.
  class Thrower : public NodeProgram {
   public:
    void on_round(NodeCtx& ctx) override {
      if (ctx.round() == 5 && ctx.id() == 3)
        throw std::runtime_error("program failure");
      ctx.send_all(congest::Message(ctx.id(), 8));
    }
    bool done(const NodeCtx&) const override { return false; }
  };
  for (const char* faults : {"", "drop=0.05,seed=2"}) {
    SCOPED_TRACE(faults);
    metrics::Registry reg;
    NetworkConfig cfg;
    cfg.metrics = &reg;
    if (*faults != '\0') cfg.faults = congest::parse_fault_plan(faults);
    Network net(gen::cycle(10), cfg);
    std::vector<std::unique_ptr<NodeProgram>> programs;
    for (int v = 0; v < 10; ++v) programs.push_back(std::make_unique<Thrower>());
    EXPECT_THROW(net.run_outcome(congest::program_ptrs(programs)),
                 std::runtime_error);
    EXPECT_GT(net.stats().messages, 0);
    expect_counters_equal(reg, net.stats());
  }
}

// --- MetricsPin: digests of everything the registry shows ----------------
//
// The expected digests were recorded while every send and round still
// updated the registry directly. Publishing per run must reproduce each
// one; on a mismatch the failure prints the cell's actual digest.

/// Installs `reg` as the global registry for one scope, so the BPT and par
/// layers' metrics land in the digested snapshots too.
class GlobalRegistryScope {
 public:
  explicit GlobalRegistryScope(metrics::Registry& reg)
      : prev_(metrics::set_global(&reg)) {}
  ~GlobalRegistryScope() { metrics::set_global(prev_); }
  GlobalRegistryScope(const GlobalRegistryScope&) = delete;
  GlobalRegistryScope& operator=(const GlobalRegistryScope&) = delete;

 private:
  metrics::Registry* prev_;
};

/// write_json_fields without the wall-clock field bpt.fold.wall_ns.
std::string snapshot(const metrics::Registry& reg) {
  std::ostringstream out;
  reg.write_json_fields(out);
  std::string s = out.str();
  const std::string key = "\"bpt.fold.wall_ns\":";
  const std::size_t at = s.find(key);
  if (at != std::string::npos) {
    std::size_t end = at + key.size();
    while (end < s.size() && s[end] != ',') ++end;
    s.erase(at, end - at);
  }
  return s;
}

/// A protocol on a prepared network; calls `after_run` after each run.
using PinProtocol =
    std::function<void(Network&, const std::function<void()>& after_run)>;

struct PinSetting {
  const char* name;
  std::function<void(NetworkConfig&)> apply;
};

const std::vector<PinSetting>& pin_settings() {
  static const std::vector<PinSetting> all = {
      {"sparse", [](NetworkConfig&) {}},
      {"dense", [](NetworkConfig& c) { c.sparse_stepping = false; }},
      {"audit", [](NetworkConfig& c) { c.audit = true; }},
      {"drop+dup",
       [](NetworkConfig& c) {
         c.faults = congest::parse_fault_plan("drop=0.05,dup=0.05,seed=3");
       }},
      {"crash",
       [](NetworkConfig& c) {
         c.faults = congest::parse_fault_plan("crash=3@r20,seed=5");
       }},
  };
  return all;
}

/// Digest of every registry snapshot of one protocol run under `setting`:
/// each metrics_interval = 7 flush and the state after each run.
std::string metrics_digest(const Graph& g, const PinSetting& setting,
                           const PinProtocol& protocol) {
  metrics::Registry reg;
  GlobalRegistryScope global(reg);
  std::ostringstream out;
  NetworkConfig cfg;
  cfg.id_seed = 11;
  cfg.metrics = &reg;
  cfg.metrics_interval = 7;
  cfg.metrics_flush = [&](long rounds) {
    out << "flush " << rounds << ' ' << snapshot(reg) << '\n';
  };
  setting.apply(cfg);
  Network net(g, cfg);
  try {
    protocol(net, [&] { out << "run " << snapshot(reg) << '\n'; });
  } catch (const std::exception& e) {
    out << "threw " << e.what() << '\n';
  }
  out << "end " << snapshot(reg) << '\n';
  return dist::result_digest(out.str());
}

void pin_metrics(const Graph& g, const PinProtocol& protocol,
                 const std::map<std::string, std::string>& expected) {
  for (const PinSetting& setting : pin_settings()) {
    SCOPED_TRACE(setting.name);
    const auto it = expected.find(setting.name);
    ASSERT_NE(it, expected.end());
    EXPECT_EQ(metrics_digest(g, setting, protocol), it->second);
  }
}

Graph pin_graph(unsigned seed, int n) {
  gen::Rng rng(seed);
  return gen::random_bounded_treedepth(n, 3, 0.4, rng);
}

PinProtocol pin_query(dist::Query q) {
  return [q](Network& net, const std::function<void()>& after_run) {
    dist::run(net, q, 3);
    after_run();
  };
}

TEST(MetricsPin, ElimTree) {
  pin_metrics(pin_graph(5, 24),
              [](Network& net, const std::function<void()>& after_run) {
                dist::run_elim_tree(net, 3);
                after_run();
              },
              {{"sparse", "a22e06c4cee97256"},
               {"dense", "a22e06c4cee97256"},
               {"audit", "a22e06c4cee97256"},
               {"drop+dup", "6dd41f7a771470af"},
               {"crash", "d2c37815c2617e7d"}});
}

TEST(MetricsPin, Bags) {
  pin_metrics(pin_graph(6, 24),
              [](Network& net, const std::function<void()>& after_run) {
                const dist::ElimTreeResult tree = dist::run_elim_tree(net, 3);
                after_run();
                dist::run_bags(net, tree, {}, {});
                after_run();
              },
              {{"sparse", "11e3f78182db8c7a"},
               {"dense", "11e3f78182db8c7a"},
               {"audit", "11e3f78182db8c7a"},
               {"drop+dup", "84ea598c7299e726"},
               {"crash", "b44f861dcb7d3172"}});
}

TEST(MetricsPin, Decide) {
  pin_metrics(pin_graph(7, 20),
              pin_query({dist::Kind::kDecision, mso::lib::triangle_free()}),
              {{"sparse", "84b33d6e275e11c6"},
               {"dense", "84b33d6e275e11c6"},
               {"audit", "84b33d6e275e11c6"},
               {"drop+dup", "522b1e3fc0a11f00"},
               {"crash", "bc92ce1257fedde3"}});
}

// The star's count (2^32 + 1) outgrows the bandwidth, so the answer is
// fragmented and the reassembly gauge moves.
TEST(MetricsPin, CountFragmented) {
  pin_metrics(gen::star(32),
              pin_query({dist::Kind::kCount,
                         mso::lib::independent_set_indicator(),
                         {{"S", mso::Sort::VertexSet}}}),
              {{"sparse", "e0febe0378ddba43"},
               {"dense", "e0febe0378ddba43"},
               {"audit", "e0febe0378ddba43"},
               {"drop+dup", "598fc71c1b65c0f4"},
               {"crash", "26475d991f2ff34d"}});
}

}  // namespace
}  // namespace dmc
