// Tests for dmc::obs — the round-level tracing subsystem.
//
// The pinned invariants:
//   - summing a trace's per-round deltas reproduces NetworkStats exactly;
//   - traces are deterministic for a fixed id_seed;
//   - the JSONL and Chrome exporters emit structurally valid output;
//   - phase spans nest and close (LIFO, balanced, annotations dedup);
//   - with no sink configured, Network::run_outcome() performs no
//     allocation (the zero-overhead-when-disabled contract).
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <ranges>
#include <sstream>
#include <vector>

#include "congest/network.hpp"
#include "dist/elim_tree.hpp"
#include "dist/query.hpp"
#include "graph/generators.hpp"
#include "mso/formulas.hpp"
#include "obs/buffer.hpp"
#include "obs/chrome.hpp"
#include "obs/jsonl.hpp"
#include "obs/summary.hpp"

#include "counting_new.hpp"

namespace dmc {
namespace {

using congest::Network;
using congest::NetworkConfig;
using congest::NodeCtx;
using congest::NodeProgram;

/// Runs the full decision pipeline on a small path with the given sink.
long run_traced_decision(obs::TraceSink* sink, std::uint64_t id_seed = 42) {
  const Graph g = gen::path(8);
  NetworkConfig cfg;
  cfg.id_seed = id_seed;
  cfg.sink = sink;
  Network net(g, cfg);
  const auto out =
      dist::run(net, {dist::Kind::kDecision, mso::lib::connected()}, 4);
  EXPECT_FALSE(out.treedepth_exceeded);
  EXPECT_TRUE(out.holds);
  return net.stats().rounds;
}

TEST(ObsTrace, RoundDeltasSumExactlyToNetworkStats) {
  obs::TraceBuffer buffer;
  const Graph g = gen::path(8);
  NetworkConfig cfg;
  cfg.id_seed = 42;
  cfg.sink = &buffer;
  Network net(g, cfg);
  const auto out =
      dist::run(net, {dist::Kind::kDecision, mso::lib::connected()}, 4);
  ASSERT_FALSE(out.treedepth_exceeded);

  long rounds = 0, messages = 0;
  long long bits = 0;
  int max_bits = 0;
  for (const auto& ev : buffer.rounds()) {
    ++rounds;
    messages += ev.messages;
    bits += ev.bits;
    max_bits = std::max(max_bits, ev.max_message_bits);
    EXPECT_EQ(ev.active_nodes + ev.done_nodes, 8);
  }
  const auto& stats = net.stats();
  EXPECT_EQ(rounds, stats.rounds);
  EXPECT_EQ(messages, stats.messages);
  EXPECT_EQ(bits, stats.total_bits);
  EXPECT_EQ(max_bits, stats.max_message_bits);
  // Round indices are consecutive across the pipeline's runs.
  long index = 0;
  for (const auto& ev : buffer.rounds()) EXPECT_EQ(ev.round, index++);
  // One run_begin per Network::run_outcome() call, each matched by a run_end.
  EXPECT_GE(buffer.num_runs(), 3);  // elim-tree, bags, decide at minimum
}

TEST(ObsTrace, SummaryTotalsMatchNetworkStatsAndBalance) {
  obs::TraceBuffer buffer;
  const Graph g = gen::path(8);
  NetworkConfig cfg;
  cfg.sink = &buffer;
  Network net(g, cfg);
  const auto out =
      dist::run(net, {dist::Kind::kDecision, mso::lib::connected()}, 4);
  ASSERT_FALSE(out.treedepth_exceeded);

  const obs::Summary s = obs::summarize(buffer);
  EXPECT_TRUE(s.balanced);
  EXPECT_EQ(s.total_rounds, net.stats().rounds);
  EXPECT_EQ(s.total_messages, net.stats().messages);
  EXPECT_EQ(s.total_bits, net.stats().total_bits);
  EXPECT_EQ(s.max_message_bits, net.stats().max_message_bits);
  // Per-phase rows partition the totals.
  long phase_rounds = 0, phase_messages = 0;
  long long phase_bits = 0;
  for (const auto& p : s.phases) {
    phase_rounds += p.rounds;
    phase_messages += p.messages;
    phase_bits += p.bits;
  }
  EXPECT_EQ(phase_rounds, s.total_rounds);
  EXPECT_EQ(phase_messages, s.total_messages);
  EXPECT_EQ(phase_bits, s.total_bits);
  // The driver phases of the decision pipeline all appear.
  EXPECT_NE(s.aggregate("elim-tree").rounds, 0);
  EXPECT_NE(s.aggregate("bags").rounds, 0);
  EXPECT_NE(s.aggregate("decide").rounds, 0);
  // aggregate() sums exactly the nested annotation rows.
  const auto elim = s.aggregate("elim-tree");
  long nested = 0;
  for (const auto& p : s.phases)
    if (p.path.rfind("elim-tree", 0) == 0) nested += p.rounds;
  EXPECT_EQ(elim.rounds, nested);
}

TEST(ObsTrace, DeterministicForFixedIdSeed) {
  std::ostringstream a, b;
  {
    obs::JsonlExporter exporter(a);
    run_traced_decision(&exporter, 7);
  }
  {
    obs::JsonlExporter exporter(b);
    run_traced_decision(&exporter, 7);
  }
  EXPECT_FALSE(a.str().empty());
  EXPECT_EQ(a.str(), b.str());
}

TEST(ObsTrace, JsonlLinesAreSelfDescribing) {
  std::ostringstream out;
  obs::JsonlExporter exporter(out);
  const long rounds = run_traced_decision(&exporter);

  std::istringstream in(out.str());
  std::string line;
  long round_lines = 0, run_begins = 0, run_ends = 0;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"type\":\""), std::string::npos) << line;
    if (line.find("\"type\":\"round\"") != std::string::npos) ++round_lines;
    if (line.find("\"type\":\"run_begin\"") != std::string::npos) ++run_begins;
    if (line.find("\"type\":\"run_end\"") != std::string::npos) ++run_ends;
  }
  EXPECT_EQ(round_lines, rounds);
  EXPECT_GT(run_begins, 0);
  EXPECT_EQ(run_begins, run_ends);
}

TEST(ObsTrace, ChromeTraceIsStructurallyValidJson) {
  std::ostringstream out;
  {
    obs::ChromeTraceExporter exporter(out);
    run_traced_decision(&exporter);
    exporter.close();
    exporter.close();  // idempotent
  }
  const std::string s = out.str();
  ASSERT_FALSE(s.empty());
  EXPECT_EQ(s.front(), '{');
  EXPECT_NE(s.find("\"traceEvents\":["), std::string::npos);
  // Trailer closes the array and the root object.
  EXPECT_NE(s.rfind("]}"), std::string::npos);
  // Balanced braces/brackets (no strings in the output contain them).
  long braces = 0, brackets = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (c == '"' && (i == 0 || s[i - 1] != '\\')) in_string = !in_string;
    if (in_string) continue;
    braces += (c == '{') - (c == '}');
    brackets += (c == '[') - (c == ']');
  }
  EXPECT_FALSE(in_string);
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  // Every duration begin has a matching end.
  auto count = [&s](const char* needle) {
    long c = 0;
    for (std::size_t pos = s.find(needle); pos != std::string::npos;
         pos = s.find(needle, pos + 1))
      ++c;
    return c;
  };
  EXPECT_GT(count("\"ph\":\"B\""), 0);
  EXPECT_EQ(count("\"ph\":\"B\""), count("\"ph\":\"E\""));
  EXPECT_GT(count("\"ph\":\"C\""), 0);
}

TEST(ObsTrace, ChromeExporterRejectsEventsAfterClose) {
  std::ostringstream out;
  obs::ChromeTraceExporter exporter(out);
  exporter.close();
  obs::RoundEvent ev;
  EXPECT_THROW(exporter.round(ev), std::logic_error);
}

TEST(ObsTrace, PhaseSpansNestAndClose) {
  obs::TraceBuffer buffer;
  const Graph g = gen::path(8);
  NetworkConfig cfg;
  cfg.sink = &buffer;
  Network net(g, cfg);
  const auto out =
      dist::run(net, {dist::Kind::kDecision, mso::lib::connected()}, 4);
  ASSERT_FALSE(out.treedepth_exceeded);

  // Replay: every End matches the innermost open Begin, depths agree with
  // the stack, and the stream ends with an empty stack.
  std::vector<std::string> stack;
  for (const auto& ev : buffer.phases()) {
    if (ev.kind == obs::PhaseEvent::Kind::Begin) {
      EXPECT_EQ(ev.depth, static_cast<int>(stack.size()));
      stack.push_back(ev.name);
    } else {
      ASSERT_FALSE(stack.empty());
      EXPECT_EQ(ev.name, stack.back());
      EXPECT_EQ(ev.depth, static_cast<int>(stack.size()) - 1);
      stack.pop_back();
    }
  }
  EXPECT_TRUE(stack.empty());
}

TEST(ObsTrace, AnnotationsDeduplicateAcrossNodes) {
  // Every node annotates the same step name every round; the network must
  // record a single span, not n per-node or per-round copies.
  class Annotating : public NodeProgram {
   public:
    void on_round(NodeCtx& ctx) override {
      ASSERT_TRUE(ctx.traced());
      ctx.annotate(ctx.round() < 2 ? "step-a" : "step-b");
    }
    bool done(const NodeCtx& ctx) const override { return ctx.round() >= 4; }
  };
  obs::TraceBuffer buffer;
  const Graph g = gen::cycle(6);
  NetworkConfig cfg;
  cfg.sink = &buffer;
  Network net(g, cfg);
  std::vector<std::unique_ptr<NodeProgram>> programs;
  for (int v = 0; v < 6; ++v) programs.push_back(std::make_unique<Annotating>());
  EXPECT_TRUE(net.run_outcome(congest::program_ptrs(programs)).ok());

  int begins_a = 0, begins_b = 0;
  for (const auto& ev : buffer.phases())
    if (ev.kind == obs::PhaseEvent::Kind::Begin) {
      if (ev.name == "step-a") ++begins_a;
      if (ev.name == "step-b") ++begins_b;
    }
  EXPECT_EQ(begins_a, 1);
  EXPECT_EQ(begins_b, 1);
  // The run's end closed the trailing annotation.
  const obs::Summary s = obs::summarize(buffer);
  EXPECT_TRUE(s.balanced);
}

TEST(ObsTrace, PhaseEndWithoutBeginThrows) {
  obs::TraceBuffer buffer;
  NetworkConfig cfg;
  cfg.sink = &buffer;
  Network net(gen::path(2), cfg);
  EXPECT_THROW(net.phase_end(), std::logic_error);
}

TEST(ObsTrace, UntracedNetworkIgnoresPhaseApi) {
  Network net(gen::path(2));
  EXPECT_FALSE(net.traced());
  // Phases still nest (the flight ring records them); annotations are
  // no-ops without a sink.
  net.phase_begin("ignored");
  net.phase_end();
  net.annotate("ignored");
}

TEST(ObsTrace, TeeSinkFansOutToAllSinks) {
  obs::TraceBuffer a, b;
  obs::TeeSink tee;
  tee.add(&a);
  tee.add(&b);
  tee.add(nullptr);  // ignored
  run_traced_decision(&tee);
  EXPECT_FALSE(a.items().empty());
  EXPECT_EQ(a.items().size(), b.items().size());
  EXPECT_EQ(std::ranges::distance(a.rounds()),
            std::ranges::distance(b.rounds()));
  EXPECT_EQ(a.num_runs(), b.num_runs());
}

TEST(ObsTrace, DisabledPathDoesNotAllocatePerRound) {
  // A program that sends nothing: with no sink, run_outcome() must not
  // allocate at all (the tracing branches are fully skipped, inboxes are
  // pre-sized).
  class Quiet : public NodeProgram {
   public:
    void on_round(NodeCtx&) override {}
    bool done(const NodeCtx& ctx) const override { return ctx.round() >= 64; }
  };
  const Graph g = gen::cycle(8);
  Network net(g);  // no sink
  std::vector<Quiet> programs(8);
  const std::vector<NodeProgram*> ptrs = congest::program_ptrs(programs);

  const long before = g_allocations.load(std::memory_order_relaxed);
  const congest::RunOutcome out = net.run_outcome(ptrs);
  const long after = g_allocations.load(std::memory_order_relaxed);
  const long rounds = out.rounds;
  EXPECT_TRUE(out.ok());
  EXPECT_GE(rounds, 64);
  EXPECT_EQ(after - before, 0)
      << "untraced Network::run_outcome() allocated " << (after - before)
      << " times over " << rounds << " rounds";
}

TEST(ObsTrace, CurveTableRendersSeriesByX) {
  obs::CurveTable curve;
  curve.add("alpha", 2, 1.5);
  curve.add("beta", 2, 2.5);
  curve.add("alpha", 1, 0.5);
  const std::string s = curve.format("n");
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("beta"), std::string::npos);
  // Row x=1 precedes row x=2; beta has no x=1 point -> "-".
  EXPECT_LT(s.find("0.50"), s.find("1.50"));
  EXPECT_NE(s.find('-'), std::string::npos);
}

}  // namespace
}  // namespace dmc
