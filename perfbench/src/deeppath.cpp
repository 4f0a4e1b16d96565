// Workload deeppath-decide: Algorithm 2 (elimination tree) + Lemma 5.3
// (bags) + the Theorem 6.1 decide, configured as `dmc decide --dist 4
// --threads 1` runs it: an in-memory trace buffer behind the CLI's tee
// sink, one stepping thread, a fresh class universe per decide, and the
// per-phase summary the CLI prints afterwards.
//
// Why: the CONGEST simulator dominates here (the elimination tree alone
// sends ~5*10^6 messages per decide on 10^4 vertices), so message delivery
// and the CLI's tracing cost do most of the work; serve and churn do none.
// Every decide of a run is the same, so the median cannot flip between
// modes.
#include <algorithm>
#include <numeric>
#include <string>

#include "common.hpp"
#include "congest/network.hpp"
#include "dist/decision.hpp"
#include "graph/generators.hpp"
#include "metrics/metrics.hpp"
#include "mso/lower.hpp"
#include "mso/parser.hpp"
#include "obs/buffer.hpp"
#include "obs/summary.hpp"

namespace perfbench {
namespace {

using namespace dmc;

constexpr const char* kFormula =
    "!exists vertex x, y, z. adj(x,y) & adj(y,z) & adj(x,z)";
constexpr int kDist = 4;

/// The CLI's trace wiring without --trace: a buffer behind a tee.
struct CliTrace {
  obs::TraceBuffer buffer;
  obs::TeeSink tee;
  CliTrace() { tee.add(&buffer); }
};

congest::NetworkConfig decide_config(obs::TraceSink* sink) {
  congest::NetworkConfig cfg;
  cfg.sink = sink;
  cfg.threads = 1;
  return cfg;
}

/// Checks one decide's outcome: it must complete and hold (deeppath is a
/// tree, so it is triangle-free), and the phase summary must reconcile
/// with NetworkStats as the CLI's "trace check" line demands.
std::string check(const dist::DecisionOutcome& out, const obs::Summary* summary,
                  const congest::NetworkStats& stats) {
  if (!out.run.ok()) return "degraded run";
  if (out.treedepth_exceeded) return "treedepth exceeded";
  if (!out.holds) return "verdict fails on a tree";
  if (summary != nullptr &&
      (summary->total_rounds != stats.rounds ||
       summary->total_messages != stats.messages ||
       summary->total_bits != stats.total_bits || !summary->balanced))
    return "trace summary does not match NetworkStats";
  return "";
}

/// One decide exactly as the CLI runs it; returns the failure reason or "".
std::string decide_like_cli(const Graph& g, congest::NetworkStats& stats) {
  CliTrace trace;
  const mso::FormulaPtr formula = mso::parse(kFormula);
  congest::Network net(g, decide_config(&trace.tee));
  const dist::DecisionOutcome out = dist::run_decision(net, formula, kDist);
  const obs::Summary summary = obs::summarize(trace.buffer);
  stats = net.stats();
  return check(out, &summary, stats);
}

}  // namespace

RunResult run_deeppath_decide(const RunArgs& args) {
  // The seed picks the graph size within 2%. Ids stay the identity, as
  // in the CLI: the id permutation decides the elimination tree's depth
  // (7 or 9 here), which doubles the class universe and the solve time, so
  // per-decide id seeds would make the latencies bimodal.
  std::mt19937_64 rng = workload_rng(args.seed, args.workload);
  const int n = args.smoke ? 600 : 10000 + static_cast<int>(rng() % 200);
  const int ops = args.smoke ? 2 : 2 * args.seconds;

  RunResult r;
  Tracer tracer;
  std::vector<double> setup_s, graph_ms;
  Graph g;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = SteadyClock::now();
    {
      const auto tg = SteadyClock::now();
      g = gen::deeppath(n, 4);
      graph_ms.push_back(ms_since(tg));
    }
    congest::NetworkStats warm;  // allocator and code warm-up
    const std::string why = decide_like_cli(gen::deeppath(n / 4, 4), warm);
    if (!why.empty()) r.notes.push_back("warm-up: " + why);
    setup_s.push_back(ms_since(t0) / 1000.0);
  }

  if (!args.trace) {
    Timing t;
    t.setup_s = setup_s;
    Counts counts;
    Reference reference;
    for (int i = 0; i < ops; ++i) {
      ++r.attempted;
      congest::NetworkStats stats;
      std::string why;
      const double ref = median({reference.sample_ms(), reference.sample_ms(),
                                 reference.sample_ms()});
      const auto t0 = SteadyClock::now();
      try {
        why = decide_like_cli(g, stats);
      } catch (const std::exception& e) {
        why = std::string("threw: ") + e.what();
      }
      t.latencies_ms.push_back(ms_since(t0));
      t.relative.push_back(t.latencies_ms.back() / ref);
      ++r.checked;
      if (!why.empty()) r.fail(why);
      counts.rounds += stats.rounds;
      counts.messages += stats.messages;
      counts.bits += stats.total_bits;
      counts.max_msg_bits =
          std::max<long long>(counts.max_msg_bits, stats.max_message_bits);
    }
    // The decides alone, without the reference samples between them.
    t.timed_s = std::accumulate(t.latencies_ms.begin(), t.latencies_ms.end(),
                                0.0) / 1000.0;
    add_end_to_end(r, t, counts);
    return r;
  }

  // Traced run: the same decides, split into the calls run_decision makes
  // (the engine is built first here, which changes nothing it computes)
  // so each layer gets its own span, plus one untraced-config decide per
  // op for the CLI tracing overhead. The bpt.* counters are switched on
  // only around the engine build and the solve, so the elimination-tree
  // and bags spans carry no metrics cost.
  metrics::Registry registry;
  Layers layers;
  layers.graph_build_ms = graph_ms;
  layers.bytes_per_vertex = {static_cast<double>(g.memory_bytes()) /
                             g.num_vertices()};
  std::vector<double> trace_events, bare_ms;
  for (int i = 0; i < ops; ++i) {
    ++r.attempted;
    try {
      CliTrace trace;
      {
        Tracer::Scope op(tracer, "decide", i);
        const mso::FormulaPtr formula = mso::parse(kFormula);
        std::optional<congest::Network> net;
        {
          Tracer::Scope s(tracer, "congest.net_build");
          net.emplace(g, decide_config(&trace.tee));
        }
        std::optional<bpt::Engine> engine;
        {
          GlobalMetrics on(registry);
          Tracer::Scope s(tracer, "bpt.engine");
          engine.emplace(bpt::config_for(*mso::lower(formula)));
        }
        const Prologue pro =
            run_prologue(tracer, *net, kDist, engine->config().vertex_labels,
                         engine->config().edge_labels, layers);
        dist::DecisionOutcome out;
        {
          GlobalMetrics on(registry);
          Tracer::Scope s(tracer, "dist.solve");
          out = dist::run_decision_solve(*net, formula, pro.tree,
                                         pro.bags.bags, &*engine, nullptr);
        }
        obs::Summary summary;
        {
          Tracer::Scope s(tracer, "obs.summary");
          summary = obs::summarize(trace.buffer);
        }
        const std::string why = check(out, &summary, net->stats());
        ++r.checked;
        if (!why.empty()) r.fail(why);
      }
      trace_events.push_back(static_cast<double>(trace.buffer.items().size()));

      // The same decide without the CLI's sink: the tracing overhead.
      Tracer::Scope bare(tracer, "decide.bare", i);
      congest::Network net(g, decide_config(nullptr));
      const auto bare_out =
          dist::run_decision(net, mso::parse(kFormula), kDist);
      const std::string why = check(bare_out, nullptr, net.stats());
      if (!why.empty()) r.fail("untraced config: " + why);
      bare_ms.push_back(bare.elapsed_ms());
    } catch (const std::exception& e) {
      r.fail(std::string("threw: ") + e.what());
    }
  }
  std::vector<double> overhead;
  const std::vector<double> op_ms = tracer.total_ms("decide");
  for (std::size_t i = 0; i < op_ms.size() && i < bare_ms.size(); ++i)
    overhead.push_back(op_ms[i] - bare_ms[i]);

  layers.net_build_ms = tracer.self_ms("congest.net_build");
  layers.solve_ms = tracer.self_ms("dist.solve");
  add_layers(r, layers);
  add_bpt_layer(r, BptSnapshot{}, BptSnapshot::take(registry));
  r.extra("bpt.engine_ms", median(tracer.self_ms("bpt.engine")), "ms");
  r.extra("obs.summary_ms", median(tracer.self_ms("obs.summary")), "ms");
  r.extra("obs.cli_trace_overhead_ms", median(overhead), "ms");
  r.extra("obs.trace_events", median(trace_events), "count");
  r.extra("decide.self_ms", median(tracer.self_ms("decide")), "ms");
  r.extra("traced.latency_p50_ms", median(op_ms), "ms");
  r.spans_jsonl = tracer.to_jsonl();
  return r;
}

}  // namespace perfbench
