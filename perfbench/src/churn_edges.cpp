// Workload churn-edges: one churn::ChurnEngine (decision pipeline,
// triangle-freeness, budget d = 4, no per-step oracle) over a fixed count
// of edge epochs on random_bounded_treedepth(5000, 3, 0.25). Each epoch
// deletes one random non-bridge edge (at most 8 outstanding) or re-inserts
// a previously deleted one, so the graph oscillates around its start and
// every epoch is incremental: a tree repair (in place, or a bounded
// re-elimination) plus a partial refold.
//
// Why: this is the dist fold layer used the other way round; clean
// vertices replay cached tables instead of folding. An optimisation of
// full folds should leave it flat, and one of per-epoch O(n) overhead
// should show only here. Vertex churn is left out: it takes the refold-all
// path deeppath-decide already measures.
#include <algorithm>
#include <optional>
#include <queue>
#include <stdexcept>
#include <string>
#include <utility>

#include "churn/engine.hpp"
#include "churn/repair.hpp"
#include "churn/script.hpp"
#include "common.hpp"
#include "congest/network.hpp"
#include "dist/decision.hpp"
#include "graph/generators.hpp"
#include "metrics/metrics.hpp"
#include "mso/lower.hpp"
#include "mso/parser.hpp"
#include "obs/trace.hpp"
#include "seq/courcelle.hpp"
#include "td/tree_decomposition.hpp"

namespace perfbench {
namespace {

using namespace dmc;

constexpr const char* kFormula =
    "!exists vertex x, y, z. adj(x,y) & adj(y,z) & adj(x,z)";
constexpr int kDist = 4;
constexpr std::size_t kMaxOutstanding = 8;

/// Sums the message and bit counts of every round the epoch networks run.
/// The engine builds a fresh network per epoch from its config template,
/// so a sink is the way to read their traffic from outside.
class CountingSink final : public obs::TraceSink {
 public:
  void round(const obs::RoundEvent& ev) override {
    messages += ev.messages;
    bits += ev.bits;
    max_msg_bits = std::max<long long>(max_msg_bits, ev.max_message_bits);
  }
  void phase(const obs::PhaseEvent&) override {}
  void quiescent(const obs::QuiescentEvent&) override {}

  long long messages = 0, bits = 0, max_msg_bits = 0;
};

/// Is {u, v} the only path between u and v (a bridge) in g?
bool is_bridge(const Graph& g, VertexId u, VertexId v) {
  std::vector<char> seen(g.num_vertices(), 0);
  std::queue<VertexId> frontier;
  frontier.push(u);
  seen[u] = 1;
  while (!frontier.empty()) {
    const VertexId x = frontier.front();
    frontier.pop();
    for (const VertexId y : g.neighbors(x)) {
      if ((x == u && y == v) || (x == v && y == u) || seen[y]) continue;
      if (y == v) return false;
      seen[y] = 1;
      frontier.push(y);
    }
  }
  return true;
}

/// The seeded edge-churn event stream.
class EdgeChurn {
 public:
  explicit EdgeChurn(std::uint64_t seed) : rng_(seed) {}

  churn::ChurnEvent next(const Graph& g) {
    churn::ChurnEvent ev;
    const bool insert = !deleted_.empty() &&
                        (deleted_.size() >= kMaxOutstanding || rng_() % 2 == 0);
    if (insert) {
      const std::size_t i = rng_() % deleted_.size();
      ev.kind = churn::ChurnEvent::Kind::kAddEdge;
      std::tie(ev.u, ev.v) = deleted_[i];
      deleted_.erase(deleted_.begin() + static_cast<long>(i));
      return ev;
    }
    for (;;) {
      const Edge e = g.edge(static_cast<EdgeId>(rng_() % g.num_edges()));
      if (is_bridge(g, e.u, e.v)) continue;
      ev.kind = churn::ChurnEvent::Kind::kDelEdge;
      ev.u = e.u;
      ev.v = e.v;
      deleted_.emplace_back(e.u, e.v);
      return ev;
    }
  }

 private:
  std::mt19937_64 rng_;
  std::vector<std::pair<VertexId, VertexId>> deleted_;
};

churn::Query decide_query() {
  churn::Query q;
  q.pipeline = churn::Pipeline::kDecision;
  q.formula = mso::parse(kFormula);
  return q;
}

churn::Options engine_options(obs::TraceSink* sink) {
  churn::Options opts;
  opts.net.threads = 1;
  opts.net.sink = sink;
  opts.d = kDist;
  opts.verify = false;  // the answer check below runs outside the timing
  return opts;
}

/// The answer checks, untimed. Every epoch's verdict is compared with an
/// adjacency scan for triangles; every kOracleStride-th epoch and the last
/// one are also compared with a from-scratch distributed decide (clean
/// network, the checker's own engine), which costs ~10x an epoch.
class Checker {
 public:
  static constexpr int kOracleStride = 50;

  Checker()
      : formula_(mso::parse(kFormula)),
        engine_(bpt::config_for(*mso::lower(formula_))) {}

  std::string check(const Graph& g, const churn::StepOutcome& out, int epoch,
                    bool last) {
    if (!out.ok()) return "degraded epoch";
    if (out.verdict.treedepth_exceeded) return "epoch reports treedepth > d";
    if (out.verdict.holds == has_triangle(g))
      return "verdict differs from the triangle scan";
    if (epoch % kOracleStride != 0 && !last) return "";
    ++oracle_runs;
    congest::NetworkConfig cfg;
    cfg.threads = 1;
    congest::Network net(g, cfg);
    const dist::DecisionOutcome o =
        dist::run_decision(net, formula_, kDist, &engine_);
    if (!o.run.ok() || o.treedepth_exceeded) return "oracle run failed";
    if (out.verdict.holds != o.holds) return "verdict differs from oracle";
    return "";
  }

  int oracle_runs = 0;

 private:
  mso::FormulaPtr formula_;
  bpt::Engine engine_;
};

}  // namespace

RunResult run_churn_edges(const RunArgs& args) {
  const int n = args.smoke ? 200 : 5000;
  const int epochs = args.smoke ? 8 : 30 * args.seconds;
  // One fixed graph; the seed drives the event stream. Graphs drawn per
  // seed differ in elimination-tree depth, which moves the per-epoch
  // round count by several percent between seeds.
  constexpr std::uint64_t kGraphSeed = 5000;
  const std::uint64_t event_seed = workload_rng(args.seed, args.workload)();

  RunResult r;
  Tracer tracer;
  CountingSink sink;
  // Traced run: the registry is on from the engine's construction (its
  // counter handles are resolved there), except while the checker runs.
  metrics::Registry registry;
  Checker checker;  // built first: its engine must not count
  std::optional<GlobalMetrics> installed;
  if (args.trace) installed.emplace(registry);
  std::vector<double> setup_s, graph_ms;
  Graph g0;
  std::optional<churn::ChurnEngine> engine;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = SteadyClock::now();
    {
      const auto tg = SteadyClock::now();
      gen::Rng grng(kGraphSeed);
      g0 = gen::random_bounded_treedepth(n, 3, 0.25, grng);
      graph_ms.push_back(ms_since(tg));
    }
    engine.reset();
    engine.emplace(g0, decide_query(), engine_options(&sink));
    const churn::StepOutcome init = engine->init();
    if (!init.ok() || init.verdict.treedepth_exceeded)
      throw std::runtime_error("initial build did not complete");
    setup_s.push_back(ms_since(t0) / 1000.0);
  }
  sink = CountingSink();  // count the timed epochs only
  const BptSnapshot bpt0 = BptSnapshot::take(registry);

  EdgeChurn churn(event_seed);
  std::vector<double> lat, folds, rounds;
  long incremental = 0, refolded = 0;
  Counts counts;
  double timed_ms = 0;  // the steps alone: replays and checks interleave
  Reference reference;
  std::vector<double> ref_samples, relative;
  std::vector<std::string> vlabels, elabels;
  {
    const bpt::EngineConfig cfg =
        bpt::config_for(*mso::lower(mso::parse(kFormula)));
    vlabels = cfg.vertex_labels;
    elabels = cfg.edge_labels;
  }
  for (int i = 0; i < epochs; ++i) {
    ++r.attempted;
    const std::vector<churn::ChurnEvent> batch{churn.next(engine->graph())};
    if (args.trace && engine->tree()) {
      // Replay the epoch's coordinator-side stages on copies, one span
      // each; the step's solve is its span minus these.
      Tracer::Scope op(tracer, "epoch", i);
      std::vector<VertexId> old_to_new;
      Graph next;
      {
        Tracer::Scope s(tracer, "churn.apply");
        next = churn::apply_batch(engine->graph(), batch, &old_to_new);
      }
      churn::TreePatch patch;
      {
        Tracer::Scope s(tracer, "churn.repair");
        patch = churn::repair_tree(engine->graph(), *engine->tree(), next,
                                   old_to_new, kDist);
      }
      congest::NetworkConfig cfg;
      cfg.threads = 1;
      std::optional<congest::Network> net;
      {
        Tracer::Scope s(tracer, "congest.net_build");
        net.emplace(next, cfg);
      }
      {
        Tracer::Scope s(tracer, "churn.bags");
        churn::bags_for_tree(*net, patch.tree, vlabels, elabels);
      }
    }
    churn::StepOutcome out;
    std::string why;
    // One reference sample per epoch; an epoch is compared with the
    // median of the last five, which evens out the samples' own noise.
    ref_samples.push_back(reference.sample_ms());
    const double ref = median(std::vector<double>(
        ref_samples.end() - std::min<std::ptrdiff_t>(5, ref_samples.size()),
        ref_samples.end()));
    const auto t0 = SteadyClock::now();
    try {
      std::optional<Tracer::Scope> s;
      if (args.trace) s.emplace(tracer, "churn.step", i);
      out = engine->step(batch);
    } catch (const std::exception& e) {
      why = std::string("threw: ") + e.what();
    }
    const double ms = ms_since(t0);
    timed_ms += ms;
    lat.push_back(ms);
    relative.push_back(ms / ref);
    if (why.empty()) {
      installed.reset();
      why = checker.check(engine->graph(), out, i, i + 1 == epochs);
      if (args.trace) installed.emplace(registry);
      ++r.checked;
    }
    if (!why.empty()) r.fail("epoch " + std::to_string(i) + ": " + why);
    counts.rounds += out.rounds;
    rounds.push_back(static_cast<double>(out.rounds));
    folds.push_back(static_cast<double>(out.folds));
    if (out.status != churn::StepStatus::kRecomputed) ++incremental;
    if (out.status == churn::StepStatus::kRefolded) ++refolded;
  }
  const BptSnapshot bpt1 = BptSnapshot::take(registry);
  counts.messages = sink.messages;
  counts.bits = sink.bits;
  counts.max_msg_bits = sink.max_msg_bits;
  r.extra("checks.oracle_runs", checker.oracle_runs, "count");

  if (!args.trace) {
    add_end_to_end(r, Timing{setup_s, lat, relative, timed_ms / 1000.0},
                   counts);
    return r;
  }

  // Per-epoch stage times (epochs without a tree to repair have no replay
  // and are skipped; every epoch here has one).
  const std::vector<double> apply = tracer.self_ms("churn.apply"),
                            repair = tracer.self_ms("churn.repair"),
                            net = tracer.self_ms("congest.net_build"),
                            bags = tracer.self_ms("churn.bags"),
                            step = tracer.total_ms("churn.step");
  std::vector<double> solve;
  for (std::size_t i = 0; i < step.size() && i < apply.size(); ++i)
    solve.push_back(step[i] - apply[i] - repair[i] - net[i] - bags[i]);

  // The initial distributed build (epoch 0) on the start graph: the
  // elimination tree and bags protocols this workload pays once, in
  // set-up. Metered like the set-up was: not at all.
  installed.reset();
  Layers layers;
  layers.graph_build_ms = graph_ms;
  layers.bytes_per_vertex = {static_cast<double>(g0.memory_bytes()) /
                             g0.num_vertices()};
  layers.net_build_ms = net;
  layers.solve_ms = solve;
  {
    congest::NetworkConfig cfg;
    cfg.threads = 1;
    congest::Network init_net(g0, cfg);
    run_prologue(tracer, init_net, kDist, vlabels, elabels, layers);
  }
  add_layers(r, layers);
  add_bpt_layer(r, bpt0, bpt1);
  r.extra("churn.apply_ms", median(apply), "ms");
  r.extra("churn.repair_ms", median(repair), "ms");
  r.extra("churn.bags_ms", median(bags), "ms");
  r.extra("churn.solve_ms", median(solve), "ms");
  r.extra("churn.folds_per_epoch", median(folds), "count");
  r.extra("churn.rounds_per_epoch", median(rounds), "count");
  r.extra("churn.incremental_share",
          static_cast<double>(incremental) / epochs, "ratio");
  r.extra("churn.refolded_share", static_cast<double>(refolded) / epochs,
          "ratio");
  r.extra("traced.latency_p50_ms", median(lat), "ms");

  // The sequential path (td + seq), the independent oracle of the
  // distributed pipelines, on the same start graph; no other workload
  // runs it. Its verdict must agree with the triangle scan.
  TreeDecomposition decomposition;
  {
    Tracer::Scope s(tracer, "td.decomposition");
    decomposition = seq::decomposition_for(g0);
  }
  bool holds = false;
  {
    Tracer::Scope s(tracer, "seq.fold");
    holds = seq::decide(g0, mso::parse(kFormula), decomposition);
  }
  ++r.checked;
  if (holds == has_triangle(g0))
    r.fail("sequential verdict differs from the triangle scan");
  r.extra("td.decomposition_ms", tracer.self_ms("td.decomposition").back(),
          "ms");
  r.extra("td.decomposition_width", decomposition.width(), "count");
  r.extra("seq.fold_ms", tracer.self_ms("seq.fold").back(), "ms");
  r.spans_jsonl = tracer.to_jsonl();
  return r;
}

}  // namespace perfbench
