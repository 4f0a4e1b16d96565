#include "churn/engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "dist/bags.hpp"
#include "metrics/metrics.hpp"

namespace dmc::churn {

const char* to_string(StepStatus status) {
  switch (status) {
    case StepStatus::kRefolded: return "refolded";
    case StepStatus::kRebuilt: return "rebuilt";
    case StepStatus::kRecomputed: return "recomputed";
    case StepStatus::kDegraded: return "degraded";
  }
  return "?";
}

namespace {

/// The 64-bit form of a canonical result digest, for StepOutcome.
std::uint64_t digest_of(const dist::Outcome& out) {
  return std::stoull(out.digest, nullptr, 16);
}

}  // namespace

std::vector<dist::LocalBag> bags_for_tree(
    const congest::Network& net, const dist::ElimTreeResult& tree,
    const std::vector<std::string>& vlabel_names,
    const std::vector<std::string>& elabel_names) {
  if (!tree.success)
    throw std::invalid_argument("churn::bags_for_tree: tree invalid");
  const Graph& g = net.graph();
  const int n = g.num_vertices();
  auto vbits = [&](VertexId v) {
    std::uint32_t bits = 0;
    for (std::size_t i = 0; i < vlabel_names.size(); ++i)
      if (g.vertex_has_label(vlabel_names[i], v)) bits |= 1u << i;
    return bits;
  };
  auto ebits = [&](EdgeId e) {
    std::uint32_t bits = 0;
    for (std::size_t i = 0; i < elabel_names.size(); ++i)
      if (g.edge_has_label(elabel_names[i], e)) bits |= 1u << i;
    return bits;
  };
  std::vector<dist::LocalBag> bags(n);
  std::vector<int> path;
  for (int v = 0; v < n; ++v) {
    path.clear();
    for (int x = v; x >= 0; x = tree.parent[x]) path.push_back(x);
    std::sort(path.begin(), path.end(), [&](int a, int b) {
      return net.id_of_vertex(a) < net.id_of_vertex(b);
    });
    dist::LocalBag& b = bags[v];
    for (int x : path) {
      b.bag.push_back(net.id_of_vertex(x));
      b.weights.push_back(g.vertex_weight(x));
      b.vlabel_bits.push_back(vbits(x));
    }
    for (std::size_t i = 0; i < path.size(); ++i) {
      for (std::size_t j = i + 1; j < path.size(); ++j) {
        const EdgeId e = g.edge_id(path[i], path[j]);
        if (e < 0) continue;
        dist::LocalBag::BagEdge edge;
        edge.i = static_cast<int>(i);
        edge.j = static_cast<int>(j);
        edge.weight = g.edge_weight(e);
        edge.elabel_bits = ebits(e);
        b.edges.push_back(edge);
      }
    }
  }
  return bags;
}

ChurnEngine::ChurnEngine(Graph g, dist::Query query, Options opts)
    : graph_(std::move(g)),
      query_(std::move(query)),
      opts_(std::move(opts)),
      engine_(dist::engine_config(query_)) {
  std::tie(vlabels_, elabels_) = dist::bag_labels(query_, engine_.config());
  invalidate_caches();
}

ChurnEngine::~ChurnEngine() = default;

congest::NetworkConfig ChurnEngine::solve_config() const { return opts_.net; }

namespace {
metrics::Registry* registry_of(const congest::NetworkConfig& cfg) {
  return cfg.metrics != nullptr ? cfg.metrics : metrics::global();
}
void bump(const congest::NetworkConfig& cfg, const char* name) {
  if (metrics::Registry* r = registry_of(cfg)) r->counter(name).add(1);
}
}  // namespace

void ChurnEngine::invalidate_caches() {
  cache_.reset(graph_.num_vertices());
  net_ids_.assign(graph_.num_vertices(), -1);
}

StepOutcome ChurnEngine::solve(congest::Network& net,
                               const dist::ElimTreeResult& tree,
                               const std::vector<dist::LocalBag>& bags) {
  StepOutcome out;
  out.verdict = dist::solve(net, query_, tree, bags, &engine_, &cache_);
  out.run = out.verdict.run;
  out.folds = out.verdict.folds;
  out.rounds = out.run.rounds;
  out.status =
      out.run.ok() ? StepStatus::kRecomputed : StepStatus::kDegraded;
  if (!out.run.ok()) out.flight = net.flight_recorder().dump_string();
  out.digest = digest_of(out.verdict);
  if (out.run.ok()) {
    // The refreshed cache is positional over bags ordered by these ids.
    net_ids_.assign(net.n(), -1);
    for (int v = 0; v < net.n(); ++v) net_ids_[v] = net.id_of_vertex(v);
  }
  return out;
}

StepOutcome ChurnEngine::full_compute(const congest::NetworkConfig& cfg) {
  bump(opts_.net, "churn.full_recomputes");
  StepOutcome out;
  congest::Network net(graph_, cfg);
  const dist::ElimTreeResult tree = dist::run_elim_tree(net, opts_.d);
  out.run = tree.run;
  out.rounds = tree.rounds;
  if (!tree.run.ok()) {
    out.status = StepStatus::kDegraded;
    out.flight = net.flight_recorder().dump_string();
    tree_.reset();
    invalidate_caches();
    return out;
  }
  if (!tree.success) {
    out.status = StepStatus::kRecomputed;
    out.verdict.kind = query_.kind;
    out.verdict.treedepth_exceeded = true;
    dist::describe(out.verdict, opts_.d);
    out.digest = digest_of(out.verdict);
    tree_.reset();
    invalidate_caches();
    return out;
  }
  const dist::BagsResult bags = dist::run_bags(net, tree, vlabels_, elabels_);
  out.run = bags.run;
  out.rounds += bags.rounds;
  if (!bags.run.ok()) {
    out.status = StepStatus::kDegraded;
    out.flight = net.flight_recorder().dump_string();
    tree_.reset();
    invalidate_caches();
    return out;
  }
  invalidate_caches();  // fold-all: the seams refresh the caches on success
  StepOutcome solved = solve(net, tree, bags.bags);
  solved.rounds += out.rounds;
  if (!solved.run.ok()) {
    tree_.reset();
    return solved;  // status kDegraded from solve()
  }
  tree_ = tree;
  solved.status = StepStatus::kRecomputed;
  solved.refold_count = graph_.num_vertices();
  return solved;
}

void ChurnEngine::verify_step(StepOutcome& out) {
  if (!opts_.verify || !out.ok()) return;
  // Clean-room oracle: fault-free serial network, fresh class universe,
  // the full distributed pipeline from scratch. Algorithm 2 certifies
  // td <= d while a repaired tree only guarantees depth <= 2^d - 1 (enough
  // for sound folds), so churn can push td past d without invalidating the
  // incremental verdict; the oracle then retries with a slightly larger
  // budget — the verdict itself is budget-independent.
  const int max_budget = opts_.d + 3;
  for (int budget = opts_.d; budget <= max_budget; ++budget) {
    congest::NetworkConfig clean;
    clean.id_seed = opts_.net.id_seed;
    dist::Outcome oracle;
    try {
      congest::Network net(graph_, clean);
      oracle = dist::run(net, query_, budget);
    } catch (const std::exception&) {
      // A larger budget can yield trees deeper than the packed atomic
      // representation supports (bpt::kMaxTerminals); the oracle is
      // infeasible there, not wrong.
      out.note = "oracle infeasible at budget " + std::to_string(budget) +
                 "; digest check skipped";
      return;
    }
    out.rounds_full = oracle.total_rounds();
    if (!oracle.run.ok()) {
      out.note = "oracle run degraded; digest check skipped";
      return;
    }
    if (oracle.treedepth_exceeded && !out.verdict.treedepth_exceeded) {
      if (budget < max_budget) continue;
      out.note = "budget drift: oracle td check rejected up to d+3; "
                 "digest check skipped";
      return;
    }
    out.oracle_digest = digest_of(oracle);
    out.verified = true;
    out.digest_ok = out.digest == out.oracle_digest;
    if (!out.digest_ok) bump(opts_.net, "churn.digest_mismatches");
    return;
  }
}

StepOutcome ChurnEngine::init() {
  StepOutcome out = full_compute(solve_config());
  if (!out.ok()) bump(opts_.net, "churn.degraded");
  verify_step(out);
  return out;
}

StepOutcome ChurnEngine::step(const std::vector<ChurnEvent>& batch) {
  bump(opts_.net, "churn.steps");
  std::vector<VertexId> old_to_new;
  Graph next = apply_batch(graph_, batch, &old_to_new);  // throws: unchanged

  if (!tree_.has_value()) {
    // Previous epoch left no tree (degraded or budget-exceeded): nothing
    // to repair against; full recompute on the mutated graph.
    graph_ = std::move(next);
    StepOutcome out = full_compute(solve_config());
    out.note = "no tree from previous epoch: full recompute";
    if (!out.ok()) bump(opts_.net, "churn.degraded");
    verify_step(out);
    return out;
  }

  const Graph old_g = std::move(graph_);
  graph_ = std::move(next);
  const TreePatch patch =
      repair_tree(old_g, *tree_, graph_, old_to_new, opts_.d);

  StepOutcome out;
  if (patch.kind == RepairKind::kFailed) {
    bump(opts_.net, "churn.repair_failures");
    out = full_compute(solve_config());
    out.repair = RepairKind::kFailed;
    out.repair_failed = true;
    out.note = patch.reason;
  } else {
    const int n = graph_.num_vertices();
    cache_.remap(old_to_new, n);
    std::vector<int> ids(n, -1);
    for (std::size_t ov = 0; ov < old_to_new.size(); ++ov)
      if (old_to_new[ov] >= 0 && ov < net_ids_.size())
        ids[old_to_new[ov]] = net_ids_[ov];
    net_ids_ = std::move(ids);
    // Refold set = dirty plus its root-path (ancestor) closure: a vertex's
    // table summarizes its whole subtree, so staleness propagates upward.
    // The walk stops at already-marked vertices — anything this loop marked
    // had its full ancestor path marked too.
    std::vector<char>& refold = cache_.refold;
    std::vector<char> marked(n, 0);
    for (int v = 0; v < n; ++v) {
      if (!patch.dirty[v]) continue;
      for (int x = v; x >= 0 && !marked[x]; x = patch.tree.parent[x])
        marked[x] = refold[x] = 1;
    }

    congest::Network net(graph_, solve_config());
    // Cached tables are positional over bags ordered by network id; if the
    // id assignment moved for any surviving vertex (it is a permutation of
    // [0, n), so vertex churn reshuffles it wholesale), every cached table
    // is suspect — refold the lot.
    for (int v = 0; v < n; ++v)
      if (net_ids_[v] >= 0 && net_ids_[v] != net.id_of_vertex(v)) {
        std::fill(refold.begin(), refold.end(), 1);
        break;
      }
    out.refold_count =
        static_cast<int>(std::count(refold.begin(), refold.end(), 1));

    const std::vector<dist::LocalBag> bags =
        bags_for_tree(net, patch.tree, vlabels_, elabels_);
    StepOutcome solved = solve(net, patch.tree, bags);
    solved.refold_count = out.refold_count;
    solved.repair = patch.kind;
    solved.region = patch.region;
    out = std::move(solved);
    if (out.run.ok()) {
      out.status = patch.kind == RepairKind::kRefold ? StepStatus::kRefolded
                                                     : StepStatus::kRebuilt;
      tree_ = patch.tree;
      bump(opts_.net, out.status == StepStatus::kRefolded ? "churn.refolds"
                                                          : "churn.rebuilds");
    } else if (opts_.fallback_full) {
      // Faults defeated the incremental solve; recover with a full
      // distributed recompute under the same fault plan.
      bump(opts_.net, "churn.fallbacks");
      const long incremental_rounds = out.rounds;
      StepOutcome full = full_compute(solve_config());
      full.repair = patch.kind;
      full.region = patch.region;
      full.fallback_used = true;
      full.rounds += incremental_rounds;  // the failed attempt still cost
      out = std::move(full);
      if (!out.ok()) tree_ = patch.tree;  // still valid for the new graph
    } else {
      // Structured degraded outcome; the repaired tree stays (it is valid
      // for the new graph) and the stale refold flags persist, so the next
      // epoch re-folds everything this one failed to refresh.
      tree_ = patch.tree;
    }
  }
  if (!out.ok()) bump(opts_.net, "churn.degraded");
  verify_step(out);
  return out;
}

std::vector<StepOutcome> ChurnEngine::run(const ChurnScript& script) {
  std::vector<StepOutcome> outs;
  outs.push_back(init());
  for (const auto& batch : script.batches) outs.push_back(step(batch));
  for (int i = 0; i < script.random_events; ++i) {
    const ChurnEvent e = random_event(graph_, script.seed, random_cursor_++);
    outs.push_back(step({e}));
  }
  return outs;
}

}  // namespace dmc::churn
