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
    const std::vector<std::string>& elabel_names,
    const std::vector<char>* mask) {
  if (!tree.success)
    throw std::invalid_argument("churn::bags_for_tree: tree invalid");
  const Graph& g = net.graph();
  const int n = g.num_vertices();
  if (mask != nullptr && mask->size() != static_cast<std::size_t>(n))
    throw std::invalid_argument("churn::bags_for_tree: mask size != n");
  std::vector<dist::LocalBag> bags(n);
  std::vector<int> path;
  for (int v = 0; v < n; ++v) {
    if (mask != nullptr && !(*mask)[v]) continue;
    path.clear();
    for (int x = v; x >= 0; x = tree.parent[x]) path.push_back(x);
    std::sort(path.begin(), path.end(), [&](int a, int b) {
      return net.id_of_vertex(a) < net.id_of_vertex(b);
    });
    dist::LocalBag& b = bags[v];
    for (int x : path) {
      b.bag.push_back(net.id_of_vertex(x));
      b.weights.push_back(g.vertex_weight(x));
      b.vlabel_bits.push_back(g.vertex_label_bits(vlabel_names, x));
    }
    for (std::size_t i = 0; i < path.size(); ++i) {
      for (std::size_t j = i + 1; j < path.size(); ++j) {
        const EdgeId e = g.edge_id(path[i], path[j]);
        if (e < 0) continue;
        dist::LocalBag::BagEdge edge;
        edge.i = static_cast<int>(i);
        edge.j = static_cast<int>(j);
        edge.weight = g.edge_weight(e);
        edge.elabel_bits = g.edge_label_bits(elabel_names, e);
        b.edges.push_back(edge);
      }
    }
  }
  return bags;
}

ChurnEngine::ChurnEngine(Graph g, dist::Query query, Options opts)
    : query_(std::move(query)),
      opts_(std::move(opts)),
      engine_(dist::universe_key(query_).cfg),
      net_(std::move(g), opts_.net) {
  std::tie(vlabels_, elabels_) = dist::bag_labels(query_, engine_.config());
  invalidate_caches();
}

ChurnEngine::~ChurnEngine() = default;

namespace {
metrics::Registry* registry_of(const congest::NetworkConfig& cfg) {
  return cfg.metrics != nullptr ? cfg.metrics : metrics::global();
}
void bump(const congest::NetworkConfig& cfg, const char* name) {
  if (metrics::Registry* r = registry_of(cfg)) r->counter(name).add(1);
}
/// Appends `more` to a one-line note ("a; b").
void add_note(std::string& note, const std::string& more) {
  if (more.empty()) return;
  note = note.empty() ? more : note + "; " + more;
}
}  // namespace

void ChurnEngine::invalidate_caches() {
  cache_.reset(net_.n());
  net_ids_.assign(net_.n(), -1);
}

StepOutcome ChurnEngine::solve(const dist::ElimTreeResult& tree,
                               const std::vector<dist::LocalBag>& bags) {
  StepOutcome out;
  out.verdict = dist::solve(net_, query_, tree, bags, &engine_, &cache_);
  out.run = out.verdict.run;
  out.folds = out.verdict.folds;
  out.rounds = out.run.rounds;
  out.status =
      out.run.ok() ? StepStatus::kRecomputed : StepStatus::kDegraded;
  if (!out.run.ok()) out.flight = net_.flight_recorder().dump_string();
  out.digest = digest_of(out.verdict);
  if (out.run.ok()) {
    // The refreshed cache is positional over bags ordered by these ids.
    net_ids_.assign(net_.n(), -1);
    for (int v = 0; v < net_.n(); ++v) net_ids_[v] = net_.id_of_vertex(v);
  }
  return out;
}

StepOutcome ChurnEngine::full_compute() {
  bump(opts_.net, "churn.full_recomputes");
  StepOutcome out;
  net_.reset();
  const dist::ElimTreeResult tree = dist::run_elim_tree(net_, opts_.d);
  out.run = tree.run;
  out.rounds = tree.rounds;
  if (!tree.run.ok()) {
    out.status = StepStatus::kDegraded;
    out.flight = net_.flight_recorder().dump_string();
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
  // Algorithm 2's tree is certified only when td(G) <= d: above that an
  // accepted tree can be invalid, and a valid one can be deeper (up to
  // 2^d - 1, Lemma 2.5) than the fold engine packs. Neither is folded (nor
  // kept to repair from): a structured degradation, never a wrong verdict
  // or a throw from the fold.
  std::string why = dist::tree_defect(graph(), tree.parent, opts_.d);
  if (!why.empty())
    why = "elimination tree rejected: " + why;
  else
    why = dist::too_deep(tree);
  if (!why.empty()) {
    out.status = StepStatus::kDegraded;
    out.note = std::move(why);
    tree_.reset();
    invalidate_caches();
    return out;
  }
  const dist::BagsResult bags = dist::run_bags(net_, tree, vlabels_, elabels_);
  out.run = bags.run;
  out.rounds += bags.rounds;
  if (!bags.run.ok()) {
    out.status = StepStatus::kDegraded;
    out.flight = net_.flight_recorder().dump_string();
    tree_.reset();
    invalidate_caches();
    return out;
  }
  invalidate_caches();  // fold-all: the seams refresh the caches on success
  StepOutcome solved = solve(tree, bags.bags);
  solved.rounds += out.rounds;
  if (!solved.run.ok()) {
    tree_.reset();
    return solved;  // status kDegraded from solve()
  }
  tree_ = tree;
  solved.status = StepStatus::kRecomputed;
  solved.refold_count = net_.n();
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
      congest::Network net(graph(), clean);
      oracle = dist::run(net, query_, budget);
    } catch (const std::runtime_error&) {
      // A larger budget can yield trees deeper than the packed atomic
      // representation supports (dist::too_deep), or a class universe past
      // the engine's type limit; the oracle is infeasible there, not
      // wrong. Anything else (a std::logic_error of the fold's or the
      // reassembler's delivery checks) is a bug and propagates.
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
  StepOutcome out = full_compute();
  if (!out.ok()) bump(opts_.net, "churn.degraded");
  verify_step(out);
  return out;
}

StepOutcome ChurnEngine::step(const std::vector<ChurnEvent>& batch) {
  bump(opts_.net, "churn.steps");
  std::vector<VertexId> old_to_new;
  EdgeDelta delta;
  // Throws on an invalid batch with the network's graph unchanged.
  Graph next = apply_batch(graph(), batch, &old_to_new, &delta);
  try {
    net_.reset(std::move(next));
    return resolve(old_to_new, delta);
  } catch (...) {
    // The graph is already the new one: a tree or cache of the old graph
    // must not reach the next epoch, which then recomputes from scratch.
    tree_.reset();
    invalidate_caches();
    throw;
  }
}

StepOutcome ChurnEngine::resolve(const std::vector<VertexId>& old_to_new,
                                 const EdgeDelta& delta) {
  if (!tree_.has_value()) {
    // Previous epoch left no tree (degraded or budget-exceeded): nothing
    // to repair against; full recompute on the mutated graph.
    StepOutcome out = full_compute();
    std::string note = "no tree from previous epoch: full recompute";
    add_note(note, out.note);
    out.note = std::move(note);
    if (!out.ok()) bump(opts_.net, "churn.degraded");
    verify_step(out);
    return out;
  }

  TreePatch patch = repair_tree(*tree_, graph(), old_to_new, delta, opts_.d);
  if (patch.kind != RepairKind::kFailed) {
    if (std::string why = dist::too_deep(patch.tree); !why.empty()) {
      patch.kind = RepairKind::kFailed;
      patch.reason = "repaired " + why;
    }
  }

  StepOutcome out;
  if (patch.kind == RepairKind::kFailed) {
    bump(opts_.net, "churn.repair_failures");
    out = full_compute();
    out.repair = RepairKind::kFailed;
    out.repair_failed = true;
    std::string note = patch.reason;
    add_note(note, out.note);
    out.note = std::move(note);
  } else {
    const int n = net_.n();
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

    // Cached tables are positional over bags ordered by network id; if the
    // id assignment moved for any surviving vertex (it is a permutation of
    // [0, n), so vertex churn reshuffles it wholesale), every cached table
    // is suspect — refold the lot.
    for (int v = 0; v < n; ++v)
      if (net_ids_[v] >= 0 && net_ids_[v] != net_.id_of_vertex(v)) {
        std::fill(refold.begin(), refold.end(), 1);
        break;
      }
    out.refold_count =
        static_cast<int>(std::count(refold.begin(), refold.end(), 1));

    // A replaying vertex never reads its bag: build the refold set's only.
    const std::vector<dist::LocalBag> bags =
        bags_for_tree(net_, patch.tree, vlabels_, elabels_, &refold);
    StepOutcome solved = solve(patch.tree, bags);
    solved.refold_count = out.refold_count;
    solved.repair = patch.kind;
    solved.region = patch.region;
    out = std::move(solved);
    if (out.run.ok()) {
      out.status = patch.kind == RepairKind::kRefold ? StepStatus::kRefolded
                                                     : StepStatus::kRebuilt;
      tree_ = std::move(patch.tree);
      bump(opts_.net, out.status == StepStatus::kRefolded ? "churn.refolds"
                                                          : "churn.rebuilds");
    } else {
      // Faults defeated the incremental solve; recover with a full
      // distributed recompute under the same fault plan.
      bump(opts_.net, "churn.fallbacks");
      const long incremental_rounds = out.rounds;
      StepOutcome full = full_compute();
      full.repair = patch.kind;
      full.region = patch.region;
      full.fallback_used = true;
      full.rounds += incremental_rounds;  // the failed attempt still cost
      out = std::move(full);
      // The repaired tree is still valid for the new graph.
      if (!out.ok()) tree_ = std::move(patch.tree);
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
    const ChurnEvent e = random_event(graph(), script.seed, random_cursor_++);
    outs.push_back(step({e}));
  }
  return outs;
}

}  // namespace dmc::churn
