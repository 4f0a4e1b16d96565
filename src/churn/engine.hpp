// Churn engine: epochs of graph mutation + incremental re-solving.
//
// Each step applies one churn batch, repairs the previous epoch's
// elimination tree coordinator-side (repair.hpp), rebuilds the canonical
// bags sequentially (Lemma 2.4: the bags are determined by the tree, so a
// repaired epoch spends zero distributed rounds on the prologue), and
// re-runs only the solve phase of the requested pipeline over a fresh
// network — with the dirty set's ancestor closure re-folded and every
// clean vertex replaying its cached table (dist::solve with a
// dist::FoldCache).
//
// Fault composition: the solve network inherits the caller's
// NetworkConfig, so the PR-3 fault plans (and the dmc-mc SchedulerHook)
// apply to every incremental epoch. A degraded incremental solve falls
// back to a full distributed recompute under the same faults; if that
// degrades too the step reports StepStatus::kDegraded — a structured
// outcome mirroring congest::RunOutcome, never a silently wrong verdict.
//
// Verification: with Options::verify each completed step re-solves from
// scratch on a clean (fault-free, serial) network with a fresh class
// universe and compares digests of the canonical result text
// (dist::Outcome::result) — witness sets and class ids legitimately vary
// with the tree shape and interning schedule and never enter it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bpt/engine.hpp"
#include "churn/repair.hpp"
#include "churn/script.hpp"
#include "congest/network.hpp"
#include "dist/elim_tree.hpp"
#include "dist/query.hpp"
#include "graph/graph.hpp"
#include "mso/ast.hpp"

namespace dmc::churn {

/// Adapters kept for the callers in perfbench/: the engine answers one
/// dist::Query across epochs, and a Query converts to it.
using Pipeline = dist::Kind;

struct Query {
  Pipeline pipeline = Pipeline::kDecision;
  mso::FormulaPtr formula;
  std::vector<std::pair<std::string, mso::Sort>> frees = {};
  bool minimize_marked = false;

  operator dist::Query() const {
    return {pipeline, formula, frees, minimize_marked};
  }
};

enum class StepStatus {
  kRefolded,    // tree repaired in place; partial refold only
  kRebuilt,     // bounded structural region re-eliminated; partial refold
  kRecomputed,  // full from-scratch distributed recompute (init, repair
                // failure, or fault fallback)
  kDegraded,    // faults defeated the incremental epoch AND the fallback
};

const char* to_string(StepStatus status);

struct StepOutcome {
  StepStatus status = StepStatus::kDegraded;
  /// Repair classification for this batch (meaningful for churn steps;
  /// kFailed on the init epoch by convention).
  RepairKind repair = RepairKind::kFailed;
  bool repair_failed = false;  // patch said kFailed -> full recompute
  bool fallback_used = false;  // incremental solve degraded -> full rerun
  bool verified = false;       // oracle comparison ran
  bool digest_ok = true;       // false => incremental verdict diverged
  std::uint64_t digest = 0;
  std::uint64_t oracle_digest = 0;
  long rounds = 0;        // distributed rounds this epoch spent
  long rounds_full = 0;   // rounds of the oracle run (0 when !verified)
  long folds = 0;         // BPT folds this epoch (dist::Outcome::folds)
  int refold_count = 0;   // vertices scheduled for refold (n on full)
  int region = 0;         // vertices re-placed by a structural rebuild
  /// The epoch's answer; its canonical result text is what the digests
  /// cover.
  dist::Outcome verdict;
  /// Outcome of the last network run of the epoch (the fallback's when
  /// fallback_used). Degraded steps carry the degraded outcome here.
  congest::RunOutcome run;
  /// Flight-recorder JSONL of the epoch's network, captured only when the
  /// epoch ends degraded — the CLI persists it under --flight-record.
  std::string flight;
  std::string note;  // one-line diagnostic (repair reason, budget drift)

  bool ok() const { return status != StepStatus::kDegraded; }
};

struct Options {
  /// Template for every solve network of the engine: fault plans, the
  /// dmc-mc SchedulerHook, trace sinks, metrics, and id_seed all carry
  /// over. Each epoch gets a *fresh* network (crash-stop state does not
  /// persist across epochs; fault plans are counter-based, so an epoch's
  /// faults are a pure function of its own rounds).
  congest::NetworkConfig net;
  int d = 3;  // treedepth budget (repair budget is 2^d - 1, as Alg. 2)
  bool verify = true;         // clean from-scratch oracle per step
  bool fallback_full = true;  // degraded incremental -> full retry
};

/// Coordinator-side mirror of the bags protocol (Lemma 5.3): bag of v =
/// its root path, members sorted by network id, edges = G[B] in (i, j)
/// order — bit-identical to what run_bags distributes, for zero rounds.
std::vector<dist::LocalBag> bags_for_tree(
    const congest::Network& net, const dist::ElimTreeResult& tree,
    const std::vector<std::string>& vlabel_names,
    const std::vector<std::string>& elabel_names);

class ChurnEngine {
 public:
  ChurnEngine(Graph g, dist::Query query, Options opts);
  ~ChurnEngine();

  /// Epoch 0: full distributed build (elim tree + bags + solve) under the
  /// configured faults. Must complete (or be re-run) before step().
  StepOutcome init();

  /// Applies one churn batch and re-solves incrementally. Throws
  /// std::invalid_argument on semantically invalid events (disconnecting
  /// deletions, out-of-range vertices) — the graph is left unchanged.
  StepOutcome step(const std::vector<ChurnEvent>& batch);

  /// init() + every scripted batch + `random_events` seeded single-event
  /// batches. Returns one outcome per epoch (index 0 = init).
  std::vector<StepOutcome> run(const ChurnScript& script);

  const Graph& graph() const { return graph_; }
  /// Current elimination tree; engaged only after a completed epoch.
  const std::optional<dist::ElimTreeResult>& tree() const { return tree_; }
  const dist::Query& query() const { return query_; }

 private:
  congest::NetworkConfig solve_config() const;
  void invalidate_caches();
  /// Full distributed recompute on the current graph under `cfg`; refreshes
  /// tree_ and the cache on success.
  StepOutcome full_compute(const congest::NetworkConfig& cfg);
  /// Solve phase over (tree, bags) on `net` (the cache is always supplied;
  /// a full recompute simply has every refold flag set).
  StepOutcome solve(congest::Network& net, const dist::ElimTreeResult& tree,
                    const std::vector<dist::LocalBag>& bags);
  void verify_step(StepOutcome& out);

  Graph graph_;
  dist::Query query_;
  Options opts_;
  bpt::Engine engine_;  // warm universe shared by every epoch
  std::vector<std::string> vlabels_, elabels_;
  std::optional<dist::ElimTreeResult> tree_;
  dist::FoldCache cache_;
  // Network id per graph vertex at the last cache-refreshing solve (-1 =
  // unknown / fresh vertex). Bags are ordered by network id and cached
  // tables are positional, so a reshuffled id assignment (any vertex
  // churn: Network ids are a permutation of [0, n)) silently invalidates
  // every cached table; step() refolds everything when ids moved.
  std::vector<int> net_ids_;
  int random_cursor_ = 0;  // distinct seeds across run() random events
};

}  // namespace dmc::churn
