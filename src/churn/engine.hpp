// Churn engine: epochs of graph mutation + incremental re-solving.
//
// Each step applies one churn batch, repairs the previous epoch's
// elimination tree coordinator-side from the batch's edge delta
// (repair.hpp), rebuilds the canonical bags sequentially (Lemma 2.4: the
// bags are determined by the tree, so a repaired epoch spends zero
// distributed rounds on the prologue), and re-runs only the solve phase of
// the requested pipeline — with the dirty set's ancestor closure re-folded
// and every clean vertex replaying its cached table (dist::solve with a
// dist::FoldCache).
//
// The engine keeps one congest::Network for its whole life, and graph()
// is that network's graph. A batch is applied to a copy of it
// (apply_batch), which the network then takes by move and re-derives its
// per-graph state from (Network::reset): each epoch runs on a network
// that behaves exactly like a freshly built one, without the graph copy
// and allocations of building one. Full recomputes and the fault fallback
// re-derive the same network too; only the verification oracle builds its
// own.
//
// The coordinator-side work of an epoch follows the refold closure too. A
// replaying vertex's table depends only on its subtree (Lemma 4.3, Thm
// 6.1), so it needs neither its bag nor its local bag graph: the engine
// builds bags, and dist::solve builds fold contexts and fold state, for
// the refold flags alone, and reuses the node plans of earlier epochs
// (dist::FoldCache). A replaying vertex costs one slot in the run's
// contiguous program array, the tree ports found in one pass over the
// incidence lists, and its verdict message; its allocations are none
// (an epoch allocates a fixed number of buffers plus per refolded
// vertex). What still costs O(n) per epoch is the n verdict messages of
// the fold's broadcast and tight array passes: the graph copy, the
// network's re-derived tables, and the repair's parent, depth and
// children arrays.
//
// A tree deeper than the fold engine's terminal limit (bpt::kMaxTerminals)
// is never folded: a repaired one counts as a failed repair, and if the
// full recompute's tree is too deep as well the epoch ends kDegraded with
// a note naming the depth and the limit.
//
// Fault composition: the network carries the caller's NetworkConfig, so
// fault plans (congest/faults.hpp) and the dmc-mc SchedulerHook apply to
// every incremental epoch. A degraded incremental solve falls back to a full
// distributed recompute under the same faults; if that degrades too the
// step reports StepStatus::kDegraded — a structured outcome mirroring
// congest::RunOutcome, never a silently wrong verdict.
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
  /// Configuration of the engine's network: fault plans, the dmc-mc
  /// SchedulerHook, trace sinks, metrics, and id_seed. Every epoch starts
  /// from a re-derived network (crash-stop state does not persist across
  /// epochs; fault plans are counter-based, so an epoch's faults are a
  /// pure function of its own rounds).
  congest::NetworkConfig net;
  int d = 3;  // treedepth budget (repair budget is 2^d - 1, as Alg. 2)
  bool verify = true;  // clean from-scratch oracle per step
};

/// Coordinator-side mirror of the bags protocol (Lemma 5.3): bag of v =
/// its root path, members sorted by network id, edges = G[B] in (i, j)
/// order — bit-identical to what run_bags distributes, for zero rounds.
/// With a `mask` (one flag per vertex) only the flagged vertices get their
/// bag and every other entry stays an empty LocalBag; without one, every
/// vertex gets its bag.
std::vector<dist::LocalBag> bags_for_tree(
    const congest::Network& net, const dist::ElimTreeResult& tree,
    const std::vector<std::string>& vlabel_names,
    const std::vector<std::string>& elabel_names,
    const std::vector<char>* mask = nullptr);

class ChurnEngine {
 public:
  ChurnEngine(Graph g, dist::Query query, Options opts);
  ~ChurnEngine();

  /// Epoch 0: full distributed build (elim tree + bags + solve) under the
  /// configured faults. Must complete (or be re-run) before step().
  StepOutcome init();

  /// Applies one churn batch and re-solves incrementally. Throws
  /// std::invalid_argument on semantically invalid events (disconnecting
  /// deletions, out-of-range vertices) — the graph is left unchanged. Any
  /// later throw (e.g. a count that overflows 64 bits) leaves the new
  /// graph with no tree and no cache, so the next step recomputes it from
  /// scratch.
  StepOutcome step(const std::vector<ChurnEvent>& batch);

  /// init() + every scripted batch + `random_events` seeded single-event
  /// batches. Returns one outcome per epoch (index 0 = init).
  std::vector<StepOutcome> run(const ChurnScript& script);

  const Graph& graph() const { return net_.graph(); }
  /// Current elimination tree; engaged only after a completed epoch.
  const std::optional<dist::ElimTreeResult>& tree() const { return tree_; }
  const dist::Query& query() const { return query_; }
  /// The fold cache carried across epochs: tables, refold flags and the
  /// node plans compiled so far.
  const dist::FoldCache& fold_cache() const { return cache_; }

 private:
  void invalidate_caches();
  /// Full distributed recompute on the current graph over a re-derived
  /// network; refreshes tree_ and the cache on success.
  StepOutcome full_compute();
  /// The epoch after the network moved to the batch's graph: repair the
  /// tree from the delta and refold, or recompute in full.
  StepOutcome resolve(const std::vector<VertexId>& old_to_new,
                      const EdgeDelta& delta);
  /// Solve phase over (tree, bags) on the network (the cache is always
  /// supplied; a full recompute simply has every refold flag set).
  StepOutcome solve(const dist::ElimTreeResult& tree,
                    const std::vector<dist::LocalBag>& bags);
  void verify_step(StepOutcome& out);

  dist::Query query_;
  Options opts_;
  bpt::Engine engine_;  // warm universe shared by every epoch
  congest::Network net_;
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
