// One query front door for the four table folds (paper Theorem 6.1, §6).
//
// Decision, counting, optimization and optmarked are one bottom-up table
// computation over the elimination tree followed by one top-down answer.
// A Query names which table algebra runs; run() executes the whole
// pipeline — Algorithm 2 (elimination tree) -> Lemma 5.3 (bags) -> the
// table fold — and solve() only the fold, over a tree and bags the caller
// already has (the churn engine's seam).
//
// The fold (query.cpp) is one NodeProgram. Each node gathers its children's
// tables, replays a cached table or folds its own, and sends it up; the
// root computes the answer and sends it down, and every node forwards it to
// its children. Per kind only the algebra differs:
//
//   kind        table (up)              root rule               down
//   decide      class id                evaluate the class      verdict bit
//   count       COUNT table             sum accepting counts    total
//   maximize /  OPT table + ARGOPT      best accepting class    per-child
//   minimize                                                    class (ARGOPT)
//   optmarked   OPT table, marked       marked class accepting  verdict bits
//               class, marked weight    and of optimal weight
//
// Every Outcome carries a canonical result text — a pure function of the
// verdict, never of timing, thread count or engine warmth — and its
// FNV-1a digest, so answers from any caller (dmc, dmcd, the churn engine)
// compare as strings.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bpt/engine.hpp"
#include "congest/network.hpp"
#include "dist/bags.hpp"
#include "dist/elim_tree.hpp"
#include "graph/graph.hpp"
#include "mso/ast.hpp"

namespace dmc::dist {

enum class Kind { kDecision, kCount, kMaximize, kMinimize, kOptMarked };

/// The phase name a kind's fold runs under ("decide", "count", ...).
const char* phase_name(Kind kind);

struct Query {
  Kind kind = Kind::kDecision;
  mso::FormulaPtr formula;
  /// Free set variables in slot order: all of them for kCount, exactly one
  /// for kMaximize / kMinimize / kOptMarked, none for kDecision.
  std::vector<std::pair<std::string, mso::Sort>> frees = {};
  /// kOptMarked: check the "marked" set against the minimum, not the
  /// maximum.
  bool minimize_marked = false;
};

struct Outcome {
  Kind kind = Kind::kDecision;
  bool treedepth_exceeded = false;  // some node rejected in Algorithm 2
  /// decide: G |= phi. optmarked: the marked set satisfies phi.
  bool holds = false;
  std::uint64_t count = 0;  // count
  /// maximize / minimize / optmarked: the optimum over accepting classes;
  /// disengaged when no assignment satisfies the formula.
  std::optional<Weight> best_weight;
  /// maximize / minimize: the selected set, by graph vertex / edge.
  std::vector<bool> vertices;
  std::vector<bool> edges;
  bool is_optimal = false;  // optmarked: ... and has optimal weight
  Weight marked_weight = 0;  // optmarked

  long rounds_elim = 0, rounds_bags = 0, rounds_solve = 0;
  std::size_t num_classes = 0;  // |C| reached by the engine
  int max_class_bits = 0;       // decide: widest class message
  int max_table_entries = 0;    // maximize / minimize: largest OPT table
  /// Tables folded fresh instead of replayed from a FoldCache (= n on a
  /// full run). Only the cacheable kinds (decide, count) count them;
  /// optimize and optmarked fold every node and report 0.
  long folds = 0;
  /// How the pipeline ended. When !run.ok() every other field is
  /// untrusted.
  congest::RunOutcome run;

  std::string result;  // canonical verdict text
  std::string digest;  // result_digest(result)

  long total_rounds() const { return rounds_elim + rounds_bags + rounds_solve; }
  /// The dmc exit code of this outcome: 0 holds / feasible / counted,
  /// 1 fails / infeasible, 3 treedepth exceeded, 6 round budget
  /// exhausted, 7 crash-stop faults.
  int exit_code() const;
};

/// Incremental-refold state for the churn engine (src/churn/): per-vertex
/// tables carried across epochs. Vertices with `refold[v]` set fold fresh;
/// clean vertices replay `tables[v]` without a BPT fold and skip the
/// upward message unless their parent refolds. Sound because a subtree's
/// table depends only on its members' fold contexts (Lemma 4.3) — exactly
/// what churn::TreePatch::dirty tracks — and class ids stay stable within
/// one shared engine. Only decide and count read and refresh the cache:
/// optimize and optmarked re-derive ARGOPT choices top-down, which needs
/// every node's fresh solver.
struct FoldCache {
  std::vector<congest::Payload> tables;  // by graph vertex; empty = none
  std::vector<char> refold;      // by graph vertex; set = must fold

  /// Forgets every table: all n vertices fold.
  void reset(int n);
  /// Carries tables and refold flags across a renumbering; vertices
  /// without a preimage refold.
  void remap(const std::vector<VertexId>& old_to_new, int new_n);
};

/// The engine configuration (class universe) a query folds over.
bpt::EngineConfig engine_config(const Query& query);

/// Label sets the query's bags must carry: the engine config's labels,
/// plus the "marked" label on the solved sort for kOptMarked.
std::pair<std::vector<std::string>, std::vector<std::string>> bag_labels(
    const Query& query, const bpt::EngineConfig& cfg);

/// Runs the whole pipeline with treedepth budget d. `engine` non-null is
/// used (and filled) instead of a fresh one; its config must equal
/// engine_config(query). `tree_opts` tunes the elimination-tree prologue;
/// the answer is unaffected.
Outcome run(congest::Network& net, const Query& query, int d,
            bpt::Engine* engine = nullptr,
            const ElimTreeOptions& tree_opts = {});

/// The fold only, over an externally supplied elimination tree and bag set
/// (bags[v] for graph vertex v, carrying bag_labels(query, ...)). When
/// `cache` is non-null a cacheable kind takes its refold plan from it and,
/// on a completed run, refreshes it with every vertex's table (refold
/// flags cleared).
Outcome solve(congest::Network& net, const Query& query,
              const ElimTreeResult& tree, const std::vector<LocalBag>& bags,
              bpt::Engine* engine = nullptr, FoldCache* cache = nullptr);

/// The same query answered by the sequential engine (src/seq/), with the
/// same canonical result text. kOptMarked has no sequential solver and
/// throws std::invalid_argument.
Outcome run_sequential(const Graph& g, const Query& query);

/// Fills out.result and out.digest from the answer fields; `d` is the
/// budget a treedepth-exceeded answer names.
void describe(Outcome& out, int d);

/// Selected-set witness text, "selected: v1 v3 e2(1-2)": vertex ids
/// ascending, then edge ids ascending.
std::string selected_text(const Graph& g, const std::vector<bool>& vertices,
                          const std::vector<bool>& edges);

/// FNV-1a 64 over the canonical text, as a fixed-width hex string.
std::string result_digest(const std::string& canonical);

}  // namespace dmc::dist
