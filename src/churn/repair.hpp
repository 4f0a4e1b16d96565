// Incremental elimination-tree repair (paper Lemma 2.2 / 2.5 locality).
//
// After a churn batch mutates the graph, the previous epoch's elimination
// tree is usually *almost* valid: an edge deletion never invalidates it
// (unless the edge was a tree edge), an edge insertion between an
// ancestor-descendant pair leaves it untouched, and a leaf vertex joining
// below its neighbors' common root path attaches in place. Only genuinely
// structural events — merges across branches, tree-edge loss, internal
// vertex departure — force a rebuild, and that rebuild is confined to the
// smallest anchored region containing the violations: the subtrees under
// the violations' LCA, re-eliminated against the same depth budget
// 2^d - 1 that Algorithm 2 honors, and re-attached to the deepest
// root-path ancestor each repaired component still has an edge to (so
// every tree edge stays a graph edge — the invariant the bags protocol's
// parent->child pipeline and the convergecasts rely on).
//
// The repair is driven by the batch's edge delta (churn::EdgeDelta, as
// apply_batch reports it): the old tree is valid for every unchanged edge,
// so only inserted edges, tree edges whose graph edge was deleted and the
// children of deleted vertices are checked, and the dirty set's edge rule
// marks subtrees from the delta. A structural rebuild is BalancedBuilder
// (td/elimination_forest.hpp) in subgraph mode: one low-link DFS per
// region component and tree level, so O(depth * (region + the degrees of
// its vertices)). What remains O(n + m) is a handful of array passes: the
// spliced parent array, the builder's vertex-indexed scratch, the depths,
// and the final check that the result is a single tree of the new graph
// within the budget.
//
// The patch also reports exactly which vertices' *fold contexts* changed —
// bag (root path) membership, bag-induced edges, or children arity — so
// the engine re-folds only the dirty set plus its root-path closure, as
// the recursive composition of Lemma 4.3 permits.
//
// Everything here is coordinator-side and deterministic; the distributed
// cost of a repaired epoch is only the solve phase re-run by engine.hpp.
#pragma once

#include <string>
#include <vector>

#include "churn/script.hpp"
#include "dist/elim_tree.hpp"
#include "graph/graph.hpp"

namespace dmc::churn {

enum class RepairKind {
  kRefold,      // tree shape intact: only fold contexts changed
  kStructural,  // a bounded region was re-eliminated and re-anchored
  kFailed,      // no within-budget repair found: caller must full-recompute
};

const char* to_string(RepairKind kind);

struct TreePatch {
  RepairKind kind = RepairKind::kFailed;
  std::string reason;  // one-line diagnostic when kind == kFailed
  /// Repaired tree over the *new* graph (success=true, rounds=0 — repair
  /// costs no distributed rounds). Meaningless when kind == kFailed.
  dist::ElimTreeResult tree;
  /// Per new-graph vertex: the fold context (bag, bag edges, or children)
  /// changed, so its cached class/table is stale. The refold set is this
  /// plus its ancestor closure (engine.hpp).
  std::vector<char> dirty;
  int region = 0;  // vertices re-placed by the structural rebuild
};

/// Repairs `old_tree` into a tree for `new_g`, where `old_to_new` maps old
/// vertices to new ids (-1 = deleted) and `delta` is the batch's net edge
/// change — exactly what churn::apply_batch produces. Requires new_g
/// connected and `old_tree` valid for the old graph with every tree edge a
/// graph edge (Algorithm 2's trees and this function's own results).
TreePatch repair_tree(const dist::ElimTreeResult& old_tree, const Graph& new_g,
                      const std::vector<VertexId>& old_to_new,
                      const EdgeDelta& delta, int d);

/// The same repair for a caller that holds both graphs: diffs them into
/// the delta (churn::edge_delta, O(n + m)) and calls the function above.
TreePatch repair_tree(const Graph& old_g,
                      const dist::ElimTreeResult& old_tree,
                      const Graph& new_g,
                      const std::vector<VertexId>& old_to_new, int d);

}  // namespace dmc::churn
