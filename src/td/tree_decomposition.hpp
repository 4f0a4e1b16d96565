// Tree decompositions (paper Definition 2.3) and the canonical decomposition
// derived from an elimination forest (Lemma 2.4).
#pragma once

#include <vector>

#include "graph/graph.hpp"
#include "td/elimination_forest.hpp"

namespace dmc {

/// Rooted tree decomposition. Decomposition nodes are 0..num_nodes-1;
/// `parent[i] == -1` marks the root (decompositions of connected graphs have
/// exactly one root here).
struct TreeDecomposition {
  std::vector<int> parent;                  // tree structure over nodes
  std::vector<std::vector<VertexId>> bags;  // bag contents, sorted ascending

  int num_nodes() const { return static_cast<int>(bags.size()); }

  /// Max bag size minus one.
  int width() const;

  /// Children lists derived from `parent`.
  std::vector<std::vector<int>> children() const;

  /// Nodes in root-first (topological) order.
  std::vector<int> topological_order() const;

  /// Validates the three conditions of Definition 2.3 against g, plus
  /// structural sanity (parents in range and acyclic, sorted bags). One
  /// pass over the bags and one over the edges, with a binary search each.
  bool valid_for(const Graph& g) const;
};

/// Canonical tree decomposition of Lemma 2.4: one decomposition node per
/// vertex, bag B_v = root path of v; width = forest depth - 1.
/// Requires forest.valid_for(g).
TreeDecomposition canonical_tree_decomposition(const Graph& g,
                                               const EliminationForest& forest);

}  // namespace dmc
