// Elimination forests (paper Definition 2.1) and treedepth utilities.
//
// An elimination forest of G is a rooted forest on V(G) such that every edge
// of G connects an ancestor-descendant pair. The treedepth td(G) is the
// minimum depth (counted in vertices: a single root has depth 1) of such a
// forest.
#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "graph/graph.hpp"

namespace dmc {

/// Rooted forest over the vertices of a graph.
class EliminationForest {
 public:
  EliminationForest() = default;

  /// `parent[v] == -1` marks roots. Throws if the parent pointers contain a
  /// cycle or reference invalid ids.
  explicit EliminationForest(std::vector<VertexId> parent);

  int num_vertices() const { return static_cast<int>(parent_.size()); }
  VertexId parent(VertexId v) const { return parent_.at(v); }
  const std::vector<VertexId>& parents() const { return parent_; }
  /// Depth of v, in vertices (roots have depth 1).
  int depth(VertexId v) const { return depth_.at(v); }
  /// Depth of the forest = max vertex depth.
  int depth() const;
  const std::vector<VertexId>& children(VertexId v) const {
    return children_.at(v);
  }
  std::vector<VertexId> roots() const;

  bool is_ancestor(VertexId anc, VertexId v) const;

  /// Strict+self ancestors of v from the root down to v (inclusive).
  /// This is exactly the canonical bag B_v of Lemma 2.4.
  std::vector<VertexId> root_path(VertexId v) const;

  /// True iff this forest is a valid elimination forest for g: same vertex
  /// count and every g-edge joins an ancestor-descendant pair.
  bool valid_for(const Graph& g) const;

  /// True iff additionally every tree edge {v, parent(v)} is an edge of g
  /// (the property Algorithm 2 guarantees, used by Lemma 2.5).
  bool is_subgraph_of(const Graph& g) const;

 private:
  std::vector<VertexId> parent_;
  std::vector<int> depth_;
  std::vector<std::vector<VertexId>> children_;
};

/// Exact treedepth via memoized recursion on vertex subsets (Lemma 2.2).
/// Requires g.num_vertices() <= 20 (throws otherwise).
int exact_treedepth(const Graph& g);

/// Exact treedepth together with an optimal elimination forest.
std::pair<int, EliminationForest> exact_treedepth_forest(const Graph& g);

/// The parent entry of a vertex BalancedBuilder has still to place.
inline constexpr VertexId kUnplaced = -2;

/// The balanced elimination builder. In each component of the unplaced
/// vertices it places the vertex minimizing the largest remaining
/// component (ties: smaller id) and recurses into what removing it leaves.
/// Free mode serves balanced_elimination_forest: depth O(log n) on paths
/// and trees (centroid decomposition). Subgraph mode serves churn repair:
/// a subtree root must be adjacent to its attachment point (tree edges are
/// CONGEST links) and no vertex may sit deeper than the depth budget; free
/// mode cannot take that constraint, it makes a path's tree linear-depth.
/// One iterative low-link DFS scores a whole component: removing r leaves
/// the DFS subtrees of r's children c with low[c] >= disc[r], plus the
/// rest. So a tree level costs O(n + m), a build O(depth * (n + m)).
class BalancedBuilder {
 public:
  /// Places the kUnplaced entries of `parent`; a `subgraph_budget`
  /// selects subgraph mode.
  BalancedBuilder(const Graph& g, std::vector<VertexId>& parent,
                  std::optional<long> subgraph_budget = std::nullopt);

  /// The unplaced component of the unplaced vertex `s`, in DFS order,
  /// valid until the next call.
  const std::vector<VertexId>& component(VertexId s);

  /// Places the unplaced component of `s` below `attach` (-1: as a root)
  /// at depth `attach_depth`. False iff subgraph mode finds no root
  /// adjacent to an attachment point or exceeds the budget.
  bool place(VertexId s, VertexId attach, int attach_depth);

 private:
  struct Node {     // one DFS vertex, by preorder index
    int up, low;    // DFS parent (-1 at the root), low-link
    int size;       // subtree size
    int split;      // vertices of the child subtrees its removal cuts off
    int split_max;  // the largest of those subtrees
    bool adjacent;  // a neighbor of the attachment point
  };
  struct Task {
    VertexId s, attach;
    int attach_depth;
  };

  /// Low-link DFS over the unplaced component of `s` into order_/nodes_.
  void scan(VertexId s, VertexId attach);

  const Graph& g_;
  std::vector<VertexId>& parent_;
  std::optional<long> budget_;
  std::vector<int> pos_;  // per vertex: preorder index + 1 during a scan
  std::vector<VertexId> order_;
  std::vector<Node> nodes_;
  std::vector<std::pair<int, int>> stack_;  // (preorder index, next port)
  std::vector<Task> tasks_;
};

/// BalancedBuilder in free mode over every component.
EliminationForest balanced_elimination_forest(const Graph& g);

/// Sequential mirror of the distributed Algorithm 2: greedily grows an
/// elimination tree that is a subtree of g, phase by phase. Returns nullopt
/// if the construction exceeds `max_depth` phases (which proves
/// td(g) > log2(max_depth+1), cf. Lemma 2.5). Requires g connected.
std::optional<EliminationForest> greedy_elimination_tree(const Graph& g,
                                                         int max_depth);

}  // namespace dmc
