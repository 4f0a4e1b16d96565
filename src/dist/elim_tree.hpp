// Distributed elimination-tree construction: the paper's Algorithm 2
// (Lemma 5.1).
//
// Given a treedepth budget d, the protocol runs D-1 = 2^d - 2 phases. Each
// phase performs a component-restricted leader election among unmarked
// nodes (min-id flooding for 2^d + 1 rounds — enough because graphs of
// treedepth <= d contain no path on 2^d vertices, Lemma 2.5), after which
// each unmarked node reports its component leader to its neighbors, and
// each marked node of the previous depth adopts, per component, the
// minimum-id reporter as its child. If any node is still unmarked after all
// phases, td(G) > d is reported (that node rejects).
//
// Total rounds: O(2^{2d}), independent of n — the quantity benchmarked in
// EXPERIMENTS.md E1.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "congest/network.hpp"

namespace dmc::dist {

/// Children of every vertex of a tree, as one CSR: the children of v are
/// kids[off[v] .. off[v + 1]).
struct TreeChildren {
  std::vector<int> off, kids;

  TreeChildren() = default;
  /// From a parent array, children ascending. Entries with parent < 0
  /// (roots, unplaced) are nobody's child.
  explicit TreeChildren(const std::vector<VertexId>& parent);
  std::span<const int> operator[](VertexId v) const {
    return {kids.data() + off[v], kids.data() + off[v + 1]};
  }
  const int* begin(VertexId v) const { return kids.data() + off[v]; }
  const int* end(VertexId v) const { return kids.data() + off[v + 1]; }
  int count(VertexId v) const { return off[v + 1] - off[v]; }
};

struct ElimTreeResult {
  bool success = false;  // false => some node rejected: td(G) > d
  /// Per graph vertex (not id): parent vertex (-1 for the root), depth
  /// (1-based), and children (graph vertices; Algorithm 2's trees list
  /// them in adoption order, which the fold's Input slots follow). Valid
  /// only on success.
  std::vector<int> parent;
  std::vector<int> depth;
  TreeChildren children;
  long rounds = 0;
  /// How the underlying run ended. When !run.ok() (round budget exhausted
  /// or crash-stop faults) the protocol outputs are untrusted: success is
  /// forced false and must not be read as "td(G) > d".
  congest::RunOutcome run;
};

struct ElimTreeOptions {
  /// Change-only flooding, tuned for the sparse scheduler
  /// (NetworkConfig::sparse_stepping): an unmarked node floods its
  /// component minimum only when it improves (plus the mandatory seed at
  /// each phase's step 0), marked nodes stop flooding entirely, and every
  /// node sleeps between its mandatory steps, waking on traffic or its
  /// next scheduled step. Min-flooding is monotone and idempotent, so the
  /// elected leaders — and hence the resulting tree and the round count —
  /// are identical to the dense schedule; only the message count drops.
  /// Off by default: the dense flood schedule is Algorithm 2's literal
  /// cost model and the E1/E12 baselines gate its exact message counts.
  bool sparse_flood = false;
};

/// Runs Algorithm 2 on the network. Stats accumulate in net.stats().
ElimTreeResult run_elim_tree(congest::Network& net, int d,
                             const ElimTreeOptions& opts = {});

/// The ports of every tree edge, found in one pass over the incidence
/// lists: parent[v] is v's port to its parent (-1 at a root), and
/// child[k] is the port of the tree edge to children.kids[k], so the child
/// ports of v are child[off[v] .. off[v + 1]), in children order. Throws
/// std::invalid_argument when a tree edge is not a graph edge.
struct TreePorts {
  std::vector<int> parent, child;

  TreePorts(const Graph& g, const std::vector<VertexId>& parent,
            const TreeChildren& children);
  std::span<const int> children_of(const TreeChildren& children,
                                   VertexId v) const {
    return {child.data() + children.off[v], child.data() + children.off[v + 1]};
  }
};

enum class TreeDefect { kNone, kCycle, kRoots, kEdges, kDepth };

/// Whether `parent` (per graph vertex, -1 for a root, every entry below
/// n; an entry below -1 answers kCycle) is a single elimination tree of
/// `g` within `budget` levels that is also a subgraph of g. Fills `depth`
/// (sized n, 1-based). O(n + m): one depth-first pass numbers the tree
/// (entry/exit times), then one pass over the edge list tests ancestry and
/// finds every tree edge among the edges.
TreeDefect validate_tree(const Graph& g, const std::vector<VertexId>& parent,
                         const TreeChildren& children, long budget,
                         std::vector<int>& depth);

/// Why `parent` is not a single elimination tree of `g` with every tree
/// edge a graph edge and depth at most 2^d - 1, or "" when it is one.
/// Algorithm 2 certifies its tree only when td(G) <= d; above that its
/// leader floods may not converge, so a tree it accepts can still fail
/// this check. dist::run and the churn engine check every tree they get.
std::string tree_defect(const Graph& g, const std::vector<VertexId>& parent,
                        int d);

/// Why the fold engine cannot fold over `tree`, or "" when it can: the bag
/// of a vertex at depth k has k terminals, and the engine packs at most
/// bpt::kMaxTerminals. Algorithm 2's tree may be up to 2^d - 1 deep, so
/// from d = 4 on a tree can pass tree_defect and still exceed the limit
/// (td(P12) = 4, yet its tree can be 15 deep). dist::run and the churn
/// engine check every tree they fold.
std::string too_deep(const ElimTreeResult& tree);

}  // namespace dmc::dist
