// Per-node local computation context for the bottom-up protocols
// (paper Lemma 4.3 / 4.6: a node needs only its bag, the graph induced by
// the bag, and its children's bags/classes).
//
// Types and gluing matrices are id-free: only the relative order of
// terminals matters, and all protocols order terminals by ascending global
// id. The local context therefore maps the bag (plus the children's ids)
// to dense local indices order-preservingly and compiles the node's plan
// (Eq. 1/2) against a small local graph holding exactly the bag's edges,
// weights and labels.
//
// A plan is a function of the bag's shape alone, so every vertex whose
// bag has the same shape shares one compiled plan through a PlanCache.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "bpt/plan.hpp"
#include "dist/bags.hpp"
#include "graph/graph.hpp"

namespace dmc::dist {

/// The node plans of one coordinator call (a fold run, a prover, a
/// verifier), one per distinct bag shape. build_node_plan reads the local
/// graph only through edge ids of bag pairs, and its terminals are local
/// indices, so the plan is fixed by the key, compared in full:
///   local vertex count; the bag in local indices; the local edges as
///   (u, v) pairs in id order (K2 nodes store edge ids); each child's
///   local index, in children order (Input i has bag ∪ {child i}).
/// Labels and weights are not in the key: folds read them from each
/// vertex's own local graph. Nodes share the immutable plans, not state.
class PlanCache {
 public:
  /// The plan of `bag_local` over `g`, with Input i standing for the
  /// child at local index `children_local[i]`. Compiled on first use of
  /// the shape; a shape whose plan cannot be built throws every time.
  std::shared_ptr<const bpt::Plan> plan_for(
      const Graph& g, const std::vector<VertexId>& bag_local,
      const std::vector<VertexId>& children_local);

  /// Distinct plans compiled so far.
  std::size_t size() const { return plans_.size(); }

 private:
  struct KeyHash {
    std::size_t operator()(const std::vector<int>& key) const;
  };
  std::unordered_map<std::vector<int>, std::shared_ptr<const bpt::Plan>,
                     KeyHash>
      plans_;
  std::vector<int> key_;  // lookup scratch
};

struct LocalContext {
  Graph graph;                      // local dense indices
  std::vector<VertexId> globals;    // local index -> global id (ascending)
  std::vector<VertexId> bag_local;  // the bag in local indices (ascending)
  // Input i = i-th child (children order); shared with every context whose
  // bag has the same shape (PlanCache).
  std::shared_ptr<const bpt::Plan> plan;

  int local_of(VertexId global_id) const;
};

/// Builds the context of one node: `bag` from the bags protocol,
/// `children_global_ids` from the elimination tree (child bag =
/// bag ∪ {child}, Lemma 2.4). Label names fix the bit order used in
/// LocalBag. The plan comes from `plans`.
LocalContext make_local_context(
    const LocalBag& bag, const std::vector<VertexId>& children_global_ids,
    const std::vector<std::string>& vlabel_names,
    const std::vector<std::string>& elabel_names, PlanCache& plans);

}  // namespace dmc::dist
