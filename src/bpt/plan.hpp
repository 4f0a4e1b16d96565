// Gluing plans: compiled w-terminal recursive constructions (paper
// Section 3, Eq. 1 and Eq. 2).
//
// A plan is a DAG of plan nodes, each denoting a w-terminal graph:
//   - K1: one terminal vertex of the host graph;
//   - K2: one edge with its two endpoints as terminals;
//   - Glue: composition f(left, right) under a gluing matrix;
//   - Input: a placeholder standing for an externally-supplied w-terminal
//     graph (used by the distributed protocols, where a node receives the
//     homomorphism classes of its children's subtrees as messages and
//     composes them locally).
//
// Every node has an ordered terminal list of concrete vertex ids
// (ascending). A bag's base graph G^base is itself compiled from K1/K2
// primitives, so type extensions never enumerate more than 2 vertices.
//
// Layout. A plan node owns no heap memory: it is a fixed record, and a
// plan is three flat arrays.
//   - nodes: children before parents, so one forward pass folds a plan.
//   - terminal_pool: every node's terminal list is the span
//     [first_terminal, first_terminal + num_terminals) of this pool. Each
//     decomposition node's bag enters the pool once; its K1 nodes, the
//     prefix glues of its base graph and its Eq. 1 / Eq. 2 glues are all
//     subspans of that copy. Only Input nodes (a child's bag) and K2 nodes
//     (an edge's two endpoints) add terminals of their own.
//   - ops: the plan's distinct gluing matrices; a Glue node names one by
//     index, so a hub's thousands of Eq. 1 / Eq. 2 glues share a handful.
// Terminal spans are valid until the pool grows. A builder that reads one
// span while appending to the pool must hold it by offset, not by pointer.
#pragma once

#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "bpt/gluing.hpp"
#include "graph/graph.hpp"
#include "td/tree_decomposition.hpp"

namespace dmc::bpt {

struct PlanNode {
  enum class Kind : std::uint8_t { K1, K2, Glue, Input };
  Kind kind = Kind::K1;
  VertexId v = -1;  // K1 vertex; K2 smaller endpoint
  VertexId w = -1;  // K2 larger endpoint
  EdgeId e = -1;    // K2 edge id in the host graph
  int input = -1;   // Input ordinal
  int left = -1, right = -1;  // Glue children (plan node indices)
  int op = -1;                // Glue matrix: index into Plan::ops
  std::uint32_t first_terminal = 0;  // terminals: a span of the pool
  std::uint32_t num_terminals = 0;
};
static_assert(std::is_trivially_copyable_v<PlanNode> && sizeof(PlanNode) <= 40,
              "a plan node is a flat record");

struct Plan {
  std::vector<PlanNode> nodes;
  std::vector<VertexId> terminal_pool;
  std::vector<GluingMatrix> ops;  // distinct, in first-use order
  int root = -1;
  int num_inputs = 0;

  const PlanNode& at(int i) const { return nodes.at(i); }
  /// Terminal list of a node, ascending vertex ids.
  std::span<const VertexId> terminals(const PlanNode& n) const {
    return {terminal_pool.data() + n.first_terminal, n.num_terminals};
  }
  std::span<const VertexId> terminals(int i) const { return terminals(at(i)); }
  /// Gluing matrix of Glue node i.
  const GluingMatrix& matrix(int i) const { return ops.at(at(i).op); }
};

/// Gluing matrix identifying equal ids: row per parent terminal, mapping to
/// its position in each child terminal list (-1 when absent).
GluingMatrix matrix_for(std::span<const VertexId> parent,
                        std::span<const VertexId> left,
                        std::span<const VertexId> right);

/// Plan for one decomposition node with Input placeholders for the children
/// (input i has terminals child_bags[i]); used by the distributed protocol.
/// Each child is glued with the bag's base graph G[bag] (Eq. 1) and the
/// results are chained with identity gluings (Eq. 2); without children the
/// plan is G[bag] alone. Bags are ascending vertex ids, nonempty.
Plan build_node_plan(const Graph& g, const std::vector<VertexId>& bag,
                     const std::vector<std::vector<VertexId>>& child_bags);

/// Plan for the whole graph along a (validated) rooted tree decomposition.
/// Multiple decomposition roots (disconnected graphs) are combined by
/// forgetting gluings. The final terminals are the first root's bag.
Plan build_global_plan(const Graph& g, const TreeDecomposition& td);

}  // namespace dmc::bpt
