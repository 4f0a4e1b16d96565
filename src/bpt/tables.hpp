// Dynamic-programming folds over gluing plans: the computational content of
// Algorithm 1 in the paper (decision, optimization with OPT/ARGOPT tables,
// and counting; Lemmas 4.3, 4.6 and the counting extension of Section 6).
//
// Two walks over a plan serve all of them. The class fold (fold_type) keeps
// one class per node: decision, and the class of a fixed assignment of one
// free slot (optmarked's marked set). The table fold keeps, per node, a
// table from class to value. Its node loop is written once; COUNT (counts
// multiply along pairs and add per class) and OPT (weights add along pairs
// and the first maximum wins per class, with ARGOPT backpointers) are two
// rule sets on it.
//
// The same folds serve the sequential algorithms (fold the global plan) and
// the distributed protocols (each node folds its local plan, with Input
// placeholders carrying the children's tables received as messages).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bpt/engine.hpp"
#include "bpt/flat_map.hpp"
#include "bpt/plan.hpp"
#include "graph/graph.hpp"

namespace dmc::bpt {

/// A fixed assignment of an engine's one free slot: membership flags over
/// the host graph's vertex ids (vertex-set slot) or edge ids (edge-set
/// slot). Ids past the end of a list are not members.
struct SlotMembership {
  std::vector<bool> vertices;
  std::vector<bool> edges;
};

/// Homomorphism class of the plan's root. Without `fixed` the engine must
/// have no free slots (decision problems); with it, exactly one, assigned
/// as `fixed` says. `inputs` supplies the class of each Input placeholder.
TypeId fold_type(Engine& engine, const Plan& plan, const Graph& g,
                 std::span<const TypeId> inputs = {},
                 const SlotMembership* fixed = nullptr);

// --- optimization (one free set slot) ----------------------------------------

/// OPT table of Definition 4.5: per homomorphism class, the max total weight
/// of an assignment of the free slot with that class (classes without
/// assignments are absent rather than -infinity). Stored as a sorted flat
/// vector — iteration order (ascending TypeId) matches the old std::map.
using OptTable = FlatMap<TypeId, Weight>;

/// Optimization fold with ARGOPT backpointers for solution reconstruction
/// (Lemma 4.6 / the top-down phase of Algorithm 1).
class OptSolver {
 public:
  /// Engine must have exactly one free slot. Inputs are the tables of Input
  /// placeholders in `plan`, by ordinal.
  OptSolver(Engine& engine, const Plan& plan, const Graph& g,
            std::vector<OptTable> input_tables = {});

  /// OPT table of a plan node (after construction, tables are final).
  const OptTable& table(int node) const { return tables_.at(node); }
  const OptTable& root_table() const { return tables_.at(plan_.root); }

  struct Solution {
    std::vector<bool> vertices;       // selected vertices (size n)
    std::vector<bool> edges;          // selected edges (size m)
    std::vector<TypeId> input_choices;  // chosen class per Input placeholder
  };

  /// Reconstructs an optimal assignment whose root class is `root_choice`
  /// (must be present in the root table). Elements introduced by Input
  /// placeholders are *not* marked here; their chosen classes are reported
  /// in `input_choices` (the distributed protocol forwards them down the
  /// tree, Algorithm 1 lines 11-26).
  Solution reconstruct(TypeId root_choice) const;

 private:
  struct Back {
    std::uint8_t slot_bits = 0;        // K1/K2: membership bits
    TypeId left = kInvalidType, right = kInvalidType;  // Glue
  };
  struct Rules;  // the OPT rules of the table fold (tables.cpp)

  Engine& engine_;
  const Plan& plan_;
  const Graph& g_;
  std::vector<OptTable> tables_;                  // per plan node
  std::vector<FlatMap<TypeId, Back>> backs_;      // per plan node
};

// --- counting (any number of free slots) --------------------------------------

using CountTable = FlatMap<TypeId, std::uint64_t>;

/// COUNT table: per class, the number of assignments of the free slots with
/// that class (Section 6, counting). Throws on std::uint64_t overflow.
std::vector<CountTable> fold_count(
    Engine& engine, const Plan& plan, const Graph& g,
    std::vector<CountTable> input_tables = {});

// --- Selected(c, W) (remark after Definition 4.1) ----------------------------

/// Vertices of the terminal list selected by slot `slot` in class `c`.
std::vector<VertexId> selected_vertices(const Engine& engine, TypeId c,
                                        const std::vector<VertexId>& terminals,
                                        int slot);

/// Edges (as host edge ids) among the terminals selected by edge-sort slot
/// `slot` in class `c`.
std::vector<EdgeId> selected_edges(const Engine& engine, const Graph& g,
                                   TypeId c,
                                   const std::vector<VertexId>& terminals,
                                   int slot);

/// Label bitmask of a vertex over the engine's vertex-label universe.
std::uint32_t vertex_label_bits(const Engine& engine, const Graph& g,
                                VertexId v);
std::uint32_t edge_label_bits(const Engine& engine, const Graph& g, EdgeId e);

}  // namespace dmc::bpt
