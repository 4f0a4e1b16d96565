// Dynamic-programming folds over gluing plans: the computational content of
// Algorithm 1 in the paper (decision, optimization with OPT/ARGOPT tables,
// and counting; Lemmas 4.3, 4.6 and the counting extension of Section 6).
//
// The same folds serve the sequential algorithms (fold the global plan) and
// the distributed protocols (each node folds its local plan, with Input
// placeholders carrying the children's tables received as messages).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "bpt/engine.hpp"
#include "bpt/flat_map.hpp"
#include "bpt/plan.hpp"
#include "graph/graph.hpp"

namespace dmc::bpt {

/// Homomorphism class of the plan's root (decision problems: no free
/// slots). `inputs` supplies the class of each Input placeholder.
TypeId fold_type(Engine& engine, const Plan& plan, const Graph& g,
                 std::span<const TypeId> inputs = {});

namespace detail {

/// A node's per-class contributions in visit order, merged per class:
/// sorted by (class, visit order), each run folds into its first item
/// through T::merge(first, later). It merges whenever the buffer doubles
/// past its last merged size, so it holds O(classes) items however many
/// pairs a glue node visits; the buffer is reused from node to node. T has
/// fields `t` (the class) and `seq` (set here).
template <typename T>
class ClassAccumulator {
 public:
  void clear() {
    items_.clear();
    merged_ = 0;
    seq_ = 0;
  }
  void add(T item) {
    item.seq = seq_++;
    items_.push_back(item);
    if (items_.size() >= 2 * merged_ + 256) merge();
  }
  /// The merged items, ascending by class.
  const std::vector<T>& merged() {
    merge();
    return items_;
  }

 private:
  void merge() {
    std::sort(items_.begin(), items_.end(), [](const T& a, const T& b) {
      return a.t != b.t ? a.t < b.t : a.seq < b.seq;
    });
    auto out = items_.begin();
    for (auto it = items_.begin(); it != items_.end(); ++out) {
      *out = *it;
      for (++it; it != items_.end() && it->t == out->t; ++it)
        T::merge(*out, *it);
    }
    items_.erase(out, items_.end());
    merged_ = items_.size();
  }

  std::vector<T> items_;
  std::size_t merged_ = 0;
  std::uint32_t seq_ = 0;
};

}  // namespace detail

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

  /// One (class, weight, backpointer) a node's assignments reach; per
  /// class the first of maximum weight wins.
  struct Candidate {
    TypeId t;
    std::uint32_t seq;
    Weight w;
    Back back;
    static void merge(Candidate& first, const Candidate& later) {
      if (later.w > first.w) first = later;
    }
  };

  /// Per-node working storage, reused across one fold's nodes and freed
  /// with it: a solver outlives its fold (ARGOPT reconstruction), and the
  /// distributed protocol keeps one per vertex.
  struct Scratch {
    TracePairing pairing;
    detail::ClassAccumulator<Candidate> candidates;
  };

  void solve(int node, Scratch& scratch);
  Weight glue_overlap(const PlanNode& pn, TypeId left, TypeId right) const;

  Engine& engine_;
  const Plan& plan_;
  const Graph& g_;
  std::vector<OptTable> inputs_;
  std::vector<OptTable> tables_;                  // per plan node
  std::vector<FlatMap<TypeId, Back>> backs_;      // per plan node
};

// --- counting (any number of free slots) --------------------------------------

using CountTable = FlatMap<TypeId, std::uint64_t>;

/// COUNT table: per class, the number of assignments of the free slots with
/// that class (Section 6, counting). Throws on std::uint64_t overflow.
std::vector<CountTable> fold_count(Engine& engine, const Plan& plan,
                                   const Graph& g,
                                   std::vector<CountTable> input_tables = {});

/// Class of the plan root under a *fixed* assignment of one free slot
/// (vertex or edge set given by membership flags over the host graph's
/// ids). Used by the optmarked protocol (Section 6): the marked set's own
/// class is folded bottom-up alongside the OPT tables.
TypeId fold_assigned_type(Engine& engine, const Plan& plan, const Graph& g,
                          const std::vector<bool>& vertex_in,
                          const std::vector<bool>& edge_in,
                          std::span<const TypeId> inputs = {});

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
