// H-freeness on bounded-expansion classes via low-treedepth decompositions
// (paper Theorem 7.2 + Corollary 7.3).
//
// Substitution note (see DESIGN.md): the generic O(log n)-round
// decomposition of [NesetrilM16] relies on transitive-fraternal
// augmentations whose full machinery is far beyond a reproduction of a
// brief announcement. We implement the decomposition *interface* with a
// provable explicit construction for the grid family used by the
// benchmarks: coloring a vertex at (row, col) with
// (row mod (p+1), col mod (p+1)) gives f(p) = (p+1)^2 parts such that any
// union of at most p parts misses a full row residue and a full column
// residue, hence splits into connected pieces confined to blocks of at
// most p x p vertices — treedepth <= p^2 (validated exactly by the tests).
// Coordinates are local inputs of the nodes (O(1) "rounds"); the paper's
// generic algorithm would spend O(log n) rounds here instead.
//
// Corollary 7.3 pipeline: for every p-subset I of parts, run the
// distributed H-freeness decision (Theorem 6.1) on each connected
// component of G[union of I] in parallel. We report both the max rounds
// over the parallel runs and the pessimistic "multiplexed" bound where all
// (f(p) choose p) runs share every edge's bandwidth.
#pragma once

#include <vector>

#include "congest/network.hpp"
#include "graph/graph.hpp"
#include "obs/trace.hpp"

namespace dmc::dist {

struct LowTdDecomposition {
  int p = 0;          // parameter (= |V(H)| for Corollary 7.3)
  int num_parts = 0;  // f(p)
  std::vector<int> part;  // per graph vertex
  long rounds = 0;        // CONGEST cost of computing the partition
};

/// Explicit low-treedepth decomposition for a rows x cols grid-like graph
/// whose vertex v sits at (v / cols, v % cols) (gen::grid / perturbed_grid
/// layout). Requires that every edge stays within one block neighborhood,
/// i.e. joins vertices at coordinate distance <= 1 in each axis (true for
/// grid and perturbed_grid).
LowTdDecomposition grid_low_td_decomposition(const Graph& g, int rows,
                                             int cols, int p);

struct HFreenessOutcome {
  bool h_free = true;
  long decomposition_rounds = 0;
  long max_run_rounds = 0;     // max rounds over the parallel decisions
  long multiplexed_rounds = 0; // max_run_rounds * number of subsets
  int num_subsets = 0;
  int num_component_runs = 0;
  /// Outcome of the first degraded per-component run (kCompleted when all
  /// runs finished cleanly). When !run.ok() the sweep stopped early and
  /// `h_free` is untrusted.
  congest::RunOutcome run;
};

/// Corollary 7.3 on a grid-family network: decides whether g contains h
/// (connected, |V(h)| = p) as a subgraph. `td_budget` is the treedepth
/// budget passed to Algorithm 2 for the per-union runs (the class constant;
/// p^2 always suffices for the grid decomposition, and the exact value for
/// p x p blocks is much smaller).
///
/// `sink` (optional) receives the traces of every per-component decision,
/// each wrapped in a "subset=I comp=C" span. The component networks are
/// independent, so their round indices restart at 0 per run — consume the
/// run_begin markers (or the spans) to tell the runs apart.
HFreenessOutcome run_h_freeness_grid(const Graph& g, int rows, int cols,
                                     const Graph& h, int td_budget,
                                     obs::TraceSink* sink = nullptr);

/// As above, but every per-component network is built from `base_cfg`
/// (id_seed, audit mode, step order, sink, ...) — the entry point the
/// conformance harness (congest/conformance.hpp) drives.
HFreenessOutcome run_h_freeness_grid(const Graph& g, int rows, int cols,
                                     const Graph& h, int td_budget,
                                     const congest::NetworkConfig& base_cfg);

}  // namespace dmc::dist
