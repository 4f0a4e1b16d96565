// Exact (exponential-time) combinatorial oracles.
//
// These are the independent ground truths the test suite and benchmarks use
// to validate the MSO engine and the distributed protocols. They are written
// for clarity and correctness, not speed; intended for n up to ~25.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/graph.hpp"

namespace dmc::exact {

/// Does g contain h as a (not necessarily induced) subgraph?
bool contains_subgraph(const Graph& g, const Graph& h);

/// Does g contain h as an induced subgraph?
bool contains_induced_subgraph(const Graph& g, const Graph& h);

std::uint64_t count_triangles(const Graph& g);

/// Max total vertex weight of an independent set (weights may be negative;
/// the empty set is allowed, so the result is >= 0 only if weights allow).
Weight max_weight_independent_set(const Graph& g);

/// Min total vertex weight of a vertex cover.
Weight min_weight_vertex_cover(const Graph& g);

/// Min total vertex weight of a dominating set; nullopt if none exists
/// (cannot happen for nonempty graphs: V dominates).
Weight min_weight_dominating_set(const Graph& g);

bool is_k_colorable(const Graph& g, int k);
int chromatic_number(const Graph& g);

/// Number of independent sets (including the empty set); graphs of up to
/// 63 vertices (the count must fit 64 bits).
std::uint64_t count_independent_sets(const Graph& g);

/// Number of perfect matchings.
std::uint64_t count_perfect_matchings(const Graph& g);

/// Min total edge weight of a spanning tree; requires connectivity.
Weight min_weight_spanning_tree(const Graph& g);

}  // namespace dmc::exact
