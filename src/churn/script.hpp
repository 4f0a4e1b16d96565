// Deterministic churn scripts: scripted + seeded graph mutation events.
//
// A churn script is a sequence of *batches*; each batch is a set of edge /
// vertex insertions and deletions applied atomically between two protocol
// epochs, after which the engine (engine.hpp) repairs the elimination tree
// and re-folds only the affected root-path BPT tables. The grammar mirrors
// the fault-spec style of congest/faults.hpp: comma-separated key=value
// events, with `;` separating batches:
//
//   add=0-5,del=2-3;delv=7;addv=1+4;random=3,seed=42,verify=on
//
//   add=U-V     insert edge {U, V}
//   del=U-V     delete edge {U, V}
//   addv=N1+N2  insert a fresh vertex adjacent to N1, N2, ...
//   delv=W      delete vertex W (and its incident edges)
//   random=K    append K seeded single-event batches (engine-generated,
//               connectivity-preserving, counter-based RNG — pure hash of
//               (seed, batch, attempt), same discipline as FaultInjector)
//   seed=N      seed for the random events (default 1)
//   verify=on|off  digest-check every step against a from-scratch oracle
//                  run on a clean network (default on)
//
// Vertices are *graph vertices* of the current epoch's graph (dense ids;
// deletions renumber — scripted events always refer to the numbering left
// by the previous batch). Parsing throws std::invalid_argument with a
// one-line reason on malformed input; semantic validation (existence,
// connectivity) happens at apply time in engine.hpp.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "graph/graph.hpp"

namespace dmc::churn {

struct ChurnEvent {
  enum class Kind { kAddEdge, kDelEdge, kAddVertex, kDelVertex };
  Kind kind = Kind::kAddEdge;
  VertexId u = -1, v = -1;          // edge endpoints / delv target (u)
  std::vector<VertexId> neighbors;  // addv attachment points
};

struct ChurnScript {
  std::vector<std::vector<ChurnEvent>> batches;  // scripted batches, in order
  int random_events = 0;   // seeded single-event batches appended at the end
  std::uint64_t seed = 1;  // counter-based RNG seed for the random events
  bool verify = true;      // oracle digest check per step

  bool empty() const { return batches.empty() && random_events == 0; }
};

ChurnScript parse_churn_script(std::string_view spec);

/// Compact round-trippable rendering (diagnostics, traces).
std::string format_churn_script(const ChurnScript& script);

const char* to_string(ChurnEvent::Kind kind);

/// One-line human rendering of an event, e.g. "add=3-7" or "addv=1+4".
std::string format_event(const ChurnEvent& event);

/// Net edge change of one batch, as pairs {u, v} with u < v in new-graph
/// vertex ids, each list sorted. `inserted`: pairs that are edges after the
/// batch and were not before (every edge of a fresh vertex included).
/// `deleted`: pairs of vertices that survive the batch that were edges
/// before and are not after (edges that died with a vertex are not listed).
/// Adding and then deleting a pair in one batch, or the reverse, cancels.
struct EdgeDelta {
  std::vector<std::pair<VertexId, VertexId>> inserted;
  std::vector<std::pair<VertexId, VertexId>> deleted;

  bool operator==(const EdgeDelta&) const = default;
};

/// Applies one batch of events to a copy of `g`, returning the mutated
/// graph and the old->new vertex mapping (-1 for deleted vertices; identity
/// when no vertex is deleted) and, with a non-null `delta`, the batch's net
/// edge delta. Events apply in order against the evolving graph; a deleted
/// edge leaves the other edges' ids and ports in order (Graph::remove_edge).
/// Throws std::invalid_argument on semantically invalid events (unknown
/// vertices, duplicate/missing edges, self-loops) and on any event that
/// disconnects the graph (the CONGEST simulator requires connectivity);
/// `g` is never modified.
Graph apply_batch(const Graph& g, const std::vector<ChurnEvent>& batch,
                  std::vector<VertexId>* old_to_new,
                  EdgeDelta* delta = nullptr);

/// The edge delta between two graphs related by `old_to_new` (as
/// apply_batch reports it), found by diffing both edge lists: O(n + m).
EdgeDelta edge_delta(const Graph& old_g, const Graph& new_g,
                     const std::vector<VertexId>& old_to_new);

/// Generates the `index`-th seeded random event for the current graph — a
/// pure function of (seed, index) and the graph, independent of any global
/// state. Always returns a semantically valid, connectivity-preserving
/// event (falls back to an edge toggle on tiny graphs; throws only if the
/// graph has < 2 vertices).
ChurnEvent random_event(const Graph& g, std::uint64_t seed, int index);

}  // namespace dmc::churn
