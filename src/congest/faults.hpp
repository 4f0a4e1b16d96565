// Deterministic fault injection for the CONGEST simulator.
//
// A FaultPlan describes how the physical links and nodes misbehave:
// per-delivery message drop, duplication, bounded reordering (a frame may
// be delayed a few rounds and overtake later traffic), payload corruption
// (flagged, so the transport checksum can detect it — the simulator moves
// C++ values, so corruption cannot literally flip payload bits), and
// crash-stop node faults scheduled at explicit rounds.
//
// Every probabilistic decision is a pure hash of (seed, sender id,
// receiver id, physical round, purpose) — a counter-based RNG rather than
// a shared stream — so the injected fault pattern is a deterministic
// function of the plan and the traffic, independent of node step order and
// of how many other links carry messages (dmc-lint's nondeterminism rule
// stays fully satisfied: no wall clocks, no global RNG state).
//
// The injector only *decides* fates; the reliable transport that enacts
// them, and masks them from the protocols, lives in reliable.hpp. Injected
// faults surface as dmc::obs FaultEvents and NetworkStats fault counters,
// so traces show exactly what was injected. See docs/ROBUSTNESS.md.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.hpp"

namespace dmc::congest {

/// Crash-stop fault: `node` (a node *id*, not a graph vertex) stops
/// participating — no steps, no sends — from physical round `round` on.
/// Ids absent from a network (e.g. a sub-network run on an induced
/// component) are inert there.
struct CrashFault {
  VertexId node = -1;
  long round = 0;
};

struct FaultPlan {
  double drop = 0.0;       // P[delivery is dropped]
  double duplicate = 0.0;  // P[an extra copy of the frame is delivered later]
  double corrupt = 0.0;    // P[delivered frame arrives corruption-flagged]
  double reorder = 0.0;    // P[delivery is delayed by 1..reorder_max rounds]
  int reorder_max = 2;     // bound on the extra delay (>= 1 when reorder > 0)
  std::vector<CrashFault> crashes;
  std::uint64_t seed = 1;
  /// Hidden (never parsed from a CLI spec): `dmc-mc --self-check` plants a
  /// known ordering bug in the reliable transport's delivery handler — the
  /// piggybacked ack is processed and the frame accepted before the
  /// dup-suppression check rejects *stale* sequence numbers, so a delayed
  /// duplicate from an earlier virtual round can satisfy the current
  /// barrier without depositing the current payload. The model checker
  /// must find the interleaving that triggers it (see src/mc/ and
  /// docs/STATIC_ANALYSIS.md, "Model checking").
  bool mc_planted_ack_before_dup_check = false;

  bool has_link_faults() const {
    return drop > 0 || duplicate > 0 || corrupt > 0 || reorder > 0;
  }
  bool empty() const { return !has_link_faults() && crashes.empty(); }
};

/// Parses the CLI fault spec, a comma-separated key=value list:
///
///   drop=0.1,dup=0.05,corrupt=0.01,reorder=0.1,reorder_max=3,
///   crash=3@r20,seed=42
///
/// `dup`/`duplicate` are synonyms; `crash=ID@rROUND` may repeat. Throws
/// std::invalid_argument on unknown keys and on malformed or out-of-range
/// values.
FaultPlan parse_fault_plan(std::string_view spec);

/// Compact round-trippable rendering of a plan (diagnostics, traces).
std::string format_fault_plan(const FaultPlan& plan);

/// Per-delivery fate of one frame, decided by pure hashing.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  struct Fate {
    bool drop = false;
    bool corrupt = false;      // primary copy arrives corruption-flagged
    int delay = 0;             // extra rounds beyond the normal 1-round hop
    bool duplicate = false;    // a second copy is delivered too
    bool dup_corrupt = false;
    int dup_delay = 0;         // extra rounds for the duplicate copy
  };

  /// Fate of the frame sent src -> dst at physical round `round`. `salt`
  /// distinguishes multiple frames on one link in one round (retransmit
  /// copies never collide with the original's draw).
  Fate fate(VertexId src, VertexId dst, long round, std::uint64_t salt) const;

  const FaultPlan& plan() const { return plan_; }

 private:
  double u01(std::uint64_t purpose, VertexId src, VertexId dst, long round,
             std::uint64_t salt) const;

  FaultPlan plan_;
};

}  // namespace dmc::congest
