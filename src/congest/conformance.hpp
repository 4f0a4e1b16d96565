// dmc::audit — model-conformance harness for CONGEST protocols.
//
// A protocol conforms to the CONGEST model only if its behavior is a
// function of the communication graph, the id assignment, and nothing
// else. Three properties are cheap to check dynamically and catch the
// standard simulation sins:
//
//   - determinism: running the identical configuration twice produces the
//     identical execution (catches rand()/time()/global mutable state —
//     any hidden stream advances between the runs);
//   - order-obliviousness: stepping the nodes in reverse order within each
//     round changes nothing (rounds are simultaneous in the model, so any
//     divergence means programs communicate outside the message channels);
//   - id-obliviousness: re-running under permuted node identifiers yields
//     the same *verdict* (and, for the protocols of this repo, the same
//     round count — see ConformanceOptions::require_equal_rounds).
//
// Executions are compared by fingerprint: the audit layer's rolling
// content digest (network.hpp: audit_digest — per-round, order-insensitive
// within a round so the reverse-order check is meaningful), the per-round
// trace digests collected by RoundDigestSink (reusing dmc::obs), and the
// NetworkStats totals. `dmc --audit` drives this harness from the CLI;
// tests/conformance_test.cpp drives it over every dist protocol.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "congest/network.hpp"
#include "obs/trace.hpp"

namespace dmc::audit {

/// TraceSink reducing the round/phase event streams to one digest per
/// round: a mix of the round's message count, declared bits, largest
/// message, done-node count, and the names/depths of the phase spans that
/// opened or closed at it. Two executions with equal digest sequences took
/// the same per-round communication shape through the same phase structure.
class RoundDigestSink final : public obs::TraceSink {
 public:
  void run_begin(const obs::RunInfo& info) override;
  void round(const obs::RoundEvent& ev) override;
  void phase(const obs::PhaseEvent& ev) override;
  void fault(const obs::FaultEvent& ev) override;

  const std::vector<std::uint64_t>& digests() const { return digests_; }

 private:
  std::vector<std::uint64_t> digests_;
  std::uint64_t pending_ = 0;  // phase events fold here until their round
};

/// Everything one execution is reduced to for comparison.
struct RunFingerprint {
  std::string verdict;           // protocol outcome, rendered by the runner
  long rounds = 0;               // NetworkStats::rounds
  long messages = 0;             // NetworkStats::messages
  long long declared_bits = 0;   // NetworkStats::total_bits
  long long encoded_bits = 0;    // NetworkStats::encoded_bits (audit)
  std::uint64_t content_digest = 0;           // Network::audit_digest()
  std::vector<std::uint64_t> round_digests;   // RoundDigestSink
};

/// Runs one protocol on a prepared network and renders its outcome as a
/// short string (the id-oblivious comparison currency, e.g. "holds=1").
/// The harness owns network construction; the runner must not keep state
/// across invocations.
using ProtocolRunner = std::function<std::string(congest::Network&)>;

struct ConformanceOptions {
  /// Extra id permutation seeds for the id-obliviousness runs (compared
  /// against the base config's own seed).
  std::vector<unsigned> id_seeds = {1, 2};
  /// Whether id permutations must preserve the exact round count (and the
  /// declared-bit volume / per-round digests with it). Provably true on
  /// vertex-transitive graphs such as cliques, where any id permutation is
  /// an automorphism; on asymmetric graphs the elimination-tree shape — and
  /// with it the round structure — legitimately depends on which node wins
  /// each min-id election, so set this false and only the verdict is
  /// compared across seeds.
  bool require_equal_rounds = true;
  /// Whether the reverse-step-order run must also reproduce the exact
  /// message content digest, declared bit volume, and per-round trace
  /// digests. Off by default: the dist protocols share one BPT interner
  /// across simulated nodes (sound — class ids are just names,
  /// Theorem 4.2), but interning order follows node step order, so
  /// reversal renames classes, re-encodes the same tables under different
  /// ids, and shifts the send-time num_types() the declared class widths
  /// are derived from. Verdict, round count, and message count are always
  /// compared. Turn this on for engine-free protocols (e.g. Algorithm 2's
  /// elimination tree), where the execution must be bit-identical either
  /// way.
  bool order_compare_content = false;
};

/// One observed difference between the baseline execution and a check run.
struct Divergence {
  std::string check;   // "determinism" | "order-obliviousness" | "id-obliviousness"
  std::string detail;  // which fingerprint field differed, with both values
};

struct ConformanceReport {
  RunFingerprint baseline;
  bool deterministic = false;
  bool order_oblivious = false;
  bool id_oblivious = false;
  std::vector<Divergence> divergences;

  bool ok() const { return deterministic && order_oblivious && id_oblivious; }
  /// Multi-line human-readable summary (one line per check + divergences).
  std::string format() const;
};

/// Runs the full battery: baseline, identical re-run, reverse step order,
/// and one run per extra id seed. Forces cfg.audit = true and replaces
/// cfg.sink with the harness's digest sink for every run. The runner is
/// invoked once per run on a freshly constructed network over `g`.
ConformanceReport check_conformance(const Graph& g,
                                    congest::NetworkConfig cfg,
                                    const ProtocolRunner& runner,
                                    const ConformanceOptions& options = {});

}  // namespace dmc::audit
