// dmc::obs — round-level tracing for the CONGEST simulator.
//
// The simulator's NetworkStats only aggregates totals; this subsystem
// exposes *where* rounds and bits go. A TraceSink receives three event
// streams from a traced Network:
//
//   - RunInfo / run_end markers bracketing every Network::run_outcome() call;
//   - one RoundEvent per executed round (message/bit deltas of that round
//     plus how many nodes were already done at its end);
//   - PhaseEvents forming properly nested named spans. Driver code opens
//     spans via Network::phase_begin/phase_end (or the PhaseScope RAII
//     helper); node programs emit sub-spans through NodeCtx::annotate,
//     which the network deduplicates (an annotation is a network-global
//     "current step" label — re-annotating the same name is free, a new
//     name closes the previous annotation span and opens a new one);
//   - one FaultEvent per injected fault when the network runs under a
//     fault plan (src/congest/faults.hpp), so a trace shows exactly which
//     message was dropped, duplicated, delayed, or corrupted and which
//     node crash-stopped, at which round.
//
// Tracing is strictly opt-in: with no sink configured the simulator skips
// every tracing branch and performs no allocation for it (enforced by
// tests/obs_trace_test.cpp on the disabled path).
//
// Concrete sinks: TraceBuffer (in-memory, queryable — buffer.hpp),
// JsonlExporter (streaming JSON lines — jsonl.hpp), ChromeTraceExporter
// (chrome://tracing / Perfetto flame view — chrome.hpp). summary.hpp
// reduces a TraceBuffer to per-phase round/bit totals.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace dmc::obs {

/// Metadata of one Network::run_outcome() call.
struct RunInfo {
  int n = 0;          // number of nodes
  int bandwidth = 0;  // bits per edge per round
  long first_round = 0;  // global index of the run's first round
};

/// Per-round deltas (stats are network-lifetime totals; events are deltas,
/// so summing a trace reproduces NetworkStats exactly).
struct RoundEvent {
  long round = 0;            // global round index (accumulates across runs)
  long messages = 0;         // messages sent during this round
  long long bits = 0;        // declared bits sent during this round
  int max_message_bits = 0;  // largest single message of this round
  int active_nodes = 0;      // nodes whose done() was false after the step
  int done_nodes = 0;
};

/// Begin/End of a named span. Spans are network-global and nest: the
/// network emits End events in LIFO order (annotation spans close before
/// their enclosing driver span).
struct PhaseEvent {
  enum class Kind : std::uint8_t { Begin, End };
  Kind kind = Kind::Begin;
  std::string name;  // span name; End repeats the name it closes
  long round = 0;    // first round covered (Begin) / first not covered (End)
  int depth = 0;     // nesting depth of the span (0 = outermost)
};

/// A coalesced stretch of quiescent rounds: the sparse scheduler's
/// empty-active-set fast-forward skipped `skipped_rounds` consecutive
/// rounds starting at `first_round` in one step. Nothing happened during
/// them — no messages, no bits, no node steps — so active/done counts are
/// constant across the whole stretch.
struct QuiescentEvent {
  long first_round = 0;    // global index of the first skipped round
  long skipped_rounds = 0; // how many rounds were fast-forwarded (>= 1)
  int active_nodes = 0;    // nodes not done, constant during the stretch
  int done_nodes = 0;
};

/// One injected fault (emitted only when the network runs under a fault
/// plan, see src/congest/faults.hpp). src/dst are node *ids* (not graph
/// vertices); Crash events carry the crashed node in src and dst = -1.
struct FaultEvent {
  enum class Kind : std::uint8_t { Drop, Duplicate, Corrupt, Delay, Crash };
  Kind kind = Kind::Drop;
  long round = 0;   // physical round the fault was injected at
  int src = -1;     // sender id (Crash: the crashed node's id)
  int dst = -1;     // receiver id (-1 for Crash)
  int detail = 0;   // Delay/Duplicate: extra delivery rounds; else 0
};

/// Stable lowercase name of a fault kind ("drop", "duplicate", ...).
const char* to_string(FaultEvent::Kind kind);

/// Event consumer interface. Implementations must tolerate events from
/// several consecutive runs on one network (round indices keep growing).
class TraceSink {
 public:
  virtual ~TraceSink();
  virtual void run_begin(const RunInfo&) {}
  virtual void round(const RoundEvent&) = 0;
  virtual void phase(const PhaseEvent&) = 0;
  /// Default no-op: sinks that predate fault injection ignore the stream.
  virtual void fault(const FaultEvent&) {}
  /// A coalesced quiescent stretch. The default expands it into the
  /// equivalent synthetic zero-delta round() calls, so sinks that predate
  /// coalescing (digest sinks, custom test sinks) observe a stream
  /// identical to dense stepping. Scale-aware sinks override this to store
  /// or emit the compact event instead — a d = 9 million-vertex run skips
  /// billions of rounds, which must not become billions of calls.
  virtual void quiescent(const QuiescentEvent& ev) {
    RoundEvent r;
    r.messages = 0;
    r.bits = 0;
    r.max_message_bits = 0;
    r.active_nodes = ev.active_nodes;
    r.done_nodes = ev.done_nodes;
    for (long i = 0; i < ev.skipped_rounds; ++i) {
      r.round = ev.first_round + i;
      round(r);
    }
  }
  virtual void run_end() {}
};

/// Fans events out to several sinks (e.g. an in-memory buffer for the
/// summary plus a file exporter). Does not own the sinks.
class TeeSink final : public TraceSink {
 public:
  TeeSink() = default;
  explicit TeeSink(std::vector<TraceSink*> sinks) : sinks_(std::move(sinks)) {}
  void add(TraceSink* sink) {
    if (sink != nullptr) sinks_.push_back(sink);
  }

  void run_begin(const RunInfo& info) override {
    for (auto* s : sinks_) s->run_begin(info);
  }
  void round(const RoundEvent& ev) override {
    for (auto* s : sinks_) s->round(ev);
  }
  void phase(const PhaseEvent& ev) override {
    for (auto* s : sinks_) s->phase(ev);
  }
  void fault(const FaultEvent& ev) override {
    for (auto* s : sinks_) s->fault(ev);
  }
  void quiescent(const QuiescentEvent& ev) override {
    for (auto* s : sinks_) s->quiescent(ev);
  }
  void run_end() override {
    for (auto* s : sinks_) s->run_end();
  }

 private:
  std::vector<TraceSink*> sinks_;
};

namespace detail {
/// Escapes a string for embedding in a JSON string literal (quotes,
/// backslashes, control characters).
std::string json_escape(std::string_view s);
}  // namespace detail

}  // namespace dmc::obs
