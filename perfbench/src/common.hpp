// Shared pieces of the benchmark program: run arguments, the result every
// workload returns, summary statistics, and the span tracer of the traced
// run.
//
// Every workload runs a fixed number of operations (never a time window)
// so that the CONGEST counts of a run repeat exactly for a given seed, and
// keeps warm-up and answer checks outside its timed region.
#pragma once

#include <chrono>
#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "congest/network.hpp"
#include "dist/bags.hpp"
#include "dist/elim_tree.hpp"
#include "graph/graph.hpp"
#include "metrics/metrics.hpp"

namespace perfbench {

/// Set-up is repeated this many times per run and setup_s is the median.
constexpr int kSetupReps = 5;

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;    // sizes the fixed operation count; never a deadline
  bool trace = false;  // traced run: per-layer metrics instead of e2e
  bool smoke = false;  // tiny inputs, for the benchmark's own tests
  std::string work_dir = ".";  // scratch space inside the checkout
  std::string spans_path;      // traced run: where to write its spans
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run reports. `metrics` is what the final JSON line
/// carries; `report` holds further lines printed above it (workload-only
/// layer metrics, answer-check notes).
struct RunResult {
  long attempted = 0;
  long failed = 0;   // threw, refused, degraded, or answered wrongly
  long checked = 0;  // answers compared with an independent answer
  std::vector<Metric> metrics;
  std::vector<Metric> report;
  std::vector<std::string> notes;
  std::string spans_jsonl;  // traced run: Tracer::to_jsonl()

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void extra(std::string name, double value, std::string unit) {
    report.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records one failed operation with its reason (kept to the first few).
  void fail(const std::string& why);
};

/// CONGEST cost of a run, summed over its timed operations.
struct Counts {
  long long rounds = 0;
  long long messages = 0;
  long long bits = 0;
  long long max_msg_bits = 0;
};

using SteadyClock = std::chrono::steady_clock;

inline double ms_since(SteadyClock::time_point t0) {
  return std::chrono::duration<double, std::milli>(SteadyClock::now() - t0)
      .count();
}

/// Quantile by linear interpolation between order statistics; q in [0, 1].
double quantile(std::vector<double> xs, double q);
inline double median(std::vector<double> xs) {
  return quantile(std::move(xs), 0.5);
}

double peak_rss_mb();

/// A fixed reference computation timed next to the operations: one BFS
/// over a fixed random graph of 50000 vertices (adjacency vectors), code
/// of the benchmark's own that no change to dmc can speed up. The
/// machine's speed on pointer-heavy code swings by up to 2x between runs
/// (other tenants share its cores and caches) while a plain ALU loop stays
/// within 1 %; an operation's latency over a reference sample taken next
/// to it cancels most of that swing. See README.md, "Steadiness".
class Reference {
 public:
  Reference();
  /// One timed BFS, in ms.
  double sample_ms();

 private:
  std::vector<std::vector<int>> adj_;
  std::vector<int> dist_, queue_;
};

/// What a workload's timed phase measured.
struct Timing {
  std::vector<double> setup_s;       // one entry per set-up repetition
  std::vector<double> latencies_ms;  // one entry per timed operation
  std::vector<double> relative;      // latency over its reference sample
  double timed_s = 0;                // wall time of the timed phase
};

/// The end-to-end metrics every workload reports, in BENCHMARK.json order,
/// plus the wall-clock ones as report lines. p90 is reported only where a
/// run has at least 100 operations.
void add_end_to_end(RunResult& r, const Timing& t, const Counts& counts);

/// Seeded generator for one workload: the same (seed, workload) gives the
/// same inputs.
std::mt19937_64 workload_rng(std::uint64_t seed, const std::string& workload);

/// Does g contain a triangle? Plain adjacency scan, independent of the
/// MSO engine and the protocols; an answer check for triangle-freeness.
bool has_triangle(const dmc::Graph& g);

/// Span tracer of the traced run. Spans are recorded from the benchmark's
/// own files around each layer call, kept in memory, and reduced when the
/// run ends. Single-threaded: spans nest strictly.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;  // index into spans(), -1 = top level
    int op = -1;      // operation id the span belongs to
  };

  /// RAII span: opens on construction under the innermost open span.
  class Scope {
   public:
    Scope(Tracer& t, std::string name, int op = -1);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Duration so far in milliseconds (the span stays open).
    double elapsed_ms() const;

   private:
    Tracer& t_;
    int index_;
  };

  const std::vector<Span>& spans() const { return spans_; }
  /// Self time of every span named `name`, in ms: its duration minus the
  /// part its child spans cover. One entry per span.
  std::vector<double> self_ms(const std::string& name) const;
  /// Duration of every span named `name`, in ms.
  std::vector<double> total_ms(const std::string& name) const;
  /// One JSON object per span and line: name, start_ns, end_ns (since the
  /// tracer was made), parent (line index, -1 = none) and op.
  std::string to_jsonl() const;

 private:
  std::int64_t now_ns() const;
  std::vector<Span> spans_;
  std::vector<int> open_;
  SteadyClock::time_point epoch_ = SteadyClock::now();
};

/// The graph, congest and dist metrics of BENCHMARK.json's per-layer list,
/// one entry per measured operation; add_layers() reports their medians.
struct Layers {
  std::vector<double> graph_build_ms, bytes_per_vertex, net_build_ms;
  std::vector<double> elim_ms, elim_messages, elim_ns_per_msg;
  std::vector<double> bags_ms, bags_bits, bags_ns_per_msg;
  std::vector<double> solve_ms;
};
void add_layers(RunResult& r, const Layers& layers);

/// Algorithm 2 and then the bags protocol (Lemma 5.3) on `net`, a span
/// each, with their times and traffic recorded in `layers`: the prologue
/// every distributed pipeline runs before its solve. Throws unless both
/// complete.
struct Prologue {
  dmc::dist::ElimTreeResult tree;
  dmc::dist::BagsResult bags;
};
Prologue run_prologue(Tracer& tracer, dmc::congest::Network& net, int d,
                      const std::vector<std::string>& vlabels,
                      const std::vector<std::string>& elabels, Layers& layers);

/// Installs a registry as the process-global one (metrics::global(), read
/// by the bpt engine, the par pool and every network without a registry of
/// its own) for the guard's lifetime.
class GlobalMetrics {
 public:
  explicit GlobalMetrics(dmc::metrics::Registry& reg) {
    dmc::metrics::set_global(&reg);
  }
  ~GlobalMetrics() { dmc::metrics::set_global(nullptr); }
  GlobalMetrics(const GlobalMetrics&) = delete;
  GlobalMetrics& operator=(const GlobalMetrics&) = delete;
};

/// The registry's bpt.* counters as the per-layer metrics every workload
/// reports: folds, ns per fold, hash-cons and compose-memo hit ratios over
/// the phase between two snapshots, and the universe size at its end. An
/// engine resolves its counter handles when it is constructed, so it
/// counts only if the registry was installed then.
struct BptSnapshot {
  long long folds = 0, fold_ns = 0, hc_hits = 0, hc_misses = 0;
  long long compose_calls = 0, memo_hits = 0, types = 0;
  static BptSnapshot take(dmc::metrics::Registry& reg);
};
void add_bpt_layer(RunResult& r, const BptSnapshot& before,
                   const BptSnapshot& after);

RunResult run_deeppath_decide(const RunArgs& args);
RunResult run_serve_mix(const RunArgs& args);
RunResult run_churn_edges(const RunArgs& args);

}  // namespace perfbench
