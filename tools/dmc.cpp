// dmc — command-line front end for the library.
//
//   dmc decide   --formula "<mso>" (--graph file.dimacs | --family NAME)
//                [--dist D] [--trace FILE[:jsonl|chrome]] [--audit]
//   dmc maximize --formula "<mso>" --var S --sort vset|eset (--graph ...)
//                [--dist D] [--trace ...] [--audit]
//   dmc minimize ... (same as maximize)
//   dmc count    --formula "<mso>" --vars S:vset[,T:vset...] (--graph ...)
//                [--dist D] [--trace ...] [--audit]
//   dmc treedepth (--graph ... | --family NAME)
//
// --graph reads the DIMACS-like format of src/graph/io.hpp from a file
// ("-" = stdin). --family builds a named generator instance, e.g.
// "path:12", "cycle:9", "grid:4x5", "star:8", "btd:20:3".
// Without --dist the sequential engine is used; with --dist D the full
// distributed pipeline runs in the CONGEST simulator with treedepth
// budget D, a per-phase round/bit summary is printed, and --trace
// additionally streams the round-level trace to FILE (jsonl by default;
// the :chrome suffix writes a chrome://tracing-loadable flame view, see
// docs/OBSERVABILITY.md).
// --audit (needs --dist) runs the model-conformance battery instead of a
// single execution: wire-format audit on every message plus determinism,
// order-obliviousness, and id-obliviousness dual runs (see
// docs/STATIC_ANALYSIS.md); exits 5 if any check diverges.
// --faults SPEC (needs --dist) injects deterministic link/node faults, e.g.
// "drop=0.1,dup=0.05,crash=3@r20,seed=42" (grammar in congest/faults.hpp),
// and layers the reliable transport under the protocols unless the spec
// says transport=raw. Degraded endings are structured, never silently
// wrong: exit 6 = round budget exhausted (diagnostic names the stalled
// phase), exit 7 = crash-stop faults occurred. See docs/ROBUSTNESS.md.
// --universe-cache DIR (needs --dist) persists the type universe under
// DIR ("auto" = $DMC_CACHE_DIR / $XDG_CACHE_HOME/dmc / ~/.cache/dmc) so
// repeated runs of the same formula skip universe construction.
// --churn SCRIPT (needs --dist) runs the query as a sequence of epochs
// under deterministic graph churn (grammar in churn/script.hpp, e.g.
// "add=0-5,del=2-3;random=8,seed=42"): after each mutation batch the
// elimination tree is repaired incrementally and only affected root-path
// BPT tables are re-folded, digest-checked per epoch against a
// from-scratch oracle unless the script says verify=off. Composes with
// --faults (crash/loss mid-repair degrades in a structured way and falls
// back to a full recompute). Exit 5 = incremental/oracle digest mismatch,
// exit 9 = at least one epoch ended repair-degraded. See
// docs/ROBUSTNESS.md "Churn and repair".
// --flight-record DIR (needs --dist) persists the network's always-on
// flight-recorder ring — the last ~512 trace/fault/phase events — to
// DIR/dmc-flight.jsonl whenever the run ends degraded (exit 5–9), so a
// crashed or stalled run leaves its last-events story behind without any
// tracing enabled. See docs/OBSERVABILITY.md "Flight recorder".
// --metrics FILE (needs --dist) installs the aggregate metrics registry
// (src/metrics) for the run — congestion histograms, transport counters,
// pool and engine statistics — and writes a Prometheus-text snapshot to
// FILE ("-" = stdout) when the run ends, tagged with the RunOutcome (so
// degraded runs still flush). The summary also prints a "metrics check"
// line asserting the counter totals equal NetworkStats (which the trace
// check in turn ties to the obs trace sums). --metrics-interval R
// additionally rewrites FILE every R simulated rounds, the
// textfile-collector pattern for watching long runs. Composes with
// --faults, --audit (snapshot only: the conformance battery runs several
// networks, so per-network reconciliation is skipped).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>

#include "bpt/universe_cache.hpp"
#include "churn/engine.hpp"
#include "churn/script.hpp"
#include "congest/conformance.hpp"
#include "congest/faults.hpp"
#include "congest/network.hpp"
#include "dist/query.hpp"
#include "metrics/metrics.hpp"
#include "mso/lower.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "mso/parser.hpp"
#include "obs/atomic_file.hpp"
#include "obs/buffer.hpp"
#include "obs/chrome.hpp"
#include "obs/jsonl.hpp"
#include "obs/summary.hpp"
#include "td/elimination_forest.hpp"

using namespace dmc;

namespace {

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg) std::fprintf(stderr, "error: %s\n", msg);
  std::fprintf(stderr,
               "usage: dmc <decide|maximize|minimize|count|treedepth>\n"
               "           [--formula STR] [--graph FILE|-] [--family SPEC]\n"
               "           [--var NAME --sort vset|eset] [--vars N:S,...]\n"
               "           [--dist D] [--trace FILE[:jsonl|chrome]] [--audit]\n"
               "           [--faults drop=P,dup=P,corrupt=P,reorder=P,"
               "crash=ID@rR,seed=N[,transport=raw]]\n"
               "           [--universe-cache DIR|auto]\n"
               "           [--sparse-flood]\n"
               "           [--metrics FILE|-] [--metrics-interval R]\n"
               "           [--flight-record DIR]\n"
               "           [--churn SCRIPT e.g. add=0-5,del=2-3;random=8,"
               "seed=42]\n");
  std::exit(2);
}

/// Strict integer parse: the whole token must be a number (std::stoi's
/// exceptions and trailing-garbage acceptance both turn into usage errors,
/// e.g. "--family path:abc" or "--family grid:4").
int parse_int(const std::string& token, const char* what) {
  std::size_t used = 0;
  int value = 0;
  try {
    value = std::stoi(token, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (token.empty() || used != token.size())
    usage((std::string(what) + " expects an integer, got '" + token + "'")
              .c_str());
  return value;
}

/// The family grammar lives in gen::family (shared with the dmcd serving
/// protocol); the CLI only maps its spec errors onto usage().
Graph family_graph(const std::string& spec) {
  try {
    return gen::family(spec);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }
}

mso::Sort parse_sort(const std::string& s) {
  if (s == "vset") return mso::Sort::VertexSet;
  if (s == "eset") return mso::Sort::EdgeSet;
  usage("--sort must be vset or eset");
}

struct Args {
  std::string command;
  std::map<std::string, std::string> options;

  bool has(const std::string& key) const { return options.count(key) > 0; }
  const std::string& get(const std::string& key) const {
    auto it = options.find(key);
    if (it == options.end()) usage(("missing --" + key).c_str());
    return it->second;
  }
};

Args parse_args(int argc, char** argv) {
  if (argc < 2) usage();
  Args args;
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) usage("options start with --");
    if (key == "--audit" || key == "--sparse-flood") {  // boolean flags
      args.options[key.substr(2)] = "1";
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    args.options[key.substr(2)] = argv[++i];
  }
  return args;
}

Graph load_graph(const Args& args) {
  if (args.has("family")) return family_graph(args.get("family"));
  const std::string& path = args.get("graph");
  if (path == "-") return io::read_dimacs(std::cin);
  std::ifstream in(path);
  if (!in) usage(("cannot open " + path).c_str());
  return io::read_dimacs(in);
}

std::optional<int> dist_budget(const Args& args) {
  if (!args.has("dist")) {
    if (args.has("trace")) usage("--trace requires --dist");
    if (args.has("audit")) usage("--audit requires --dist");
    if (args.has("faults")) usage("--faults requires --dist");
    if (args.has("universe-cache")) usage("--universe-cache requires --dist");
    if (args.has("metrics")) usage("--metrics requires --dist");
    if (args.has("churn")) usage("--churn requires --dist");
    if (args.has("sparse-flood")) usage("--sparse-flood requires --dist");
    if (args.has("flight-record")) usage("--flight-record requires --dist");
    return std::nullopt;
  }
  if (args.has("audit") && args.has("flight-record"))
    usage("--flight-record needs a single run; the audit battery runs "
          "several networks. Drop --audit");
  if (args.has("audit") && args.has("trace"))
    usage("--audit replaces the trace sink; drop --trace");
  if (args.has("audit") && args.has("faults"))
    usage("--audit runs the fault-free conformance battery; drop --faults");
  if (args.has("metrics-interval") && !args.has("metrics"))
    usage("--metrics-interval requires --metrics");
  if (args.has("churn")) {
    // The churn engine runs one network per epoch (plus oracle runs), so
    // single-run plumbing does not compose.
    if (args.has("audit")) usage("--audit does not compose with --churn");
    if (args.has("trace")) usage("--trace does not compose with --churn");
    if (args.has("universe-cache"))
      usage("--universe-cache does not compose with --churn "
            "(the engine keeps its own warm universe)");
    if (args.has("metrics-interval"))
      usage("--metrics-interval does not compose with --churn");
    if (args.has("sparse-flood"))
      usage("--sparse-flood does not compose with --churn "
            "(the engine repairs trees incrementally)");
  }
  return parse_int(args.get("dist"), "--dist");
}

/// --sparse-flood: change-only flooding in the elimination-tree prologue
/// (see dist::ElimTreeOptions::sparse_flood). Same tree, same rounds,
/// fewer messages; pairs with the sparse scheduler on huge instances.
dist::ElimTreeOptions tree_options(const Args& args) {
  dist::ElimTreeOptions opts;
  opts.sparse_flood = args.has("sparse-flood");
  return opts;
}

/// --universe-cache wiring. When active, owns the engine the distributed
/// run should use: warm-loaded from disk when a valid cache file exists,
/// freshly built (and saved back after the run) otherwise.
struct UniverseCache {
  std::optional<bpt::Engine> engine;
  std::string path;
  bool warm = false;

  bpt::Engine* get() { return engine ? &*engine : nullptr; }
  void save() {
    if (engine && !path.empty() && !warm)
      warm = bpt::save_universe_cache(*engine, path);
  }
};

UniverseCache make_universe_cache(const Args& args, const dist::Query& q) {
  UniverseCache uc;
  if (!args.has("universe-cache")) return uc;
  std::string dir = args.get("universe-cache");
  if (dir == "auto") dir = bpt::default_universe_cache_dir();
  const mso::FormulaPtr lowered = mso::lower(q.formula, q.frees);
  uc.engine.emplace(dist::engine_config(q));
  if (dir.empty()) return uc;  // no usable cache dir: run uncached
  uc.path =
      bpt::universe_cache_path(dir, mso::to_string(*lowered), uc.engine->config());
  uc.warm = bpt::load_universe_cache(*uc.engine, uc.path);
  return uc;
}

/// --metrics wiring: owns the registry for the whole run and installs it
/// as the process-global one, so every layer — the network (via the
/// NetworkConfig fallback), the par pool, the BPT engine, the universe
/// cache — records into it. Must be created before the engine/network
/// (they resolve their handles at construction); the destructor
/// uninstalls the global pointer before the registry dies.
struct MetricsSetup {
  metrics::Registry registry;
  std::string path;  // --metrics FILE; "-" = stdout
  int interval = 0;  // --metrics-interval R; 0 = final snapshot only

  MetricsSetup() { metrics::set_global(&registry); }
  ~MetricsSetup() { metrics::set_global(nullptr); }
  MetricsSetup(const MetricsSetup&) = delete;
  MetricsSetup& operator=(const MetricsSetup&) = delete;

  /// Writes the Prometheus-text snapshot, tagged with the run status
  /// ("running" for periodic dumps, the RunOutcome status — or "audit" —
  /// at the end). Rewrites the whole file each time: the periodic dump is
  /// the textfile-collector pattern, last snapshot wins. Publication is
  /// obs::write_file_atomic (temp+rename, the DMCU cache idiom): a
  /// concurrent scraper either sees the previous complete snapshot or the
  /// new one, never a torn file.
  void write_snapshot(const std::string& status) {
    std::ostringstream body;
    body << "# dmc metrics snapshot: run_status=" << status << "\n";
    registry.write_prometheus(body);
    if (path == "-") {
      std::fputs(body.str().c_str(), stdout);
      return;
    }
    std::string err;
    if (!obs::write_file_atomic(path, body.str(), &err))
      std::fprintf(stderr, "warning: cannot publish metrics file %s: %s\n",
                   path.c_str(), err.c_str());
  }
};

std::unique_ptr<MetricsSetup> make_metrics_setup(const Args& args) {
  if (!args.has("metrics")) return nullptr;
  auto ms = std::make_unique<MetricsSetup>();
  ms->path = args.get("metrics");
  if (ms->path.empty()) usage("--metrics needs a file name");
  if (args.has("metrics-interval")) {
    ms->interval = parse_int(args.get("metrics-interval"), "--metrics-interval");
    if (ms->interval <= 0) usage("--metrics-interval must be positive");
  }
  return ms;
}

/// Wires --metrics-interval into the network config (the network drives
/// the periodic rewrite off its simulated-round clock).
void apply_metrics_options(MetricsSetup* ms, congest::NetworkConfig& cfg) {
  if (ms == nullptr || ms->interval <= 0) return;
  cfg.metrics_interval = ms->interval;
  cfg.metrics_flush = [ms](long) { ms->write_snapshot("running"); };
}

/// Reconciliation assertion (the metrics twin of the trace check): the
/// registry's counter totals must exactly equal the NetworkStats counters
/// the simulator maintained independently — and the trace check already
/// ties NetworkStats to the obs round-event sums, closing the triangle.
void print_metrics_check(metrics::Registry& reg,
                         const congest::NetworkStats& s) {
  const bool ok =
      reg.counter("congest.rounds").value() == s.rounds &&
      reg.counter("congest.messages").value() == s.messages &&
      reg.counter("congest.bits").value() == s.total_bits &&
      reg.counter("transport.frames").value() == s.frames &&
      reg.counter("transport.frame_bits").value() == s.frame_bits &&
      reg.counter("transport.marker_frames").value() == s.marker_frames &&
      reg.counter("transport.retransmissions").value() == s.retransmissions;
  std::printf("metrics check: %s (registry: rounds=%lld messages=%lld "
              "bits=%lld frames=%lld)\n",
              ok ? "ok, counters == NetworkStats" : "MISMATCH",
              reg.counter("congest.rounds").value(),
              reg.counter("congest.messages").value(),
              reg.counter("congest.bits").value(),
              reg.counter("transport.frames").value());
}

/// End-of-run metrics flush for the non-audit dist paths: final snapshot
/// tagged with the RunOutcome status plus the reconciliation line.
/// Degraded runs flush too — that is the point of tagging.
void finish_metrics(MetricsSetup* ms, const congest::NetworkStats& stats,
                    const congest::RunOutcome& run) {
  if (ms == nullptr) return;
  ms->write_snapshot(congest::to_string(run.status));
  print_metrics_check(ms->registry, stats);
}

/// Wires --faults into the network config. Phase tracking is forced on so
/// degraded outcomes can name the stalled pipeline stage.
void apply_fault_options(const Args& args, congest::NetworkConfig& cfg) {
  if (!args.has("faults")) return;
  try {
    cfg.faults = congest::parse_fault_plan(args.get("faults"));
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }
  cfg.track_phases = true;
}

/// Degraded-run reporting: diagnostic to stderr (naming the stalled phase
/// and the crashed nodes) and the dedicated exit code — 6 for an exhausted
/// round budget, 7 for crash-stop faults.
int report_degraded(const congest::RunOutcome& run) {
  const std::string where = run.stalled_phase.empty()
                                ? std::string()
                                : " in phase " + run.stalled_phase;
  if (run.status == congest::RunStatus::kCrashed) {
    std::string nodes;
    for (VertexId v : run.crashed)
      nodes += (nodes.empty() ? "" : ",") + std::to_string(v);
    std::fprintf(stderr,
                 "degraded: %zu node(s) crash-stopped [%s]%s after %ld "
                 "rounds; outputs untrusted\n",
                 run.crashed.size(), nodes.c_str(), where.c_str(), run.rounds);
    return 7;
  }
  std::fprintf(stderr,
               "degraded: round budget exhausted%s after %ld rounds "
               "(%ld protocol steps); no verdict\n",
               where.c_str(), run.rounds, run.virtual_rounds);
  return 6;
}

/// --flight-record DIR: persists a degraded run's flight-recorder ring
/// (already serialized to JSONL) as DIR/dmc-flight.jsonl via temp+rename.
/// Only degraded endings (exit 5-9) dump — a healthy run leaves nothing.
void maybe_dump_flight(const Args& args, int rc, const std::string& jsonl) {
  if (rc < 5 || jsonl.empty() || !args.has("flight-record")) return;
  const std::string dir = args.get("flight-record");
  if (dir.empty()) usage("--flight-record needs a directory");
  const std::string path = dir + "/dmc-flight.jsonl";
  std::string err;
  if (!obs::write_file_atomic(path, jsonl, &err))
    std::fprintf(stderr, "warning: cannot write flight record %s: %s\n",
                 path.c_str(), err.c_str());
  else
    std::fprintf(stderr, "flight record: %s\n", path.c_str());
}

/// Transport/fault counters, printed after the per-phase summary whenever
/// fault injection was active.
void print_fault_summary(const congest::NetworkStats& s,
                         const congest::RunOutcome& run) {
  std::printf("transport: status=%s physical_rounds=%ld frames=%ld "
              "markers=%ld retransmits=%ld frame_bits=%lld\n",
              congest::to_string(run.status), s.rounds, s.frames,
              s.marker_frames, s.retransmissions,
              static_cast<long long>(s.frame_bits));
  std::printf("faults: dropped=%ld duplicated=%ld corrupted=%ld delayed=%ld "
              "crashes=%d\n",
              s.faults_dropped, s.faults_duplicated, s.faults_corrupted,
              s.faults_delayed, s.crashes);
}

/// --audit mode: runs the conformance battery (wire audit + determinism +
/// order-obliviousness + id-obliviousness dual runs) over the protocol the
/// command would have executed once, and prints the report. Verdicts must
/// be id-invariant on any graph; round counts are only id-invariant on
/// vertex-transitive graphs, so they are not compared across seeds here.
int run_audit_battery(const Graph& g, const audit::ProtocolRunner& runner) {
  audit::ConformanceOptions opts;
  opts.id_seeds = {1, 2, 3};
  opts.require_equal_rounds = false;
  const auto report = audit::check_conformance(g, {}, runner, opts);
  std::printf("%s", report.format().c_str());
  return report.ok() ? 0 : 5;
}

/// Trace wiring for the distributed commands: an in-memory buffer always
/// feeds the per-phase summary; --trace additionally streams to a file.
struct TraceSetup {
  obs::TraceBuffer buffer;
  std::ofstream file;  // destroyed after `exporter` flushes its trailer
  std::unique_ptr<obs::TraceSink> exporter;
  obs::TeeSink tee;

  obs::TraceSink* sink() { return &tee; }
};

std::unique_ptr<TraceSetup> make_trace_setup(const Args& args) {
  auto setup = std::make_unique<TraceSetup>();
  setup->tee.add(&setup->buffer);
  if (!args.has("trace")) return setup;
  std::string path = args.get("trace");
  std::string format = "jsonl";
  const auto colon = path.rfind(':');
  if (colon != std::string::npos) {
    const std::string suffix = path.substr(colon + 1);
    if (suffix == "jsonl" || suffix == "chrome") {
      format = suffix;
      path.resize(colon);
    } else if (suffix.find('/') == std::string::npos &&
               suffix.find('.') == std::string::npos) {
      usage(("unknown trace format '" + suffix + "' (jsonl|chrome)").c_str());
    }
  }
  if (path.empty()) usage("--trace needs a file name");
  setup->file.open(path);
  if (!setup->file) usage(("cannot open trace file " + path).c_str());
  if (format == "chrome")
    setup->exporter = std::make_unique<obs::ChromeTraceExporter>(setup->file);
  else
    setup->exporter = std::make_unique<obs::JsonlExporter>(setup->file);
  setup->tee.add(setup->exporter.get());
  return setup;
}

/// Prints the per-phase table and cross-checks it against NetworkStats
/// (the two are deltas vs totals of the same counters, so any mismatch is
/// a tracing bug; the obs tests enforce equality too).
void print_phase_summary(const obs::TraceBuffer& buffer,
                         const congest::NetworkStats& stats) {
  const obs::Summary summary = obs::summarize(buffer);
  std::printf("\nper-phase summary:\n%s", obs::format_summary(summary).c_str());
  const bool consistent = summary.total_rounds == stats.rounds &&
                          summary.total_messages == stats.messages &&
                          summary.total_bits == stats.total_bits &&
                          summary.balanced;
  std::printf("trace check: %s (NetworkStats: rounds=%ld messages=%ld "
              "bits=%lld max_msg=%d)\n",
              consistent ? "ok, totals == NetworkStats" : "MISMATCH",
              stats.rounds, stats.messages,
              static_cast<long long>(stats.total_bits),
              stats.max_message_bits);
}

/// --churn mode, shared by decide/maximize/minimize/count: each script
/// batch is an epoch — mutate, repair the elimination tree, re-fold only
/// the affected root-path tables, digest-check against a from-scratch
/// oracle. Per-epoch reporting plus the final epoch's verdict; exit 5 on
/// any incremental/oracle digest divergence, 9 if any epoch degraded.
int run_churn(const Args& args, Graph g, const dist::Query& query, int d) {
  churn::ChurnScript script;
  try {
    script = churn::parse_churn_script(args.get("churn"));
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }
  auto ms = make_metrics_setup(args);  // before any engine/network exists
  churn::Options opts;
  opts.d = d;
  opts.verify = script.verify;
  apply_fault_options(args, opts.net);
  churn::ChurnEngine engine(std::move(g), query, opts);
  const std::vector<churn::StepOutcome> outs = engine.run(script);
  bool degraded = false, mismatch = false;
  for (std::size_t i = 0; i < outs.size(); ++i) {
    const churn::StepOutcome& o = outs[i];
    // Epoch 0 and no-tree epochs recompute without attempting a repair.
    const bool repaired = o.status == churn::StepStatus::kRefolded ||
                          o.status == churn::StepStatus::kRebuilt ||
                          o.repair_failed || o.fallback_used;
    std::printf("epoch %zu: status=%s repair=%s rounds=%ld refold=%d "
                "folds=%ld digest=%016llx%s%s\n",
                i, churn::to_string(o.status),
                repaired ? churn::to_string(o.repair) : "-",
                o.rounds, o.refold_count, o.folds,
                static_cast<unsigned long long>(o.digest),
                o.verified ? (o.digest_ok ? " oracle=match" : " oracle=MISMATCH")
                           : " oracle=skipped",
                o.note.empty() ? "" : (" note=" + o.note).c_str());
    degraded = degraded || !o.ok();
    mismatch = mismatch || (o.verified && !o.digest_ok);
  }
  const churn::StepOutcome& last = outs.back();
  if (last.verdict.treedepth_exceeded) {
    std::printf("final: treedepth > %d\n", d);
  } else if (!last.ok()) {
    std::printf("final: degraded (%s); verdict untrusted\n",
                congest::to_string(last.run.status));
  } else {
    std::printf("final: %s\n", last.verdict.result.c_str());
  }
  if (ms) ms->write_snapshot(degraded ? "churn-degraded" : "churn-ok");
  // The flight ring of the most recent degraded epoch, if any — churn
  // runs one network per epoch, so the last degraded one tells the story.
  std::string flight;
  for (auto it = outs.rbegin(); it != outs.rend() && flight.empty(); ++it)
    flight = it->flight;
  if (mismatch) {
    std::fprintf(stderr, "error: incremental digest diverged from the "
                         "from-scratch oracle\n");
    maybe_dump_flight(args, 5, flight);
    return 5;
  }
  if (degraded) {
    std::fprintf(stderr, "degraded: at least one churn epoch could not be "
                         "repaired or re-solved; see per-epoch notes\n");
    maybe_dump_flight(args, 9, flight);
    return 9;
  }
  return 0;
}

/// The query a decide/maximize/minimize/count command line asks.
dist::Query parse_query(const Args& args, dist::Kind kind) {
  dist::Query q{kind, mso::parse(args.get("formula")), {}};
  if (kind == dist::Kind::kMaximize || kind == dist::Kind::kMinimize)
    q.frees = {{args.get("var"), parse_sort(args.get("sort"))}};
  if (kind == dist::Kind::kCount) {
    std::istringstream ss(args.get("vars"));
    std::string item;
    while (std::getline(ss, item, ',')) {
      const auto colon = item.find(':');
      if (colon == std::string::npos)
        usage("--vars needs NAME:vset|eset items");
      q.frees.emplace_back(item.substr(0, colon),
                           parse_sort(item.substr(colon + 1)));
    }
  }
  return q;
}

int cmd_query(const Args& args, dist::Kind kind) {
  const Graph g = load_graph(args);
  const dist::Query q = parse_query(args, kind);
  const auto d = dist_budget(args);
  if (!d) {
    const dist::Outcome out = dist::run_sequential(g, q);
    std::printf("%s\n", out.result.c_str());
    if (out.best_weight)
      std::printf("%s\n",
                  dist::selected_text(g, out.vertices, out.edges).c_str());
    return out.exit_code();
  }
  if (args.has("churn")) return run_churn(args, g, q, *d);
  auto ms = make_metrics_setup(args);  // before any engine/network exists
  if (args.has("audit")) {
    const int rc = run_audit_battery(g, [&](congest::Network& net) {
      const dist::Outcome out = dist::run(net, q, *d);
      return out.treedepth_exceeded ? std::string("treedepth exceeded")
                                    : out.result;
    });
    if (ms) ms->write_snapshot(rc == 0 ? "audit-ok" : "audit-failed");
    return rc;
  }
  auto trace = make_trace_setup(args);
  auto cache = make_universe_cache(args, q);
  congest::NetworkConfig cfg;
  cfg.sink = trace->sink();
  apply_fault_options(args, cfg);
  apply_metrics_options(ms.get(), cfg);
  congest::Network net(g, cfg);
  const dist::Outcome out =
      dist::run(net, q, *d, cache.get(), tree_options(args));
  cache.save();
  if (!out.run.ok()) {
    print_phase_summary(trace->buffer, net.stats());
    print_fault_summary(net.stats(), out.run);
    finish_metrics(ms.get(), net.stats(), out.run);
    const int rc = report_degraded(out.run);
    maybe_dump_flight(args, rc, net.flight_recorder().dump_string());
    return rc;
  }
  if (out.treedepth_exceeded) {
    std::printf(kind == dist::Kind::kDecision
                    ? "treedepth > %d (reported by Algorithm 2)\n"
                    : "treedepth > %d\n",
                *d);
    print_phase_summary(trace->buffer, net.stats());
    finish_metrics(ms.get(), net.stats(), out.run);
    return 3;
  }
  // Output formatting only: decide and count lead with their answer,
  // optimization prints answer and witness after the summaries.
  if (kind == dist::Kind::kDecision)
    std::printf("%s\nrounds=%ld classes=%zu class_bits<=%d\n",
                out.result.c_str(), out.total_rounds(), out.num_classes,
                out.max_class_bits);
  if (kind == dist::Kind::kCount)
    std::printf("%s rounds=%ld\n", out.result.c_str(), out.total_rounds());
  print_phase_summary(trace->buffer, net.stats());
  if (args.has("faults")) print_fault_summary(net.stats(), out.run);
  finish_metrics(ms.get(), net.stats(), out.run);
  if (kind == dist::Kind::kMaximize || kind == dist::Kind::kMinimize) {
    if (out.best_weight)
      std::printf("%s rounds=%ld\n%s\n", out.result.c_str(),
                  out.total_rounds(),
                  dist::selected_text(g, out.vertices, out.edges).c_str());
    else
      std::printf("%s\n", out.result.c_str());
  }
  return out.exit_code();
}

int cmd_treedepth(const Args& args) {
  if (args.has("trace")) usage("--trace requires --dist");
  const Graph g = load_graph(args);
  if (g.num_vertices() <= 20) {
    std::printf("treedepth=%d (exact)\n", exact_treedepth(g));
  } else {
    const auto forest = balanced_elimination_forest(g);
    std::printf("treedepth<=%d (balanced heuristic)\n", forest.depth());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    using dist::Kind;
    if (args.command == "decide") return cmd_query(args, Kind::kDecision);
    if (args.command == "maximize") return cmd_query(args, Kind::kMaximize);
    if (args.command == "minimize") return cmd_query(args, Kind::kMinimize);
    if (args.command == "count") return cmd_query(args, Kind::kCount);
    if (args.command == "treedepth") return cmd_treedepth(args);
    usage("unknown command");
  } catch (const congest::RoundLimitError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 6;
  } catch (const congest::CrashedError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 7;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 4;
  }
}
