// Query execution against the CONGEST pipelines (see exec.hpp).
#include "serve/exec.hpp"

#include <stdexcept>

#include "congest/network.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"

namespace dmc::serve {

namespace {

/// Response status of an outcome; degraded endings reuse the CLI's
/// structured codes (docs/ROBUSTNESS.md): round budget -> 6, crash-stop
/// -> 7.
const char* status_of(const dist::Outcome& out) {
  switch (out.exit_code()) {
    case 0: return "ok";
    case 1: return out.kind == dist::Kind::kDecision ? "fails" : "infeasible";
    case 3: return "treedepth";
    case 7: return "crashed";
    default: return "degraded";
  }
}

QueryResult finish(QueryResult r) {
  r.digest = dist::result_digest(r.result);
  return r;
}

}  // namespace

std::optional<Prepared> prepare(const Query& q, std::string& error) {
  Prepared p;
  p.q = q;
  try {
    const std::optional<dist::Kind> kind = dist::kind_of(q.verb);
    if (!kind) throw std::invalid_argument("unknown verb '" + q.verb + "'");
    const dist::Query parsed =
        dist::parse_query(*kind, q.formula, q.var, q.sort, q.vars);
    dist::UniverseKey key = dist::universe_key(parsed);
    p.kind = *kind;
    p.formula = parsed.formula;
    p.frees = parsed.frees;
    p.formula_text = std::move(key.formula_text);
    p.cfg = std::move(key.cfg);
  } catch (const std::exception& e) {
    error = e.what();
    return std::nullopt;
  }
  try {
    p.graph = q.family.empty() ? io::from_dimacs(q.graph_dimacs)
                               : gen::family(q.family);
  } catch (const std::exception& e) {
    error = std::string("graph: ") + e.what();
    return std::nullopt;
  }
  if (p.graph.num_vertices() <= 0) {
    error = "graph: empty";
    return std::nullopt;
  }
  return p;
}

QueryResult execute(const Prepared& p, bpt::Engine* engine) {
  try {
    congest::NetworkConfig cfg;
    if (p.q.max_rounds > 0)
      cfg.max_rounds = static_cast<int>(p.q.max_rounds);
    congest::Network net(p.graph, cfg);
    const dist::Outcome out =
        dist::run(net, {p.kind, p.formula, p.frees}, p.q.dist, engine);
    QueryResult r;
    r.code = out.exit_code();
    r.status = status_of(out);
    r.result = out.result;
    r.digest = out.digest;
    r.rounds = out.total_rounds();
    r.num_classes = out.num_classes;
    if (!out.run.ok()) {
      // Degraded outputs are untrusted: the canonical text names the code,
      // never a partial verdict. The flight recorder is serialized while
      // the Network still exists, so the caller can persist the
      // post-mortem.
      r.rounds = out.run.rounds;
      r.num_classes = 0;
      r.flight = net.flight_recorder().dump_string();
    } else if (out.best_weight) {
      r.witness = dist::selected_text(p.graph, out.vertices, out.edges);
    }
    return r;
  } catch (const std::exception& e) {
    QueryResult r;
    r.status = "error";
    r.code = 4;
    r.result = std::string("error: ") + e.what();
    return finish(std::move(r));
  }
}

QueryResult run_one_shot(const Query& q) {
  std::string error;
  const auto p = prepare(q, error);
  if (!p) {
    QueryResult r;
    r.status = "malformed";
    r.code = kMalformedExit;
    r.result = "malformed: " + error;
    return finish(std::move(r));
  }
  return execute(*p, nullptr);
}

}  // namespace dmc::serve
