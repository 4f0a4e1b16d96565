// Query execution against the CONGEST pipelines (see exec.hpp).
#include "serve/exec.hpp"

#include <stdexcept>

#include "congest/network.hpp"
#include "dist/query.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "mso/lower.hpp"
#include "mso/parser.hpp"

namespace dmc::serve {

namespace {

std::optional<mso::Sort> parse_sort(const std::string& s) {
  if (s == "vset") return mso::Sort::VertexSet;
  if (s == "eset") return mso::Sort::EdgeSet;
  return std::nullopt;
}

/// "S:vset,T:eset" -> slot list; nullopt on grammar errors.
std::optional<std::vector<std::pair<std::string, mso::Sort>>> parse_vars(
    const std::string& spec) {
  std::vector<std::pair<std::string, mso::Sort>> out;
  std::size_t start = 0;
  while (start <= spec.size()) {
    std::size_t end = spec.find(',', start);
    if (end == std::string::npos) end = spec.size();
    const std::string item = spec.substr(start, end - start);
    const auto colon = item.find(':');
    if (colon == std::string::npos || colon == 0) return std::nullopt;
    const auto sort = parse_sort(item.substr(colon + 1));
    if (!sort) return std::nullopt;
    out.emplace_back(item.substr(0, colon), *sort);
    start = end + 1;
    if (end == spec.size()) break;
  }
  if (out.empty()) return std::nullopt;
  return out;
}

std::optional<dist::Kind> kind_of(const std::string& verb) {
  if (verb == "decide") return dist::Kind::kDecision;
  if (verb == "count") return dist::Kind::kCount;
  if (verb == "maximize") return dist::Kind::kMaximize;
  if (verb == "minimize") return dist::Kind::kMinimize;
  return std::nullopt;
}

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
    p.formula = mso::parse(q.formula);
  } catch (const std::exception& e) {
    error = std::string("formula: ") + e.what();
    return std::nullopt;
  }
  if (q.verb == "maximize" || q.verb == "minimize") {
    const auto sort = parse_sort(q.sort);
    if (!sort) {
      error = "sort must be vset|eset";
      return std::nullopt;
    }
    p.frees = {{q.var, *sort}};
  } else if (q.verb == "count") {
    const auto vars = parse_vars(q.vars);
    if (!vars) {
      error = "vars must be NAME:vset|eset[,...]";
      return std::nullopt;
    }
    p.frees = *vars;
  }
  try {
    const mso::FormulaPtr lowered = mso::lower(p.formula, p.frees);
    p.formula_text = mso::to_string(*lowered);
    p.cfg = bpt::config_for(*lowered, p.frees);
  } catch (const std::exception& e) {
    error = std::string("lowering: ") + e.what();
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
    const std::optional<dist::Kind> kind = kind_of(p.q.verb);
    if (!kind) throw std::invalid_argument("unknown verb " + p.q.verb);
    congest::Network net(p.graph, cfg);
    const dist::Outcome out =
        dist::run(net, {*kind, p.formula, p.frees}, p.q.dist, engine);
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
