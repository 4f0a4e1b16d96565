// Protocol line parsing/assembly (see protocol.hpp): the wire shape only.
#include "serve/protocol.hpp"

#include "dist/query.hpp"

namespace dmc::serve {

namespace {

Request malformed(std::string id, std::string why) {
  Request r;
  r.kind = Request::Kind::kMalformed;
  r.id = std::move(id);
  r.error = std::move(why);
  return r;
}

}  // namespace

Request parse_request(const std::string& line) {
  const std::optional<Json> doc = json_parse(line);
  if (!doc) return malformed("", "not a JSON object line");
  if (!doc->is_object()) return malformed("", "request must be an object");
  const Json& j = *doc;
  std::string id = j["id"].is_string()
                       ? j["id"].as_string()
                       : (j["id"].is_number()
                              ? std::to_string(j["id"].as_int())
                              : std::string());

  const std::string verb = j["verb"].as_string();
  if (verb.empty()) return malformed(id, "missing verb");
  if (verb == "ping" || verb == "metrics" || verb == "shutdown") {
    Request r;
    r.kind = verb == "ping" ? Request::Kind::kPing
             : verb == "metrics" ? Request::Kind::kMetrics
                                 : Request::Kind::kShutdown;
    r.id = id;
    return r;
  }
  if (verb == "trace") {
    const std::string target = j["target"].as_string();
    if (target.empty()) return malformed(id, "trace needs target (query id)");
    Request r;
    r.kind = Request::Kind::kTrace;
    r.id = id;
    r.target = target;
    return r;
  }
  if (!dist::kind_of(verb))
    return malformed(id, "unknown verb '" + verb + "'");

  Query q;
  q.id = id;
  q.verb = verb;
  q.formula = j["formula"].as_string();
  if (q.formula.empty()) return malformed(id, "missing formula");
  q.family = j["family"].as_string();
  q.graph_dimacs = j["graph"].as_string();
  if (q.family.empty() == q.graph_dimacs.empty())
    return malformed(id, "need exactly one of family|graph");
  q.dist = static_cast<int>(j["dist"].as_int(0));
  if (q.dist <= 0) return malformed(id, "missing or non-positive dist");
  q.max_rounds = j["max_rounds"].as_int(0);
  if (q.max_rounds < 0) return malformed(id, "negative max_rounds");
  q.deadline_ms = j["deadline_ms"].as_int(0);
  if (q.deadline_ms < 0) return malformed(id, "negative deadline_ms");
  q.var = j["var"].as_string();
  q.sort = j["sort"].as_string();
  q.vars = j["vars"].as_string();

  Request r;
  r.kind = Request::Kind::kQuery;
  r.id = id;
  r.query = std::move(q);
  return r;
}

std::string to_line(const Query& q) {
  JsonObject o;
  if (!q.id.empty()) o["id"] = q.id;
  o["verb"] = q.verb;
  o["formula"] = q.formula;
  if (!q.family.empty()) o["family"] = q.family;
  if (!q.graph_dimacs.empty()) o["graph"] = q.graph_dimacs;
  o["dist"] = q.dist;
  if (q.max_rounds > 0) o["max_rounds"] = q.max_rounds;
  if (q.deadline_ms > 0) o["deadline_ms"] = q.deadline_ms;
  if (!q.var.empty()) o["var"] = q.var;
  if (!q.sort.empty()) o["sort"] = q.sort;
  if (!q.vars.empty()) o["vars"] = q.vars;
  return Json(std::move(o)).dump();
}

JsonObject response_base(const std::string& id, const std::string& status,
                         int code) {
  JsonObject o;
  if (!id.empty()) o["id"] = id;
  o["status"] = status;
  o["code"] = code;
  return o;
}

int status_exit_code(const std::string& status) {
  if (status == "ok" || status == "pong" || status == "shutting_down")
    return 0;
  if (status == "fails" || status == "infeasible" || status == "not_found")
    return 1;
  if (status == "treedepth") return 3;
  if (status == "error") return 4;
  if (status == "deadline" || status == "degraded") return kDeadlineExit;
  if (status == "crashed") return 7;
  if (status == "overloaded") return kOverloadedExit;
  return kMalformedExit;
}

}  // namespace dmc::serve
