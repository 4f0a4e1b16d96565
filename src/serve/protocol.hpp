// dmcd line protocol: request/response model (spec in docs/SERVING.md).
//
// One JSON object per line in each direction. Query verbs are the served
// fold kinds (dist::kind_of); control verbs (ping, metrics, shutdown,
// trace) are answered inline by the server. `trace`
// takes a `target` field — the id of a recently answered query — and
// returns that query's span timeline (docs/OBSERVABILITY.md). Every response
// carries a `status` string and the `code` it would exit with as a
// one-shot dmc run — the daemon reuses the CLI's exit-code contract
// (docs/ROBUSTNESS.md) instead of inventing a second error taxonomy:
//
//   0 ok (holds / optimum / count)   4 internal error
//   1 fails / infeasible             6 deadline or round budget exhausted
//   2 malformed request              7 crash-stop degraded
//   3 treedepth budget exceeded      8 overloaded (admission rejected)
#pragma once

#include <optional>
#include <string>

#include "serve/json.hpp"

namespace dmc::serve {

/// Exit code of the `overloaded` backpressure response (the codes below 8
/// are the established CLI codes).
inline constexpr int kOverloadedExit = 8;
inline constexpr int kMalformedExit = 2;
inline constexpr int kDeadlineExit = 6;

/// One model-checking query, as wired on the protocol.
struct Query {
  std::string id;            // opaque client tag, echoed verbatim
  std::string verb;          // decide | maximize | minimize | count
  std::string formula;       // MSO source text
  std::string family;        // gen::family spec…
  std::string graph_dimacs;  // …or inline DIMACS text (exactly one)
  int dist = 0;              // treedepth budget (required, > 0)
  long long max_rounds = 0;  // optional per-query round budget (0 = default)
  std::string var;           // maximize/minimize: free variable…
  std::string sort;          // …and its sort, "vset" | "eset"
  std::string vars;          // count: "S:vset,T:eset" list
  long long deadline_ms = 0; // queue+run deadline (0 = none)
};

struct Request {
  enum class Kind { kQuery, kPing, kMetrics, kShutdown, kTrace, kMalformed };
  Kind kind = Kind::kMalformed;
  Query query;         // kQuery only
  std::string id;      // echoed for control/malformed responses too
  std::string target;  // kTrace: id of the past query to look up
  std::string error;   // kMalformed diagnostic
};

/// Parses one protocol line's wire shape; the query grammar is checked by
/// prepare() (exec.hpp). Never throws: anything unparsable or missing
/// required fields comes back kMalformed with a diagnostic.
Request parse_request(const std::string& line);

/// Serializes a query back to a protocol line (client side).
std::string to_line(const Query& q);

/// Response assembly: starts from the echoed id, status, and exit code;
/// callers add result fields before dump().
JsonObject response_base(const std::string& id, const std::string& status,
                         int code);

/// Maps a response's `status` string to its CLI exit code (client-side
/// --check mode); kMalformedExit for unknown statuses.
int status_exit_code(const std::string& status);

}  // namespace dmc::serve
