// Query execution: one parsed protocol Query -> one pipeline run.
//
// Splitting prepare() from execute() is what makes the scheduler's
// batching possible: prepare() derives the engine-sharing key — the
// printed lowered formula plus its EngineConfig, exactly the persistent
// universe-cache key — without running anything, so admission can group
// same-key queries before a worker picks the batch up.
//
// Results carry a *canonical result text* and its FNV-1a digest. The text
// is a pure function of the verdict (never of timing, batching, warmth,
// or thread count), so a query answered by the daemon must digest-match
// the same query run as a one-shot — the oracle-equality contract
// enforced by tests/serve_test.cpp. Optimization witnesses are therefore
// *excluded* from the canonical text: when several optimal solutions
// exist, reconstruction tie-breaks on engine class ids, which differ
// between a cold engine and a warm one that served other graphs first.
// The witness travels in the separate `witness` field — certificate data,
// where any optimal solution is a correct answer.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bpt/engine.hpp"
#include "graph/graph.hpp"
#include "mso/ast.hpp"
#include "serve/protocol.hpp"

namespace dmc::serve {

/// A validated query with its parsed formula, slot layout, engine config
/// (the batching key), and materialized input graph.
struct Prepared {
  Query q;
  mso::FormulaPtr formula;
  std::vector<std::pair<std::string, mso::Sort>> frees;
  std::string formula_text;  // printed lowered formula
  bpt::EngineConfig cfg;
  Graph graph;
};

/// Validates and prepares a query; nullopt with a diagnostic in `error`
/// on bad formulas, specs, sorts, or graphs. Never throws.
std::optional<Prepared> prepare(const Query& q, std::string& error);

struct QueryResult {
  std::string status;   // ok|fails|infeasible|treedepth|degraded|crashed|error
  int code = 0;         // CLI exit-code mapping (protocol.hpp)
  std::string result;   // canonical verdict text (digest input)
  std::string digest;   // fnv1a-64 hex of `result`
  std::string witness;  // optimization: selected solution (NOT digested)
  long rounds = 0;      // simulated rounds consumed
  std::size_t num_classes = 0;
  /// Flight-recorder JSONL of the query's network, captured only on
  /// degraded outcomes (codes 6/7) so a dmcd worker can dump the
  /// last-events story next to the degraded response. Empty otherwise —
  /// healthy responses never pay the serialization.
  std::string flight;
};

/// Runs the prepared query in the CONGEST simulator. `engine` non-null
/// injects a shared (possibly warm) universe; null builds a throwaway one
/// — verdict and digest are identical either way.
QueryResult execute(const Prepared& p, bpt::Engine* engine);

/// One-shot oracle: prepare + execute against a fresh engine, the exact
/// equivalent of a cold `dmc` CLI run of the same query.
QueryResult run_one_shot(const Query& q);

}  // namespace dmc::serve
