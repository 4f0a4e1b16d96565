#include "dist/hfreeness.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "congest/network.hpp"
#include "dist/query.hpp"
#include "graph/algorithms.hpp"
#include "mso/formulas.hpp"
#include "mso/lower.hpp"

namespace dmc::dist {

LowTdDecomposition grid_low_td_decomposition(const Graph& g, int rows,
                                             int cols, int p) {
  if (rows * cols != g.num_vertices())
    throw std::invalid_argument("grid_low_td_decomposition: bad dimensions");
  if (p < 1) throw std::invalid_argument("grid_low_td_decomposition: p >= 1");
  const int m = p + 1;
  LowTdDecomposition out;
  out.p = p;
  out.num_parts = m * m;
  out.part.resize(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const int r = v / cols, c = v % cols;
    out.part[v] = (r % m) * m + (c % m);
    // Sanity: the decomposition argument needs axis-local edges.
  }
  for (const Edge& e : g.edges()) {
    const int ru = e.u / cols, cu = e.u % cols;
    const int rv = e.v / cols, cv = e.v % cols;
    if (std::abs(ru - rv) > 1 || std::abs(cu - cv) > 1)
      throw std::invalid_argument(
          "grid_low_td_decomposition: edge spans more than one cell");
  }
  out.rounds = 1;  // coordinates are local inputs; announcing takes O(1)
  return out;
}

HFreenessOutcome run_h_freeness_grid(const Graph& g, int rows, int cols,
                                     const Graph& h, int td_budget,
                                     obs::TraceSink* sink) {
  congest::NetworkConfig base_cfg;
  base_cfg.sink = sink;
  return run_h_freeness_grid(g, rows, cols, h, td_budget, base_cfg);
}

namespace {

/// What the sweep observed for one part-subset, in component order: the
/// subset stops at the first degraded or td-exceeded component.
struct SubsetResult {
  int component_runs = 0;
  long max_rounds = 0;
  bool h_free = true;
  bool td_exceeded = false;
  congest::RunOutcome run;  // first degraded component's outcome
};

SubsetResult run_subset(const Graph& g, int p, int td_budget,
                        const congest::NetworkConfig& base_cfg,
                        const LowTdDecomposition& decomp,
                        const std::vector<int>& subset, int subset_index,
                        const mso::FormulaPtr& formula, bpt::Engine& engine) {
  SubsetResult out;
  // Union of the chosen parts.
  std::vector<bool> chosen(decomp.num_parts, false);
  for (int i : subset) chosen[i] = true;
  std::vector<VertexId> members;
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    if (chosen[decomp.part[v]]) members.push_back(v);
  if (members.empty()) return out;
  const Graph gi = g.induced_subgraph(members);
  // Run the decision on each connected component (the components run
  // in parallel over disjoint vertex sets; rounds = max over them).
  const auto comp = connected_components(gi);
  const int num_comp =
      comp.empty() ? 0 : 1 + *std::max_element(comp.begin(), comp.end());
  for (int c = 0; c < num_comp; ++c) {
    std::vector<VertexId> cm;
    for (VertexId v = 0; v < gi.num_vertices(); ++v)
      if (comp[v] == c) cm.push_back(v);
    if (static_cast<int>(cm.size()) < p) continue;  // cannot contain H
    const Graph gc = gi.induced_subgraph(cm);
    congest::Network net(gc, base_cfg);
    ++out.component_runs;
    char span[48];
    std::snprintf(span, sizeof(span), "subset=%d comp=%d", subset_index, c);
    congest::PhaseScope trace_scope(net, span);
    const Outcome res =
        run(net, {Kind::kDecision, formula}, td_budget, &engine);
    out.max_rounds = std::max(out.max_rounds, res.total_rounds());
    if (!res.run.ok()) {
      out.run = res.run;
      return out;
    }
    if (res.treedepth_exceeded) {
      out.td_exceeded = true;
      return out;
    }
    if (!res.holds) out.h_free = false;
  }
  return out;
}

}  // namespace

HFreenessOutcome run_h_freeness_grid(const Graph& g, int rows, int cols,
                                     const Graph& h, int td_budget,
                                     const congest::NetworkConfig& base_cfg) {
  const int p = h.num_vertices();
  if (p < 1 || !is_connected(h))
    throw std::invalid_argument("run_h_freeness_grid: H must be connected");
  const LowTdDecomposition decomp = grid_low_td_decomposition(g, rows, cols, p);

  HFreenessOutcome out;
  out.decomposition_rounds = decomp.rounds;
  const mso::FormulaPtr formula = mso::lib::h_free(h);

  // Shared class universe across all runs (Theorem 4.2: computable from
  // (phi, w) alone).
  const mso::FormulaPtr lowered = mso::lower(formula);
  bpt::Engine engine(bpt::config_for(*lowered));

  // Enumerate p-subsets I of the parts (smaller unions are contained in
  // some p-subset union, so |I| = p suffices).
  std::vector<std::vector<int>> subsets;
  {
    std::vector<int> subset(std::min(p, decomp.num_parts));
    for (int i = 0; i < static_cast<int>(subset.size()); ++i) subset[i] = i;
    const int k = static_cast<int>(subset.size());
    for (;;) {
      subsets.push_back(subset);
      int i = k - 1;
      while (i >= 0 && subset[i] == decomp.num_parts - k + i) --i;
      if (i < 0) break;
      ++subset[i];
      for (int j = i + 1; j < k; ++j) subset[j] = subset[j - 1] + 1;
    }
  }

  // One sweep through the shared universe: memo hits carry across
  // subsets, and the sweep stops at the first degraded subset.
  for (std::size_t s = 0; s < subsets.size(); ++s) {
    const SubsetResult r =
        run_subset(g, p, td_budget, base_cfg, decomp, subsets[s],
                   static_cast<int>(s), formula, engine);
    ++out.num_subsets;
    out.num_component_runs += r.component_runs;
    out.max_run_rounds = std::max(out.max_run_rounds, r.max_rounds);
    if (!r.run.ok()) {
      out.run = r.run;
      break;
    }
    if (r.td_exceeded)
      throw std::logic_error(
          "run_h_freeness_grid: td budget too small for a union "
          "component (raise td_budget)");
    if (!r.h_free) out.h_free = false;
  }
  out.multiplexed_rounds = out.max_run_rounds * out.num_subsets;
  return out;
}

}  // namespace dmc::dist
